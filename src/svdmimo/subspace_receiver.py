"""Blind subspace-projection receiver and the conventional linear baseline.

The blind receiver computes the T_sel strongest left-singular directions of the
received block Y, projects Y onto that subspace, estimates the small projected
channel from the projected pilots by least squares, and equalizes the data. The
conventional baseline estimates the full R x T channel by least squares from
the pilot columns and applies maximum-ratio combining. Both return soft symbol
estimates; count_bit_errors decides each bit once, by its sign (Gray QPSK).
empirical_spectrum gives every eigenvalue of Y Y^H, from the same herk Gram side.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.blas import zherk

from .system_model import PilotConfig, integer_field


# Largest min(R, C) that signal_subspace sends to the dense Gram-side
# eigensolver; measured crossover, see its docstring.
_GRAM_MAX_DIM = 200


def signal_subspace(Y, T_sel) -> np.ndarray:
    """R x T_sel orthonormal basis S of the T_sel leading left-singular directions of Y.

    Two paths give the same subspace; the shape of Y picks one. Both find
    orthonormal eigenvectors V of the top T_sel eigenvalues of the smaller
    Gram matrix (Y Y^H if R <= C, else Y^H Y), and both read Y only through
    Y and its transpose view, never through a conjugate copy:

    * Gram side, when min(R, C) <= 200 or T_sel >= min(R, C) - 1: one herk
      on Y^T forms the lower triangle of the conjugate Gram matrix, and a
      dense subset ``eigh`` of it gives the conjugates of V.
    * Lanczos above that size (_lanczos), on the Gram operator applied as
      Y (Y^T v*)*, or (Y^T (Y v)*)* when R > C (* is the complex
      conjugate). It reorthogonalises fully, so V comes out orthonormal,
      stops as soon as the T_sel wanted Ritz pairs converge, and starts
      from a fixed vector, so identical inputs give identical bases.

    Then one Rayleigh-Ritz step, a thin SVD of V^H Y (T_sel x C) or of Y V
    (R x T_sel), makes S orthonormal to machine precision, also when Y is
    rank-deficient, and orders its columns by the energy of Y along them,
    strongest first. Last, each column of S is scaled by a unit phase that
    makes its largest-magnitude entry real and positive. The SVD would
    otherwise pick the phases from last-bit rounding, so they would change
    with the path, the BLAS build or the thread count; with this rule S is
    fixed wherever the singular values are distinct.

    The Gram side costs about min(R, C)^2 max(R, C) per call; Lanczos costs
    one Gram application, 2 min(R, C) max(R, C), per step, plus about 0.1 ms
    of reorthogonalisation and tridiagonal eigensolve. So the dense path
    wins on small blocks and Lanczos on large ones. Median time per call
    (range over 6 blocks, best of 5 calls each), single-threaded OpenBLAS on
    a shared 2-vCPU Xeon VM with numpy 2.4 and scipy 1.17, and Gram
    applications per block, on received blocks of the model (P = 0.1,
    W = 1; the C = 100 blocks with the Fig.-4 modulo profile, delta = 2,
    L = 6; the C = 1000 blocks with L = 2 cells at I = 0.05):

    ====================  ===================  ===================  ============
    block (R x C, T_sel)  Lanczos              Gram side            applications
    ====================  ===================  ===================  ============
    50 x 100, 5           4.3 ms (2.8-4.9)     0.5 ms (0.4-0.7)     33-36
    400 x 100, 5          3.9 ms (3.6-4.2)     1.7 ms (1.6-1.7)     31-34
    200 x 1000, 3         9.4 ms (9.1-9.5)     9.1 ms (9.0-9.1)     20-21
    225 x 1000, 3         10.6 ms (10.4-13.2)  11.6 ms (11.4-16.7)  21
    300 x 1000, 3         12.4 ms (12.0-13.2)  19.9 ms (19.8-20.0)  20-21
    ====================  ===================  ===================  ============

    On the Fig.-5 blocks (300 x 1000, T_sel = 3, L = 2 cells at I/P times
    P), measured the same way:

    ======  ===================  ============
    I/P     Lanczos              applications
    ======  ===================  ============
    0.1     10.8 ms (10.7-11.1)  17
    0.3     13.7 ms (12.1-14.0)  19-20
    0.5     12.4 ms (12.0-13.2)  20-21
    0.95    13.9 ms (13.1-14.5)  22-23
    ======  ===================  ============

    With a smaller eigengap Lanczos needs more steps and the crossover moves
    up: at T_sel = 5 on 200 x 1000 blocks Lanczos takes 16.9 ms (28-29
    applications) and the Gram side 13.0 ms, and on noise-only 300 x 1000
    blocks Lanczos takes 61 ms (88-94 applications) and the Gram side 20 ms.
    The crossover (_GRAM_MAX_DIM) is 200: at 200 x 1000 the two paths overlap
    with T_sel = 3 and the Gram side wins with T_sel = 5. Fig.-4 blocks
    (C = 100) take the Gram side, Fig.-5 blocks (300 x 1000) Lanczos.
    """
    Y = np.asarray(Y)
    R, C = Y.shape
    mn = min(R, C)
    T_sel = integer_field("T_sel", T_sel, 1)
    if T_sel > mn:
        raise ValueError(f"T_sel must be in [1, min(R, C)] = [1, {mn}]")
    if mn > _GRAM_MAX_DIM and T_sel < mn - 1:
        if R <= C:
            def gram(v):          # Y Y^H v
                return Y @ (Y.T @ v.conj()).conj()
        else:
            def gram(v):          # Y^H Y v
                return (Y.T @ (Y @ v).conj()).conj()
        V = _lanczos(gram, mn, T_sel)
    else:
        V = eigh(_gram_lower(Y), lower=True, overwrite_a=True, check_finite=False,
                 subset_by_index=[mn - T_sel, mn - 1])[1].conj()
    if R <= C:
        S = V @ np.linalg.svd(V.conj().T @ Y, full_matrices=False)[0]
    else:
        S = np.linalg.svd(Y @ V, full_matrices=False)[0]
    peak = S[np.argmax(np.abs(S), axis=0), np.arange(T_sel)]
    S *= peak.conj() / np.abs(peak)
    return S


def _gram_lower(Y):
    """Lower triangle of the conjugate of the smaller Gram matrix of Y:
    conj(Y Y^H) if R <= C, else conj(Y^H Y); the upper triangle is not set.

    One herk on Y^T, which reads Y through its transpose view, never through
    a conjugate copy. The conjugate has the eigenvalues of the Gram matrix,
    and the conjugates of its eigenvectors.
    """
    R, C = Y.shape
    return zherk(1.0, Y.T, trans=2 if R <= C else 0, lower=1)


def empirical_spectrum(Y, T) -> np.ndarray:
    """All R eigenvalues of Y Y^H/(T*R), the axis of the support estimates,
    non-negative, descending.

    Computed on the smaller Gram side, formed as in signal_subspace; for
    R > C the trailing R - C entries are exact zeros (rank bound).
    """
    T = integer_field("T", T, 1)
    Y = np.asarray(Y)
    R, C = Y.shape
    ev = np.clip(np.linalg.eigvalsh(_gram_lower(Y), UPLO="L"), 0.0, None)[::-1]
    return np.concatenate([ev, np.zeros(max(R - C, 0))]) / (T * R)


def _orthogonalise(Q, w):
    """w minus its components along the orthonormal rows of Q, in place, and
    its norm: classical Gram-Schmidt, repeated while a pass shrinks w below
    1/sqrt(2) of its norm, since the rounding error a pass leaves is relative
    to the norm before it."""
    norm = np.linalg.norm(w)
    while True:
        w -= (Q @ w.conj()).conj() @ Q
        before, norm = norm, np.linalg.norm(w)
        if norm > before / np.sqrt(2) or norm == 0:
            return w, norm


def _lanczos(gram, n, k):
    """n x k orthonormal Ritz vectors of the k largest eigenvalues of the
    Hermitian positive semidefinite map `gram` on C^n.

    Lanczos with full reorthogonalisation from a fixed random start vector,
    stopped at the first step m where every wanted Ritz pair (theta_i, s_i)
    of the m x m tridiagonal matrix has residual |beta_m s_mi| <= eps
    theta_max, eps the machine epsilon. The Lanczos vectors are the rows of
    one C-ordered array. A residual vector that shrinks to the rounding error
    of one Gram application spans nothing new: the Krylov space is invariant,
    beta_m is taken as 0 and the iteration goes on from a fresh random vector
    orthogonal to the rows so far. At m = n the space is all of C^n.
    """
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps

    def fresh():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    Q = np.empty((n, n), dtype=complex)   # only the rows in use are touched
    alpha, beta = np.zeros(n), np.zeros(n)    # diagonal and off-diagonal of the tridiagonal
    v = fresh()
    Q[0] = v / np.linalg.norm(v)
    scale = 0.0                           # largest |gram(q)|, about the operator norm
    for m in range(1, n + 1):
        w = gram(Q[m - 1])
        alpha[m - 1] = np.vdot(Q[m - 1], w).real
        scale = max(scale, np.linalg.norm(w))
        w, norm = _orthogonalise(Q[:m], w)
        if m == n or norm <= np.sqrt(n) * eps * scale:
            norm = 0.0
        if m >= k:
            theta, s = eigh_tridiagonal(alpha[:m], beta[:m - 1], select="i",
                                        select_range=(m - k, m - 1), check_finite=False,
                                        lapack_driver="stemr")
            if norm * np.abs(s[-1]).max() <= eps * theta[-1]:
                return Q[:m].T @ s
        if norm == 0:
            w, norm = _orthogonalise(Q[:m], fresh())
        else:
            beta[m - 1] = norm
        Q[m] = w / norm


def project(S, Y):
    """Projected block Y_tilde = S^H Y."""
    return S.conj().T @ np.asarray(Y)


def estimate_projected_channel(Y_tilde, pilots: PilotConfig) -> np.ndarray:
    """Least-squares T_sel x T estimate of the projected channel from the pilot columns.

    Applied to the unprojected block Y it gives the full R x T channel estimate
    of the conventional receiver.

    H_tilde = Y_p X_p^H / (tau*T*P), with Y_p the first tau*T columns and X_p the
    pilot matrix. PilotConfig makes X_p X_p^H = tau*T*P*I, so this is the
    least-squares (zero-forcing) estimate Y_p X_p^+, in closed form: tau*T*P
    is the squared norm of a pilot row.
    """
    if pilots.tau_blocks < 1:
        raise ValueError("pilot columns required for channel estimation")
    Xp = pilots.pilot_matrix
    Yp = np.asarray(Y_tilde)[:, : Xp.shape[1]]
    return (Yp @ Xp.conj().T) / np.linalg.norm(Xp[0]) ** 2


def detect_subspace(Y_tilde_data, H_tilde, noise_power, symbol_power) -> np.ndarray:
    """MMSE-equalized projected data columns, the T x (C - tau*T) symbol estimates.

    The projected noise is approximately white with per-entry power W, so the
    estimates solve (H^H H + (W/P) I) X = H^H Y_tilde_data. A singular
    equalizer matrix (possible at W = 0) falls back to the pseudo-inverse.
    """
    Ht, Yd = np.asarray(H_tilde), np.asarray(Y_tilde_data)
    A = Ht.conj().T @ Ht + (noise_power / symbol_power) * np.eye(Ht.shape[1])
    try:
        return np.linalg.solve(A, Ht.conj().T @ Yd)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(Ht) @ Yd


def conventional_receiver(Y, pilots: PilotConfig) -> np.ndarray:
    """Linear baseline: LS (zero-forcing) estimate H_hat of the full channel from the
    pilot columns of Y, then maximum-ratio combining of the data columns Y_d: H_hat^H Y_d."""
    Y = np.asarray(Y)
    H_hat = estimate_projected_channel(Y, pilots)
    return H_hat.conj().T @ Y[:, pilots.pilot_matrix.shape[1]:]


def count_bit_errors(estimates, reference):
    """Exact bit-error count between symbol estimates and the sent QPSK symbols,
    two arrays of one shape (2 bits/symbol). Gray mapping makes each bit the
    sign of a real or an imaginary part (>= 0 or < 0), so this is the one
    place bits are decided."""
    d, x = np.asarray(estimates), np.asarray(reference)
    if d.shape != x.shape:
        raise ValueError(f"estimates {d.shape} and reference {x.shape} differ in shape")
    return int(np.count_nonzero((d.real >= 0) != (x.real >= 0))
               + np.count_nonzero((d.imag >= 0) != (x.imag >= 0)))
