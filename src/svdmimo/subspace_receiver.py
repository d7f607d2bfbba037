"""Blind subspace-projection receiver and the conventional linear baseline.

The blind receiver computes the T_sel strongest left-singular directions of the
received block Y, projects Y onto that subspace, estimates the small projected
channel from the projected pilots by least squares, and equalizes the data. The
conventional baseline estimates the full R x T channel by least squares from
the pilot columns and applies maximum-ratio combining. Both return soft symbol
estimates; count_bit_errors decides each bit once, by its sign (Gray QPSK).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh

from .numerics import _gram_lower
from .system_model import PilotConfig


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
    * ARPACK (implicitly restarted Lanczos) above that size, on the Gram
      operator applied as Y (Y^T v*)*, or (Y^T (Y v)*)* when R > C (* is
      the complex conjugate); a QR orthonormalises its vectors. Its start
      vector is fixed so identical inputs give identical bases.

    Then one Rayleigh-Ritz step, a thin SVD of V^H Y (T_sel x C) or of Y V
    (R x T_sel), makes S orthonormal to machine precision, also when Y is
    rank-deficient, and orders its columns by the energy of Y along them,
    strongest first. Last, each column of S is scaled by a unit phase that
    makes its largest-magnitude entry real and positive. The SVD would
    otherwise pick the phases from last-bit rounding, so they would change
    with the path, the BLAS build or the thread count; with this rule S is
    fixed wherever the singular values are distinct.

    The Gram side costs about min(R, C)^2 max(R, C) per call; ARPACK costs a
    number of restarts times min(R, C) max(R, C) plus a fixed overhead of a
    few milliseconds. So the dense path wins on small blocks and ARPACK on
    large ones. Median time per call (range over 6 blocks), single-threaded
    OpenBLAS on a 2-vCPU Xeon VM with numpy 2.4 and scipy 1.17, on received
    blocks of the model (P = 0.1, W = 1; the C = 100 blocks with the Fig.-4
    modulo profile, delta = 2, L = 6; the C = 1000 blocks with L = 2 cells
    at I = 0.05):

    ====================  ====================  ====================
    block (R x C, T_sel)  ARPACK                Gram side
    ====================  ====================  ====================
    50 x 100, 5           2.5 ms (2.5-3.1)      0.5 ms (0.4-0.5)
    400 x 100, 5          3.8 ms (2.9-3.9)      1.7 ms (1.7-1.7)
    200 x 1000, 3         8.1 ms (7.9-12.5)     9.6 ms (9.4-9.7)
    225 x 1000, 3         8.9 ms (8.8-14.6)     12.2 ms (11.8-12.3)
    300 x 1000, 3         13.8 ms (11.2-13.9)   24.1 ms (19.2-26.6)
    ====================  ====================  ====================

    With a smaller eigengap ARPACK needs more restarts and the crossover
    moves up: at T_sel = 5 on 200 x 1000 blocks ARPACK takes 14.4 ms and the
    Gram side 11.8 ms, and on noise-only 300 x 1000 blocks ARPACK takes
    77 ms and the Gram side 21 ms. The crossover (_GRAM_MAX_DIM) is 200: at
    200 x 1000 the two paths overlap with T_sel = 3 and the Gram side wins
    with T_sel = 5. Fig.-4 blocks (C = 100) take the Gram side, Fig.-5
    blocks (300 x 1000) ARPACK.
    """
    Y = np.asarray(Y)
    R, C = Y.shape
    mn = min(R, C)
    if not 1 <= T_sel <= mn:
        raise ValueError(f"T_sel must be in [1, min(R, C)] = [1, {mn}]")
    if mn > _GRAM_MAX_DIM and T_sel < mn - 1:
        if R <= C:
            def gram(v):          # Y Y^H v
                return Y @ (Y.T @ v.conj()).conj()
        else:
            def gram(v):          # Y^H Y v
                return (Y.T @ (Y @ v).conj()).conj()
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
        op = LinearOperator((mn, mn), matvec=gram, dtype=complex)
        V = np.linalg.qr(eigsh(op, k=T_sel, v0=v0, tol=0)[1])[0]
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
    return H_hat.conj().T @ Y[:, pilots.tau_blocks * pilots.T:]


def count_bit_errors(estimates, reference):
    """Exact bit-error count between symbol estimates and the sent QPSK symbols
    (2 bits/symbol). Gray mapping makes each bit the sign of a real or an
    imaginary part (>= 0 or < 0), so this is the one place bits are decided."""
    d, x = np.asarray(estimates), np.asarray(reference)
    return int(np.count_nonzero((d.real >= 0) != (x.real >= 0))
               + np.count_nonzero((d.imag >= 0) != (x.imag >= 0)))
