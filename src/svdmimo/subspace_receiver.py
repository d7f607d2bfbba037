"""Blind subspace-projection receiver and the conventional linear baseline.

The blind receiver computes the T_sel strongest left-singular directions of the
received block Y, projects Y onto that subspace, estimates the small projected
channel from the projected pilots by least squares, and equalizes the data. The
conventional baseline estimates the full R x T channel by least squares from
the pilot columns and applies maximum-ratio combining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import svds

from .system_model import PilotConfig


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of the estimated signal subspace with singular values."""

    S: np.ndarray                 # R x T_sel, orthonormal columns
    singular_values: np.ndarray   # T_sel leading singular values, non-increasing


@dataclass(frozen=True)
class ProjectedChannel:
    H_tilde: np.ndarray           # T_sel x T


@dataclass(frozen=True)
class BeamformerVector:
    m: np.ndarray                 # unit-norm R vector


def signal_subspace(Y, T_sel) -> SubspaceBasis:
    """Basis of the T_sel leading left-singular directions of Y.

    Uses implicitly-restarted partial SVD (ARPACK) when T_sel is small relative
    to min(R, C); the full decomposition is never needed. The ARPACK start
    vector is fixed so identical inputs give identical bases.
    """
    Y = np.asarray(Y)
    mn = min(Y.shape)
    if not 1 <= T_sel <= mn:
        raise ValueError(f"T_sel must be in [1, min(R, C)] = [1, {mn}]")
    if T_sel < mn - 1 and mn > 8:
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
        U, sv, _ = svds(Y.astype(complex), k=T_sel, v0=v0, tol=0)
        order = np.argsort(sv)[::-1]
        return SubspaceBasis(S=U[:, order], singular_values=sv[order])
    U, sv, _ = np.linalg.svd(Y, full_matrices=False)
    return SubspaceBasis(S=U[:, :T_sel], singular_values=sv[:T_sel])


def project(basis: SubspaceBasis, Y):
    """Projected block Y_tilde = S^H Y."""
    return basis.S.conj().T @ np.asarray(Y)


def estimate_projected_channel(Y_tilde, pilots: PilotConfig) -> ProjectedChannel:
    """Least-squares estimate of the projected channel from the pilot columns.

    Applied to the unprojected block Y it gives the full R x T channel estimate
    of the conventional receiver.

    H_tilde = Y_tilde[:, :tau*T] X_p^+ where X_p^+ is the pseudo-inverse of the
    pilot matrix. With orthogonal pilot blocks X_p X_p^H = tau*T*P*I this is the
    zero-forcing estimate Y_p X_p^H / (tau*T*P).
    """
    if pilots.tau_blocks < 1:
        raise ValueError("pilot columns required for channel estimation")
    Xp = pilots.pilot_matrix
    T = Xp.shape[0]
    if np.linalg.matrix_rank(Xp) < T:
        raise ValueError("rank-deficient pilot block")
    Yp = np.asarray(Y_tilde)[:, : pilots.tau_blocks * T]
    H_tilde = np.linalg.lstsq(Xp.conj().T, Yp.conj().T, rcond=None)[0].conj().T
    return ProjectedChannel(H_tilde=H_tilde)


def detect_subspace(Y_tilde_data, channel: ProjectedChannel, noise_power,
                    symbol_power) -> np.ndarray:
    """MMSE-equalize the projected data columns and slice to QPSK.

    The projected noise is approximately white with per-entry power W, so the
    equalizer regularizer is (W/P) I. A singular equalizer matrix (possible at
    W = 0) falls back to the pseudo-inverse.
    """
    Ht = channel.H_tilde
    T = Ht.shape[1]
    A = Ht.conj().T @ Ht + (noise_power / symbol_power) * np.eye(T)
    rhs = Ht.conj().T @ np.asarray(Y_tilde_data)
    try:
        est = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        est = np.linalg.pinv(Ht) @ np.asarray(Y_tilde_data)
    return slice_qpsk(est, symbol_power)


def conventional_receiver(Y, pilots: PilotConfig) -> np.ndarray:
    """Linear baseline: LS (zero-forcing) estimate of the full channel from the
    pilot columns of Y, then maximum-ratio combining and QPSK slicing."""
    Y = np.asarray(Y)
    H_hat = estimate_projected_channel(Y, pilots).H_tilde
    return slice_qpsk(H_hat.conj().T @ Y[:, pilots.tau_blocks * pilots.T:],
                      pilots.symbol_power)


def matched_filter_principal(Y) -> BeamformerVector:
    """Beamformer maximizing the empirical Rayleigh quotient m^H Y Y^H m / m^H m:
    the leading left-singular vector of Y, unit norm."""
    Y = np.asarray(Y)
    if not np.any(Y):
        raise ValueError("zero matrix has no principal direction")
    basis = signal_subspace(Y, 1)
    m = basis.S[:, 0]
    return BeamformerVector(m=m / np.linalg.norm(m))


# QPSK helpers (Gray mapping: bits are the signs of real and imaginary parts)

def slice_qpsk(values, power):
    """Nearest QPSK constellation point of the given power, per entry."""
    v = np.asarray(values)
    return np.sqrt(power / 2.0) * (np.where(v.real >= 0, 1.0, -1.0)
                                   + 1j * np.where(v.imag >= 0, 1.0, -1.0))


def count_bit_errors(decisions, reference):
    """Exact bit-error count between two QPSK symbol arrays (2 bits/symbol)."""
    d, x = np.asarray(decisions), np.asarray(reference)
    return int(np.count_nonzero((d.real >= 0) != (x.real >= 0))
               + np.count_nonzero((d.imag >= 0) != (x.imag >= 0)))
