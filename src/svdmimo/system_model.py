"""System parameters and random generation of one coherence block of the multi-cell uplink.

Model: Y = H X + H_I X_I + W with R receive antennas, T transmit antennas per
cell, coherence time C symbols, and L interfering cells. Entries of H have unit
variance, data symbols have power P, the k-th interferer channel column has
variance I_k / P, and noise entries have variance W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LIGHT_SPEED = 299_792_458.0  # m/s


@dataclass(frozen=True)
class RadioParams:
    """Physical radio parameters determining the coherence time."""

    carrier_frequency: float  # Hz
    delay_spread: float       # seconds
    mobile_speed: float       # m/s

    def __post_init__(self):
        for name in ("carrier_frequency", "delay_spread", "mobile_speed"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def coherence_symbols(radio: RadioParams) -> float:
    """Coherence time in symbol intervals: 3/(4 sqrt(pi) f0 tau) * c/v."""
    return (3.0 / (4.0 * math.sqrt(math.pi) * radio.carrier_frequency * radio.delay_spread)
            * LIGHT_SPEED / radio.mobile_speed)


@dataclass(frozen=True)
class InterferenceProfile:
    """Out-of-cell interference power profile.

    kind "flat": all L*T interferers received at power I.
    kind "modulo": I_k = P * (k mod T) / (delta * T) for k = 1..L*T.
    """

    kind: str
    I: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "modulo"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "flat" and (self.I is None or self.I < 0):
            raise ValueError("flat profile requires I >= 0")
        if self.kind == "modulo" and (self.delta is None or self.delta <= 0):
            raise ValueError("modulo profile requires delta > 0")


def interference_profile(profile: InterferenceProfile, T: int, L: int, P: float):
    """Sequence of L*T interference powers for the requested profile."""
    if profile.kind == "flat":
        return tuple(float(profile.I) for _ in range(L * T))
    return tuple(P * (k % T) / (profile.delta * T) for k in range(1, L * T + 1))


@dataclass(frozen=True)
class SystemParams:
    """Cell geometry and powers of the multi-cell uplink (all powers linear)."""

    R: int
    T: int
    C: int
    L: int
    P: float
    W: float
    interference_powers: tuple = ()

    def __post_init__(self):
        if self.R < 1 or self.T < 1 or self.C < 1:
            raise ValueError("R, T, C must be >= 1")
        if self.L < 0:
            raise ValueError("L must be >= 0")
        if self.P < 0 or self.W < 0:
            raise ValueError("P and W must be >= 0")
        powers = tuple(float(x) for x in self.interference_powers)
        if len(powers) != self.L * self.T:
            raise ValueError(f"interference_powers must have L*T = {self.L * self.T} entries")
        if any(x < 0 for x in powers):
            raise ValueError("interference powers must be >= 0")
        object.__setattr__(self, "interference_powers", powers)

    @classmethod
    def from_profile(cls, R, T, C, L, P, W, profile: InterferenceProfile):
        return cls(R=R, T=T, C=C, L=L, P=P, W=W,
                   interference_powers=interference_profile(profile, T, L, P))


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless parameters derived once from SystemParams.

    r = 1/(P R C), t = 1/(I R C) for flat interference at level I, zeta = W C.
    For non-flat profiles t is computed from max I_k (worst case). The source
    dimensions and powers are kept, so the support analysis reads one system:
    R, T, C for axis rescaling, and L, P, W for the unilateral rule.
    """

    kappa: float
    alpha: float
    r: float
    t: float
    zeta: float
    beta_ratio: float
    R: int
    T: int
    C: int
    L: int
    P: float
    W: float


def derive_params(sys: SystemParams) -> DerivedParams:
    """Exact derived ratios; raises on P = 0 since r = 1/(P R C) is required."""
    if sys.P == 0:
        raise ValueError("P must be > 0 to derive r = 1/(P R C)")
    kappa = sys.C / sys.R
    alpha = sys.T / sys.R
    r = 1.0 / (sys.P * sys.R * sys.C)
    I = max(sys.interference_powers, default=0.0)
    t = math.inf if I == 0 else 1.0 / (I * sys.R * sys.C)
    return DerivedParams(kappa=kappa, alpha=alpha, r=r, t=t, zeta=sys.W * sys.C,
                         beta_ratio=I / sys.P, R=sys.R, T=sys.T, C=sys.C, L=sys.L, P=sys.P,
                         W=sys.W)


@dataclass(frozen=True)
class PilotConfig:
    """tau_blocks length-T pilot blocks stacked as a T x (tau*T) matrix.

    Within each block the pilot rows are mutually orthogonal with squared norm
    T*P. tau_blocks = 0 means no pilots (pure-data blocks, used for spectrum
    experiments).
    """

    tau_blocks: int
    pilot_matrix: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=complex))

    def __post_init__(self):
        if self.tau_blocks < 0:
            raise ValueError("tau_blocks must be >= 0")
        M = np.asarray(self.pilot_matrix, dtype=complex)
        object.__setattr__(self, "pilot_matrix", M)
        if self.tau_blocks == 0:
            return
        T = M.shape[0]
        if M.shape[1] != self.tau_blocks * T:
            raise ValueError("pilot_matrix must be T x (tau*T)")
        norm2 = np.linalg.norm(M[0]) ** 2 / self.tau_blocks
        for b in range(self.tau_blocks):
            B = M[:, b * T:(b + 1) * T]
            gram = B @ B.conj().T
            if not np.allclose(gram, norm2 * np.eye(T), rtol=1e-8, atol=1e-10 * max(norm2, 1)):
                raise ValueError(f"pilot block {b} rows are not orthogonal with equal norms")

    @property
    def T(self):
        return self.pilot_matrix.shape[0]

    @property
    def symbol_power(self):
        """Per-symbol pilot power P, recovered from row norms (norm^2 = tau*T*P)."""
        if self.tau_blocks == 0:
            return 0.0
        T = self.T
        return float(np.linalg.norm(self.pilot_matrix[0]) ** 2 / (self.tau_blocks * T))

    @cached_property
    def pilot_pinv(self):
        """Read-only pseudo-inverse X_p^+ of the pilot matrix, (tau*T) x T.

        Computed on first use and kept, since every block of a sweep point
        shares its pilots. Raises ValueError for a rank-deficient pilot block.
        """
        Xp = self.pilot_matrix
        if np.linalg.matrix_rank(Xp) < Xp.shape[0]:
            raise ValueError("rank-deficient pilot block")
        pinv = np.linalg.pinv(Xp)
        pinv.flags.writeable = False
        return pinv


def _haar_unitary(n, rng):
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    Q, Rm = np.linalg.qr(Z)
    d = np.diag(Rm)
    return Q * (d / np.abs(d))


def make_pilots(T, P, tau_blocks, rng=None) -> PilotConfig:
    """Pilot blocks of power P: one unitary-DFT block for tau=1 (the block every
    cell reuses); independent Haar-random blocks for tau > 1."""
    if tau_blocks == 0:
        return PilotConfig(tau_blocks=0)
    if tau_blocks == 1:
        U = np.fft.fft(np.eye(T)) / np.sqrt(T)
        return PilotConfig(tau_blocks=1, pilot_matrix=np.sqrt(T * P) * U)
    rng = np.random.default_rng(rng)
    blocks = [np.sqrt(T * P) * _haar_unitary(T, rng) for _ in range(tau_blocks)]
    return PilotConfig(tau_blocks=tau_blocks, pilot_matrix=np.concatenate(blocks, axis=1))


@dataclass(frozen=True)
class ChannelRealization:
    """One sampled coherence block; immutable after construction."""

    H: np.ndarray       # R x T, unit-variance entries
    X: np.ndarray       # T x C, pilots in the first tau*T columns, then data
    H_I: np.ndarray     # R x (L*T), column k variance I_k / P
    X_I: np.ndarray     # (L*T) x C, power P
    noise: np.ndarray   # R x C, variance W
    pilot_config: PilotConfig

    @property
    def data_symbols(self):
        """Transmitted data part of X (own cell)."""
        off = self.pilot_config.tau_blocks * self.X.shape[0]
        return self.X[:, off:]


def _complex_gaussian(rng, shape, var=1.0):
    # real parts, then imaginary parts: the stream of two consecutive draws
    if var == 0:
        return np.zeros(shape, dtype=complex)
    parts = rng.standard_normal((2,) + shape)
    scale = np.sqrt(var / 2.0)
    out = np.empty(shape, dtype=complex)
    np.multiply(parts[0], scale, out=out.real)
    np.multiply(parts[1], scale, out=out.imag)
    return out


def _qpsk(rng, shape, power):
    re = 1 - 2 * rng.integers(0, 2, size=shape)
    im = 1 - 2 * rng.integers(0, 2, size=shape)
    return np.sqrt(power / 2.0) * (re + 1j * im)


def sample_realization(sys: SystemParams, pilots: PilotConfig, seed,
                       data_law="gaussian") -> ChannelRealization:
    """Draw one coherence block.

    Pilots occupy the first tau*T columns of X. Interfering cells transmit the
    same pilot block when tau=1 (synchronized reuse, the pilot-contamination
    scenario) and independent Haar-random blocks when tau > 1. Data entries are
    circular Gaussian or QPSK, both of power P.
    """
    if data_law not in ("gaussian", "qpsk"):
        raise ValueError(f"unknown data law {data_law!r}")
    tau = pilots.tau_blocks
    if tau * sys.T > sys.C:
        raise ValueError(f"pilot length tau*T = {tau * sys.T} exceeds coherence time C = {sys.C}")
    if tau > 0 and pilots.T != sys.T:
        raise ValueError("pilot_matrix row count must equal T")
    rng = np.random.default_rng(seed)
    draw = _qpsk if data_law == "qpsk" else _complex_gaussian

    def data(shape):
        return draw(rng, shape, sys.P)

    H = _complex_gaussian(rng, (sys.R, sys.T))
    n_data = sys.C - tau * sys.T
    if tau > 0:
        X = np.concatenate([pilots.pilot_matrix, data((sys.T, n_data))], axis=1)
    else:
        X = data((sys.T, sys.C))

    LT = sys.L * sys.T
    H_I = _complex_gaussian(rng, (sys.R, LT))
    if LT:
        col_var = np.asarray(sys.interference_powers) / sys.P
        H_I *= np.sqrt(col_var)
        if tau == 1:
            XIp = np.concatenate([pilots.pilot_matrix] * sys.L, axis=0)
            X_I = np.concatenate([XIp, data((LT, n_data))], axis=1)
        elif tau > 1:
            blocks = [np.sqrt(sys.T * sys.P) * _haar_unitary(sys.T, rng)
                      for _ in range(sys.L * tau)]
            XIp = np.zeros((LT, tau * sys.T), dtype=complex)
            for cell in range(sys.L):
                row = slice(cell * sys.T, (cell + 1) * sys.T)
                XIp[row] = np.concatenate(blocks[cell * tau:(cell + 1) * tau], axis=1)
            X_I = np.concatenate([XIp, data((LT, n_data))], axis=1)
        else:
            X_I = data((LT, sys.C))
    else:
        X_I = np.zeros((0, sys.C), dtype=complex)

    noise = _complex_gaussian(rng, (sys.R, sys.C), sys.W)
    return ChannelRealization(H=H, X=X, H_I=H_I, X_I=X_I, noise=noise, pilot_config=pilots)


def assemble_received(rz: ChannelRealization) -> np.ndarray:
    """Received block Y = H X + noise + H_I X_I, accumulated in place in that order."""
    # complex from the start, so the in-place sums never need an upcast
    Y = np.matmul(rz.H, rz.X, dtype=complex)
    Y += rz.noise
    if rz.H_I.shape[1]:
        Y += rz.H_I @ rz.X_I
    return Y
