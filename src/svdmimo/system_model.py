"""System parameters and random generation of one coherence block of the multi-cell uplink.

Model: Y = H X + H_I X_I + W with R receive antennas, T transmit antennas per
cell, coherence time C symbols, and L interfering cells. Entries of H have unit
variance, data symbols have power P, the k-th interferer channel column has
variance I_k / P, and noise entries have variance W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm

LIGHT_SPEED = 299_792_458.0  # m/s


@dataclass(frozen=True)
class RadioParams:
    """Physical radio parameters determining the coherence time."""

    carrier_frequency: float  # Hz
    delay_spread: float       # seconds
    mobile_speed: float       # m/s

    def __post_init__(self):
        for name in ("carrier_frequency", "delay_spread", "mobile_speed"):
            if real_field(name, getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def coherence_symbols(radio: RadioParams) -> float:
    """Coherence time in symbol intervals: 3/(4 sqrt(pi) f0 tau) * c/v; ValueError
    unless that is a finite number above 0 (f0 tau may underflow to 0, or the
    quotient overflow to inf)."""
    try:
        symbols = (3.0 / (4.0 * math.sqrt(math.pi) * radio.carrier_frequency
                          * radio.delay_spread) * LIGHT_SPEED / radio.mobile_speed)
    except ZeroDivisionError:
        symbols = math.inf
    if not 0.0 < symbols < math.inf:
        raise ValueError(f"coherence time is no finite number of symbols above 0: {radio}")
    return symbols


@dataclass(frozen=True)
class InterferenceProfile:
    """Out-of-cell interference power profile.

    kind "flat": all L*T interferers received at power I.
    kind "modulo": I_k = P * (k mod T) / (delta * T) for k = 1..L*T.
    Each kind takes only its own field.
    """

    kind: str
    I: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "modulo"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        other = "delta" if self.kind == "flat" else "I"
        if getattr(self, other) is not None:
            raise ValueError(f"{other} does not apply to profile {self.kind!r}")
        if self.kind == "flat" and (self.I is None or real_field("I", self.I) < 0):
            raise ValueError("flat profile requires I >= 0")
        if self.kind == "modulo" and (self.delta is None or real_field("delta", self.delta) <= 0):
            raise ValueError("modulo profile requires delta > 0")


def integer_field(name, value, least=None):
    """`value` as an int; ValueError naming `name` unless it is an int or a numpy
    integer (bool, an int subclass, is no count) and at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer: {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}: {value}")
    return int(value)


def real_field(name, value, least=None, strict=False):
    """`value`, unchanged; ValueError naming `name` unless it is a finite int,
    float or numpy real (bool is no number) and at least `least`, or above it
    if `strict`."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number: {value!r}")
    if least is not None and (value <= least if strict else value < least):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {least}: {value}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Cell geometry and powers of the multi-cell uplink (all powers linear), and
    the ratios that the support analysis and the fixed point read: kappa = C/R,
    alpha = T/R, r = 1/(P R C), zeta = W C, and t = 1/(I R C) and beta_ratio =
    I/P at the largest interference power I. r and beta_ratio raise at P = 0."""

    R: int
    T: int
    C: int
    L: int
    P: float
    W: float
    interference_powers: tuple = ()

    def __post_init__(self):
        for name, least in (("R", 1), ("T", 1), ("C", 1), ("L", 0)):
            object.__setattr__(self, name, integer_field(name, getattr(self, name), least))
        real_field("P", self.P, 0)
        real_field("W", self.W, 0)
        powers = tuple(float(real_field("each interference power", x, 0))
                       for x in self.interference_powers)
        if len(powers) != self.L * self.T:
            raise ValueError(f"interference_powers must have L*T = {self.L * self.T} entries")
        object.__setattr__(self, "interference_powers", powers)

    @classmethod
    def from_profile(cls, R, T, C, L, P, W, profile: InterferenceProfile):
        """The system whose L*T interference powers follow `profile`."""
        if profile.kind == "flat":
            powers = (profile.I,) * (L * T)
        else:
            powers = tuple(P * (k % T) / (profile.delta * T) for k in range(1, L * T + 1))
        return cls(R=R, T=T, C=C, L=L, P=P, W=W, interference_powers=powers)

    @property
    def kappa(self):
        return self.C / self.R

    @property
    def alpha(self):
        return self.T / self.R

    @property
    def zeta(self):
        return self.W * self.C

    def _positive_P(self):
        if self.P == 0:
            raise ValueError("P must be > 0 to derive r = 1/(P R C)")
        return self.P

    @property
    def r(self):
        return 1.0 / (self._positive_P() * self.R * self.C)

    @property
    def t(self):
        I = max(self.interference_powers, default=0.0)
        return math.inf if I == 0 else 1.0 / (I * self.R * self.C)

    @property
    def beta_ratio(self):
        return max(self.interference_powers, default=0.0) / self._positive_P()


@dataclass(frozen=True)
class PilotConfig:
    """Length-T pilot blocks stacked as a T x (tau*T) matrix; tau, the block
    count, is read from its width.

    Within each block the pilot rows are mutually orthogonal with squared norm
    T*P. A matrix with no columns, the default, means no pilots (pure-data
    blocks, used for spectrum experiments).
    """

    pilot_matrix: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=complex))

    def __post_init__(self):
        M = np.asarray(self.pilot_matrix, dtype=complex)
        object.__setattr__(self, "pilot_matrix", M)
        if M.ndim != 2 or M.shape[1] and (not M.shape[0] or M.shape[1] % M.shape[0]):
            raise ValueError("pilot_matrix must be T x (tau*T)")
        tau, T = self.tau_blocks, self.T
        if tau == 0:
            return
        norm2 = np.linalg.norm(M[0]) ** 2 / tau
        if norm2 == 0:
            raise ValueError("pilot blocks must have nonzero power")
        for b in range(tau):
            B = M[:, b * T:(b + 1) * T]
            gram = B @ B.conj().T
            if not np.allclose(gram, norm2 * np.eye(T), rtol=1e-8, atol=1e-10 * norm2):
                raise ValueError(f"pilot block {b} rows are not orthogonal with equal norms")

    @property
    def T(self):
        return self.pilot_matrix.shape[0]

    @property
    def tau_blocks(self):
        T, width = self.pilot_matrix.shape
        return width // T if width else 0


def _haar_unitary(n, rng):
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    Q, Rm = np.linalg.qr(Z)
    d = np.diag(Rm)
    return Q * (d / np.abs(d))


def make_pilots(T, P, tau_blocks, rng=None) -> PilotConfig:
    """Pilot blocks of power P: one unitary-DFT block for tau=1 (the block every
    cell reuses); independent Haar-random blocks for tau > 1."""
    T, tau_blocks = integer_field("T", T, 1), integer_field("tau_blocks", tau_blocks, 0)
    if real_field("P", P) <= 0:
        raise ValueError(f"P must be > 0 for pilot blocks of nonzero power: {P}")
    if tau_blocks == 0:
        return PilotConfig()
    if tau_blocks == 1:
        U = np.fft.fft(np.eye(T)) / np.sqrt(T)
        return PilotConfig(np.sqrt(T * P) * U)
    rng = np.random.default_rng(rng)
    blocks = [np.sqrt(T * P) * _haar_unitary(T, rng) for _ in range(tau_blocks)]
    return PilotConfig(np.concatenate(blocks, axis=1))


@dataclass(frozen=True)
class ChannelRealization:
    """One sampled coherence block; immutable after construction.

    The noise is the last draw of the block's stream. It is not drawn at
    sampling: the realization keeps W and the generator state where the
    noise starts, and ``assemble_received`` draws it from a fresh generator
    restored to that state straight into the array that becomes Y, so every
    call gives the same array and none advances a shared generator.
    """

    H: np.ndarray       # R x T, unit-variance entries
    X: np.ndarray       # T x C, pilots in the first tau*T columns, then data
    H_I: np.ndarray     # R x (L*T), column k variance I_k / P
    X_I: np.ndarray     # (L*T) x C, power P
    noise_var: float    # W, the variance of the noise entries
    noise_state: dict   # bit-generator state before the noise
    pilot_config: PilotConfig

    @property
    def data_symbols(self):
        """Transmitted data part of X (own cell)."""
        return self.X[:, self.pilot_config.pilot_matrix.shape[1]:]


# Normal draws per pass through _complex_gaussian's scratch buffer (32 KiB)
_DRAW_CHUNK = 4096


def _complex_gaussian(rng, shape, var=1.0):
    # real parts, then imaginary parts: the stream of two consecutive draws,
    # each drawn in chunks and scaled straight into the complex output
    if var == 0:
        return np.zeros(shape, dtype=complex)
    out = np.empty(shape, dtype=complex)
    scale = np.sqrt(var / 2.0)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _DRAW_CHUNK))
    for part in (flat.real, flat.imag):
        for i in range(0, flat.size, _DRAW_CHUNK):
            chunk = buf[:min(_DRAW_CHUNK, flat.size - i)]
            rng.standard_normal(out=chunk)
            np.multiply(chunk, scale, out=part[i:i + chunk.size])
    return out


def _qpsk(rng, shape, power):
    # real parts, then imaginary parts, each from one 0/1 draw b: the level
    # a (1 - 2b), formed exactly as -2a b + a in the output itself
    a = np.sqrt(power / 2.0)
    out = np.empty(shape, dtype=complex)
    for part in (out.real, out.imag):
        np.multiply(rng.integers(0, 2, size=shape), -2.0 * a, out=part)
        part += a
    return out


def sample_realization(sys: SystemParams, pilots: PilotConfig, seed,
                       data_law="gaussian") -> ChannelRealization:
    """Draw one coherence block.

    Pilots occupy the first tau*T columns of X. Interfering cells transmit the
    same pilot block when tau=1 (synchronized reuse, the pilot-contamination
    scenario) and independent Haar-random blocks when tau > 1. Data entries are
    circular Gaussian or QPSK, both of power P. The noise, the last draw, is
    left undrawn: the realization keeps the generator state where it starts.
    """
    if data_law not in ("gaussian", "qpsk"):
        raise ValueError(f"unknown data law {data_law!r}")
    tau, n_pilot = pilots.tau_blocks, pilots.pilot_matrix.shape[1]
    if n_pilot > sys.C:
        raise ValueError(f"pilot length tau*T = {n_pilot} exceeds coherence time C = {sys.C}")
    if tau > 0 and pilots.T != sys.T:
        raise ValueError("pilot_matrix row count must equal T")
    if sys.P == 0 and sys.interference_powers:
        raise ValueError("P must be > 0 with interferers: H_I column k has variance I_k / P")
    rng = np.random.default_rng(seed)
    draw = _qpsk if data_law == "qpsk" else _complex_gaussian

    def data(shape):
        return draw(rng, shape, sys.P)

    H = _complex_gaussian(rng, (sys.R, sys.T))
    n_data = sys.C - n_pilot
    if tau > 0:
        X = np.concatenate([pilots.pilot_matrix, data((sys.T, n_data))], axis=1)
    else:
        X = data((sys.T, sys.C))

    LT = sys.L * sys.T
    H_I = _complex_gaussian(rng, (sys.R, LT))
    H_I *= np.sqrt(np.asarray(sys.interference_powers) / sys.P)
    # interferer pilot columns: every cell reuses the block at tau = 1, and
    # draws its own Haar blocks, cell by cell, at tau > 1
    T = sys.T
    XIp = np.empty((LT, n_pilot), dtype=complex)
    for cell, b in itertools.product(range(sys.L), range(tau)):
        XIp[cell * T:(cell + 1) * T, b * T:(b + 1) * T] = (
            pilots.pilot_matrix if tau == 1 else np.sqrt(T * sys.P) * _haar_unitary(T, rng))
    X_I = np.concatenate([XIp, data((LT, n_data))], axis=1)

    return ChannelRealization(H=H, X=X, H_I=H_I, X_I=X_I, noise_var=sys.W,
                              noise_state=rng.bit_generator.state, pilot_config=pilots)


def _draw_noise(rz: ChannelRealization) -> np.ndarray:
    """A new R x C array of the block's noise; zeros, drawn from nothing, at W = 0."""
    shape = (rz.H.shape[0], rz.X.shape[1])
    # a seed skips gathering OS entropy; the state set next replaces it
    bit_generator = getattr(np.random, rz.noise_state["bit_generator"])(0)
    bit_generator.state = rz.noise_state
    return _complex_gaussian(np.random.Generator(bit_generator), shape, rz.noise_var)


def assemble_received(rz: ChannelRealization) -> np.ndarray:
    """Received block Y = H X + noise + H_I X_I, one new array per call.

    The noise is drawn straight into Y from the state the realization keeps
    (see ChannelRealization), then H X and H_I X_I are accumulated into it in
    place, in that order. Addition commutes, so noise + H X is bitwise
    H X + noise. No shared generator is advanced: every call gives the same Y.
    """
    Y = _draw_noise(rz)
    for A, B in ((rz.H, rz.X), (rz.H_I, rz.X_I)):
        if A.shape[1]:
            # Y^T += B^T A^T on the transposed view: the gemm numpy runs for
            # A @ B, accumulating into Y instead of a product temporary
            Y = zgemm(1.0, B.T, A.T, beta=1.0, c=Y.T, overwrite_c=True).T
    return Y
