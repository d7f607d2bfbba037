"""Desk-scale experiment harness: BER sweeps and spectrum overlays.

Both receivers see the same realizations (paired comparison), bit-error counts
are exact integers, and every realization derives its RNG stream from
(master seed, point index, repetition index), so identical configs reproduce
bit-identical outputs regardless of worker scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .rmt_spectrum import FixedPointParams, SpectralDensity, density_from_stieltjes
from .subspace_receiver import (conventional_receiver, count_bit_errors, detect_subspace,
                                empirical_spectrum, estimate_projected_channel, project,
                                signal_subspace)
from .system_model import (InterferenceProfile, PilotConfig, SystemParams, assemble_received,
                           integer_field, make_pilots, real_field, sample_realization)

RECEIVERS = ("svd", "conventional")


@dataclass(frozen=True)
class BerPoint:
    """One BER measurement, kept as the bit-error counts of its coherence blocks."""

    sweep_value: float
    receiver: str
    tau: int
    block_errors: tuple     # one count per block, in [seed, index, rep] stream order
    block_bits: int         # bits of one block, the same for every block of the point
    delta: float | None = None

    @property
    def errors(self):
        return sum(self.block_errors)

    @property
    def bits(self):
        return self.block_bits * len(self.block_errors)

    @property
    def symbols(self):
        """QPSK data symbols behind the bits (2 bits per symbol)."""
        return self.bits // 2

    @property
    def ber(self):
        return self.errors / self.bits if self.bits else 0.0

    @property
    def ci_halfwidth(self):
        """95% normal-approximation confidence half-width."""
        p = self.ber
        return 1.96 * np.sqrt(p * (1 - p) / self.bits) if self.bits else 0.0

    def beats(self, other):
        """True when this receiver's BER is below `other`'s with disjoint CIs."""
        return self.ber + self.ci_halfwidth < other.ber - other.ci_halfwidth


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one BER sweep.

    Every block carries QPSK data and is decoded by both receivers, the
    subspace one keeping T_sel = T directions.
    """

    system: SystemParams
    sweep: str                      # "R" or "I_over_P"
    values: tuple
    taus: tuple = (1,)
    deltas: tuple | None = None     # modulo-profile deltas (R sweep)
    min_symbols: int = 100_000
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.sweep not in ("R", "I_over_P"):
            raise ValueError("sweep must be 'R' or 'I_over_P'")
        for name, least in (("min_symbols", 1), ("seed", 0), ("threads", 1)):
            object.__setattr__(self, name, integer_field(name, getattr(self, name), least))
        object.__setattr__(self, "taus", tuple(integer_field("each tau", t) for t in self.taus))
        if len(self.values) < 1:
            raise ValueError("need at least one sweep value")
        if len(self.taus) < 1 or any(tau < 1 for tau in self.taus):
            raise ValueError(f"taus must list at least one tau, each >= 1: {list(self.taus)}")
        pilot_len = max(self.taus) * self.system.T
        if pilot_len >= self.system.C:
            # no sweep changes T or C, so this covers every point
            raise ValueError(f"no data columns left after pilots: tau*T = {pilot_len} "
                             f">= C = {self.system.C}")
        if self.sweep == "R":
            object.__setattr__(self, "values", tuple(integer_field("R", R) for R in self.values))
            if len(self.taus) != 1:
                # per-seed BERs are keyed by (R, delta, receiver), without tau
                raise ValueError("the R sweep takes exactly one tau")
            if self.deltas is not None and len(self.deltas) < 1:
                raise ValueError("deltas must list at least one delta")
            for delta in self.deltas or ():
                real_field("delta", delta, 0, strict=True)
        else:
            if self.deltas is not None:
                raise ValueError("deltas apply only to the R sweep")
            for ip in self.values:
                real_field("I_over_P", ip, 0)
        # the subspace receiver keeps T directions of each R x C block (C > T above)
        for R in self.values if self.sweep == "R" else (self.system.R,):
            if R < self.system.T:
                raise ValueError(f"R must be >= T = {self.system.T}: {R}")

    def to_dict(self):
        d = {
            "system": asdict(self.system),
            "sweep": self.sweep, "values": list(self.values), "taus": list(self.taus),
            "receivers": list(RECEIVERS), "min_symbols": self.min_symbols,
            "data_law": "qpsk", "seed": self.seed, "paired_realizations": True,
        }
        if self.deltas is not None:
            d["deltas"] = list(self.deltas)
        return d


def _run_realization(sys, pilots, rng_key):
    """Bit errors of the svd and conventional receivers on one block."""
    rz = sample_realization(sys, pilots, rng_key, data_law="qpsk")
    Y = assemble_received(rz)
    tx = rz.data_symbols
    Yt = project(signal_subspace(Y, sys.T), Y)
    H_tilde = estimate_projected_channel(Yt, pilots)
    svd = detect_subspace(Yt[:, pilots.pilot_matrix.shape[1]:], H_tilde,
                          noise_power=sys.W, symbol_power=sys.P)
    svd_errors = count_bit_errors(svd, tx)
    conventional_errors = count_bit_errors(conventional_receiver(Y, pilots), tx)
    return svd_errors, conventional_errors


def _sweep(cfg, points):
    """Run both receivers on every point of a sweep, in order.

    Each point is (sweep_value, delta, tau, system). Point `index` runs enough
    blocks for cfg.min_symbols data symbols, block `rep` drawing from the RNG
    stream [seed, index, rep], so results do not depend on threads. Returns
    one BerPoint per point and receiver."""
    ber_points = []
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        run = pool.map if cfg.threads > 1 else map
        for index, (value, delta, tau, sys) in enumerate(points):
            pilots = make_pilots(sys.T, sys.P, tau, rng=[cfg.seed, index])
            block_symbols = sys.T * (sys.C - tau * sys.T)
            reps = -(-cfg.min_symbols // block_symbols)
            blocks = run(partial(_run_realization, sys, pilots),
                         ([cfg.seed, index, rep] for rep in range(reps)))
            for rec, errors in zip(RECEIVERS, zip(*blocks)):
                ber_points.append(BerPoint(float(value), rec, tau, block_errors=errors,
                                           block_bits=2 * block_symbols, delta=delta))
    return ber_points


def _with_per_block_bers(points, key):
    """(points, {key(point) + (receiver,): the point's per-block BERs})."""
    return points, {key(p) + (p.receiver,): [e / p.block_bits for e in p.block_errors]
                    for p in points}


def ber_vs_R(cfg: ExperimentConfig):
    """BER versus number of receive antennas, one curve per modulo-profile delta;
    per-block BERs keyed (R, delta, receiver), for median-trend checks."""
    if cfg.sweep != "R":
        raise ValueError(f"ber_vs_R needs sweep 'R', not the config's {cfg.sweep!r}")
    base = cfg.system
    (tau,) = cfg.taus
    points = []
    for delta in cfg.deltas if cfg.deltas is not None else (None,):
        sys = base if delta is None else SystemParams.from_profile(
            base.R, base.T, base.C, base.L, base.P, base.W,
            InterferenceProfile(kind="modulo", delta=delta))
        for R in cfg.values:
            points.append((R, delta, tau, replace(sys, R=R)))
    return _with_per_block_bers(_sweep(cfg, points), lambda p: (int(p.sweep_value), p.delta))


def ber_vs_IP(cfg: ExperimentConfig):
    """BER versus relative interference strength I/P (flat profile); per-block
    BERs keyed (I/P, tau, receiver)."""
    if cfg.sweep != "I_over_P":
        raise ValueError(f"ber_vs_IP needs sweep 'I_over_P', not the config's {cfg.sweep!r}")
    base = cfg.system
    points = []
    for tau in cfg.taus:
        for ip in cfg.values:
            sys = SystemParams.from_profile(base.R, base.T, base.C, base.L, base.P, base.W,
                                            InterferenceProfile(kind="flat", I=ip * base.P))
            points.append((ip, None, tau, sys))
    return _with_per_block_bers(_sweep(cfg, points), lambda p: (p.sweep_value, p.tau))


@dataclass(frozen=True)
class SpectrumResult:
    """Empirical eigenvalues and the asymptotic density on the common
    eig(Y Y^H)/(T*R) axis."""

    eigenvalues: np.ndarray          # pooled nonzero eigenvalues, all seeds
    density: SpectralDensity

    @property
    def empirical(self):
        """The overlay of the density at each grid point: an 80-bin histogram of
        the eigenvalues, normalized to 1, then rescaled to the continuous mass."""
        grid = self.density.grid
        hist, edges = np.histogram(self.eigenvalues, bins=80, range=(grid[0], grid[-1]),
                                   density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        return np.interp(grid, centers, hist * self.density.continuous_mass, left=0.0, right=0.0)


def spectrum_experiment(sys: SystemParams, n_seeds=20, grid_points=600, seed=0) -> SpectrumResult:
    """Pooled empirical spectrum of Y Y^H/(T*R) over seeds with the asymptotic
    density on the same axis.

    The grid spans the pooled nonzero eigenvalues with margin; the inversion
    offset is 1e-5 of the grid span (density_from_stieltjes), small enough
    that the zero-eigenvalue atom does not leak into the continuous part.
    """
    integer_field("n_seeds", n_seeds, 1)
    integer_field("seed", seed, 0)
    integer_field("grid_points", grid_points, 2)
    pilots = PilotConfig()
    pooled = []
    for i in range(n_seeds):
        rz = sample_realization(sys, pilots, [seed, i])
        ev = empirical_spectrum(assemble_received(rz), sys.T)
        pooled.append(ev[ev > 1e-12 * max(ev[0], 1.0)])
    pooled = np.sort(np.concatenate(pooled))
    if not pooled.size:
        raise ValueError(f"every eigenvalue is 0 (none above 1e-12) on all {n_seeds} seeds")
    grid = np.linspace(max(0.25 * pooled[0], 1e-6), 1.1 * pooled[-1], grid_points)
    density = density_from_stieltjes(grid, FixedPointParams.from_system(sys, scale=sys.T * sys.R))
    return SpectrumResult(eigenvalues=pooled, density=density)
