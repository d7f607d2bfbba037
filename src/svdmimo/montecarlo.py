"""Desk-scale experiment harness: BER sweeps and spectrum overlays.

Both receivers see the same realizations (paired comparison), bit-error counts
are exact integers, and every realization derives its RNG stream from
(master seed, point index, repetition index), so identical configs reproduce
bit-identical outputs regardless of worker scheduling.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import bulk_support
from .rmt_spectrum import FixedPointParams, SpectralDensity, density_from_stieltjes, empirical_spectrum
from .subspace_receiver import (conventional_receiver, count_bit_errors, detect_subspace,
                                estimate_projected_channel, project, signal_subspace)
from .system_model import (InterferenceProfile, PilotConfig, SystemParams, assemble_received,
                           interference_profile, make_pilots, sample_realization)

RECEIVERS = ("svd", "conventional")


@dataclass(frozen=True)
class BerPoint:
    """One aggregated BER measurement."""

    sweep_value: float
    receiver: str
    tau: int
    errors: int
    bits: int
    delta: float | None = None

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
        if self.bits == 0:
            return 0.0
        p = self.ber
        return 1.96 * np.sqrt(max(p * (1 - p), 0.0) / self.bits)

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
        if len(self.values) < 1:
            raise ValueError("need at least one sweep value")
        if len(self.taus) < 1 or any(tau < 1 for tau in self.taus):
            raise ValueError(f"taus must list at least one tau, each >= 1: {list(self.taus)}")
        pilot_len = max(self.taus) * self.system.T
        if pilot_len >= self.system.C:
            # no sweep changes T or C, so this covers every point
            raise ValueError(f"no data columns left after pilots: tau*T = {pilot_len} "
                             f">= C = {self.system.C}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.min_symbols < 1:
            raise ValueError("min_symbols must be >= 1")
        if self.sweep == "R":
            if any(R != int(R) for R in self.values):
                raise ValueError("R sweep values must be integer antenna counts")
            if len(self.taus) != 1:
                # per-seed BERs are keyed by (R, delta, receiver), without tau
                raise ValueError("the R sweep takes exactly one tau")
            if self.deltas is not None and len(self.deltas) < 1:
                raise ValueError("deltas must list at least one delta")
        elif self.deltas is not None:
            raise ValueError("deltas apply only to the R sweep")

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
    """Bit errors of the svd and conventional receivers on one block, and its bits."""
    rz = sample_realization(sys, pilots, rng_key, data_law="qpsk")
    Y = assemble_received(rz)
    tx = rz.data_symbols
    Yt = project(signal_subspace(Y, sys.T), Y)
    H_tilde = estimate_projected_channel(Yt, pilots)
    svd = detect_subspace(Yt[:, pilots.tau_blocks * sys.T:], H_tilde,
                          noise_power=sys.W, symbol_power=sys.P)
    svd_errors = count_bit_errors(svd, tx)
    conventional_errors = count_bit_errors(conventional_receiver(Y, pilots), tx)
    return svd_errors, conventional_errors, 2 * tx.size


def _sweep(cfg, points):
    """Run both receivers on every point of a sweep, in order.

    Each point is (sweep_value, delta, tau, system, per_seed_key). Point `index`
    runs enough blocks for cfg.min_symbols data symbols, block `rep` drawing
    from the RNG stream [seed, index, rep], so results do not depend on threads.
    Returns (BerPoints, {per_seed_key + (receiver,): per-block BERs}).
    """
    ber_points, per_seed_map = [], {}
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        run = pool.map if cfg.threads > 1 else map
        for index, (value, delta, tau, sys, key) in enumerate(points):
            pilots = make_pilots(sys.T, sys.P, tau, rng=[cfg.seed, index])
            reps = -(-cfg.min_symbols // (sys.T * (sys.C - tau * sys.T)))
            blocks = list(run(partial(_run_realization, sys, pilots),
                              ([cfg.seed, index, rep] for rep in range(reps))))
            bits = sum(block[-1] for block in blocks)
            for i, rec in enumerate(RECEIVERS):
                ber_points.append(BerPoint(sweep_value=float(value), receiver=rec, tau=tau,
                                           errors=sum(block[i] for block in blocks),
                                           bits=bits, delta=delta))
                per_seed_map[key + (rec,)] = [block[i] / block[-1] for block in blocks]
    return ber_points, per_seed_map


def ber_vs_R(cfg: ExperimentConfig):
    """BER versus number of receive antennas, one curve per modulo-profile delta.

    Returns (points, per_seed_bers) where per_seed_bers[(R, delta, receiver)]
    is the list of per-realization BERs (for median-trend checks).
    """
    if cfg.sweep != "R":
        raise ValueError(f"ber_vs_R needs sweep 'R', not the config's {cfg.sweep!r}")
    base = cfg.system
    (tau,) = cfg.taus
    points = []
    for delta in cfg.deltas if cfg.deltas is not None else (None,):
        powers = base.interference_powers if delta is None else interference_profile(
            InterferenceProfile(kind="modulo", delta=delta), base.T, base.L, base.P)
        for R in cfg.values:
            sys = replace(base, R=int(R), interference_powers=powers)
            points.append((R, delta, tau, sys, (int(R), delta)))
    return _sweep(cfg, points)


def ber_vs_IP(cfg: ExperimentConfig):
    """BER versus relative interference strength I/P (flat profile)."""
    if cfg.sweep != "I_over_P":
        raise ValueError(f"ber_vs_IP needs sweep 'I_over_P', not the config's {cfg.sweep!r}")
    base = cfg.system
    points = []
    for tau in cfg.taus:
        for ip in cfg.values:
            sys = replace(base, interference_powers=(ip * base.P,) * (base.L * base.T))
            points.append((ip, None, tau, sys, (float(ip), tau)))
    return _sweep(cfg, points)


@dataclass(frozen=True)
class SpectrumResult:
    """Empirical eigenvalues, asymptotic density, and support estimates on a
    common eig(Y Y^H)/(T*R) axis."""

    eigenvalues: np.ndarray          # pooled nonzero eigenvalues, all seeds
    density: SpectralDensity
    supports: tuple


def spectrum_experiment(sys: SystemParams, n_seeds=20, grid_points=600, seed=0) -> SpectrumResult:
    """Pooled empirical spectrum of Y Y^H/(T*R) over seeds with the asymptotic
    density on the same axis and, when there is interference power, the four
    support estimates of bulk_support.support_estimates.

    The grid spans the pooled nonzero eigenvalues with margin; the inversion
    offset is 1e-5 of the grid span (density_from_stieltjes), small enough
    that the zero-eigenvalue atom does not leak into the continuous part.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1: {n_seeds}")
    pilots = PilotConfig(tau_blocks=0)
    pooled = []
    for i in range(n_seeds):
        rz = sample_realization(sys, pilots, [seed, i])
        ev = empirical_spectrum(assemble_received(rz), sys.T)
        pooled.append(ev[ev > 1e-12 * max(ev[0], 1.0)])
    pooled = np.sort(np.concatenate(pooled))
    grid = np.linspace(max(0.25 * pooled[0], 1e-6), 1.1 * pooled[-1], grid_points)
    density = density_from_stieltjes(grid, FixedPointParams.from_system(sys, scale=sys.T * sys.R))

    supports = ()
    if sys.P > 0 and max(sys.interference_powers, default=0.0) > 0:
        supports = bulk_support.support_estimates(sys)
    return SpectrumResult(eigenvalues=pooled, density=density, supports=supports)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_ber_csv(points, meta, path):
    """BER table with the experiment configuration echoed as JSON header comments."""
    lines = ["# config: " + json.dumps(meta, sort_keys=True)]
    lines.append("sweep_value,receiver,tau,delta,ber,errors,bits,ci")
    for p in points:
        lines.append(",".join(_fmt(v) for v in (
            p.sweep_value, p.receiver, p.tau, p.delta, p.ber, p.errors, p.bits, p.ci_halfwidth)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_spectrum_csv(result: SpectrumResult, meta, path):
    """Density and an 80-bin empirical histogram on the common axis, with support
    columns in the header metadata."""
    density = result.density
    hist, edges = np.histogram(result.eigenvalues, bins=80,
                               range=(density.grid[0], density.grid[-1]), density=True)
    # histogram of nonzero eigenvalues is normalized to 1; rescale to the
    # continuous mass so the two columns overlay
    hist = hist * density.continuous_mass
    centers = 0.5 * (edges[1:] + edges[:-1])
    hist_interp = np.interp(density.grid, centers, hist, left=0.0, right=0.0)
    lines = ["# config: " + json.dumps(meta, sort_keys=True),
             f"# kappa={density.kappa!r}",
             f"# atom={density.atom_at_zero!r}",
             f"# scale={density.scale!r}",
             f"# y_offset={density.y_offset!r}"]
    for sup in result.supports:
        lines.append("# support: " + json.dumps(sup.to_dict(), sort_keys=True))
    lines.append("x,density,empirical")
    for x, v, h in zip(density.grid, density.values, hist_interp):
        lines.append(f"{_fmt(float(x))},{_fmt(float(v))},{_fmt(float(h))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
