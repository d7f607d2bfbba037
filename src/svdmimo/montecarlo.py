"""Desk-scale experiment harness: BER sweeps and spectrum overlays.

Both receivers see the same realizations (paired comparison), bit-error counts
are exact integers, and every realization derives its RNG stream from
(master seed, point index, repetition index), so identical configs reproduce
bit-identical outputs regardless of worker scheduling.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bulk_support
from .rmt_spectrum import FixedPointParams, SpectralDensity, density_from_stieltjes, empirical_spectrum
from .subspace_receiver import (conventional_receiver, count_bit_errors, detect_subspace,
                                estimate_projected_channel, project, signal_subspace)
from .system_model import (InterferenceProfile, PilotConfig, SystemParams, assemble_received,
                           derive_params, interference_profile, make_pilots,
                           sample_realization)

RECEIVERS = ("svd", "conventional")


@dataclass(frozen=True)
class BerPoint:
    """One aggregated BER measurement."""

    sweep_value: float
    receiver: str
    tau: int
    errors: int
    bits: int
    symbols: int
    delta: float | None = None

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
        elif self.deltas is not None:
            raise ValueError("deltas apply only to the R sweep")

    def to_dict(self):
        d = {
            "system": {"R": self.system.R, "T": self.system.T, "C": self.system.C,
                       "L": self.system.L, "P": self.system.P, "W": self.system.W,
                       "interference_powers": list(self.system.interference_powers)},
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
    channel = estimate_projected_channel(Yt, pilots)
    svd = detect_subspace(Yt[:, pilots.tau_blocks * sys.T:], channel,
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
            sym_per_rep = sys.T * (sys.C - tau * sys.T)
            if sym_per_rep <= 0:
                raise ValueError("no data columns left after pilots")
            reps = -(-cfg.min_symbols // sym_per_rep)
            blocks = list(run(partial(_run_realization, sys, pilots),
                              ([cfg.seed, index, rep] for rep in range(reps))))
            bits = sum(block[-1] for block in blocks)
            for i, rec in enumerate(RECEIVERS):
                ber_points.append(BerPoint(sweep_value=float(value), receiver=rec, tau=tau,
                                           errors=sum(block[i] for block in blocks),
                                           bits=bits, symbols=bits // 2, delta=delta))
                per_seed_map[key + (rec,)] = [block[i] / block[-1] for block in blocks]
    return ber_points, per_seed_map


def ber_vs_R(cfg: ExperimentConfig):
    """BER versus number of receive antennas, one curve per modulo-profile delta.

    Returns (points, per_seed_bers) where per_seed_bers[(R, delta, receiver)]
    is the list of per-realization BERs (for median-trend checks).
    """
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
    n_seeds: int
    seed: int

    def empirical_cdf(self, x):
        ev = np.sort(self.eigenvalues)
        return np.searchsorted(ev, x, side="right") / len(ev)

    def asymptotic_cdf(self, x):
        """CDF of the continuous part renormalized over the nonzero eigenvalues."""
        cum = self.density.cdf()
        total = cum[-1]
        return np.interp(x, self.density.grid, cum / total, left=0.0, right=1.0)

    def kolmogorov_distance(self):
        ev = np.sort(self.eigenvalues)
        n = len(ev)
        F = self.asymptotic_cdf(ev)
        steps = np.arange(1, n + 1) / n
        return float(max(np.max(np.abs(steps - F)), np.max(np.abs(steps - 1.0 / n - F))))

    def gap_mass(self):
        """Fraction of pooled eigenvalues strictly between the two rightmost bulks
        of the asymptotic density; None when the density shows a single bulk."""
        bulks = self.density.bulk_intervals()
        if len(bulks) < 2:
            return None
        gap_lo, gap_hi = bulks[-2][1], bulks[-1][0]
        inside = np.sum((self.eigenvalues > gap_lo) & (self.eigenvalues < gap_hi))
        return float(inside / len(self.eigenvalues))


def spectrum_experiment(sys: SystemParams, n_seeds=20, grid_points=600, y_offset=None,
                        seed=0, grid=None, data_law="gaussian") -> SpectrumResult:
    """Pooled empirical spectrum of Y Y^H/(T*R) over seeds with the asymptotic
    density on the same axis and every applicable support estimate.

    The default grid spans the pooled nonzero eigenvalues with margin; the
    default inversion offset is 1e-5 of the grid span, small enough that the
    zero-eigenvalue atom does not leak into the continuous part.
    """
    scale = sys.T * sys.R
    pilots = PilotConfig(tau_blocks=0)
    pooled = []
    for i in range(n_seeds):
        rz = sample_realization(sys, pilots, [seed, i], data_law=data_law)
        ev = empirical_spectrum(assemble_received(rz)) * sys.R / scale
        pooled.append(ev[ev > 1e-12 * max(ev[0], 1.0)])
    pooled = np.sort(np.concatenate(pooled))
    if grid is None:
        lo = max(0.25 * pooled[0], 1e-6)
        hi = 1.1 * pooled[-1]
        grid = np.linspace(lo, hi, grid_points)
    fp = FixedPointParams.from_system(sys, scale=scale)
    if y_offset is None:
        y_offset = 1e-5 * (grid[-1] - grid[0])
    density = density_from_stieltjes(grid, fp, y_offset=y_offset)

    supports = []
    if sys.P > 0 and max(sys.interference_powers, default=0.0) > 0:
        dp = derive_params(sys)
        try:
            supports.append(bulk_support.unilateral_supports(dp, sys.P, sys.W, sys.L))
        except (ValueError, bulk_support.RegimeError):
            pass
        supports.append(bulk_support.s1_supports(dp, sys.L))
        supports.append(bulk_support.bilateral_supports_highsnr(dp, sys.L))
        supports.append(bulk_support.bilateral_supports_general(dp, sys.L, dp.zeta))
    return SpectrumResult(eigenvalues=pooled, density=density, supports=tuple(supports),
                          n_seeds=n_seeds, seed=seed)


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


def write_spectrum_csv(result: SpectrumResult, meta, path, bins=80):
    """Density and empirical histogram on the common axis, with support columns
    in the header metadata."""
    density = result.density
    hist, edges = np.histogram(result.eigenvalues, bins=bins,
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
