"""The benchmark workloads, each built from the benchmark seed.

Every workload is a closed loop with one caller: a pass issues its library
calls one after another and the next pass starts when the previous one has
returned. The library only receives the configs built here; the same seed
gives the same configs, so every pass of one run does identical work and must
return identical outputs.

Functions are looked up on their modules at call time (``montecarlo.ber_vs_IP``
rather than an imported name) so that the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from svdmimo import cli, montecarlo, rmt_spectrum
from svdmimo.montecarlo import ExperimentConfig
from svdmimo.system_model import InterferenceProfile, SystemParams


@dataclass
class PassResult:
    """Outcome of one workload pass."""

    ops: int                                     # work units completed
    checks: list                                 # (label, ok) per correctness check
    fingerprint: str                             # equal across passes of one seed
    counts: dict = field(default_factory=dict)   # exact counts, repeat at fixed seed


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _ber_outcome(points, cfg):
    """Ops (coherence blocks), exact counts and fingerprint of a BER sweep."""
    sys_ = cfg.system
    svd = [p for p in points if p.receiver == "svd"]
    conv = [p for p in points if p.receiver == "conventional"]
    blocks = sum(p.symbols // (sys_.T * (sys_.C - p.tau * sys_.T)) for p in svd)
    counts = {"montecarlo.bits": sum(p.bits for p in svd),
              "montecarlo.svd_errors": sum(p.errors for p in svd),
              "montecarlo.conventional_errors": sum(p.errors for p in conv)}
    fingerprint = _digest([(p.sweep_value, p.delta, p.receiver, p.errors, p.bits)
                           for p in points])
    return blocks, counts, fingerprint


class Workload:
    name = ""
    layers = ()   # layers a pass must reach; zero calls there means a moved call site

    def build(self, seed, toy, workdir):
        """Make the inputs of every pass from the seed."""
        raise NotImplementedError

    def warmup(self):
        """One small call per entry point, so lazy set-up ends before timing."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError


_RECEIVER_LAYERS = ("system_model.sample_realization", "system_model.assemble_received",
                    "subspace_receiver.signal_subspace", "subspace_receiver.project",
                    "subspace_receiver.estimate_projected_channel",
                    "subspace_receiver.detect_subspace",
                    "subspace_receiver.conventional_receiver",
                    "subspace_receiver.count_bit_errors")


# Fig. 5: the subspace receiver wins below the separability threshold and
# loses at I/P = 0.95, where the bulks merge
FIG5_SVD_WINS = {0.1: True, 0.3: True, 0.5: True, 0.95: False}


def _fig5_config(seed, toy):
    R, C, min_symbols = (60, 200, 2_000) if toy else (300, 1000, 100_000)
    base = SystemParams.from_profile(R=R, T=3, C=C, L=2, P=0.1, W=1.0,
                                     profile=InterferenceProfile(kind="flat", I=0.025))
    return ExperimentConfig(system=base, sweep="I_over_P", values=tuple(FIG5_SVD_WINS),
                            taus=(1,), min_symbols=min_symbols, seed=seed, threads=1)


class BerFig5(Workload):
    """Fig.-5 interference sweep: 136 large (300 x 1000) blocks per pass."""

    name = "ber_fig5"
    layers = _RECEIVER_LAYERS + ("montecarlo.ber_vs_IP",)

    def build(self, seed, toy, workdir):
        self.cfg = _fig5_config(seed, toy)
        self.warm_cfg = _fig5_config(seed, toy=True)

    def warmup(self):
        montecarlo.ber_vs_IP(self.warm_cfg)

    def run_pass(self):
        points, _ = montecarlo.ber_vs_IP(self.cfg)
        by_key = {(p.sweep_value, p.receiver): p for p in points}
        checks = []
        for ip, expected in FIG5_SVD_WINS.items():
            svd_wins = by_key[(ip, "svd")].beats(by_key[(ip, "conventional")])
            checks.append((f"I/P={ip}: svd beats conventional is {expected}",
                           svd_wins == expected))
        blocks, counts, fingerprint = _ber_outcome(points, self.cfg)
        return PassResult(ops=blocks, checks=checks, fingerprint=fingerprint, counts=counts)


# one delta of the paper's 2..6 keeps a pass near 6 s; delta = 2 is the
# strongest interference of the sweep
FIG4_DELTAS = (2,)


def _fig4_config(seed, toy):
    values, min_symbols = ((20, 40, 80, 160), 1_000) if toy else ((50, 100, 200, 400), 100_000)
    base = SystemParams.from_profile(R=100, T=5, C=100, L=6, P=0.1, W=1.0,
                                     profile=InterferenceProfile(kind="modulo", delta=2))
    return ExperimentConfig(system=base, sweep="R", values=values, deltas=FIG4_DELTAS,
                            min_symbols=min_symbols, seed=seed, threads=1)


class BerFig4(Workload):
    """Fig.-4 antenna sweep at delta = 2: 844 small blocks per pass."""

    name = "ber_fig4"
    layers = _RECEIVER_LAYERS + ("montecarlo.ber_vs_R",)

    def build(self, seed, toy, workdir):
        self.cfg = _fig4_config(seed, toy)
        self.warm_cfg = _fig4_config(seed, toy=True)

    def warmup(self):
        montecarlo.ber_vs_R(self.warm_cfg)

    def run_pass(self):
        points, per_seed = montecarlo.ber_vs_R(self.cfg)
        by_key = {(int(p.sweep_value), p.delta, p.receiver): p for p in points}
        Rs = [int(R) for R in self.cfg.values]
        checks = []
        for delta in self.cfg.deltas:
            for R in Rs[1:]:
                checks.append((f"delta={delta} R={R}: svd beats conventional",
                               by_key[(R, delta, "svd")].beats(
                                   by_key[(R, delta, "conventional")])))
            medians = [float(np.median(per_seed[(R, delta, "svd")])) for R in Rs]
            checks.append((f"delta={delta}: svd median BER non-increasing in R",
                           all(m1 >= m2 - 1e-12 for m1, m2 in zip(medians, medians[1:]))))
        blocks, counts, fingerprint = _ber_outcome(points, self.cfg)
        return PassResult(ops=blocks, checks=checks, fingerprint=fingerprint, counts=counts)


def _support_grid(rng, toy):
    """`svdmimo support` configs over R x I/P x L at T=3, C=1000, P/W = -10 dB.

    R = 12 puts the unilateral rule outside its regime (RegimeError, reported in
    support.json); I/P is jittered by the seed inside each cell of the grid.
    """
    Rs, ips, Ls = ((12, 300), (0.3,), (2,)) if toy else ((12, 50, 100, 300, 1000),
                                                        (0.1, 0.3, 0.5, 0.7, 0.9),
                                                        (1, 2, 4, 7))
    return [{"R": R, "T": 3, "C": 1000, "L": L, "P_dB": -10, "W_dB": 0, "profile": "flat",
             "I_over_P": ip + float(rng.uniform(-0.02, 0.02))}
            for R in Rs for ip in ips for L in Ls]


def _cold_draws(rng, n):
    """Random (s, params) pairs drawn like the Herglotz invariant suite."""
    draws = []
    for _ in range(n):
        kappa = 10 ** rng.uniform(-0.7, 0.7)
        C = int(rng.integers(50, 400))
        R = max(int(round(C / kappa)), 2)
        T = int(rng.integers(1, 6))
        L = int(rng.integers(0, 4))
        P = 10 ** rng.uniform(-2, 0)
        W = 10 ** rng.uniform(-2, 1)
        I = P * rng.uniform(0.0, 1.0)
        sys_ = SystemParams.from_profile(R, T, C, L, P, W, InterferenceProfile(kind="flat", I=I))
        fp = rmt_spectrum.FixedPointParams.from_system(sys_, scale=T * R)
        s = rng.uniform(0.01, 5.0) * fp.mean_eigenvalue() + 1j * 10 ** rng.uniform(-4, 1)
        draws.append((s, fp))
    return draws


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _support_ok(doc):
    """Every estimate endpoint finite; every threshold finite or, for the
    unilateral rule, an explained regime error."""
    ends = [v for e in doc["estimates"] for v in e["signal"] + e["interference"]]
    th = doc["thresholds"]
    unilateral = _finite(th.get("unilateral_I_over_P")) or "unilateral_error" in th
    return (all(_finite(v) for v in ends) and _finite(th["bilateral_boundary_I_over_P"])
            and unilateral)


class AnalysisCold(Workload):
    """Closed-form and cold-start path: `svdmimo support` over a config grid and
    1000 cold Stieltjes solves per pass (run as part of BerFig5Analysis)."""

    name = "analysis_cold"
    layers = ("cli.main", "rmt_spectrum.stieltjes_solve", "bulk_support.unilateral_supports",
              "bulk_support.s1_supports", "bulk_support.bilateral_supports_highsnr",
              "bulk_support.bilateral_supports_general", "bulk_support.unilateral_separable",
              "bulk_support.separability_boundary_ratio", "numerics.bisect",
              "numerics.poly_roots")

    def build(self, seed, toy, workdir):
        rng = np.random.default_rng([seed, 1])
        self.jobs = []
        for i, cfg in enumerate(_support_grid(rng, toy)):
            path = Path(workdir) / f"support-{i:03d}.json"
            path.write_text(json.dumps(dict(cfg, seed=seed)))
            self.jobs.append((str(path), str(Path(workdir) / f"out-{i:03d}")))
        self.draws = _cold_draws(rng, 20 if toy else 1000)

    def warmup(self):
        self._support(*self.jobs[0])
        rmt_spectrum.stieltjes_solve(*self.draws[0])

    @staticmethod
    def _support(config, out):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["support", "--config", config, "--out", out])

    def run_pass(self):
        checks, docs, Gs = [], [], []
        for config, out in self.jobs:
            ok = self._support(config, out) == 0
            if ok:
                doc = json.loads((Path(out) / "support.json").read_text())
                ok = _support_ok(doc)
                docs.append(doc)
            checks.append((f"support {Path(config).name}", ok))
        for s, fp in self.draws:
            try:
                G = rmt_spectrum.stieltjes_solve(s, fp).G
            except (rmt_spectrum.StieltjesSolverError, ValueError):
                checks.append((f"stieltjes_solve at s={s}", False))
                continue
            Gs.append(G)
            checks.append((f"stieltjes_solve at s={s}",
                           G.imag > 0 and abs(G) <= 1.0 / s.imag * (1 + 1e-9)))
        fingerprint = _digest(json.dumps(docs, sort_keys=True), np.asarray(Gs).tobytes())
        return PassResult(ops=len(self.jobs) + len(self.draws), checks=checks,
                          fingerprint=fingerprint)


class BerFig5Analysis(Workload):
    """Fig.-5 sweep followed by the analysis path, one after the other in each pass.

    The analysis path is interpreter-bound, and on a small shared machine its
    wall time alone swings by about 1.6x over phases lasting minutes, too much
    for a timing bound. Run after the BLAS-bound Fig.-5 sweep, it keeps its
    layers traced while the pass as a whole stays steady enough to bound.
    """

    name = "ber_fig5_analysis"
    parts = (BerFig5, AnalysisCold)
    layers = BerFig5.layers + AnalysisCold.layers

    def build(self, seed, toy, workdir):
        self.workloads = [part() for part in self.parts]
        for workload in self.workloads:
            workload.build(seed, toy, workdir)

    def warmup(self):
        for workload in self.workloads:
            workload.warmup()

    def run_pass(self):
        results = [workload.run_pass() for workload in self.workloads]
        return PassResult(ops=sum(r.ops for r in results),
                          checks=[c for r in results for c in r.checks],
                          fingerprint=_digest(*(r.fingerprint for r in results)),
                          counts={k: v for r in results for k, v in r.counts.items()})


WORKLOADS = {w.name: w for w in (BerFig4, BerFig5Analysis)}
