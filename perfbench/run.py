"""svdmimo benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload ber_fig4 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. The run builds the workload's inputs from ``--seed``, repeats
passes over them for about ``--seconds`` seconds, checks every pass's outputs
and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json: the
median pass wall time, the median rate of work units per second, the median
set-up time of this process and of SETUP_PROBES fresh ones, and peak resident
memory. With ``--trace 1`` they are the per-layer ones, measured by wrapping
each layer (see tracing.py) on alternate passes. A full report with the run
manifest goes to ``.perfbench/`` in the checkout, and the spans of a traced run
next to it. ``python3 perfbench/selfcheck.py`` checks the output against
BENCHMARK.json on toy-size inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4          # set-up is also timed in this many fresh processes
PROBE_TIMEOUT_S = 60


def pin_blas_threads():
    """One BLAS/OpenMP thread; must run before numpy is imported.

    Unpinned OpenBLAS on a small machine makes every matrix call contend with
    itself, so the benchmark would measure the scheduler."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import svdmimo from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import svdmimo

    if not Path(svdmimo.__file__).resolve().is_relative_to(src):
        raise ImportError(f"svdmimo imported from {svdmimo.__file__}, not from {src}")


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "git_sha": _git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


def _summary(values):
    """Median, quartiles and sample count of a list of pass measurements."""
    lo, _, hi = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "p25": lo, "p75": hi, "n": len(values),
            "samples": values}


def _probe_setup(args):
    """Set-up time of a fresh process (import, configs, warm-up), in seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--toy"] if args.toy else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    pass_id: int
    traced: bool
    wall: float
    result: object = None       # PassResult, or None when the pass raised


class Loop:
    """Closed loop of passes over one workload, with every check tallied."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.start = time.perf_counter()
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.fingerprint = None

    def run(self, tracer=None):
        pass_id = len(self.passes)
        if tracer is not None:
            tracer.pass_id = pass_id
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = self.workload.run_pass()
        except Exception:  # noqa: BLE001 - a failing pass is counted, the run goes on
            if all(p.result is not None for p in self.passes):   # first failure only
                traceback.print_exc(file=sys.stderr)
            result = None
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        self.passes.append(Pass(pass_id, tracer is not None, wall, result))
        checks = [("pass raised", False)] if result is None else list(result.checks)
        if result is not None:
            if self.fingerprint is None:
                self.fingerprint = result.fingerprint
            else:
                checks.append(("outputs repeat the first pass",
                               result.fingerprint == self.fingerprint))
        self.attempted += len(checks)
        for label, ok in checks:
            if not ok:
                self.failed += 1
                self.failures.append(label)

    def done(self):
        """True when one more pass of the median length would overrun."""
        typical = statistics.median(p.wall for p in self.passes)
        return time.perf_counter() - self.start + typical > self.seconds

    def completed(self, traced=False):
        """Passes of one kind that completed; all of that kind when none did,
        so that a failing run still reports its time to failure."""
        mine = [p for p in self.passes if p.traced == traced]
        return [p for p in mine if p.result is not None] or mine


def run_untraced(loop):
    loop.run()
    while not loop.done():
        loop.run()


def run_traced(loop):
    """Alternate untraced and traced passes: the traced ones give the
    per-layer numbers, the difference of the two medians the overhead."""
    from tracing import Tracer

    tracer = Tracer()
    loop.run()
    loop.run(tracer)
    while not loop.done():
        loop.run(tracer if len(loop.passes) % 2 else None)
    return tracer


def _median_wall(passes):
    return statistics.median(p.wall for p in passes)


def layer_metrics(workload, loop, tracer):
    """Per-layer metrics (medians over traced passes) and a per-layer report
    that marks layers with no calls as unmeasured."""
    from tracing import EXPERIMENTS, LAYER_NAMES, SOLVE, pass_layers

    traced = loop.completed(traced=True)
    per_pass = [pass_layers(tracer.spans, p.pass_id) for p in traced]
    values, report = {}, {}
    for layer in LAYER_NAMES:
        calls = [len(durations[layer]) for durations, _ in per_pass]
        values[layer + ".calls"] = statistics.median_low(calls)
        values[layer + ".total_s"] = statistics.median(
            sum(durations[layer], 0.0) for durations, _ in per_pass)
        if layer in EXPERIMENTS:
            values[layer + ".self_s"] = statistics.median(self_s[layer] for _, self_s in per_pass)
        if not any(calls):
            report[layer] = "unmeasured"
            if layer in workload.layers:
                print(f"perfbench: expected layer {layer} saw no calls; its call site "
                      "moved or the wrapper missed it", file=sys.stderr)
            continue
        report[layer] = {"calls": values[layer + ".calls"],
                         "total_s": values[layer + ".total_s"]}
        every_call = [d for durations, _ in per_pass for d in durations[layer]]
        if len(every_call) >= 2:
            p99 = statistics.quantiles(every_call, n=100, method="inclusive")[98]
            if sum(d > p99 for d in every_call) >= 10:
                report[layer].update(ms_p50=1e3 * statistics.median(every_call),
                                     ms_p99=1e3 * p99, samples=len(every_call))

    first = traced[0]
    iterations = [n for pid, n in tracer.iterations if pid == first.pass_id]
    values[SOLVE + ".iterations_median"] = statistics.median_low(iterations) if iterations else 0
    values[SOLVE + ".iterations_max"] = max(iterations, default=0)
    for name in ("bulk_support.warnings", "bulk_support.regime_errors"):
        values[name] = tracer.counts[(first.pass_id, name)]
    counts = first.result.counts if first.result is not None else {}
    for name in ("montecarlo.bits", "montecarlo.svd_errors", "montecarlo.conventional_errors"):
        values[name] = counts.get(name, 0)
        if name not in counts:
            report[name] = "unmeasured"
    values["trace.untraced_wall_s"] = _median_wall(loop.completed(traced=False))
    values["trace.traced_wall_s"] = _median_wall(traced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    return values, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description="svdmimo benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs (benchmark self-check only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print it (used by the run itself)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    pin_blas_threads()
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    t0 = time.perf_counter()
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload.build(args.seed, args.toy, workdir)
        workload.warmup()
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return _measure(args, spec, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, spec, workload, setup_s):
    loop = Loop(workload, args.seconds)
    report = {"manifest": manifest(args)}
    if args.trace:
        tracer = run_traced(loop)
        values, report["layers"] = layer_metrics(workload, loop, tracer)
        report.update(wall_s_untraced=_summary([p.wall for p in loop.completed(False)]),
                      wall_s_traced=_summary([p.wall for p in loop.completed(True)]))
        tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
        declared = spec["per_layer"]
    else:
        run_untraced(loop)
        passes = loop.completed()
        walls = [p.wall for p in passes]
        rates = [(p.result.ops if p.result else 0) / p.wall for p in passes]
        setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
        values = {
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report.update(wall_s=_summary(walls), ops_per_s=_summary(rates),
                      setup_s=_summary(setups))
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report.update(attempted=loop.attempted, failed=loop.failed,
                  error_rate=loop.failed / loop.attempted,
                  failures=loop.failures[:50], metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    print("manifest: " + json.dumps(report["manifest"]))
    for line in _table(report):
        print(line)
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def _table(report):
    lines = [f"error_rate {report['error_rate']:.4g} ({report['failed']}/{report['attempted']})"]
    for key in ("wall_s", "ops_per_s", "setup_s", "wall_s_untraced", "wall_s_traced"):
        s = report.get(key)
        if s:
            lines.append(f"{key} median {s['median']:.6g} IQR [{s['p25']:.6g}, {s['p75']:.6g}]"
                         f" n={s['n']}")
    for layer, entry in report.get("layers", {}).items():
        if entry == "unmeasured":
            lines.append(f"{layer}: unmeasured")
        else:
            lines.append(f"{layer}: " + " ".join(f"{k}={v:.6g}" for k, v in entry.items()))
    return lines


if __name__ == "__main__":
    sys.exit(main())
