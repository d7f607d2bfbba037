"""Self-check of the benchmark: every workload at toy size, traced and not.

    python3 perfbench/selfcheck.py

Asserts that the workloads run.py knows are exactly those of BENCHMARK.json,
and that each run prints a last line whose keys, metric names and units match
BENCHMARK.json exactly. Toy inputs are too small for the paper's BER
orderings, so correctness verdicts are printed, not asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload, trace, spec):
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared, (workload, trace, set(printed) ^ set(declared))
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (name, m)
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name
    return result


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.pin_blas_threads()
    run.import_library()
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS), (names, sorted(workloads.WORKLOADS))
    for name in names:
        for trace in (0, 1):
            result = check_run(name, trace, spec)
            print(f"{name} trace={trace}: metrics match BENCHMARK.json; "
                  f"correct={result['correct']} ({result['failed']}/{result['attempted']} failed)")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
