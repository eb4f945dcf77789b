#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

For every workload in BENCHMARK.json, a one-second run with ``--trace 0``
and one with ``--trace 1`` must succeed and report every declared metric
with its unit and a finite value; a run with ``--negative-control`` must
report one failed operation per operation kind.  Takes about a minute.

    python3 perfbench/smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
# The negative control corrupts one output of each of the five operation
# kinds, so exactly that many operations must fail.
NEGATIVE_FAILURES = 5


def run(workload, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']} value {got.get('value')!r} is not finite")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, result, err = run(name, "--trace", trace)
            label = f"{name} --trace {trace}"
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                failures.append(f"{label}: exit {code}, result {result}, stderr {err.strip()[-300:]}")
                continue
            failures += [f"{label}: {p}" for p in check_metrics(result, declared)]
        code, result, _ = run(name, "--trace", "0", "--negative-control")
        if result is None or result["correct"] or result["failed"] != NEGATIVE_FAILURES or code == 0:
            failures.append(f"{name} --negative-control: not detected (exit {code}, result {result})")
        else:
            print(f"{name}: negative control failed {result['failed']} of {result['attempted']} operations, as it must")
        print(f"{name}: checked")
    for f in failures:
        print(f"SMOKE FAILURE {f}", file=sys.stderr)
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
