#!/usr/bin/env python3
"""Benchmark of slantmodel's symbol -> matrix -> symbol pipeline.

Runs one workload in this process as a closed loop with one client, checks
every output, and prints each metric by name and unit.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

    python3 perfbench/run.py --workload mono-roundtrip --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same inputs and reports the per-layer
metrics, writing the raw spans of the first traced pass to
``.perfbench/trace-<workload>.json``.  ``--negative-control`` corrupts the
first output of every operation kind, so the run must report failures.

The program under test is the ``src/slantmodel`` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

import os

# Pin BLAS to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in this process and in this many fresh child processes,
# and setup_s is the median of them all.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

TIME_METRICS = ("roundtrip", "classify", "conjugate", "cli", "suite")


def tail(samples):
    """Highest-percentile sample with at least ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def load_library():
    """Import the checkout's slantmodel, never an installed copy."""
    if not (SRC / "slantmodel" / "__init__.py").is_file():
        print(f"error: no slantmodel sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import slantmodel

    if Path(slantmodel.__file__).resolve().parent != (SRC / "slantmodel").resolve():
        print(f"error: imported slantmodel from {slantmodel.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def probe_setup(args):
    """(set-up seconds, slowdown) of a fresh interpreter running --setup-probe."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def report_errors(tally):
    for msg in tally.errors[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    if len(tally.errors) > 10:
        print(f"... {len(tally.errors) - 10} more failures", file=sys.stderr)


def run_untraced(args, wl, bench, setup_tally, own_setup):
    setups = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    tally = wl.Tally()
    cycle = 0
    start = perf_counter()
    while cycle == 0 or perf_counter() - start < args.seconds:
        bench.run_cycle(cycle, tally)
        cycle += 1

    # Times are reported at the reference speed; see workloads.slowdown.
    scaled = tally.scaled()
    raw = {"setup_s": statistics.median(sec for sec, _ in setups), "ops_per_s": tally.verified / tally.busy_s()}
    metrics = {
        "setup_s": (statistics.median(sec / slow for sec, slow in setups), "s"),
        "ops_per_s": (tally.verified / sum(map(sum, scaled.values())), "1/s"),
    }
    info = {"slowdown_p50": statistics.median(tally.slowdowns), "setup_samples": setups, "cycles": cycle}
    for kind in TIME_METRICS:
        xs, raw_xs = scaled[kind], [sec for _, sec in tally.samples[kind]]
        metrics[f"{kind}_ms_p50"] = (1e3 * statistics.median(xs), "ms")
        raw[f"{kind}_ms_p50"] = 1e3 * statistics.median(raw_xs)
        info[f"{kind}_samples"] = len(xs)
        if kind == "roundtrip":
            value, pct, _ = tail(xs)
            metrics["roundtrip_ms_tail"] = (1e3 * value, "ms")
            raw["roundtrip_ms_tail"] = 1e3 * tail(raw_xs)[0]
            info["roundtrip_tail_percentile"] = round(pct, 2)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info["raw"] = raw
    return metrics, info, [setup_tally, tally]


def run_traced(args, wl):
    import spans

    tracer = spans.Tracer()
    per_pass_tallies = []
    untraced_ops = untraced_s = traced_ops = traced_s = 0
    counts0 = trace_doc = None
    times = []
    counts_repeat = True
    err_max = 0.0
    start = perf_counter()
    pair_s = 0.0
    # Stop at the pair boundary nearest to the requested run length.
    while not times or perf_counter() - start + pair_s / 2 < args.seconds:
        pair_start = perf_counter()
        for traced in (False, True):
            bench = wl.Bench(args.workload, args.seed, tracer if traced else None, args.negative_control)
            setup_tally, tally = wl.Tally(), wl.Tally()
            if traced:
                tracer.clear()
                tracer.install()
                tracer.active = True
            try:
                bench.setup(setup_tally)
                for cycle in range(bench.spec.cycles_per_pass):
                    bench.run_cycle(cycle, tally)
            finally:
                tracer.active = False
                tracer.uninstall()
            per_pass_tallies += [setup_tally, tally]
            err_max = max(err_max, tally.err_max, setup_tally.err_max)
            busy_s = sum(map(sum, tally.scaled().values()))
            if not traced:
                untraced_ops += tally.verified
                untraced_s += busy_s
                continue
            traced_ops += tally.verified
            traced_s += busy_s
            counts, layer_times, summary = spans.layer_metrics(tracer.spans)
            slow = statistics.median(setup_tally.slowdowns + tally.slowdowns)
            times.append({name: sec / slow for name, sec in layer_times.items()})
            if counts0 is None:
                counts0, trace_doc = counts, {"summary": summary, **spans.raw_spans(tracer.spans)}
            elif counts != counts0:
                counts_repeat = False
        pair_s = perf_counter() - pair_start
    tracer.clear()

    metrics = {name: (value, "bytes" if name.endswith("bytes") else "count") for name, value in counts0.items()}
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times), "s")
    untraced_rate, traced_rate = untraced_ops / untraced_s, traced_ops / traced_s
    metrics["trace_overhead_frac"] = ((untraced_rate - traced_rate) / untraced_rate, "ratio")
    metrics["roundtrip_err_max"] = (err_max, "rel")
    info = {"traced_passes": len(times), "counts_repeat": counts_repeat}
    return metrics, info, per_pass_tallies, trace_doc


def main(argv=None):
    parser = argparse.ArgumentParser(description="slantmodel pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    wl = load_library()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")

    if args.trace:
        metrics, info, tallies, trace_doc = run_traced(args, wl)
    else:
        bench = wl.Bench(args.workload, args.seed, negative_control=args.negative_control)
        setup_tally = wl.Tally()
        bench.setup(setup_tally)
        own_setup = (perf_counter() - t0 - setup_tally.reference_s, statistics.median(setup_tally.slowdowns))
        if args.setup_probe:
            if setup_tally.failed:
                report_errors(setup_tally)
                return 1
            print(json.dumps(own_setup))
            return 0
        metrics, info, tallies = run_untraced(args, wl, bench, setup_tally, own_setup)
        trace_doc = None

    env = environment(args)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        report_errors(t)
    info.update(attempted=attempted, failed=failed, failed_frac=failed / attempted, threads=threading.active_count())
    if trace_doc is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}.json"
        doc = {"env": env, "info": info, "metrics": {k: v for k, (v, _) in metrics.items()}, **trace_doc}
        path.write_text(json.dumps(doc, separators=(",", ":")))
        info["trace_file"] = str(path.relative_to(ROOT))

    print("# env " + json.dumps(env))
    print("# info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<20} {name:<40} {value:>14.6g} {unit}")
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
