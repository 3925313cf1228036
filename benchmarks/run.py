#!/usr/bin/env python3
"""zenopt benchmark: one workload per run, closed loop, one caller.

    python3 benchmarks/run.py --workload family_sample --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; zenopt is imported from
``src/`` of that checkout, never from an installed copy.  numpy/BLAS
thread pools are pinned to one thread, so the numbers measure zenopt and
not the scheduler.

A run sets up (import, instance construction, brute force, warm-up ops),
then repeats the workload's cycle of ops and stops before a cycle that
would end after ``--seconds`` (at least one cycle always runs).  With
``--trace 1`` exactly one cycle runs under the span tracer, so every count
repeats exactly between runs.  Every op's output is checked after the timed
loop.  The last line of standard output is the JSON result; the run
record (environment, op times, failures, and spans when traced) goes to
``benchmarks/out/``.  Exits 1 without a result when zenopt's source, a
reference file or a name a check needs is missing.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINNED_THREADS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
TAIL_PERCENTILE = 90
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import zenopt, zenopt.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("family_sample", "solve_cargo", "gate_reference_20q"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def import_seconds(env: dict[str, str]) -> float:
    """Median time to import zenopt in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(numpy_version: str) -> dict:
    caches = {}
    try:
        lines = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        for line in lines.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "threads": {var: os.environ[var] for var in PINNED_THREADS},
        "commit": commit,
        "machine": platform.machine(),
    }


def run_cycles(workload, seconds: float, traced: bool, tracer) -> list[dict]:
    """The timed closed loop: whole cycles until the next would overrun."""
    done: list[dict] = []
    start = perf_counter()
    cycle = 0
    while True:
        cycle_start = perf_counter()
        for op in workload.ops(cycle):
            if tracer is not None:
                tracer.op = len(done)
            entry = {"label": op.label}
            t0 = perf_counter()
            try:
                raw = op.run()
            except Exception:
                entry["seconds"] = perf_counter() - t0
                entry["error"] = traceback.format_exc(limit=3)
            else:
                entry["seconds"] = perf_counter() - t0
                entry["record"] = op.digest(raw)
                del raw
            done.append(entry)
        now = perf_counter()
        if traced or (now - start) + (now - cycle_start) > seconds:
            return done
        cycle += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    if not (SRC / "zenopt" / "__init__.py").is_file():
        print(f"zenopt source not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    import_s = import_seconds(env)

    import numpy as np
    import zenopt
    import zenopt.cli  # noqa: F401  (the solve workload calls zenopt.cli.main)

    if Path(zenopt.__file__).resolve().parent != (SRC / "zenopt").resolve():
        print(f"imported zenopt from {zenopt.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    from spans import Tracer
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)

    t0 = perf_counter()
    workload = WORKLOADS[args.workload](zenopt, args.seed, OUT_DIR)
    for op in workload.warmup:
        op.digest(op.run())
    setup_s = import_s + perf_counter() - t0

    tracer = None
    compiled_model = getattr(zenopt.builder, "compiled_model", None)
    misses_before = compiled_model.cache_info().misses if compiled_model else None
    if args.trace:
        tracer = Tracer()
        tracer.install(zenopt)
    try:
        done = run_cycles(workload, args.seconds, bool(args.trace), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    misses = compiled_model.cache_info().misses - misses_before if compiled_model else None

    # A row that failed with the same error class in the reference is a
    # known defect: it counts as failed but does not make the run incorrect.
    failures, unexpected = [], []
    for entry in done:
        problem = entry.get("error") or workload.check(entry["record"])
        if problem:
            failures.append(f"{entry['label']}: {problem}")
            if not workload.known_failure(entry.get("record")):
                unexpected.append(failures[-1])
        entry.pop("record", None)

    times = [entry["seconds"] for entry in done]
    attempted, failed = len(done), len(failures)
    if args.trace:
        metrics = tracer.layer_metrics(misses)
        metrics["trace.ops_per_s"] = attempted / sum(times)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(times),
            "op_s_tail": percentile(times, TAIL_PERCENTILE),
            "ops_per_s": attempted / sum(times),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mib": peak_rss_mib,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1

    beyond = sum(1 for t in times if t > percentile(times, TAIL_PERCENTILE))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(np.__version__),
        "import_s": import_s, "setup_s": setup_s,
        "ops": attempted, "failed": failed, "failed_frac": failed / attempted,
        "tail": {"percentile": TAIL_PERCENTILE, "ops_beyond": beyond},
        "op_times": [[e["label"], e["seconds"]] for e in done],
        "failures": failures, "unmeasured": tracer.missing if tracer else [],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    print(f"environment {json.dumps(record['environment'])}")
    for line in failures:
        print(f"failed op {line.splitlines()[0]}")
    if tracer is not None and tracer.missing:
        print(f"unmeasured patch points: {', '.join(tracer.missing)}")
    print(f"{args.workload}: {attempted} ops, failed_frac {failed / attempted:.4f}, "
          f"op_s_tail = p{TAIL_PERCENTILE} ({beyond} ops beyond it)")
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
