#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

    python3 benchmarks/make_reference.py [family] [solve] [gate]

Run it from the root of a source checkout, once, at the commit whose outputs
are the reference; later commits must reproduce them to 1e-8.  The files go
to ``benchmarks/reference/``:

- ``family_rows.json``: all 729 rows of the cargo family sweep (about 15
  minutes on one core): metrics, error, circuit stats and wall time.  The
  wall time only orders rows into the sampling strata of ``family_sample``.
- ``solve_seed0.json``: the best angles and metrics of the ``solve_cargo``
  ops of the first cycles of workload seed 0.
- ``gate_seed0.json``: circuit stats of each ``gate_reference_20q`` circuit,
  with the decision marginals and survival of workload seed 0.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent


def write(name: str, doc) -> None:
    path = BENCH_DIR / "reference" / name
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(item) for item in doc) + "\n]\n")
    print(f"wrote {path}")


def family(z, workloads) -> None:
    problem, mult, config, assignments = workloads.family_inputs(z)
    rows = []
    for index, assignment in enumerate(assignments):
        start = perf_counter()
        row = workloads.family_row(z, problem, assignment, mult, config, index)
        rows.append({
            "row": index,
            "assignment": ",".join(assignment),
            "expected_cost": row.expected_cost,
            "p_feasible": row.p_feasible,
            "p_optimal": row.p_optimal,
            "survival": row.survival_prob,
            "error": row.error.split(":", 1)[0],
            "stats": workloads.stats_dict(row.stats),
            "wall_s": round(perf_counter() - start, 3),
        })
    write("family_rows.json", rows)


def solve(z, workloads) -> None:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.SolveCargo(z, 0, out_dir)
    doc = []
    ops = [op for cycle in range(workloads.SOLVE_REFERENCE_CYCLES) for op in workload.ops(cycle)]
    for op in ops:
        cycle, position, assignment, code, text, rows = op.digest(op.run())
        if code != 0:
            raise SystemExit(f"solve {assignment} exited with code {code}")
        best = min(rows, key=lambda r: r[3])
        names = ("gamma", "beta", "cost", "p_feasible", "p_optimal", "survival")
        doc.append({"cycle": cycle, "position": position, "assignment": assignment,
                    **dict(zip(names, best[1:]))})
    write("solve_seed0.json", doc)


def gate(z, workloads) -> None:
    workload = workloads.GateReference20q(z, 0, BENCH_DIR / "out")
    doc = []
    for op in workload.ops(0):
        record = op.digest(op.run())
        doc.append({
            "assignment": op.label,
            "stats": record["stats"],
            "gate": [float(v) for v in record["gate"]],
            "survival": record["survival"],
        })
    write("gate_seed0.json", doc)


def main() -> int:
    from run import PINNED_THREADS

    for var in PINNED_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import zenopt
    import zenopt.cli  # noqa: F401
    import workloads

    jobs = {"family": family, "solve": solve, "gate": gate}
    wanted = sys.argv[1:] or list(jobs)
    unknown = [name for name in wanted if name not in jobs]
    if unknown:
        print(f"unknown reference set(s) {unknown}; choose from {list(jobs)}", file=sys.stderr)
        return 2
    for name in wanted:
        jobs[name](zenopt, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
