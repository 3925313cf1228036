"""The benchmark's three workloads, built from a workload seed.

Every workload is a closed loop with one caller: a run repeats a fixed
cycle of ops, each op starting when the previous one returns.  An op has a
timed part, which calls zenopt's public API, and an untimed digest that
reduces its output to a small record; the records are checked after the
timed loop ends.  zenopt's modules are looked up at call time
(``zenopt.builder.run_circuit``, never a name bound at import) so that the
traced run sees the calls the tracer rebinds.

Shared settings follow the CLI sweep: multiplier lambda = 13, the cargo
family of ``zenopt sweep-family``, 40 optimizer iterations.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

LAMBDA = 13.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOL = 1e-8


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]


class Workload:
    """A workload's set-up happens in ``__init__``; it then provides the
    warm-up ops, the ops of each cycle and a check per op record."""

    name: str
    warmup: list[Op]
    cycle: list[Op]

    def ops(self, cycle: int) -> list[Op]:
        return self.cycle

    def check(self, record) -> str | None:
        """A description of what is wrong with one op's record, or None."""
        raise NotImplementedError

    def known_failure(self, record) -> bool:
        """Whether a failed op failed as the reference outputs recorded."""
        return False


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _metric_problems(cost, p_feasible, p_optimal, survival) -> list[str]:
    """Range checks that need no trust in the backend under test."""
    out = []
    for name, value in (("p_feasible", p_feasible), ("p_optimal", p_optimal)):
        if not 0.0 <= value <= 1.0 + 1e-12:
            out.append(f"{name}={value} outside [0,1]")
    if p_optimal > p_feasible + 1e-12:
        out.append(f"p_optimal={p_optimal} > p_feasible={p_feasible}")
    if not 0.0 < survival <= 1.0 + 1e-12:
        out.append(f"survival={survival} outside (0,1]")
    if not math.isfinite(cost):
        out.append(f"expected_cost={cost} not finite")
    return out


@functools.lru_cache(maxsize=None)
def load_reference(name: str):
    """Reference outputs recorded at the seed commit (see make_reference.py)."""
    path = REFERENCE_DIR / name
    if not path.is_file():
        raise FileNotFoundError(f"reference file {path} is missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stats_dict(stats) -> dict[str, int]:
    return {k: int(v) for k, v in vars(stats).items()}


# ---------------------------------------------------------------- family_sample

FAMILY_CARGO = ([1, 2, 3], 2, 3)
FAMILY_FORCED_ROWS = (610, 634)  # Z,D,D,D,Z,D and Z,D,Z,D,D,D: EmptySubspaceError at the seed commit
FAMILY_WARMUP_ROW = 0
FAMILY_STRATA = 28


def family_sample(seed: int, reference: list[dict]) -> list[int]:
    """Stratified sample of family rows, plus the two rows known to fail.

    The rows other than the warm-up row and the forced rows are grouped by
    qubit count, which sets a row's state and oracle-table memory.  Each
    group gets its proportional share of FAMILY_STRATA strata (largest
    remainder), cut from the group ordered by recorded row cost, and the seed
    picks one row per stratum.  Every seed so runs the same number of rows at
    each qubit count and the same spread of row costs, which keeps the run's
    median, tail and peak memory comparable across seeds.  The cycle order
    is shuffled by the same seed.
    """
    rng = np.random.default_rng(seed)
    groups: dict[int, list[int]] = {}
    for row in reference:
        if row["row"] != FAMILY_WARMUP_ROW and row["row"] not in FAMILY_FORCED_ROWS:
            groups.setdefault(row["stats"]["n_qubits"], []).append(row["row"])
    total = sum(len(g) for g in groups.values())
    quota = {n: FAMILY_STRATA * len(g) / total for n, g in groups.items()}
    strata = {n: int(q) for n, q in quota.items()}
    by_remainder = sorted(groups, key=lambda n: (strata[n] - quota[n], n))
    for n in by_remainder[: FAMILY_STRATA - sum(strata.values())]:
        strata[n] += 1
    rows = []
    for n in sorted(groups):
        pool = sorted(groups[n], key=lambda i: (reference[i]["wall_s"], i))
        rows.extend(int(rng.choice(s)) for s in np.array_split(pool, strata[n]) if strata[n])
    rows.extend(FAMILY_FORCED_ROWS)
    rng.shuffle(rows)
    return rows


def family_inputs(z):
    """Problem, multipliers, base config and assignment list of the sweep."""
    problem = z.cargo_instance(*FAMILY_CARGO)
    z.brute_force_solve(problem)
    mult = z.Multipliers.uniform(problem.n_constraints, LAMBDA)
    config = z.OptimizerConfig(max_iters=40, seed=0)
    return problem, mult, config, z.enumerate_assignments(problem.n_constraints)


def family_row(z, problem, assignment, mult, config, index: int):
    """Row ``index`` with the optimizer seed it has in `zenopt sweep-family --seed 0`."""
    return z.harness.run_assignment(
        problem, assignment, mult, replace(config, seed=config.seed + index)
    )


class FamilySample(Workload):
    """One op = one family row through ``harness.run_assignment``."""

    name = "family_sample"

    def __init__(self, z, seed: int, out_dir: Path):
        self.z = z
        self.problem, self.mult, self.config, self.assignments = family_inputs(z)
        self.reference = load_reference("family_rows.json")
        self.rows = family_sample(seed, self.reference)
        self.warmup = [self._op(FAMILY_WARMUP_ROW)]
        self.cycle = [self._op(i) for i in self.rows]

    def _op(self, index: int) -> Op:
        def run():
            return family_row(
                self.z, self.problem, self.assignments[index], self.mult, self.config, index
            )

        return Op(f"row{index}", run, lambda row: (index, row))

    def known_failure(self, record) -> bool:
        if record is None:
            return False
        index, row = record
        return bool(row.error) and row.error.split(":", 1)[0] == self.reference[index]["error"]

    def check(self, record) -> str | None:
        index, row = record
        ref = self.reference[index]
        if row.error:
            return f"failed: {row.error}"
        problems = _metric_problems(row.expected_cost, row.p_feasible, row.p_optimal, row.survival_prob)
        if row.stats is None or stats_dict(row.stats) != ref["stats"]:
            problems.append("circuit stats differ from the reference")
        initial = self.z.evaluate_params(
            self.problem, self.assignments[index], self.mult, self.config.init_params
        )
        if row.expected_cost > initial.expected_cost + TOL * max(1.0, abs(initial.expected_cost)):
            problems.append(
                f"final cost {row.expected_cost} worse than the initial point {initial.expected_cost}"
            )
        if not ref["error"]:
            for key, value in (("expected_cost", row.expected_cost), ("p_feasible", row.p_feasible),
                               ("p_optimal", row.p_optimal), ("survival", row.survival_prob)):
                if not _close(value, ref[key]):
                    problems.append(f"{key}={value!r} differs from the reference {ref[key]!r}")
        return "; ".join(problems) or None


# ---------------------------------------------------------------- solve_cargo

# The four baseline assignments of ROADMAP.  Their ops cost roughly 0.3,
# 2.7, 4 and 1.5 s; weight-ZENO runs twice per cycle (with two seeds) so that
# the cycle's median falls inside one assignment's ops, not in the gap
# between two, where it would jump with small changes in either.
SOLVE_ASSIGNMENTS = (
    "QAOA,QAOA,QAOA,QAOA,QAOA,QAOA",
    "ZENO,QAOA,QAOA,QAOA,QAOA,QAOA",
    "DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA",
    "ZENO,QAOA,QAOA,QAOA,QAOA,QAOA",
    "ZENO,ZENO,ZENO,ZENO,ZENO,ZENO",
)


SOLVE_REFERENCE_CYCLES = 4


def solve_seed(seed: int, cycle: int, position: int) -> int:
    """The `solve --seed` of one op, derived from the workload seed.

    Every cycle draws new optimizer seeds, so a run's ops average over
    several search paths instead of repeating one.
    """
    return 1_000_000 * seed + 10 * cycle + position


class SolveCargo(Workload):
    """One op = one in-process ``zenopt.cli.main(["solve", ...])`` call."""

    name = "solve_cargo"

    def __init__(self, z, seed: int, out_dir: Path):
        self.z = z
        self.seed = seed
        self.problem = z.cargo_instance(*FAMILY_CARGO)
        z.brute_force_solve(self.problem)
        self.mult = z.Multipliers.uniform(self.problem.n_constraints, LAMBDA)
        self.problem_path = out_dir / "solve-problem.json"
        self.trace_path = out_dir / "solve-trace.csv"
        z.save_problem(self.problem, str(self.problem_path))
        self.warmup = self.ops(0)[:1]

    def ops(self, cycle: int) -> list[Op]:
        return [self._op(cycle, pos, a) for pos, a in enumerate(SOLVE_ASSIGNMENTS)]

    def _op(self, cycle: int, position: int, assignment: str) -> Op:
        argv = [
            "solve", "--problem", str(self.problem_path), "--assign", assignment,
            "--lambda", str(LAMBDA), "--p", "1", "--q", "1", "--iters", "40",
            "--seed", str(solve_seed(self.seed, cycle, position)), "--out", str(self.trace_path),
        ]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.z.cli.main(argv)
            return code, out.getvalue()

        def digest(result):
            code, text = result
            rows = []
            if code == 0:
                with open(self.trace_path, newline="", encoding="utf-8") as fh:
                    rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
            return cycle, position, assignment, code, text, rows

        return Op(assignment, run, digest)

    def check(self, record) -> str | None:
        cycle, position, assignment, code, text, rows = record
        if code != 0:
            return f"exited with code {code}"
        try:
            printed = {k: float(v) for k, v in (part.split("=", 1) for part in text.split()[1:])}
        except ValueError:
            return f"printed an unreadable result: {text!r}"
        if not rows:
            return "wrote an empty trace"
        # trace columns: iter, gamma_0, beta_0, expected_cost, p_feasible, p_optimal, survival
        best = min(rows, key=lambda r: r[3])
        gamma, beta, metrics = best[1], best[2], best[3:]
        params = self.z.LayerParams((gamma,), (beta,), 1)
        again = self.z.evaluate_params(self.problem, assignment.split(","), self.mult, params)
        problems = _metric_problems(*metrics)
        names = ("cost", "p_feasible", "p_optimal", "survival")
        for name, value, redo in zip(names, metrics, again):
            if not _close(redo, value):
                problems.append(f"evaluate_params gives {name}={redo!r}, the trace {value!r}")
        for name, value in zip(("gamma", "beta") + names, (gamma, beta, *metrics)):
            if abs(printed.get(name, math.inf) - value) > 5.1e-7 * max(1.0, abs(value)):
                problems.append(f"printed {name}={printed.get(name)} is not the trace's best {value!r}")
        if self.seed == 0 and cycle < SOLVE_REFERENCE_CYCLES:
            ref = load_reference("solve_seed0.json")[cycle * len(SOLVE_ASSIGNMENTS) + position]
            for name, value in zip(("gamma", "beta") + names, (gamma, beta, *metrics)):
                if not _close(value, ref[name]):
                    problems.append(f"{name}={value!r} differs from the reference {ref[name]!r}")
        return "; ".join(problems) or None


# ---------------------------------------------------------------- gate_reference_20q

GATE_CARGO = ([1, 2, 3, 4], 2, 5)
GATE_P_LAYERS = 2
GATE_Q = 3


def gate_assignments(n_constraints: int) -> list[tuple[str, ...]]:
    rest = ("QAOA",) * (n_constraints - 1)
    return [("ZENO",) + rest, ("DEPHASE",) + rest, ("QAOA",) * n_constraints]


def gate_angles(seed: int, position: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Seeded angle point of one cycle position: small phases, wide mixers."""
    rng = np.random.default_rng([seed, position])
    gamma = tuple(float(v) for v in rng.uniform(0.01, 0.12, GATE_P_LAYERS))
    beta = tuple(float(v) for v in rng.uniform(0.1, 0.8, GATE_P_LAYERS))
    return gamma, beta


class GateReference20q(Workload):
    """One op = one gate-mode evaluation cross-checked against the twin."""

    name = "gate_reference_20q"

    def __init__(self, z, seed: int, out_dir: Path):
        self.z = z
        self.problem = z.cargo_instance(*GATE_CARGO)
        z.brute_force_solve(self.problem)
        self.mult = z.Multipliers.uniform(self.problem.n_constraints, LAMBDA)
        self.seed = seed
        self.cycle = [
            self._op(pos, a) for pos, a in enumerate(gate_assignments(self.problem.n_constraints))
        ]
        # The weight-ZENO op fills the 20-qubit selector caches the other two share.
        self.warmup = self.cycle[:1]

    def _op(self, position: int, assignment) -> Op:
        z = self.z
        gamma, beta = gate_angles(self.seed, position)
        params = z.LayerParams(gamma, beta, GATE_Q)
        decision = range(self.problem.n_vars)

        def run():
            circuit = z.builder.build_circuit(self.problem, assignment, self.mult, params)
            state = z.builder.prepare_initial_state(self.problem, assignment, circuit.layout)
            state = z.builder.run_circuit(circuit, state)
            stats = z.builder.circuit_stats(circuit)
            gate = z.statevector.marginal_probabilities(state, decision)
            twin = z.harness.state_visit_histogram(self.problem, assignment, self.mult, params)
            return circuit.layout, state, stats, gate, twin

        def digest(result):
            layout, state, stats, gate, twin = result
            n = self.problem.n_vars
            twin_probs = np.array([twin.probabilities[format(i, f"0{n}b")] for i in range(1 << n)])
            return {
                "position": position,
                "norm_error": state.norm_error(),
                "ancilla_mass": z.builder.ancilla_mass(state, layout),
                "survival": state.survival_prob,
                "stats": stats_dict(stats),
                "gate": gate,
                "twin": twin_probs,
            }

        return Op(",".join(k[0] for k in assignment), run, digest)

    def check(self, record) -> str | None:
        ref = load_reference("gate_seed0.json")[record["position"]]
        problems = []
        gap = float(np.max(np.abs(record["gate"] - record["twin"])))
        if gap > TOL:
            problems.append(f"gate and twin marginals differ by {gap:.3e}")
        if record["norm_error"] > 1e-10:
            problems.append(f"norm error {record['norm_error']:.3e}")
        if record["ancilla_mass"] > 1e-9:
            problems.append(f"ancilla mass {record['ancilla_mass']:.3e}")
        if not 0.0 < record["survival"] <= 1.0 + 1e-12:
            problems.append(f"survival {record['survival']} outside (0,1]")
        if record["stats"] != ref["stats"]:
            problems.append("circuit stats differ from the reference")
        if self.seed == 0:
            ref_gate = np.array(ref["gate"])
            if float(np.max(np.abs(record["gate"] - ref_gate))) > TOL:
                problems.append("gate marginals differ from the reference")
            if not _close(record["survival"], ref["survival"]):
                problems.append("survival differs from the reference")
        return "; ".join(problems) or None


WORKLOADS = {w.name: w for w in (FamilySample, SolveCargo, GateReference20q)}
