"""Batch experiment engine: the 3^n assignment-family sweep, Lagrange
sensitivity curves, block-ordering comparison, state-visit histograms, and
CSV emission for all of them.

Row metrics, histograms and sampled metrics are evaluated on the functional
backend (exact amplitudes on the decision and slack bits, no circuit
built); complexity statistics come from one gate-level build of the same
circuit.  Rows are independent and seeded as base seed + row index, so any
single row reproduces bit-exactly on its own.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .builder import (
    NATURAL,
    ORDERINGS,
    CircuitStats,
    LayerParams,
    build_circuit,
    circuit_stats,
)
from .errors import CapacityError, InputError, ZenoptError, check_finite, check_int, check_tuple, check_type
from .functional import EvalResult, FunctionalCircuit
from .optimizer import OptimizationTrace, OptimizerConfig, evaluate_params, optimize
from .problem import DEPHASE, REP_KINDS, ZENO, ConstrainedBinaryProblem, Multipliers, check_kinds
from .statevector import basis_string, marginal_probabilities, sample
from .zeno import survival_analytic, survival_empirical, zeno_limit_error

MAX_FAMILY_CONSTRAINTS = 8

SWEEP_CONFIG = OptimizerConfig(max_iters=40)  # the family sweep's shorter searches

FAMILY_CSV_COLUMNS = [
    "assignment", "non_local", "qubits", "clbits", "depth", "width", "size",
    "params", "factors", "expected_cost", "p_feasible", "p_optimal",
    "survival", "wall_time_s", "error",
]


@dataclass(frozen=True)
class SweepResult:
    assignment: tuple[str, ...]
    stats: CircuitStats | None
    expected_cost: float
    p_feasible: float
    p_optimal: float
    survival_prob: float
    wall_time: float
    error: str = ""


def enumerate_assignments(n_constraints: int) -> list[tuple[str, ...]]:
    """All 3^n representation assignments in lexicographic order
    (QAOA < DEPHASE < ZENO per constraint)."""
    check_int(n_constraints, "n_constraints", 0)
    if n_constraints > MAX_FAMILY_CONSTRAINTS:
        raise CapacityError(
            f"family enumeration capped at {MAX_FAMILY_CONSTRAINTS} constraints"
        )
    return list(itertools.product(REP_KINDS, repeat=n_constraints))


def run_assignment(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    config: OptimizerConfig,
    ordering: str = NATURAL,
) -> SweepResult:
    """Optimize one assignment and collect its stats row; a ZenoptError ends
    the row with NaN metrics and the error, keeping any stats already built."""
    assignment = check_tuple(assignment, "assignment")
    check_type(mult, Multipliers, "mult")
    check_type(config, OptimizerConfig, "config")
    start = time.perf_counter()
    stats, final, error = None, EvalResult(*(math.nan,) * 4), ""
    try:
        stats = circuit_stats(build_circuit(problem, assignment, mult, config.init_params, ordering))
        final = optimize(problem, assignment, mult, config, ordering).final
    except ZenoptError as exc:
        error = f"{type(exc).__name__}: {exc}"
    # EvalResult lists the four metrics in SweepResult's order.
    return SweepResult(assignment, stats, *final, time.perf_counter() - start, error)


def run_family_sweep(
    problem: ConstrainedBinaryProblem,
    mult: Multipliers,
    config: OptimizerConfig = SWEEP_CONFIG,
    ordering: str = NATURAL,
    workers: int | None = None,
) -> list[SweepResult]:
    """One optimized row per assignment; per-row failures land in the row.

    Row i uses seed config.seed + i.  ``workers`` is None or an integer
    >= 1; above 1 the rows run in a process pool, and results are gathered
    in assignment (index) order, identical to a serial run.
    """
    check_type(problem, ConstrainedBinaryProblem, "problem")
    check_type(mult, Multipliers, "mult")
    check_type(config, OptimizerConfig, "config")
    if workers is not None:
        check_int(workers, "workers", 1)
    jobs = [
        (problem, assignment, mult, replace(config, seed=config.seed + i), ordering)
        for i, assignment in enumerate(enumerate_assignments(problem.n_constraints))
    ]
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: it slows every import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_assignment, *zip(*jobs), chunksize=8))
    return list(map(run_assignment, *zip(*jobs)))


def lagrange_sweep(
    problem: ConstrainedBinaryProblem,
    assignment,
    lambdas,
    config: OptimizerConfig = OptimizerConfig(),
    ordering: str = NATURAL,
) -> list[tuple[float, EvalResult]]:
    """Optimized run metrics per Lagrange multiplier value."""
    assignment, lambdas = check_kinds(assignment), check_tuple(lambdas, "lambdas")
    for v in lambdas:
        check_finite(v, "lambda")
    lambdas = [float(v) for v in lambdas]
    if not lambdas or any(v <= 0 for v in lambdas):
        raise InputError("lambda values must be positive")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise InputError("lambda values must be strictly ascending")
    # Built before any search, so a bad value fails at once.
    mults = [Multipliers.uniform(problem.n_constraints, lam) for lam in lambdas]
    return [
        (lam, optimize(problem, assignment, mult, config, ordering).final)
        for lam, mult in zip(lambdas, mults)
    ]


@dataclass(frozen=True)
class HistogramResult:
    probabilities: dict[str, float]
    support_size: int


def state_visit_histogram(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    params: LayerParams,
    ordering: str = NATURAL,
) -> HistogramResult:
    """Decision-qubit marginal of the final state, keyed by basis string."""
    state = FunctionalCircuit(problem, assignment, mult, ordering).run(params)
    probs = marginal_probabilities(state, range(problem.n_vars))
    table = {basis_string(i, problem.n_vars): float(p) for i, p in enumerate(probs)}
    return HistogramResult(table, int(np.sum(probs > 1e-12)))


def ordering_study(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    config: OptimizerConfig = OptimizerConfig(),
    reoptimize: bool = False,
) -> dict[str, EvalResult]:
    """Metrics of the same assignment under each block ordering.

    By default every ordering is evaluated at the identical configured
    parameters, which isolates the effect of reordering the constraint
    blocks; with reoptimize=True each ordering gets its own full search.
    """
    check_type(config, OptimizerConfig, "config")
    assignment = check_kinds(assignment)
    if DEPHASE not in assignment or ZENO not in assignment:
        raise InputError("ordering study needs at least one DEPHASE and one ZENO constraint")
    return {
        ordering: optimize(problem, assignment, mult, config, ordering).final
        if reoptimize
        else evaluate_params(problem, assignment, mult, config.init_params, ordering)
        for ordering in ORDERINGS
    }


def zeno_demo_rows(n_list, t: float = math.pi / 2) -> list[dict[str, float]]:
    """Two-level survival study: X Hamiltonian, projection onto |0><0|."""
    n_list = check_tuple(n_list, "n_list")
    if not n_list:
        raise InputError("n_list must contain positive measurement counts")
    for n in n_list:
        check_int(n, "measurement count", 1)
    check_finite(t, "t")
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    return [
        {
            "n": int(n),
            "survival_empirical": survival_empirical(pauli_x, proj0, psi0, t, n),
            "survival_analytic": survival_analytic(pauli_x, psi0, t, n),
            "limit_error": zeno_limit_error(pauli_x, proj0, psi0, t, n),
        }
        for n in n_list
    ]


def sampled_metrics(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    params: LayerParams,
    shots: int,
    seed: int,
    ordering: str = NATURAL,
) -> EvalResult:
    """Shot-based estimates of the run metrics for realism studies: the
    ``FunctionalCircuit.metrics`` of the shot frequencies."""
    circuit = FunctionalCircuit(problem, assignment, mult, ordering)
    state = circuit.run(params)
    freqs = np.zeros(state.dim)
    for string, count in sample(state, shots, seed).items():
        freqs[int(string, 2)] = count / shots
    return circuit.metrics(freqs, state.survival_prob)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _family_csv_row(row: SweepResult) -> list:
    stats = astuple(row.stats) if row.stats else ("",) * len(fields(CircuitStats))
    metrics = (row.expected_cost, row.p_feasible, row.p_optimal, row.survival_prob)
    return [",".join(row.assignment), *stats, *metrics, row.wall_time, row.error]


def write_family_csv(rows: list[SweepResult], path: str) -> None:
    _write_csv(path, FAMILY_CSV_COLUMNS, map(_family_csv_row, rows))


def write_trace_csv(trace: OptimizationTrace, path: str) -> None:
    if not trace.records:
        raise InputError("empty trace")
    p = len(trace.records[0].gamma)
    header = ["iter", *(f"gamma_{i}" for i in range(p)), *(f"beta_{i}" for i in range(p)),
              "expected_cost", "p_feasible", "p_optimal", "survival_prob"]
    rows = (
        [rec.iteration, *rec.gamma, *rec.beta, rec.expected_cost,
         rec.p_feasible, rec.p_optimal, rec.survival_prob]
        for rec in trace.records
    )
    _write_csv(path, header, rows)


def write_lagrange_csv(rows: list[tuple[float, EvalResult]], path: str) -> None:
    header = ["lambda", "expected_cost", "p_feasible", "p_optimal", "survival"]
    _write_csv(path, header, ([lam, *res] for lam, res in rows))


def write_ordering_csv(rows: dict[str, EvalResult], path: str) -> None:
    header = ["ordering", "expected_cost", "p_feasible", "p_optimal", "survival"]
    _write_csv(path, header, ([ordering, *res] for ordering, res in rows.items()))


def write_histogram_csv(result: HistogramResult, path: str) -> None:
    _write_csv(path, ["state", "probability"], sorted(result.probabilities.items()))


def write_zeno_csv(rows: list[dict[str, float]], path: str) -> None:
    header = ["n", "survival_empirical", "survival_analytic", "limit_error"]
    _write_csv(path, header, ([row[key] for key in header] for row in rows))


def write_sa_csv(trace, path: str) -> None:
    rows = ([rec.step, rec.state, rec.cost, int(rec.accepted)] for rec in trace)
    _write_csv(path, ["step", "state", "cost", "accepted"], rows)
