"""Classical outer loop: evaluate circuit output against the compiled cost
and search the (gamma, beta) angles with a Nelder-Mead simplex.

Evaluations run on the functional backend (``functional.py``) and are exact
(amplitudes, no shot noise), so the same seed and config always reproduce
the same trace bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .builder import NATURAL, LayerParams
from .errors import EmptySubspaceError, InputError
from .functional import FunctionalCircuit
from .problem import ConstrainedBinaryProblem, Multipliers, solution_masks
from .statevector import marginal_probabilities


EXIT_THRESHOLD = 1e-9  # cost change below which the search stops; see optimize


class EvalResult(NamedTuple):
    expected_cost: float
    p_feasible: float
    p_optimal: float
    survival_prob: float


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 60
    seed: int = 0
    init_params: LayerParams = LayerParams.initial()

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    gamma: tuple[float, ...]
    beta: tuple[float, ...]
    expected_cost: float
    p_feasible: float
    p_optimal: float
    survival_prob: float


@dataclass
class OptimizationTrace:
    records: list[TraceRecord]
    best_params: LayerParams
    final: EvalResult
    wall_time: float

    @property
    def best_cost(self) -> float:
        return self.final.expected_cost


# A search point whose Zeno projection annihilated the state: the search
# moves away from it instead of losing the run.
_ANNIHILATED = EvalResult(math.inf, 0.0, 0.0, 0.0)


class _Evaluator:
    """Holds the functional circuit (compiled cost table, excess tables,
    initial state) and the feasible and optimal decision-state masks: across
    evaluations only the angles change, and no gate circuit is built."""

    def __init__(self, problem, assignment, mult, ordering, q_measurements):
        self.n_vars = problem.n_vars
        self.q_measurements = q_measurements
        self.circuit = FunctionalCircuit(problem, assignment, mult, ordering)
        self.feasible, self.optimal = solution_masks(problem)

    def params(self, theta: np.ndarray) -> LayerParams:
        p = len(theta) // 2
        return LayerParams(tuple(theta[:p]), tuple(theta[p:]), self.q_measurements)

    def evaluate(self, theta: np.ndarray) -> EvalResult:
        state = self.circuit.run(self.params(theta))
        decision_probs = marginal_probabilities(state, range(self.n_vars))
        return EvalResult(
            expected_cost=float(state.probabilities() @ self.circuit.cost_table),
            p_feasible=float(decision_probs[self.feasible].sum()),
            p_optimal=float(decision_probs[self.optimal].sum()),
            survival_prob=state.survival_prob,
        )

    def __call__(self, theta: np.ndarray) -> EvalResult:
        """``evaluate`` for the search: an annihilated point has infinite cost."""
        try:
            return self.evaluate(theta)
        except EmptySubspaceError:
            return _ANNIHILATED


def evaluate_params(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    params: LayerParams,
    ordering: str = NATURAL,
) -> EvalResult:
    """Exact expectation of the compiled cost plus oracle-checked metrics.

    p_feasible / p_optimal are always measured against the brute-force
    feasible and optimal sets of the original problem, never the QUBO.
    Raises EmptySubspaceError when a Zeno projection annihilates the state.
    """
    evaluator = _Evaluator(problem, assignment, mult, ordering, params.q_measurements)
    return evaluator.evaluate(np.array(params.gamma + params.beta))


def _record(i: int, ev: _Evaluator, theta: np.ndarray, res: EvalResult) -> TraceRecord:
    p = ev.params(theta)
    return TraceRecord(i, p.gamma, p.beta, *res)


def _initial_steps(rng: np.random.Generator, d: int) -> np.ndarray:
    """Per-coordinate simplex spread: tight for the phase angles (the compiled
    cost carries large coefficients, so useful gammas are small), wide for
    the mixer angles."""
    p = d // 2
    steps = np.empty(d)
    steps[:p] = rng.uniform(0.03, 0.08, size=p)
    steps[p:] = rng.uniform(0.25, 0.45, size=d - p)
    return steps


def _search_nelder_mead(ev, theta0, config, trace_out) -> tuple[np.ndarray, EvalResult]:
    """Simplex search; one trace record per accepted iterate."""
    rng = np.random.default_rng(config.seed)
    d = len(theta0)
    vertices = [np.asarray(theta0, dtype=float)]
    steps = _initial_steps(rng, d)
    for i in range(d):
        v = vertices[0].copy()
        v[i] += steps[i]
        vertices.append(v)

    evals: list[tuple[np.ndarray, EvalResult]] = []
    iteration = 0

    def note(theta, res):
        nonlocal iteration
        iteration += 1
        trace_out.append(_record(iteration, ev, theta, res))

    def converged() -> bool:
        if len(trace_out) < 3:
            return False
        c0, c1, c2 = (r.expected_cost for r in trace_out[-3:])
        return abs(c2 - c1) < EXIT_THRESHOLD and abs(c1 - c0) < EXIT_THRESHOLD

    # The first iterations evaluate the initial simplex, starting from the
    # configured initial point.
    for v in vertices:
        if iteration >= config.max_iters:
            break
        res = ev(v)
        evals.append((v, res))
        note(v, res)

    while iteration < config.max_iters and not converged():
        evals.sort(key=lambda t: t[1].expected_cost)
        best, worst = evals[0], evals[-1]
        second_worst = evals[-2]
        centroid = np.mean([v for v, _ in evals[:-1]], axis=0)
        reflected = centroid + (centroid - worst[0])
        fr = ev(reflected)
        if fr.expected_cost < best[1].expected_cost:
            expanded = centroid + 2.0 * (centroid - worst[0])
            fe = ev(expanded)
            new = (expanded, fe) if fe.expected_cost < fr.expected_cost else (reflected, fr)
        elif fr.expected_cost < second_worst[1].expected_cost:
            new = (reflected, fr)
        else:
            contracted = centroid + 0.5 * (worst[0] - centroid)
            fc = ev(contracted)
            if fc.expected_cost < worst[1].expected_cost:
                new = (contracted, fc)
            else:
                # Shrink toward the best vertex.
                evals = [best] + [
                    (sv, ev(sv))
                    for sv in (best[0] + 0.5 * (v - best[0]) for v, _ in evals[1:])
                ]
                accepted = min(evals[1:], key=lambda t: t[1].expected_cost)
                note(*accepted)
                continue
        evals[-1] = new
        note(*new)
    best = min(evals, key=lambda t: t[1].expected_cost)
    return best


def optimize(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    config: OptimizerConfig,
    ordering: str = NATURAL,
) -> OptimizationTrace:
    """Nelder-Mead minimization of the expected compiled cost.

    Records one trace entry per iteration: first the vertices of the initial
    simplex, starting at ``config.init_params``; then, per simplex step, the
    accepted iterate, i.e. the vertex that replaced the worst one or, after a
    shrink, the best shrunk vertex.  Stops once the last three recorded
    costs each lie within ``EXIT_THRESHOLD`` (1e-9) of the one before, or
    after max_iters records.
    ``best_params`` and ``final`` are the best vertex of the last simplex.
    A point at which a Zeno projection annihilates the state is evaluated as
    infinite cost with zero probabilities and survival.
    """
    start = time.perf_counter()
    ev = _Evaluator(problem, assignment, mult, ordering, config.init_params.q_measurements)
    theta0 = np.array(config.init_params.gamma + config.init_params.beta)
    records: list[TraceRecord] = []
    best_theta, best_res = _search_nelder_mead(ev, theta0, config, records)
    return OptimizationTrace(
        records=records,
        best_params=ev.params(best_theta),
        final=best_res,
        wall_time=time.perf_counter() - start,
    )
