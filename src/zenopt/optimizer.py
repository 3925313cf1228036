"""Classical outer loop: search the (gamma, beta) angles with a Nelder-Mead
simplex on the expected compiled cost.

Evaluations are ``FunctionalCircuit.evaluate`` (``functional.py``), where
the run metrics are defined.  They are exact (amplitudes, no shot noise),
so the same seed and config always reproduce the same trace bit for bit.
The search is a generator that yields each point and is sent its result:
it owns no evaluator; ``optimize`` drives it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .builder import NATURAL, LayerParams
from .errors import EmptySubspaceError, check_int, check_type
from .functional import EvalResult, FunctionalCircuit
from .problem import ConstrainedBinaryProblem, Multipliers


EXIT_THRESHOLD = 1e-9  # cost change below which the search stops; see optimize


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 60
    seed: int = 0
    init_params: LayerParams = LayerParams.initial()

    def __post_init__(self):
        check_int(self.max_iters, "max_iters", 1)
        check_int(self.seed, "seed", 0)
        check_type(self.init_params, LayerParams, "init_params")


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


# A search point whose Zeno projection annihilated the state: the search
# moves away from it instead of losing the run.
_ANNIHILATED = EvalResult(math.inf, 0.0, 0.0, 0.0)


def evaluate_params(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    params: LayerParams,
    ordering: str = NATURAL,
) -> EvalResult:
    """Exact run metrics (``FunctionalCircuit.metrics``) at ``params``.

    Raises EmptySubspaceError when a Zeno projection annihilates the state.
    """
    return FunctionalCircuit(problem, assignment, mult, ordering).evaluate(params)


def _initial_steps(rng: np.random.Generator, d: int) -> np.ndarray:
    """Per-coordinate simplex spread: tight for the phase angles (the compiled
    cost carries large coefficients, so useful gammas are small), wide for
    the mixer angles."""
    p = d // 2
    steps = np.empty(d)
    steps[:p] = rng.uniform(0.03, 0.08, size=p)
    steps[p:] = rng.uniform(0.25, 0.45, size=d - p)
    return steps


def _converged(accepted: list[tuple[np.ndarray, EvalResult]]) -> bool:
    """The last three accepted costs each lie within EXIT_THRESHOLD of the one before."""
    c = [res.expected_cost for _, res in accepted[-3:]]
    return len(c) == 3 and abs(c[2] - c[1]) < EXIT_THRESHOLD and abs(c[1] - c[0]) < EXIT_THRESHOLD


def _nelder_mead(theta0: np.ndarray, config: OptimizerConfig, accepted: list):
    """Simplex search as a generator: yields each point to evaluate and is
    sent its EvalResult.  Appends each accepted iterate ``(theta, result)``
    to ``accepted`` and returns the best vertex of the last simplex."""
    steps = _initial_steps(np.random.default_rng(config.seed), len(theta0))
    for v in [theta0, *(theta0 + np.diag(steps))][: config.max_iters]:
        accepted.append((v, (yield v)))
    simplex = list(accepted)

    while len(accepted) < config.max_iters and not _converged(accepted):
        simplex.sort(key=lambda t: t[1].expected_cost)
        (best, f_best), (worst, f_worst) = simplex[0], simplex[-1]
        centroid = np.mean([v for v, _ in simplex[:-1]], axis=0)
        reflected = centroid + (centroid - worst)
        fr = yield reflected
        if fr.expected_cost < f_best.expected_cost:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = yield expanded
            new = (expanded, fe) if fe.expected_cost < fr.expected_cost else (reflected, fr)
        elif fr.expected_cost < simplex[-2][1].expected_cost:
            new = (reflected, fr)
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            fc = yield contracted
            if fc.expected_cost < f_worst.expected_cost:
                new = (contracted, fc)
            else:
                # Shrink toward the best vertex.
                for i in range(1, len(simplex)):
                    v = best + 0.5 * (simplex[i][0] - best)
                    simplex[i] = (v, (yield v))
                accepted.append(min(simplex[1:], key=lambda t: t[1].expected_cost))
                continue
        simplex[-1] = new
        accepted.append(new)
    return min(simplex, key=lambda t: t[1].expected_cost)


def optimize(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    config: OptimizerConfig,
    ordering: str = NATURAL,
) -> OptimizationTrace:
    """Nelder-Mead minimization of the expected compiled cost.

    The search is a generator that yields each point; ``optimize`` sends
    back its ``EvalResult`` and builds the trace from the accepted iterates:
    first the vertices of the initial simplex, starting at
    ``config.init_params``; then, per simplex step, the vertex that replaced
    the worst one or, after a shrink, the best shrunk vertex.  Stops once the
    last three accepted costs each lie within ``EXIT_THRESHOLD`` (1e-9) of
    the one before, or after max_iters records.
    ``best_params`` and ``final`` are the best vertex of the last simplex.
    A point at which a Zeno projection annihilates the state is evaluated as
    infinite cost with zero probabilities and survival.
    """
    check_type(config, OptimizerConfig, "config")
    start = time.perf_counter()
    init = config.init_params
    circuit = FunctionalCircuit(problem, assignment, mult, ordering)

    def params(theta: np.ndarray) -> LayerParams:
        p = len(theta) // 2
        return LayerParams(tuple(theta[:p]), tuple(theta[p:]), init.q_measurements)

    def evaluate(theta: np.ndarray) -> EvalResult:
        try:
            return circuit.evaluate(params(theta))
        except EmptySubspaceError:
            return _ANNIHILATED

    accepted: list[tuple[np.ndarray, EvalResult]] = []
    search = _nelder_mead(np.array(init.gamma + init.beta, dtype=float), config, accepted)
    point = next(search)
    try:
        while True:
            point = search.send(evaluate(point))
    except StopIteration as done:
        best_theta, best_res = done.value
    records = []
    for i, (theta, res) in enumerate(accepted, 1):
        at = params(theta)
        records.append(TraceRecord(i, at.gamma, at.beta, *res))
    return OptimizationTrace(
        records=records,
        best_params=params(best_theta),
        final=best_res,
        wall_time=time.perf_counter() - start,
    )
