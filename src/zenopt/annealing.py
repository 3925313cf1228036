"""Classical simulated-annealing benchmark on the fully penalized QUBO.

The walk minimizes the same Lagrange cost the quantum pipelines compile
(all constraints QAOA-penalized, slack bits included), visiting exactly one
state per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_finite, check_int, check_type
from .problem import QAOA, ConstrainedBinaryProblem, Multipliers, compile_qubo


@dataclass(frozen=True)
class AnnealSchedule:
    t_start: float = 10.0
    t_end: float = 0.05
    steps: int = 5000
    seed: int = 0

    def __post_init__(self):
        check_finite(self.t_start, "t_start")
        check_finite(self.t_end, "t_end")
        if not self.t_start >= self.t_end > 0:
            raise InputError("need t_start >= t_end > 0")
        check_int(self.steps, "steps", 1)
        check_int(self.seed, "seed", 0)


@dataclass(frozen=True)
class VisitRecord:
    step: int
    state: str
    cost: float
    accepted: bool


@dataclass
class AnnealResult:
    best_state: str
    best_cost: float
    visit_trace: list[VisitRecord]


def anneal(problem: ConstrainedBinaryProblem, mult: Multipliers, schedule: AnnealSchedule) -> AnnealResult:
    """Metropolis single-bit-flip walk under a geometric temperature ramp."""
    check_type(problem, ConstrainedBinaryProblem, "problem")
    check_type(schedule, AnnealSchedule, "schedule")
    qubo = compile_qubo(problem, (QAOA,) * problem.n_constraints, mult)
    n = qubo.n_bits
    rng = np.random.default_rng(schedule.seed)
    bits = rng.integers(0, 2, size=n).astype(np.float64)

    def cost_of(b: np.ndarray) -> float:
        return float(b @ qubo.Q @ b + qubo.B @ b + qubo.const_term)

    def state_str(b: np.ndarray) -> str:
        return "".join(str(int(v)) for v in b[::-1])  # bit 0 rightmost

    cost = cost_of(bits)
    best_bits, best_cost = bits.copy(), cost
    trace: list[VisitRecord] = []
    for step in range(schedule.steps):
        frac = step / (schedule.steps - 1) if schedule.steps > 1 else 0.0
        temperature = schedule.t_start * (schedule.t_end / schedule.t_start) ** frac
        flip = int(rng.integers(0, n))
        candidate = bits.copy()
        candidate[flip] = 1.0 - candidate[flip]
        cand_cost = cost_of(candidate)
        delta = cand_cost - cost
        accepted = bool(delta <= 0 or rng.random() < np.exp(-delta / temperature))
        if accepted:
            bits, cost = candidate, cand_cost
            if cost < best_cost:
                best_bits, best_cost = bits.copy(), cost
        trace.append(VisitRecord(step, state_str(bits), cost, accepted))
    return AnnealResult(state_str(best_bits), best_cost, trace)
