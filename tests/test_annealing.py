import math

import pytest

from zenopt import (
    AnnealSchedule,
    InputError,
    Multipliers,
    anneal,
    cargo_instance,
    compile_qubo,
    qubo_values,
)
from zenopt.problem import QAOA

MULT = Multipliers.uniform(6, 13)


def cargo():
    return cargo_instance([1, 2, 3], 2, 3)


def qubo_optimum():
    qubo = compile_qubo(cargo(), (QAOA,) * 6, MULT)
    return qubo_values(qubo).min()


def test_single_step_trace():
    result = anneal(cargo(), MULT, AnnealSchedule(steps=1, seed=4))
    assert len(result.visit_trace) == 1
    assert result.visit_trace[0].step == 0


def test_one_state_per_step():
    result = anneal(cargo(), MULT, AnnealSchedule(steps=200, seed=0))
    assert len(result.visit_trace) == 200
    assert [rec.step for rec in result.visit_trace] == list(range(200))
    for rec in result.visit_trace:
        assert isinstance(rec.state, str) and len(rec.state) == 13


def test_reaches_lagrange_optimum():
    result = anneal(cargo(), MULT, AnnealSchedule(steps=5000, seed=1))
    assert abs(result.best_cost - qubo_optimum()) < 1e-9
    # decision part of the best state is feasible and optimal
    decision = int(result.best_state, 2) & 0b111111
    from zenopt import brute_force_solve

    oracle = brute_force_solve(cargo())
    assert decision in oracle.optimal_indices


def test_seeded_determinism():
    schedule = AnnealSchedule(steps=300, seed=9)
    first = anneal(cargo(), MULT, schedule)
    second = anneal(cargo(), MULT, schedule)
    assert first.best_cost == second.best_cost
    assert first.visit_trace == second.visit_trace


def test_near_zero_temperature_is_greedy():
    schedule = AnnealSchedule(t_start=1e-6, t_end=1e-6, steps=400, seed=2)
    result = anneal(cargo(), MULT, schedule)
    costs = [rec.cost for rec in result.visit_trace]
    assert result.best_cost <= costs[0]
    # greedy: accepted moves never increase the cost beyond float jitter
    accepted = [
        (a.cost, b.cost)
        for a, b in zip(result.visit_trace, result.visit_trace[1:])
        if b.accepted
    ]
    assert all(b <= a + 1e-9 for a, b in accepted)


def test_majority_of_seeds_reach_optimum():
    optimum = qubo_optimum()
    hits = sum(
        1
        for seed in range(20)
        if abs(anneal(cargo(), MULT, AnnealSchedule(steps=5000, seed=seed)).best_cost - optimum) < 1e-9
    )
    assert hits >= 16


def test_schedule_validation():
    with pytest.raises(InputError):
        AnnealSchedule(t_start=0.1, t_end=1.0)
    with pytest.raises(InputError):
        AnnealSchedule(t_end=0.0)
    with pytest.raises(InputError):
        AnnealSchedule(steps=0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(seed=0.5), "seed must be an integer, got 0.5"),
    (dict(steps=2.5), "steps must be an integer, got 2.5"),
    (dict(steps=True), "steps must be an integer, got True"),
    (dict(t_start=math.inf), "t_start must be finite, got inf"),
    (dict(t_start=math.nan), "t_start must be finite, got nan"),
    (dict(t_end=math.nan), "t_end must be finite, got nan"),
])
def test_schedule_rejects_bad_counts_seeds_and_temperatures(kwargs, message):
    with pytest.raises(InputError, match=message):
        AnnealSchedule(**kwargs)
