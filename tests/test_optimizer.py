import math

import numpy as np
import pytest

from zenopt import (
    DEPHASE,
    ConstrainedBinaryProblem,
    Constraint,
    EmptySubspaceError,
    InputError,
    LayerParams,
    Multipliers,
    OptimizerConfig,
    QAOA,
    ZENO,
    brute_force_solve,
    build_circuit,
    cargo_instance,
    evaluate_params,
    marginal_probabilities,
    optimize,
    prepare_initial_state,
    run_circuit,
)
from zenopt.builder import compiled_model

MULT = Multipliers.uniform(6, 13)
ALL_QAOA = (QAOA,) * 6
WEIGHT_ZENO = (ZENO,) + (QAOA,) * 5


def cargo():
    return cargo_instance([1, 2, 3], 2, 3)


def test_zero_angles_all_qaoa_uniform_marginal():
    result = evaluate_params(cargo(), ALL_QAOA, MULT, LayerParams((0.0,), (0.0,)))
    assert abs(result.p_feasible - 9 / 64) < 1e-12
    assert abs(result.p_optimal - 4 / 64) < 1e-12
    assert result.survival_prob == 1.0


def test_zero_angles_weight_zeno_preselected():
    result = evaluate_params(cargo(), WEIGHT_ZENO, MULT, LayerParams((0.0,), (0.0,)))
    # the pre-run keeps the 12 weight-feasible states, all 9 feasible among them
    assert abs(result.p_feasible - 9 / 12) < 1e-9
    assert result.p_feasible > 9 / 64


def test_all_qaoa_survival_stays_one():
    result = evaluate_params(cargo(), ALL_QAOA, MULT, LayerParams((0.3,), (0.8,)))
    assert result.survival_prob == 1.0


def test_gate_and_oracle_metrics_agree():
    # evaluate_params runs the functional backend; read the same metrics off
    # the gate circuit's final state.
    problem = cargo()
    params = LayerParams((0.17,), (0.36,), 2)
    circuit = build_circuit(problem, WEIGHT_ZENO, MULT, params)
    state = run_circuit(circuit, prepare_initial_state(problem, WEIGHT_ZENO, circuit.layout))
    model = compiled_model(problem, WEIGHT_ZENO, MULT)
    gate_cost = marginal_probabilities(state, range(model.qubo.n_bits)) @ model.cost_table
    feasible = sorted(brute_force_solve(problem).feasible_indices)
    gate_feasible = marginal_probabilities(state, range(problem.n_vars))[feasible].sum()
    functional = evaluate_params(problem, WEIGHT_ZENO, MULT, params)
    assert abs(gate_cost - functional.expected_cost) < 1e-8
    assert abs(gate_feasible - functional.p_feasible) < 1e-10
    assert abs(state.survival_prob - functional.survival_prob) < 1e-10


# One variable, x <= 0 as a Zeno constraint: RX(pi) moves the whole state
# onto the infeasible x = 1, so the projection annihilates it.
ZENO_OFF = ConstrainedBinaryProblem(1, (1,), (Constraint((1,), 0, "off"),))


def test_annihilated_projection_names_its_block():
    params = LayerParams((0.0,), (math.pi,))
    with pytest.raises(EmptySubspaceError) as info:
        evaluate_params(ZENO_OFF, (ZENO,), Multipliers.uniform(1, 2.0), params)
    message = str(info.value)
    assert "'off'" in message and "layer 1/1" in message and "sub-block 1/1" in message


def test_search_evaluates_annihilated_point_as_infinite_cost():
    config = OptimizerConfig(max_iters=10, seed=0, init_params=LayerParams((0.0,), (math.pi,)))
    trace = optimize(ZENO_OFF, (ZENO,), Multipliers.uniform(1, 2.0), config)
    first = trace.records[0]
    assert first.expected_cost == math.inf
    assert first.p_feasible == first.p_optimal == first.survival_prob == 0.0
    assert np.isfinite(trace.final.expected_cost)
    assert 0.0 < trace.final.survival_prob <= 1.0


def test_max_iters_one_returns_init_evaluation():
    config = OptimizerConfig(max_iters=1, seed=0)
    trace = optimize(cargo(), ALL_QAOA, MULT, config)
    assert len(trace.records) == 1
    init = evaluate_params(cargo(), ALL_QAOA, MULT, config.init_params)
    assert trace.records[0].expected_cost == init.expected_cost
    assert trace.records[0].gamma == config.init_params.gamma


def test_final_cost_never_exceeds_initial():
    config = OptimizerConfig(max_iters=60, seed=0)
    trace = optimize(cargo(), ALL_QAOA, MULT, config)
    assert trace.final.expected_cost <= trace.records[0].expected_cost
    # the reported final is the best point seen anywhere in the trace
    assert trace.final.expected_cost <= min(r.expected_cost for r in trace.records)


def test_trace_records_probabilities_in_range():
    config = OptimizerConfig(max_iters=25, seed=1)
    trace = optimize(cargo(), WEIGHT_ZENO, MULT, config)
    for rec in trace.records:
        assert 0.0 <= rec.p_feasible <= 1.0
        assert 0.0 <= rec.p_optimal <= rec.p_feasible + 1e-12
        assert 0.0 <= rec.survival_prob <= 1.0


def test_same_seed_bit_identical_trace():
    config = OptimizerConfig(max_iters=30, seed=5)
    first = optimize(cargo(), ALL_QAOA, MULT, config)
    second = optimize(cargo(), ALL_QAOA, MULT, config)
    assert len(first.records) == len(second.records)
    for a, b in zip(first.records, second.records):
        assert a == b
    assert first.best_params == second.best_params


def test_different_seeds_explore_differently():
    traces = [
        optimize(cargo(), ALL_QAOA, MULT, OptimizerConfig(max_iters=20, seed=s))
        for s in (0, 1)
    ]
    assert traces[0].records != traces[1].records


def test_trace_length_bounded_by_max_iters():
    config = OptimizerConfig(max_iters=15, seed=0)
    trace = optimize(cargo(), ALL_QAOA, MULT, config)
    assert 1 <= len(trace.records) <= 15


def test_flat_problem_stops_at_fixed_threshold():
    # Zero objective and no constraints: every point costs exactly 0, so the
    # search stops once the three vertices of the initial simplex are recorded.
    flat = ConstrainedBinaryProblem(2, (0, 0), ())
    config = OptimizerConfig(max_iters=60, seed=0)
    trace = optimize(flat, (), Multipliers.uniform(0, 1.0), config)
    assert [rec.expected_cost for rec in trace.records] == [0.0, 0.0, 0.0]


def test_config_validation():
    with pytest.raises(InputError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(InputError):
        LayerParams((), ())
    with pytest.raises(InputError):
        LayerParams((0.1,), (0.1,), 0)


def test_feasibility_measured_against_oracle_not_qubo():
    # With every constraint dephased the QUBO is just the negated objective;
    # p_feasible must still count the original problem's feasible set.
    mult = Multipliers.uniform(6, 13)
    result = evaluate_params(cargo(), (DEPHASE,) * 6, mult, LayerParams((0.0,), (0.0,)))
    assert abs(result.p_feasible - 9 / 64) < 1e-9


def test_two_layer_optimization():
    config = OptimizerConfig(
        max_iters=12, seed=0, init_params=LayerParams((0.1, 0.1), (0.1, 0.1))
    )
    trace = optimize(cargo(), ALL_QAOA, MULT, config)
    assert len(trace.best_params.gamma) == 2
    assert len(trace.records[0].beta) == 2


def test_wall_time_recorded():
    trace = optimize(cargo(), ALL_QAOA, MULT, OptimizerConfig(max_iters=5, seed=0))
    assert trace.wall_time > 0
