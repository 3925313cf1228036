import math

import numpy as np
import pytest

from zenopt import (
    DEPHASE,
    ConstrainedBinaryProblem,
    Constraint,
    EmptySubspaceError,
    EvalResult,
    FunctionalCircuit,
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
    qubo_values,
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
    qubo = compiled_model(problem, WEIGHT_ZENO, MULT).qubo
    gate_cost = marginal_probabilities(state, range(qubo.n_bits)) @ qubo_values(qubo)
    feasible = sorted(brute_force_solve(problem).feasible_indices)
    gate_feasible = marginal_probabilities(state, range(problem.n_vars))[feasible].sum()
    functional = evaluate_params(problem, WEIGHT_ZENO, MULT, params)
    assert abs(gate_cost - functional.expected_cost) < 1e-8
    assert abs(gate_feasible - functional.p_feasible) < 1e-10
    assert abs(state.survival_prob - functional.survival_prob) < 1e-10


@pytest.mark.parametrize("assignment", [ALL_QAOA, WEIGHT_ZENO, (DEPHASE, ZENO) * 2 + (QAOA,) * 2, (ZENO,) * 6])
def test_metrics_of_the_run_are_evaluate_params(assignment):
    """``evaluate_params`` is ``FunctionalCircuit.metrics`` of the run's
    probabilities, bit for bit, on the four cargo baseline assignments."""
    params = LayerParams((0.05, 0.12), (0.4, 0.7), 2)
    circuit = FunctionalCircuit(cargo(), assignment, MULT)
    state = circuit.run(params)
    metrics = circuit.metrics(state.probabilities(), state.survival_prob)
    assert metrics == evaluate_params(cargo(), assignment, MULT, params)
    assert type(metrics) is EvalResult


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



# Search paths pinned across commits: assignment, seed, p, Q, record count,
# final expected_cost, p_feasible and survival, best gamma and beta of the
# default 60-iteration search.  test_same_seed_bit_identical_trace compares
# two runs of one build; this table catches a change that moves a path.
DZDZQQ = (DEPHASE, ZENO, DEPHASE, ZENO, QAOA, QAOA)
ALL_ZENO = (ZENO,) * 6
PINNED_NAMES = {ALL_QAOA: "QQQQQQ", WEIGHT_ZENO: "ZQQQQQ", DZDZQQ: "DZDZQQ", ALL_ZENO: "ZZZZZZ"}
PINNED_SEARCHES = [
    (ALL_QAOA, 0, 1, 1, 60, 423.8028725351446, 0.13900437987191502, 1.0,
     (0.1989523809917954,), (-1.1227270110189604,)),
    (ALL_QAOA, 0, 2, 2, 60, 371.182973053875, 0.12478239611874882, 1.0,
     (0.11546420078417376, 0.12148483720236568), (1.1691045823367354, 0.3855156861694578)),
    (ALL_QAOA, 1, 1, 1, 60, 370.2007447444656, 0.11299349415913862, 1.0,
     (0.11602521538570576,), (1.3824209275603354,)),
    (ALL_QAOA, 1, 2, 2, 60, 429.2812647971101, 0.1484376581783578, 1.0,
     (0.167510375903142, 0.08638958290664844), (0.06054164858424435, 0.12329051114496918)),
    (WEIGHT_ZENO, 0, 1, 1, 51, 18.281637885628907, 0.888126494678741, 0.6664285209367729,
     (0.057002219090421684,), (-0.6900709758096422,)),
    (WEIGHT_ZENO, 0, 2, 2, 60, 10.973478457821084, 0.7415904797027822, 0.6395814440808598,
     (0.08840590591774972, 0.2405763303019426), (-0.7879742452946898, 0.7644692409822204)),
    (WEIGHT_ZENO, 1, 1, 1, 54, 18.281637885750985, 0.8881266570536895, 0.6664292849496352,
     (0.057002128900462426,), (-0.6900694965943712,)),
    (WEIGHT_ZENO, 1, 2, 2, 60, 10.98762249338049, 0.735111600802845, 0.6296026044877919,
     (0.0892171779467104, 0.23872566594782724), (-0.7897156044956775, 0.789819900496199)),
    (DZDZQQ, 0, 1, 1, 44, 10.731441836945756, 0.373884255900504, 0.8756214660218631,
     (0.19011606926711894,), (-0.46062773819812,)),
    (DZDZQQ, 0, 2, 2, 60, 7.670607147853016, 0.23302705047680441, 0.6066445193493704,
     (0.2181886422449772, 0.18784072840484073), (-0.8599553525076515, 0.5473452485257166)),
    (DZDZQQ, 1, 1, 1, 53, 10.731441835317709, 0.37388528135973315, 0.8756228650911578,
     (0.1901156551058618,), (-0.46062462086191674,)),
    (DZDZQQ, 1, 2, 2, 60, 11.208436911418719, 0.35023578899931845, 0.9312655325395778,
     (0.10961225062667729, 0.19466742971870504), (-0.12921469628341165, 0.4238917124594458)),
    (ALL_ZENO, 0, 1, 1, 44, -6.2404664006425365, 0.02003707403036971, 0.04946999300458125,
     (0.5224986755248202,), (0.7045977368703964,)),
    (ALL_ZENO, 0, 2, 2, 60, -6.387917241949487, 0.0384123334460922, 0.19209612907966803,
     (0.38205294179292015, 0.24071187141628242), (-0.07210449160360283, 0.5797063985249269)),
    (ALL_ZENO, 1, 1, 1, 54, -6.650992318781079, 0.032165761032480256, 0.010443087777284048,
     (-1.3171564074832838,), (0.9271535909532429,)),
    (ALL_ZENO, 1, 2, 2, 60, -6.3320077858912835, 0.05111677116139304, 0.00609977830814371,
     (0.34250020971251666, -0.2454780418863325), (0.5005067510706688, 0.6030964991823579)),
]


def _close(value):
    """Equal within the benchmark's tolerance: 1e-8 relative, absolute below 1."""
    return pytest.approx(value, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize(
    "case", PINNED_SEARCHES, ids=lambda c: f"{PINNED_NAMES[c[0]]}-seed{c[1]}-p{c[2]}q{c[3]}"
)
def test_pinned_search_paths(case):
    assignment, seed, p, q, count, cost, p_feasible, survival, gamma, beta = case
    config = OptimizerConfig(seed=seed, init_params=LayerParams.initial(p, q))
    trace = optimize(cargo(), assignment, MULT, config)
    assert len(trace.records) == count
    assert trace.final.expected_cost == _close(cost)
    assert trace.final.p_feasible == _close(p_feasible)
    assert trace.final.survival_prob == _close(survival)
    assert trace.best_params.gamma == _close(gamma)
    assert trace.best_params.beta == _close(beta)


@pytest.mark.parametrize("kwargs, message", [
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(seed=True), "seed must be an integer, got True"),
    (dict(max_iters=2.5), "max_iters must be an integer, got 2.5"),
    (dict(max_iters=True), "max_iters must be an integer, got True"),
])
def test_config_rejects_non_integer_counts_and_negative_seeds(kwargs, message):
    with pytest.raises(InputError, match=message):
        OptimizerConfig(**kwargs)


@pytest.mark.parametrize("q, message", [
    (1.5, "q_measurements must be an integer, got 1.5"),
    (2.0, "q_measurements must be an integer, got 2.0"),
    (True, "q_measurements must be an integer, got True"),
])
def test_layer_params_reject_non_integer_measurement_counts(q, message):
    with pytest.raises(InputError, match=message):
        LayerParams((0.1,), (0.1,), q)


def test_numpy_integer_counts_are_accepted():
    config = OptimizerConfig(max_iters=np.int64(3), seed=np.int32(2))
    params = LayerParams((0.1,), (0.1,), np.int64(2))
    expected = evaluate_params(cargo(), WEIGHT_ZENO, MULT, LayerParams((0.1,), (0.1,), 2))
    assert evaluate_params(cargo(), WEIGHT_ZENO, MULT, params) == expected
    assert len(optimize(cargo(), WEIGHT_ZENO, MULT, config).records) >= 1


def test_cached_model_arrays_are_read_only():
    # compiled_model is cached, so one caller's in-place edit would change
    # every later evaluation of the same model.
    params = LayerParams((0.3,), (0.2,), 2)
    before = evaluate_params(cargo(), WEIGHT_ZENO, MULT, params)
    model = compiled_model(cargo(), WEIGHT_ZENO, MULT)
    for array in (model.qubo.Q, model.qubo.B):
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1.0
    assert evaluate_params(cargo(), WEIGHT_ZENO, MULT, params) == before
