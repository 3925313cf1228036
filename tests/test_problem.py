import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from zenopt import (
    CapacityError,
    ConstrainedBinaryProblem,
    Constraint,
    ContractError,
    FunctionalCircuit,
    InputError,
    LayerParams,
    Multipliers,
    OptimizerConfig,
    brute_force_solve,
    build_circuit,
    cargo_instance,
    compile_qubo,
    default_multipliers,
    optimize,
    parse_assignment,
    problem_from_json,
    problem_to_json,
    qubo_to_ising,
    qubo_values,
    run_assignment,
    slack_width,
)
from zenopt.problem import (
    DEPHASE,
    QAOA,
    ZENO,
    Qubo,
    constraint_excess,
    feasible_mask,
    subset_sums,
)


def cargo():
    return cargo_instance([1, 2, 3], 2, 3)


def test_cargo_instance_shape():
    problem = cargo()
    assert problem.n_vars == 6
    assert problem.n_constraints == 6
    labels = [c.label for c in problem.constraints]
    assert labels == ["weight", "position_0", "position_1", "cargo_0", "cargo_1", "cargo_2"]
    assert problem.objective == (1, 2, 3, 1, 2, 3)


def test_cargo_single_too_heavy():
    problem = cargo_instance([5], 1, 0)
    result = brute_force_solve(problem)
    assert result.opt_value == 0
    assert result.optimal_set == {"0"}


def test_cargo_brute_force_ground_truth():
    result = brute_force_solve(cargo())
    assert result.opt_value == 3
    assert len(result.optimal_indices) == 4
    assert len(result.feasible_indices) == 9


def test_brute_force_unconstrained():
    problem = ConstrainedBinaryProblem(2, (1, 1), ())
    result = brute_force_solve(problem)
    assert result.opt_value == 2
    assert result.optimal_set == {"11"}


def test_brute_force_capacity():
    problem = ConstrainedBinaryProblem(25, (1,) * 25, ())
    with pytest.raises(CapacityError):
        brute_force_solve(problem)


def test_slack_width():
    assert slack_width(3) == 2
    assert slack_width(1) == 1
    assert slack_width(0) == 0
    assert slack_width(4) == 3


def _bit_length(value: int) -> int:
    """The fewest bits w with value < 2^w, by exact integer comparison."""
    return next(w for w in range(65) if value < 1 << w)


def test_slack_width_is_exact_to_the_int64_limit():
    # A float log2 rounds 2^k + 1 down to k from k = 49 on, one bit short.
    for k in range(63):
        for d in (-1, 0, 1):
            assert slack_width(2**k + d) == _bit_length(2**k + d), (k, d)


def test_compile_qubo_slack_holds_a_2_to_53_bound():
    """Bound 2^53 takes 54 slack bits, so b - a.x = 2^53 at x = 0 is encodable."""
    problem = ConstrainedBinaryProblem(1, (1,), (Constraint((1,), 2**53, "big"),))
    qubo = compile_qubo(problem, (QAOA,), Multipliers.uniform(1, 1.0))
    assert qubo.slack_map == {0: tuple(range(1, 55))}
    assert qubo.n_bits == 55


def test_compile_qubo_bit_counts():
    problem = cargo()
    mult = Multipliers.uniform(6, 3)
    assert compile_qubo(problem, (QAOA,) * 6, mult).n_bits == 13
    weight_zeno = (ZENO,) + (QAOA,) * 5
    assert compile_qubo(problem, weight_zeno, mult).n_bits == 11


@pytest.mark.parametrize(
    "assignment, n_bits, slack_map",
    [
        ((DEPHASE, QAOA, ZENO, QAOA, QAOA, ZENO), 9, {1: (6,), 3: (7,), 4: (8,)}),
        ((QAOA, ZENO, QAOA, DEPHASE, QAOA, QAOA), 11, {0: (6, 7), 2: (8,), 4: (9,), 5: (10,)}),
    ],
)
def test_compile_qubo_slack_layout_of_interleaved_kinds(assignment, n_bits, slack_map):
    """QAOA constraints take slack_width(bound) bits each, in constraint order
    after the decision bits; DEPHASE and ZENO constraints take none.  Slack
    bit k of a constraint enters its penalty with weight 2^k."""
    qubo = compile_qubo(cargo(), assignment, Multipliers.uniform(6, 13))
    assert qubo.n_bits == n_bits
    assert qubo.slack_map == slack_map
    for bits in slack_map.values():
        assert [qubo.Q[b, b] for b in bits] == [13.0 * 4**k for k in range(len(bits))]


def test_compile_qubo_lambda_zero_maximizes_objective():
    problem = cargo()
    mult = Multipliers.uniform(6, 0.0)
    qubo = compile_qubo(problem, (QAOA,) * 6, mult)
    values = qubo_values(qubo)
    minimum = values.min()
    minimizers = np.nonzero(values == minimum)[0]
    assert all(m & 0b111111 == 0b111111 for m in minimizers)


def test_feasible_points_admit_zero_penalty_slack():
    problem = cargo()
    mult = Multipliers.uniform(6, 13)
    qubo = compile_qubo(problem, (QAOA,) * 6, mult)
    values = qubo_values(qubo)
    oracle = brute_force_solve(problem)
    objective = np.asarray(problem.objective)
    for decision in oracle.feasible_indices:
        over_slack = values[np.arange(1 << qubo.n_bits) & 63 == decision]
        obj = (np.array([(decision >> v) & 1 for v in range(6)]) * objective).sum()
        assert abs(over_slack.min() - (-obj)) < 1e-9


def test_penalty_dominance():
    problem = cargo()
    lam = sum(abs(c) for c in problem.objective) + 1
    mult = Multipliers.uniform(6, lam)
    qubo = compile_qubo(problem, (QAOA,) * 6, mult)
    values = qubo_values(qubo)
    oracle = brute_force_solve(problem)
    feasible_best = -oracle.opt_value
    decision = np.arange(1 << qubo.n_bits) & 63
    infeasible = ~np.isin(decision, np.fromiter(oracle.feasible_indices, dtype=np.int64))
    per_decision_min = np.full(64, np.inf)
    np.minimum.at(per_decision_min, decision, values)
    for d in range(64):
        if d not in oracle.feasible_indices:
            assert per_decision_min[d] > feasible_best


def test_default_multipliers_cargo():
    mult = default_multipliers(cargo())
    assert mult.lambdas == (13.0,) * 6
    assert mult.alpha == 13.0


def test_multipliers_validation():
    with pytest.raises(InputError):
        Multipliers((-1.0,), 1.0)
    with pytest.raises(InputError):
        Multipliers.uniform(2, 1.0, alpha=-0.5)


def test_uniform_multipliers_need_an_integer_count():
    for n in (2.5, True, -1):
        with pytest.raises(InputError, match="^n_constraints must be"):
            Multipliers.uniform(n, 1.0)
    assert Multipliers.uniform(np.int64(2), 1.0).lambdas == (1.0, 1.0)


@pytest.mark.parametrize("lambdas, alpha, message", [
    ((1.0, math.nan), 1.0, "lambda must be finite, got nan"),
    ((math.inf,), 1.0, "lambda must be finite, got inf"),
    ((1.0,), math.inf, "alpha must be finite, got inf"),
    ((1.0,), math.nan, "alpha must be finite, got nan"),
])
def test_multipliers_reject_non_finite_values(lambdas, alpha, message):
    with pytest.raises(InputError, match=message):
        Multipliers(lambdas, alpha)


def test_sequences_are_stored_as_tuples():
    """Lists and arrays are accepted and stored as tuples, so the problem,
    multipliers and angles hash into the compiled-model cache and both
    backends run them as their tuple twins."""
    listed = ConstrainedBinaryProblem(2, [1, 2], [Constraint([1, 1], 1, "c")], ["a", "b"])
    problem = ConstrainedBinaryProblem(2, (1, 2), (Constraint((1, 1), 1, "c"),), ("a", "b"))
    assert listed == problem and hash(listed) == hash(problem)
    mult = Multipliers([3.0], 0.5)
    params = LayerParams(np.array([0.2, 0.1]), np.array([0.4, 0.3]), 2)
    assert mult.lambdas == (3.0,) and params.gamma == (0.2, 0.1) and params.beta == (0.4, 0.3)
    state = FunctionalCircuit(listed, ["ZENO"], mult).run(params)
    assert np.array_equal(state.amplitudes, FunctionalCircuit(problem, ("ZENO",), mult).run(params).amplitudes)
    assert build_circuit(listed, ["ZENO"], mult, params).gates == build_circuit(problem, ("ZENO",), mult, params).gates


@pytest.mark.parametrize("make, message", [
    (lambda: ConstrainedBinaryProblem(1, None, ()), "^objective must be a sequence, got None$"),
    (lambda: ConstrainedBinaryProblem(1, (1,), 3), "^constraints must be a sequence, got 3$"),
    (lambda: ConstrainedBinaryProblem(1, (1,), ("c",)), "^constraints must hold Constraint values, got 'c'$"),
    (lambda: Constraint(2, 1), "^coeffs must be a sequence, got 2$"),
    (lambda: Multipliers(1.0, 1.0), "^lambdas must be a sequence, got 1.0$"),
    (lambda: Multipliers(("x",), 1.0), "^lambda must be finite, got x$"),
    (lambda: Multipliers.uniform(2, "x"), "^lambda must be finite, got x$"),
    (lambda: Multipliers.uniform(2, 1.0, 1j), r"^alpha must be finite, got 1j$"),
    (lambda: Multipliers.uniform(2**63, 1.0), "^n_constraints must be <= 9223372036854775807"),
    (lambda: LayerParams(None, (0.1,)), "^gamma must be a sequence, got None$"),
    (lambda: LayerParams.initial(2**63), "^p_layers must be <= 9223372036854775807"),
    (lambda: build_circuit(cargo(), None, Multipliers.uniform(7, 1.0), LayerParams.initial()),
     "^assignment must be a sequence, got None$"),
    (lambda: FunctionalCircuit(cargo(), 3, Multipliers.uniform(7, 1.0)), "^assignment must be a sequence, got 3$"),
])
def test_wrong_types_raise_input_errors(make, message):
    with pytest.raises(InputError, match=message):
        make()


def test_qubo_to_ising_single_linear_bit():
    qubo = Qubo(1, np.zeros((1, 1)), np.array([1.0]), 0.0, {})
    ising = qubo_to_ising(qubo)
    assert ising.z == {0: 0.5}
    assert ising.identity == 0.5
    assert np.allclose(ising.value(np.array([0, 1]), 1), [0.0, 1.0])


def test_qubo_to_ising_coupler():
    qubo = Qubo(2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), 0.0, {})
    ising = qubo_to_ising(qubo)
    assert ising.zz == {(0, 1): 0.5}
    idx = np.arange(4)
    assert np.allclose(ising.value(idx, 2), qubo_values(qubo))


def test_qubo_to_ising_rejects_asymmetric():
    qubo = Qubo(2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), 0.0, {})
    with pytest.raises(ContractError):
        qubo_to_ising(qubo)


@pytest.mark.parametrize("assignment", [(QAOA,) * 6, (ZENO,) + (QAOA,) * 5])
def test_ising_reconstruction_exhaustive(assignment):
    problem = cargo()
    qubo = compile_qubo(problem, assignment, Multipliers.uniform(6, 13))
    ising = qubo_to_ising(qubo)
    idx = np.arange(1 << qubo.n_bits)
    assert np.max(np.abs(ising.value(idx, qubo.n_bits) - qubo_values(qubo))) < 1e-9


def test_problem_validation():
    with pytest.raises(InputError):
        ConstrainedBinaryProblem(2, (1,), ())
    with pytest.raises(InputError):
        ConstrainedBinaryProblem(2, (1, 1), (Constraint((1, 1), -1),))
    with pytest.raises(InputError):
        cargo_instance([], 2, 3)
    with pytest.raises(InputError, match="max_weight must be >= 0"):
        cargo_instance([1, 2], 2, -1)


def test_negative_coefficients_rejected():
    # (-1, 1) . x <= 0 with lambda = 5: QAOA slack bits assume a.x >= 0, so
    # the feasible x_1 = 1, x_0 = 0 would compile to cost 4, like the
    # infeasible x_0 = 1, x_1 = 0.  Every path rejects such a constraint.
    with pytest.raises(InputError, match="'diff'"):
        ConstrainedBinaryProblem(2, (1, 1), (Constraint((-1, 1), 0, "diff"),))
    doc = '{"objective": [1, 1], "constraints": [{"coeffs": [-1, 1], "bound": 0, "label": "diff"}]}'
    with pytest.raises(InputError, match="'diff'"):
        problem_from_json(doc)


def test_json_roundtrip():
    problem = cargo()
    text = problem_to_json(problem)
    loaded = problem_from_json(text)
    assert loaded == problem


def test_json_malformed():
    with pytest.raises(InputError):
        problem_from_json("{not json")
    with pytest.raises(InputError):
        problem_from_json('{"constraints": []}')


@pytest.mark.parametrize("objective, coeffs, bound, message", [
    ("[1.5, 1]", "[2, 1]", "2", "objective entry 0 must be a JSON integer, got 1.5"),
    ("[1, true]", "[2, 1]", "2", "objective entry 1 must be a JSON integer, got true"),
    ("[1, 1]", "[2.9, 1]", "2", "constraint 0 coefficient 0 must be a JSON integer, got 2.9"),
    ("[1, 1]", "[2, false]", "2", "constraint 0 coefficient 1 must be a JSON integer, got false"),
    ("[1, 1]", "[2, 1]", "2.7", "constraint 0 bound must be a JSON integer, got 2.7"),
    ("[1, 1]", "[2, 1]", "2.0", "constraint 0 bound must be a JSON integer, got 2.0"),
    ("[1, 1]", "[2, 1]", "true", "constraint 0 bound must be a JSON integer, got true"),
    ("[1, 1]", "[2, 1]", '"2"', 'constraint 0 bound must be a JSON integer, got "2"'),
])
def test_json_numbers_must_be_integers(objective, coeffs, bound, message):
    """A value int() would round or coerce is an input error, never a different problem."""
    doc = f'{{"objective": {objective}, "constraints": [{{"coeffs": {coeffs}, "bound": {bound}}}]}}'
    with pytest.raises(InputError, match=message):
        problem_from_json(doc)


def _random_problem(seed, n_vars, n_cons):
    rng = np.random.default_rng(seed)
    constraints = tuple(
        Constraint(tuple(int(c) for c in rng.integers(0, 4, size=n_vars)), int(rng.integers(0, 6)))
        for _ in range(n_cons)
    )
    objective = tuple(int(v) for v in rng.integers(-3, 5, size=n_vars))
    return ConstrainedBinaryProblem(n_vars, objective, constraints)


@pytest.mark.parametrize("seed", range(6))
def test_constraint_excess_matches_per_state_sums(seed):
    problem = _random_problem(seed, 1 + seed, seed % 4)
    table = constraint_excess(problem)
    assert table.shape == (problem.n_constraints, 1 << problem.n_vars)
    assert table.dtype == np.int64 and not table.flags.writeable
    objective = subset_sums(problem.objective)
    for x in range(1 << problem.n_vars):
        bits = [(x >> v) & 1 for v in range(problem.n_vars)]
        assert objective[x] == sum(c * b for c, b in zip(problem.objective, bits))
        for ci, con in enumerate(problem.constraints):
            assert table[ci, x] == max(0, sum(c * b for c, b in zip(con.coeffs, bits)) - con.bound)
    assert np.array_equal(feasible_mask(problem, range(problem.n_constraints)), ~table.any(axis=0))
    assert np.array_equal(feasible_mask(problem, range(1, problem.n_constraints)), ~table[1:].any(axis=0))
    assert feasible_mask(problem, []).all()
    result = brute_force_solve(problem)
    assert result.feasible_indices == frozenset(np.flatnonzero(~table.any(axis=0)).tolist())


def test_constraint_excess_capacity():
    with pytest.raises(CapacityError):
        constraint_excess(ConstrainedBinaryProblem(25, (1,) * 25, ()))


def test_brute_force_result_not_retained():
    # One loose constraint on 16 variables: all 2^16 states are feasible, so
    # the result holds 2^16 Python ints.  Once it is deleted, less than the
    # cached excess table (8 bytes per state, built before tracing) may stay.
    problem = ConstrainedBinaryProblem(16, (1,) * 16, (Constraint((1,) * 16, 16, "loose"),))
    table = constraint_excess(problem)
    tracemalloc.start()
    try:
        result = brute_force_solve(problem)
        assert len(result.feasible_indices) == 1 << 16
        del result
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < table.nbytes, retained / table.nbytes


@pytest.mark.parametrize("seed", [None, *range(8)])
def test_qubo_minimum_is_negated_optimum(seed):
    # All-QAOA with every lambda above sum|objective|: a violation costs at
    # least lambda, more than any objective gain, and a feasible state's
    # slack can take b - a.x, so the QUBO minimum is the negated optimum.
    problem = cargo() if seed is None else _random_problem(seed, 2 + seed % 4, 1 + seed % 3)
    rng = np.random.default_rng(seed)
    total = sum(abs(c) for c in problem.objective)
    lambdas = tuple(float(v) for v in total + rng.uniform(0.01, 2.0, size=problem.n_constraints))
    qubo = compile_qubo(problem, (QAOA,) * problem.n_constraints, Multipliers(lambdas, 1.0))
    values = qubo_values(qubo)
    assert abs(values.min() + brute_force_solve(problem).opt_value) < 1e-9


def _bit_matrix_values(qubo):
    """x^T Q x + B.x + const of every basis index, from its (2^n, n) 0/1 bit matrix."""
    idx = np.arange(1 << qubo.n_bits).reshape(-1, 1)
    bits = ((idx >> np.arange(qubo.n_bits)) & 1).astype(np.float64)
    return np.einsum("ij,ij->i", bits @ qubo.Q, bits) + bits @ qubo.B + qubo.const_term


def test_doubled_cost_table_equals_bit_matrix_formula_on_every_cargo_assignment():
    # At lambda = 13 every cost is an integer, so both sums are exact.
    problem = cargo()
    mult = Multipliers.uniform(6, 13)
    for assignment in itertools.product((QAOA, DEPHASE, ZENO), repeat=6):
        qubo = compile_qubo(problem, assignment, mult)
        assert np.array_equal(qubo_values(qubo), _bit_matrix_values(qubo)), assignment


@pytest.mark.parametrize("seed", range(4))
def test_doubled_cost_table_matches_bit_matrix_formula_on_float_inputs(seed):
    rng = np.random.default_rng(seed)
    n = 3 + 2 * seed
    asymmetric = Qubo(n, rng.normal(size=(n, n)), rng.normal(size=n), float(rng.normal()), {})
    problem = _random_problem(seed, 2 + seed, 1 + seed % 3)
    lambdas = tuple(float(v) for v in rng.uniform(0.1, 3.0, size=problem.n_constraints))
    fractional = compile_qubo(problem, (QAOA,) * problem.n_constraints, Multipliers(lambdas, 0.5))
    for qubo in (asymmetric, fractional):
        expected = _bit_matrix_values(qubo)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(qubo_values(qubo) - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["Z", "zeno"])
def test_unknown_kind_rejected_everywhere(kind):
    problem = cargo()
    mult = default_multipliers(problem)
    assignment = (kind,) * problem.n_constraints
    message = f"unknown representation {kind!r}"
    with pytest.raises(InputError, match=message):
        compile_qubo(problem, assignment, mult)
    with pytest.raises(InputError, match=message):
        optimize(problem, assignment, mult, OptimizerConfig(max_iters=40))
    with pytest.raises(InputError, match=message):
        FunctionalCircuit(problem, assignment, mult)
    with pytest.raises(InputError, match=message):
        build_circuit(problem, assignment, mult, LayerParams.initial())
    row = run_assignment(problem, assignment, mult, OptimizerConfig(max_iters=40))
    assert row.error.startswith("InputError: unknown representation")
    with pytest.raises(InputError, match="unknown representation 'MAGIC'"):
        parse_assignment("QAOA,MAGIC")


@pytest.mark.parametrize("build, message", [
    (lambda: ConstrainedBinaryProblem(2, (1.5, 1), (Constraint((1, 1), 2),)),
     "objective entry 0 must be an integer, got 1.5"),
    (lambda: ConstrainedBinaryProblem(2, (1, 1), (Constraint((1.5, 1), 2, "c"),)),
     "constraint 'c' coefficient 0 must be an integer, got 1.5"),
    (lambda: ConstrainedBinaryProblem(2, (1, 1), (Constraint((1, False), 2, "c"),)),
     "constraint 'c' coefficient 1 must be an integer, got False"),
    (lambda: ConstrainedBinaryProblem(2, (1, 1), (Constraint((1, 1), True, "c"),)),
     "constraint 'c' bound must be an integer, got True"),
    (lambda: ConstrainedBinaryProblem(2, (1, 1), (Constraint((1, 1), 2.0, "c"),)),
     "constraint 'c' bound must be an integer, got 2.0"),
    (lambda: ConstrainedBinaryProblem(True, (1,), ()), "n_vars must be an integer, got True"),
    (lambda: cargo_instance([1.5, 2], 2, 3), "objective entry 0 must be an integer, got 1.5"),
    (lambda: cargo_instance([1, 2], 2, 2.5), "constraint 'weight' bound must be an integer, got 2.5"),
    (lambda: cargo_instance([1, 2], 1.5, 3), "n_positions must be an integer, got 1.5"),
])
def test_python_built_problems_hold_integers(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_numpy_integer_problem_numbers_are_accepted():
    coeffs = tuple(np.arange(1, 4))
    problem = ConstrainedBinaryProblem(np.int64(3), coeffs, (Constraint(coeffs, np.int32(3)),))
    assert brute_force_solve(problem).opt_value == 3


@pytest.mark.parametrize("build, message", [
    (lambda: ConstrainedBinaryProblem(3, (1, 1, 1), (Constraint((2**62,) * 3, 2**62, "c"),)),
     f"constraint 'c' coefficient sum is {3 * 2**62}, more than 2^63 - 1"),
    (lambda: ConstrainedBinaryProblem(3, (2**62,) * 3, ()),
     f"the sum of |objective entries| is {3 * 2**62}, more than 2^63 - 1"),
    (lambda: ConstrainedBinaryProblem(2, (2**62, -(2**62)), ()),
     f"the sum of |objective entries| is {2**63}, more than 2^63 - 1"),
    (lambda: ConstrainedBinaryProblem(2, (10**30, 1), ()),
     f"the sum of |objective entries| is {10**30 + 1}, more than 2^63 - 1"),
    (lambda: ConstrainedBinaryProblem(1, (1,), (Constraint((1,), 2**63, "c"),)),
     f"constraint 'c' bound is {2**63}, more than 2^63 - 1"),
], ids=["coefficient-sum", "objective-sum", "objective-abs-sum", "objective-1e30", "bound"])
def test_problems_reject_sums_beyond_int64(build, message):
    # subset_sums enumerates a.x and objective . x in int64: past 2^63 - 1
    # it wrapped (state 7 of the first problem read feasible) or raised
    # OverflowError from numpy.
    with pytest.raises(InputError, match=re.escape(message)):
        build()


def test_sums_at_int64_max_enumerate_exactly():
    top = 2**63 - 1
    weights = (2**62, 2**62 - 1)
    problem = ConstrainedBinaryProblem(2, weights, (Constraint(weights, 2**62, "c"),))
    assert sum(weights) == top
    result = brute_force_solve(problem)
    assert result.feasible_indices == {0, 1, 2}
    assert (result.opt_value, result.optimal_indices) == (2**62, {1})
    assert constraint_excess(problem)[0].tolist() == [0, 0, 0, top - 2**62]


@pytest.mark.parametrize("build, message", [
    (lambda: ConstrainedBinaryProblem(0, (), ()), "n_vars must be >= 1, got 0"),
    (lambda: cargo_instance([1, 2], 0, 3), "n_positions must be >= 1, got 0"),
    (lambda: problem_from_json('{"objective": [], "constraints": []}'), "n_vars must be >= 1, got 0"),
], ids=["python", "cargo", "json"])
def test_problems_need_a_variable(build, message):
    with pytest.raises(InputError, match=message):
        build()
