"""Property-based tests of the compile and both backends.

Hypothesis draws problems of 1-4 variables and 0-3 constraints with
coefficients up to 1, 3, 7 or 100 and bounds from 0 to the coefficient sum
+ 2, so bound-zero, vacuous (bound at or above the sum) and all-zero
constraints all occur; any kinds in any ordering, p <= 2, Q <= 3 and angles
in [-3, 3].  Draws whose gate circuit would exceed ``MAX_GATE_QUBITS``, or
whose QUBO would exceed ``MAX_TABLE_BITS``, are discarded, which keeps every
state and table at most 256 KiB.  A structural property draws coefficients
and bounds up to about 2^62, near powers of two where a float log2 is one
bit short, and builds and counts circuits without running them.  A last
property feeds values of the wrong type, size or range to the public
constructors and entry points.  The runs are derandomized with no example
database, so the suite stays deterministic.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from zenopt import (
    ORDERINGS,
    QAOA,
    AnnealSchedule,
    ConstrainedBinaryProblem,
    Constraint,
    FunctionalCircuit,
    LayerParams,
    Multipliers,
    OptimizerConfig,
    anneal,
    brute_force_solve,
    build_circuit,
    circuit_stats,
    compile_qubo,
    default_multipliers,
    evaluate_params,
    expm_hermitian,
    lagrange_sweep,
    new_state,
    optimize,
    ordering_study,
    prepare_initial_state,
    qubo_values,
    run_assignment,
    run_circuit,
    run_family_sweep,
    sample,
    sampled_metrics,
    state_visit_histogram,
    survival_analytic,
    survival_empirical,
    zeno_demo_rows,
    zeno_limit_error,
)
from zenopt.builder import ancilla_mass
from zenopt.errors import INT64_MAX, ContractError, InputError, ZenoptError
from zenopt.problem import REP_KINDS, constraint_excess, subset_sums

MAX_GATE_QUBITS = 14
MAX_TABLE_BITS = 14


@st.composite
def problems(draw):
    """A problem, an assignment of kinds and multipliers."""
    n_vars = draw(st.integers(1, 4))
    top = draw(st.sampled_from((1, 3, 7, 100)))
    constraints = []
    for ci in range(draw(st.integers(0, 3))):
        coeffs = tuple(draw(st.lists(st.integers(0, top), min_size=n_vars, max_size=n_vars)))
        constraints.append(Constraint(coeffs, draw(st.integers(0, sum(coeffs) + 2)), f"c{ci}"))
    objective = tuple(draw(st.lists(st.integers(-3, 3), min_size=n_vars, max_size=n_vars)))
    problem = ConstrainedBinaryProblem(n_vars, objective, tuple(constraints))
    assignment = tuple(draw(st.sampled_from(REP_KINDS)) for _ in constraints)
    mult = Multipliers.uniform(len(constraints), draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 2.0)))
    return problem, assignment, mult


@st.composite
def cases(draw):
    problem, assignment, mult = draw(problems())
    p = draw(st.integers(1, 2))
    angles = st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p)
    params = LayerParams(tuple(draw(angles)), tuple(draw(angles)), draw(st.integers(1, 3)))
    return problem, assignment, mult, params, draw(st.sampled_from(ORDERINGS))


def _run(fn):
    """The result of ``fn()``, or the class of the zenopt error it raised."""
    try:
        return fn()
    except ZenoptError as exc:
        return type(exc)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cases())
def test_backends_agree_on_drawn_problems(case):
    problem, assignment, mult, params, ordering = case
    circuit = build_circuit(problem, assignment, mult, params, ordering)
    layout = circuit.layout
    assume(layout.n_qubits <= MAX_GATE_QUBITS)
    touched = {q for gate in circuit.gates for q in gate.qubits}
    assert set(layout.ancilla) <= touched, "an ancilla qubit is idle"
    gate = _run(lambda: run_circuit(circuit, prepare_initial_state(problem, assignment, layout)))
    functional = _run(lambda: FunctionalCircuit(problem, assignment, mult, ordering).run(params))
    if isinstance(gate, type) or isinstance(functional, type):
        assert gate == functional
        return
    assert ancilla_mass(gate, layout) <= 1e-9
    gate_slice = gate.amplitudes[: 1 << functional.n_qubits]
    assert np.max(np.abs(gate_slice - functional.amplitudes)) <= 1e-8
    assert abs(gate.survival_prob - functional.survival_prob) <= 1e-10


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(problems())
def test_qubo_minimized_over_slack_is_the_penalized_objective(case):
    """min over the QAOA slack bits of the QUBO is -objective.x plus, per QAOA
    constraint, lambda * max(0, a.x - b)^2, for every decision state x."""
    problem, assignment, mult = case
    qubo = compile_qubo(problem, assignment, mult)
    assume(qubo.n_bits <= MAX_TABLE_BITS)
    table = qubo_values(qubo).reshape(-1, 1 << problem.n_vars)
    expected = -subset_sums(problem.objective).astype(float)
    for ci, kind in enumerate(assignment):
        if kind == QAOA:
            expected += mult.lambdas[ci] * constraint_excess(problem)[ci].astype(float) ** 2
    # Rounding: the drawn tables stay within 2e-16 of their largest entry.
    tol = 1e-12 * max(1.0, float(np.abs(table).max()))
    assert np.max(np.abs(table.min(axis=0) - expected)) <= tol


def _near_power_of_two(e_low: int):
    """Integers 2^e + d, e from ``e_low`` to 62, d in [-2, 2]: from e = 49 on,
    the float log2 of one more than such a value rounds to e, a bit short."""
    return st.builds(lambda e, d: (1 << e) + d, st.integers(e_low, 62), st.integers(-2, 2))


@st.composite
def wide_cases(draw):
    """A problem with coefficients and bounds up to about 2^62, kinds, p and Q."""
    n_vars = draw(st.integers(1, 3))
    entries = st.integers(0, 3) | _near_power_of_two(48)
    constraints = []
    for ci in range(draw(st.integers(0, 2))):
        coeffs = tuple(draw(st.lists(entries, min_size=n_vars, max_size=n_vars)))
        near_sum = st.integers(-2, 2).map(lambda d: max(0, sum(coeffs) + d))
        bound = min(INT64_MAX, draw(st.integers(0, 3) | _near_power_of_two(48) | near_sum))
        constraints.append(Constraint(coeffs, bound, f"c{ci}"))
    try:
        problem = ConstrainedBinaryProblem(n_vars, (1,) * n_vars, tuple(constraints))
    except InputError:  # a coefficient sum beyond 2^63 - 1
        reject()
    assignment = tuple(draw(st.sampled_from(REP_KINDS)) for _ in constraints)
    p = draw(st.integers(1, 2))
    return problem, assignment, LayerParams((0.3,) * p, (0.2,) * p, draw(st.integers(1, 2)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(wide_cases())
def test_circuits_hold_their_values_up_to_the_int64_edge(case):
    """``build_circuit`` and ``circuit_stats`` take every accepted problem;
    each cost register holds its coefficient sum and each slack register its
    bound, in exactly that many bits; and the gate circuit measures p * Q
    flags per projecting functional block.  A wide register puts n above 48
    qubits, where an array of 2^n entries cannot be allocated, so building
    one fails the property with a raw numpy error."""
    problem, assignment, params = case
    mult = Multipliers.uniform(problem.n_constraints, 1.0)
    circuit = build_circuit(problem, assignment, mult, params)
    stats = circuit_stats(circuit)
    for ci, reg in circuit.layout.registers.items():
        total = sum(problem.constraints[ci].coeffs)
        assert reg.width_m == total.bit_length(), (ci, total, reg.width_m)
    qubo = compile_qubo(problem, assignment, mult)
    for ci, bits in qubo.slack_map.items():
        assert len(bits) == problem.constraints[ci].bound.bit_length(), (ci, len(bits))
    if qubo.n_bits <= MAX_TABLE_BITS:
        functional = FunctionalCircuit(problem, assignment, mult)
        projecting = sum(block.keep is not None for block in functional.blocks)
        assert stats.n_clbits == params.p_layers * params.q_measurements * projecting


# Values of the wrong type or out of range, for scalar and sequence fields
# alike.  No integer from 65 to 2^63 - 1: a count field (p_layers, shots)
# accepts it and would allocate that many entries.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-(2**70), 64) | st.integers(2**63, 2**70),
    st.floats(),
    st.complex_numbers(),
    st.lists(st.integers(-2, 2), max_size=3),
    st.lists(st.none() | st.text(max_size=1) | st.floats(), min_size=1, max_size=2).map(tuple),
)
_PROBLEM = ConstrainedBinaryProblem(2, (1, -2), (Constraint((1, 1), 1, "c0"), Constraint((2, 1), 2, "c1")))
_PARAMS = LayerParams((0.3,), (0.2,), 2)
_BACKEND = dict(problem=_PROBLEM, assignment=("ZENO", "DEPHASE"), mult=Multipliers((1.0, 2.0), 0.5))
# Each entry point with valid keyword arguments.  Every field but ``problem``
# and ``params`` takes a drawn value; ``mult`` takes multipliers for 0-3
# constraints (the problem has 2), the others take JUNK.
ENTRY_POINTS = {
    "ConstrainedBinaryProblem": (
        ConstrainedBinaryProblem,
        dict(n_vars=2, objective=(1, -2), constraints=_PROBLEM.constraints, var_labels=("a", "b")),
    ),
    "Constraint": (
        lambda **kw: ConstrainedBinaryProblem(2, (1, 1), (Constraint(**kw),)),
        dict(coeffs=(1, 1), bound=1, label="c"),
    ),
    "Multipliers": (Multipliers, dict(lambdas=(1.0, 2.0), alpha=0.5)),
    "Multipliers.uniform": (Multipliers.uniform, dict(n_constraints=2, lam=1.0, alpha=0.5)),
    "LayerParams": (LayerParams, dict(gamma=(0.3,), beta=(0.2,), q_measurements=2)),
    "LayerParams.initial": (LayerParams.initial, dict(p_layers=1, q_measurements=1)),
    "OptimizerConfig": (OptimizerConfig, dict(max_iters=5, seed=0)),
    "build_circuit": (build_circuit, dict(_BACKEND, params=_PARAMS, ordering="natural")),
    "FunctionalCircuit": (
        lambda **kw: FunctionalCircuit(**kw).run(_PARAMS),
        dict(_BACKEND, ordering="natural"),
    ),
    "new_state": (new_state, dict(n_qubits=3)),
    "sample": (lambda **kw: sample(new_state(2), **kw), dict(shots=5, seed=0)),
}


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_broken_values_raise_zenopt_errors(data):
    """One field of one entry point takes a value of the wrong type, size or
    range: the call raises a ZenoptError subclass, never a raw Python or numpy
    error.  A value the documented checks accept (a float angle, a small
    count) may succeed."""
    name = data.draw(st.sampled_from(sorted(ENTRY_POINTS)), label="entry point")
    fn, kwargs = ENTRY_POINTS[name]
    field = data.draw(st.sampled_from(sorted(set(kwargs) - {"problem", "params"})), label="field")
    values = st.integers(0, 3).map(lambda k: Multipliers.uniform(k, 1.0)) if field == "mult" else JUNK
    try:
        fn(**{**kwargs, field: data.draw(values, label="value")})
    except ZenoptError:
        pass


_X, _P0, _KET0 = [[0, 1], [1, 0]], [[1, 0], [0, 0]], [1, 0]
_CONFIG = OptimizerConfig(max_iters=1)
_CIRCUIT = build_circuit(**_BACKEND, params=_PARAMS)


# Wrong-type arguments to the entry points: zeno raises ContractError, as it
# does for a bad count, and every other module InputError.
@pytest.mark.parametrize("call, error, message", [
    (lambda: run_assignment(_PROBLEM, None, _BACKEND["mult"], _CONFIG), InputError,
     "assignment must be a sequence, got None"),
    (lambda: lagrange_sweep(_PROBLEM, ("ZENO", "DEPHASE"), None, _CONFIG), InputError,
     "lambdas must be a sequence, got None"),
    (lambda: lagrange_sweep(_PROBLEM, ("ZENO", "DEPHASE"), ["a"], _CONFIG), InputError,
     "lambda must be finite, got a"),
    (lambda: lagrange_sweep(_PROBLEM, None, [1.0], _CONFIG), InputError,
     "assignment must be a sequence, got None"),
    (lambda: ordering_study(_PROBLEM, None, _BACKEND["mult"], _CONFIG), InputError,
     "assignment must be a sequence, got None"),
    (lambda: zeno_demo_rows(5), InputError, "n_list must be a sequence, got 5"),
    (lambda: expm_hermitian(_X, None), ContractError, "t must be finite, got None"),
    (lambda: survival_analytic(_X, _KET0, None, 2), ContractError, "t must be finite, got None"),
    (lambda: survival_empirical(_X, _P0, _KET0, float("nan"), 2), ContractError,
     "t must be finite, got nan"),
    (lambda: zeno_limit_error(_X, _P0, _KET0, "1", 2), ContractError, "t must be finite, got 1"),
    (lambda: build_circuit(None, ("ZENO", "DEPHASE"), _BACKEND["mult"], _PARAMS), InputError,
     "problem must be ConstrainedBinaryProblem, got None"),
    (lambda: build_circuit(**dict(_BACKEND, mult=None), params=_PARAMS), InputError,
     "mult must be Multipliers, got None"),
    (lambda: build_circuit(**_BACKEND, params=None), InputError, "params must be LayerParams, got None"),
    (lambda: FunctionalCircuit(**dict(_BACKEND, problem=None)), InputError,
     "problem must be ConstrainedBinaryProblem, got None"),
    (lambda: FunctionalCircuit(**dict(_BACKEND, mult=None)), InputError, "mult must be Multipliers, got None"),
    (lambda: evaluate_params(**_BACKEND, params=None), InputError, "params must be LayerParams, got None"),
    (lambda: sampled_metrics(**_BACKEND, params=None, shots=5, seed=0), InputError,
     "params must be LayerParams, got None"),
    (lambda: state_visit_histogram(**_BACKEND, params=None), InputError,
     "params must be LayerParams, got None"),
    (lambda: optimize(**_BACKEND, config=None), InputError, "config must be OptimizerConfig, got None"),
    (lambda: lagrange_sweep(_PROBLEM, ("ZENO", "DEPHASE"), [1.0], None), InputError,
     "config must be OptimizerConfig, got None"),
    (lambda: ordering_study(**_BACKEND, config=None), InputError, "config must be OptimizerConfig, got None"),
    (lambda: run_assignment(**dict(_BACKEND, mult=None), config=_CONFIG), InputError,
     "mult must be Multipliers, got None"),
    (lambda: run_assignment(**_BACKEND, config=None), InputError, "config must be OptimizerConfig, got None"),
    (lambda: run_family_sweep(_PROBLEM, None), InputError, "mult must be Multipliers, got None"),
    (lambda: anneal(_PROBLEM, _BACKEND["mult"], None), InputError, "schedule must be AnnealSchedule, got None"),
    (lambda: OptimizerConfig(init_params=None), InputError, "init_params must be LayerParams, got None"),
    (lambda: lagrange_sweep(None, ("ZENO", "DEPHASE"), [1.0], _CONFIG), InputError,
     "problem must be ConstrainedBinaryProblem, got None"),
    (lambda: anneal(None, _BACKEND["mult"], AnnealSchedule()), InputError,
     "problem must be ConstrainedBinaryProblem, got None"),
    (lambda: anneal(_PROBLEM, None, AnnealSchedule()), InputError, "mult must be Multipliers, got None"),
    (lambda: compile_qubo(**dict(_BACKEND, problem=None)), InputError,
     "problem must be ConstrainedBinaryProblem, got None"),
    (lambda: compile_qubo(**dict(_BACKEND, mult=None)), InputError, "mult must be Multipliers, got None"),
    (lambda: prepare_initial_state(_PROBLEM, _BACKEND["assignment"], None), InputError,
     "layout must be CircuitLayout, got None"),
    (lambda: prepare_initial_state(None, _BACKEND["assignment"], _CIRCUIT.layout), InputError,
     "problem must be ConstrainedBinaryProblem, got None"),
    (lambda: run_circuit(None, new_state(2)), InputError, "circuit must be HybridCircuit, got None"),
    (lambda: run_circuit(_CIRCUIT, None), InputError, "state must be Statevector, got None"),
    (lambda: default_multipliers(None), InputError, "problem must be ConstrainedBinaryProblem, got None"),
    (lambda: brute_force_solve(None), InputError, "problem must be ConstrainedBinaryProblem, got None"),
], ids=["run_assignment", "lagrange_sweep-lambdas", "lagrange_sweep-lambda", "lagrange_sweep-assignment",
        "ordering_study", "zeno_demo_rows", "expm_hermitian", "survival_analytic",
        "survival_empirical", "zeno_limit_error", "build_circuit-problem", "build_circuit-mult",
        "build_circuit-params", "FunctionalCircuit-problem", "FunctionalCircuit-mult",
        "evaluate_params-params", "sampled_metrics-params", "state_visit_histogram-params",
        "optimize-config", "lagrange_sweep-config", "ordering_study-config", "run_assignment-mult",
        "run_assignment-config", "run_family_sweep-mult", "anneal-schedule", "OptimizerConfig-init_params",
        "lagrange_sweep-problem", "anneal-problem", "anneal-mult", "compile_qubo-problem",
        "compile_qubo-mult", "prepare_initial_state-layout", "prepare_initial_state-problem",
        "run_circuit-circuit", "run_circuit-state", "default_multipliers", "brute_force_solve"])
def test_wrong_types_raise_zenopt_errors(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
