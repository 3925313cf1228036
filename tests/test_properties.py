"""Property-based tests of the compile and both backends.

Hypothesis draws problems of 1-4 variables and 0-3 constraints with
coefficients up to 1, 3, 7 or 100 and bounds from 0 to the coefficient sum
+ 2, so bound-zero, vacuous (bound at or above the sum) and all-zero
constraints all occur; any kinds in any ordering, p <= 2, Q <= 3 and angles
in [-3, 3].  Draws whose gate circuit would exceed ``MAX_GATE_QUBITS``, or
whose QUBO would exceed ``MAX_TABLE_BITS``, are discarded, which keeps every
state and table at most 256 KiB.  A structural property draws coefficients
and bounds up to about 2^62, near powers of two where a float log2 is one
bit short, and builds and counts circuits without running them.  Last, a
table derived from ``zenopt``'s namespace lists every exported function and
constructor with its required parameters: a walk gives each of them in turn
``None``, ``object()`` and ``"x"``, and a property values of the wrong type,
size or range.  The runs are derandomized with no example database, so the
suite stays deterministic.
"""

import contextlib
import inspect
import re

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import zenopt
from zenopt import (
    ORDERINGS,
    QAOA,
    AnnealSchedule,
    ConstrainedBinaryProblem,
    Constraint,
    FunctionalCircuit,
    Gate,
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
    problem_to_json,
    qubo_values,
    run_assignment,
    run_circuit,
    run_family_sweep,
    save_problem,
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
_X, _P0, _KET0 = [[0, 1], [1, 0]], [[1, 0], [0, 0]], [1, 0]
_CONFIG = OptimizerConfig(max_iters=1)
_CIRCUIT = build_circuit(**_BACKEND, params=_PARAMS)
_TRACE = optimize(**_BACKEND, config=_CONFIG)
_ANNEAL = anneal(_PROBLEM, _BACKEND["mult"], AnnealSchedule(steps=2))
_QUBO = compile_qubo(**_BACKEND)


def _entry_points():
    """The public functions and constructors of ``zenopt``, exceptions aside,
    and the two alternate constructors."""
    for name, obj in sorted(vars(zenopt).items()):
        exception = isinstance(obj, type) and issubclass(obj, Exception)
        if not name.startswith("_") and callable(obj) and not exception:
            yield name, obj
    yield "Multipliers.uniform", Multipliers.uniform
    yield "LayerParams.initial", LayerParams.initial


# Each entry point with the names of its required parameters; the optional
# ones keep their defaults.
ENTRY_POINTS = {
    name: (fn, [p.name for p in inspect.signature(fn).parameters.values() if p.default is p.empty])
    for name, fn in _entry_points()
}
# A valid value for each required parameter name: the fields of real records
# and value types, then the arguments of the functions, which take precedence.
FIXTURES = {
    **vars(_TRACE), **vars(_TRACE.records[0]), **vars(_ANNEAL), **vars(_ANNEAL.visit_trace[0]),
    **vars(run_assignment(**_BACKEND, config=_CONFIG)), **vars(circuit_stats(_CIRCUIT)), **vars(_CIRCUIT),
    **vars(state_visit_histogram(**_BACKEND, params=_PARAMS)), **vars(_QUBO), **vars(new_state(2)),
    **vars(_PROBLEM), **vars(_PROBLEM.constraints[0]), **vars(_BACKEND["mult"]), **vars(_PARAMS),
    **_BACKEND, "params": _PARAMS, "config": _CONFIG, "schedule": AnnealSchedule(steps=2),
    "circuit": _CIRCUIT, "layout": _CIRCUIT.layout, "qubo": _QUBO,
    "state": prepare_initial_state(_PROBLEM, _BACKEND["assignment"], _CIRCUIT.layout),
    "gate": Gate("H", (0,)), "kind": "CNOT", "qubits": (0, 1), "qubit": 0, "outcome": 0,
    "shots": 5, "seed": 0, "value_fn": np.negative, "n_constraints": 2, "lam": 1.0,
    "weights": (1, 2), "n_positions": 2, "max_weight": 3, "text": problem_to_json(_PROBLEM),
    "path": "problem.json", "hamiltonian": _X, "projector": _P0, "psi0": _KET0, "t": 1.0,
    "n_measurements": 2, "n_list": (1, 2),
}
PARAMETERS = [(name, param) for name, (_, required) in ENTRY_POINTS.items() for param in required]


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """The working directory of the calls, holding FIXTURES' problem file, so a
    path argument writes nowhere else."""
    path = tmp_path_factory.mktemp("entry_points")
    save_problem(_PROBLEM, path / FIXTURES["path"])
    return path


def _call(name: str, cwd, override: dict):
    """Entry point ``name`` in ``cwd`` on the FIXTURES values of its required
    parameters, with ``override`` in place of some."""
    fn, required = ENTRY_POINTS[name]
    with contextlib.chdir(cwd):
        return fn(**{**{p: FIXTURES[p] for p in required}, **override})


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_fixtures_make_valid_calls(name, scratch_dir):
    """FIXTURES alone makes a call that succeeds, so a ZenoptError in the
    walk below comes from the one wrong value."""
    _call(name, scratch_dir, {})


@pytest.mark.parametrize("value", [None, object(), "x"], ids=["None", "object", "str"])
@pytest.mark.parametrize("name, param", PARAMETERS, ids=[f"{name}-{param}" for name, param in PARAMETERS])
def test_each_required_parameter_rejects_a_wrong_type(name, param, value, scratch_dir):
    """Each required parameter of each entry point in turn takes a value of
    the wrong type: the call returns or raises a ZenoptError subclass, never a
    raw Python or numpy error."""
    with contextlib.suppress(ZenoptError):
        _call(name, scratch_dir, {param: value})


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_broken_values_raise_zenopt_errors(scratch_dir, data):
    """One required parameter of one entry point takes a value of the wrong
    type, size or range, ``mult`` multipliers for 0-3 constraints (the problem
    has 2): the call returns or raises a ZenoptError subclass.  A value the
    documented checks accept (a float angle, a small count) may succeed."""
    name, param = data.draw(st.sampled_from(PARAMETERS), label="parameter")
    values = st.integers(0, 3).map(lambda k: Multipliers.uniform(k, 1.0)) if param == "mult" else JUNK
    with contextlib.suppress(ZenoptError):
        _call(name, scratch_dir, {param: data.draw(values, label="value")})


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
