"""Property-based differential tests: both backends agree on drawn problems.

Hypothesis draws problems of 1-4 variables and 0-3 constraints with
coefficients up to 1, 3, 7 or 100 and bounds from 0 to the coefficient sum
+ 2, so bound-zero, vacuous (bound at or above the sum) and all-zero
constraints all occur; any kinds in any ordering, p <= 2, Q <= 3 and angles
in [-3, 3].  Draws whose gate circuit would exceed ``MAX_GATE_QUBITS`` are
discarded, which keeps every state at most 256 KiB.  The runs are
derandomized with no example database, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zenopt import (
    ORDERINGS,
    ConstrainedBinaryProblem,
    Constraint,
    FunctionalCircuit,
    LayerParams,
    Multipliers,
    build_circuit,
    prepare_initial_state,
    run_circuit,
)
from zenopt.builder import ancilla_mass
from zenopt.errors import ZenoptError
from zenopt.problem import REP_KINDS

MAX_GATE_QUBITS = 14


@st.composite
def cases(draw):
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
