import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zenopt import (
    CapacityError,
    ConstrainedBinaryProblem,
    Constraint,
    DEPHASE,
    EmptySubspaceError,
    FunctionalCircuit,
    InputError,
    LayerParams,
    LayoutError,
    Multipliers,
    QAOA,
    Statevector,
    ZENO,
    apply_gate,
    apply_gates,
    build_circuit,
    build_dephasing_layer,
    build_phase_return,
    build_zeno_layer,
    cargo_instance,
    circuit_stats,
    circuit_to_json,
    compile_qubo,
    marginal_probabilities,
    new_state,
    parse_assignment,
    prepare_initial_state,
    project_qubit,
    qubo_to_ising,
    qubo_values,
    run_circuit,
)
from zenopt.arithmetic import register_width
from zenopt.builder import (
    CircuitLayout,
    HybridCircuit,
    ancilla_mass,
    build_layout,
    compiled_model,
    layer_blocks,
)
from zenopt.problem import REP_KINDS, IsingCoeffs, feasible_mask
from zenopt import statevector
from zenopt.statevector import gate_h, gate_rx


def cargo():
    return cargo_instance([1, 2, 3], 2, 3)


MULT = Multipliers.uniform(6, 13)
ALL_QAOA = (QAOA,) * 6
WEIGHT_ZENO = (ZENO,) + (QAOA,) * 5
WEIGHT_DEPHASE = (DEPHASE,) + (QAOA,) * 5


def test_phase_return_single_term():
    gates = build_phase_return(IsingCoeffs({}, {0: 0.5}, 0.0), np.pi)
    assert len(gates) == 1
    assert gates[0].kind == "RZ" and gates[0].qubits == (0,)
    assert abs(abs(gates[0].angle) - np.pi) < 1e-12


def test_phase_return_empty():
    assert build_phase_return(IsingCoeffs({}, {}, 1.5), 0.3) == []


def test_phase_return_is_diagonal():
    problem = cargo()
    qubo = compile_qubo(problem, ALL_QAOA, MULT)
    ising = qubo_to_ising(qubo)
    state = apply_gates(new_state(qubo.n_bits), [gate_h(q) for q in range(qubo.n_bits)])
    evolved = apply_gates(state, build_phase_return(ising, 0.37))
    assert np.allclose(np.abs(evolved.amplitudes), np.abs(state.amplitudes), atol=1e-12)


def test_phase_return_matches_diagonal_oracle():
    # e^{-i*gamma*(cost - identity)} applied through gates equals the direct
    # diagonal evolution, pointwise in amplitude.
    problem = cargo()
    qubo = compile_qubo(problem, ALL_QAOA, MULT)
    ising = qubo_to_ising(qubo)
    n = qubo.n_bits
    gamma = 0.23
    state = apply_gates(new_state(n), [gate_h(q) for q in range(n)])
    via_gates = apply_gates(state, build_phase_return(ising, gamma))
    centered = qubo_values(qubo) - ising.identity
    via_oracle = state.amplitudes * np.exp(-1j * gamma * centered)
    assert np.max(np.abs(via_gates.amplitudes - via_oracle)) < 1e-9


def test_composition_identity_textbook_qaoa():
    # All-QAOA hybrid circuit at P=1 equals H-wall, diagonal phase, RX mixer.
    problem = cargo()
    gamma, beta = 0.19, 0.41
    circuit = build_circuit(problem, ALL_QAOA, MULT, LayerParams((gamma,), (beta,)))
    state = prepare_initial_state(problem, ALL_QAOA, circuit.layout)
    hybrid = run_circuit(circuit, state)

    qubo = compile_qubo(problem, ALL_QAOA, MULT)
    ising = qubo_to_ising(qubo)
    n = qubo.n_bits
    centered = qubo_values(qubo) - ising.identity
    phased = np.exp(-1j * gamma * centered) / np.sqrt(1 << n)
    reference = apply_gates(Statevector(n, phased), [gate_rx(q, beta) for q in range(n)])
    assert np.max(np.abs(hybrid.amplitudes - reference.amplitudes)) < 1e-9
    assert np.max(np.abs(hybrid.probabilities() - reference.probabilities())) < 1e-9


def _constraint_costs(problem, ci):
    coeffs = np.asarray(problem.constraints[ci].coeffs)
    idx = np.arange(1 << problem.n_vars)
    bits = (idx.reshape(-1, 1) >> np.arange(problem.n_vars)) & 1
    return bits @ coeffs


@pytest.mark.parametrize("mode", ["gate", "oracle"])
def test_dephasing_layer_matches_functional_oracle(mode):
    # Net effect on every decision basis state is e^{-i*theta*alpha*max(0, cost-c)}:
    # "gate" runs the gate layer alone, "oracle" the functional backend's
    # dephasing block behind its phase return (beta = 0 makes the mixer idle).
    problem = cargo()
    alpha, theta = 0.8, 0.45
    model = compiled_model(problem, WEIGHT_DEPHASE, MULT)
    costs = _constraint_costs(problem, 0)
    if mode == "gate":
        reg = model.layout.registers[0]
        layer = build_dephasing_layer(reg, alpha, theta)
        n = model.layout.n_qubits
        state = apply_gates(new_state(n), [gate_h(q) for q in range(problem.n_vars)])
        evolved = apply_gates(state, layer).amplitudes
        start = state.amplitudes
    else:
        mult = Multipliers(MULT.lambdas, alpha)
        circuit = FunctionalCircuit(problem, WEIGHT_DEPHASE, mult)
        evolved = circuit.run(LayerParams((theta,), (0.0,))).amplitudes
        n = circuit.n_bits
        centered = circuit.cost_table - model.ising.identity
        start = np.exp(-1j * theta * centered) / np.sqrt(1 << n)
    dec = np.arange(1 << n) & 63
    expected = start * np.exp(-1j * theta * alpha * np.maximum(0, costs[dec] - 3))
    assert np.max(np.abs(evolved - expected)) < 1e-8


def test_dephasing_boundary_and_alpha_zero():
    problem = cargo()
    model = compiled_model(problem, WEIGHT_DEPHASE, MULT)
    reg = model.layout.registers[0]
    n = model.layout.n_qubits
    state = apply_gates(new_state(n), [gate_h(q) for q in range(6)])
    # cost == threshold branches acquire no phase
    layer = build_dephasing_layer(reg, 1.0, 0.5)
    evolved = apply_gates(state, layer)
    costs = _constraint_costs(problem, 0)
    at_bound = np.nonzero(costs == 3)[0]
    assert np.allclose(evolved.amplitudes[at_bound], state.amplitudes[at_bound])
    # alpha = 0 is the identity everywhere
    idle = apply_gates(state, build_dephasing_layer(reg, 0.0, 0.5))
    assert np.max(np.abs(idle.amplitudes - state.amplitudes)) < 1e-12


def test_dephasing_is_diagonal_under_alpha():
    problem = cargo()
    params_a = LayerParams((0.3,), (0.0,))
    outs = []
    for alpha in (0.0, 0.9):
        mult = Multipliers(MULT.lambdas, alpha)
        circuit = build_circuit(problem, (DEPHASE,) * 6, mult, params_a)
        state = prepare_initial_state(problem, (DEPHASE,) * 6, circuit.layout)
        outs.append(run_circuit(circuit, state))
    assert np.max(np.abs(np.abs(outs[0].amplitudes) - np.abs(outs[1].amplitudes))) < 1e-10


def test_zeno_layer_beta_zero_keeps_survival_one():
    problem = cargo()
    circuit = build_circuit(problem, WEIGHT_ZENO, MULT, LayerParams((0.0,), (0.0,)))
    state = prepare_initial_state(problem, WEIGHT_ZENO, circuit.layout)
    out = run_circuit(circuit, state)
    assert abs(out.survival_prob - 1.0) < 1e-9


def test_zeno_survival_monotone_in_q():
    problem = cargo()
    survivals = {}
    for q in (1, 4):
        circuit = build_circuit(problem, WEIGHT_ZENO, MULT, LayerParams((0.0,), (0.3,), q))
        state = prepare_initial_state(problem, WEIGHT_ZENO, circuit.layout)
        survivals[q] = run_circuit(circuit, state).survival_prob
    assert survivals[4] >= survivals[1]


def test_zeno_layer_infeasible_entry_annihilates():
    problem = cargo()
    model = compiled_model(problem, WEIGHT_ZENO, MULT)
    reg = model.layout.registers[0]
    gates, positions = build_zeno_layer(reg, 0.0, 1, range(6))
    n = model.layout.n_qubits
    # all-ones decision state violates the weight bound with certainty
    amps = np.zeros(1 << n, dtype=complex)
    amps[0b111111] = 1.0
    from zenopt import Statevector, project_qubit

    state = Statevector(n, amps, 1.0)
    state = apply_gates(state, gates[: positions[0]])
    with pytest.raises(EmptySubspaceError):
        project_qubit(state, reg.flag_qubit, 0)


def test_zeno_layer_vacuous_bound_only_mixes():
    # Bound 16 >= 2^4 (the weight register width): no cost can violate it,
    # so the layout gives it no register and each sub-block is the RX wall
    # alone, with no flag to project.
    gates, positions = build_zeno_layer(None, 0.3, 2, range(6))
    assert positions == []
    assert [g.kind for g in gates] == ["RX"] * 12


@pytest.mark.parametrize("kind", [DEPHASE, ZENO])
def test_cost_register_holds_a_2_to_49_coefficient_sum(kind):
    """A coefficient sum of 2^49 takes a 50-bit register: a float log2 gave
    49 bits, and the adder then refused the overflow with LayoutError."""
    problem = ConstrainedBinaryProblem(2, (1, 1), (Constraint((2**49, 0), 5, "big"),))
    stats = circuit_stats(build_circuit(problem, (kind,), Multipliers.uniform(1, 1.0), LayerParams.initial()))
    assert stats.n_qubits == 2 + 50 + 1
    assert stats.n_clbits == (1 if kind == ZENO else 0)
    assert stats.non_local_gates > 0


def test_build_circuit_layout_all_qaoa():
    problem = cargo()
    circuit = build_circuit(problem, ALL_QAOA, MULT, LayerParams((0.1,), (0.1,)))
    assert circuit.layout.n_qubits == 13
    assert circuit.projections == []
    assert circuit.n_parameters == 2


def test_build_circuit_layout_weight_zeno():
    # Weight coefficients sum to 12, so its cost register needs 4 bits; the
    # layout is 11 model qubits + 4 cost + 1 flag.
    problem = cargo()
    circuit = build_circuit(problem, WEIGHT_ZENO, MULT, LayerParams((0.1,), (0.1,), 1))
    assert circuit.layout.n_qubits == 16
    assert len(circuit.projections) == 1
    reg = circuit.layout.registers[0]
    assert reg.width_m == 4


def test_register_pooling_shares_equal_widths():
    problem = cargo()
    layout = build_layout(problem, (ZENO,) * 6, 6)
    widths = {reg.width_m for reg in layout.registers.values()}
    assert widths == {4, 2}
    # one register per distinct width: 6 + (4+1) + (2+1) qubits
    assert layout.n_qubits == 14
    position = layout.registers[1]
    cargo_reg = layout.registers[3]
    assert position.cost_qubits == cargo_reg.cost_qubits


@pytest.mark.parametrize("ordering", ["natural", "zeno_first", "dephase_first"])
def test_orderings_build_and_agree_on_qubits(ordering):
    problem = cargo()
    assignment = (DEPHASE, ZENO, DEPHASE, ZENO, QAOA, QAOA)
    circuit = build_circuit(problem, assignment, MULT, LayerParams((0.1,), (0.1,)), ordering)
    reference = build_circuit(problem, assignment, MULT, LayerParams((0.1,), (0.1,)), "natural")
    assert circuit.layout.n_qubits == reference.layout.n_qubits
    assert len(circuit.gates) == len(reference.gates)


@pytest.mark.parametrize("ordering, order", [
    ("natural", [0, 1, 2, 5]),
    ("zeno_first", [1, 2, 0, 5]),
    ("dephase_first", [0, 5, 1, 2]),
], ids=["natural", "zeno_first", "dephase_first"])
def test_layer_blocks_per_ordering(ordering, order):
    # Constraints 1 and 3 cannot fail, so they get no register: the ZENO
    # block of constraint 1 stays and only mixes, the DEPHASE block of
    # constraint 3 is dropped, and the QAOA constraint 4 has no block.
    problem = ConstrainedBinaryProblem(3, (1, 1, 1), (
        Constraint((1, 1, 0), 1, "d0"),
        Constraint((0, 1, 1), 5, "z1"),
        Constraint((1, 0, 1), 1, "z2"),
        Constraint((1, 1, 1), 3, "d3"),
        Constraint((1, 1, 1), 1, "q4"),
        Constraint((1, 0, 1), 0, "d5"),
    ))
    assignment = (DEPHASE, ZENO, ZENO, DEPHASE, QAOA, DEPHASE)
    mult = Multipliers.uniform(6, 1.0)
    layout = compiled_model(problem, assignment, mult).layout
    assert sorted(layout.registers) == [0, 2, 5]
    blocks = layer_blocks(assignment, layout, ordering)
    assert blocks == [(ci, assignment[ci], layout.registers.get(ci)) for ci in order]
    # The functional backend runs the same blocks, projecting only on a register.
    functional = FunctionalCircuit(problem, assignment, mult, ordering)
    assert [(b.kind, b.keep is not None) for b in functional.blocks] == [
        (assignment[ci], assignment[ci] == ZENO and ci in layout.registers) for ci in order
    ]


@pytest.mark.parametrize("gamma, beta, message", [
    ((0.1, math.nan), (0.1, 0.2), "gamma must be finite, got nan"),
    ((0.1,), (-math.inf,), "beta must be finite, got -inf"),
])
def test_layer_params_reject_non_finite_angles(gamma, beta, message):
    with pytest.raises(InputError, match=message):
        LayerParams(gamma, beta)


def test_initial_layer_params_need_an_integer_layer_count():
    for p in (2.5, True, 0):
        with pytest.raises(InputError, match="^p_layers must be"):
            LayerParams.initial(p)
    assert LayerParams.initial(np.int64(2)).p_layers == 2


def test_build_circuit_validation():
    problem = cargo()
    with pytest.raises(InputError):
        build_circuit(problem, (QAOA,) * 5, MULT, LayerParams((0.1,), (0.1,)))
    with pytest.raises(InputError):
        build_circuit(problem, ALL_QAOA, MULT, LayerParams((0.1,), (0.1,)), "sideways")


def test_prepare_initial_state_no_zeno_uniform():
    problem = cargo()
    circuit = build_circuit(problem, ALL_QAOA, MULT, LayerParams((0.1,), (0.1,)))
    state = prepare_initial_state(problem, ALL_QAOA, circuit.layout)
    assert np.allclose(state.probabilities(), 1.0 / state.dim)


def test_prepare_initial_state_weight_zeno_support():
    problem = cargo()
    circuit = build_circuit(problem, WEIGHT_ZENO, MULT, LayerParams((0.1,), (0.1,)))
    state = prepare_initial_state(problem, WEIGHT_ZENO, circuit.layout)
    marginal = marginal_probabilities(state, range(6))
    support = set(np.nonzero(marginal > 1e-12)[0])
    assert support == set(np.flatnonzero(feasible_mask(problem, [0])))
    inside = marginal[sorted(support)]
    assert np.allclose(inside, inside[0])  # equal amplitudes on the support
    assert abs(state.survival_prob - 1.0) < 1e-12  # preparation resets survival


def test_prepare_initial_state_tight_bound():
    # Bound 0 admits only the all-zeros branch of the constrained vars; the
    # pre-run keeps exactly that slice of the superposition (an unsatisfiable
    # bound is unreachable through the problem type, whose bounds are >= 0).
    problem = ConstrainedBinaryProblem(2, (1, 1), (Constraint((1, 1), 0, "zero"),))
    mult = Multipliers.uniform(1, 1.0)
    circuit = build_circuit(problem, (ZENO,), mult, LayerParams((0.0,), (0.0,)))
    state = prepare_initial_state(problem, (ZENO,), circuit.layout)
    marginal = marginal_probabilities(state, range(2))
    assert np.allclose(marginal, [1.0, 0.0, 0.0, 0.0])


def _prep_folded(problem, assignment, layout):
    """The Hadamard wall and each ZENO flag circuit (compute, project,
    uncompute) folded one gate at a time, for each ZENO constraint with a
    register."""
    wall = [gate_h(q) for q in (*layout.decision, *layout.slack)]
    state = functools.reduce(apply_gate, wall, new_state(layout.n_qubits))
    for ci, kind in enumerate(assignment):
        if kind != ZENO or ci not in layout.registers:
            continue  # a constraint that cannot fail has no flag to project
        reg = layout.registers[ci]
        gates, (position,) = build_zeno_layer(reg, 0.0, 1, ())
        state = functools.reduce(apply_gate, gates[:position], state)
        state = project_qubit(state, reg.flag_qubit, 0)
        state = functools.reduce(apply_gate, gates[position:], state)
    return state


def _prep_cases():
    """Seeded random problems of 2-6 variables and 1-3 constraints with every
    kind, bound-0 and vacuous ZENO bounds, and two cargo assignments."""
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(12):
        n = int(rng.integers(2, 7))
        constraints = []
        for c in range(int(rng.integers(1, 4))):
            coeffs = [int(v) for v in rng.integers(0, 3, n)]
            coeffs[int(rng.integers(n))] = int(rng.integers(1, 3))
            bound = int(rng.integers(0, sum(coeffs) + 1))
            constraints.append(Constraint(tuple(coeffs), bound, f"c{c}"))
        assignment = tuple(str(k) for k in rng.choice(REP_KINDS, len(constraints)))
        cases.append((ConstrainedBinaryProblem(n, (1,) * n, tuple(constraints)), assignment))
    coeffs = (1, 2, 0, 1)
    vacuous = 1 << register_width(coeffs)
    for bounds in [(0,), (vacuous,), (0, vacuous), (2, 0)]:
        constraints = tuple(Constraint(coeffs[i:] + coeffs[:i], b) for i, b in enumerate(bounds))
        cases.append((ConstrainedBinaryProblem(4, (1,) * 4, constraints), (ZENO,) * len(bounds)))
    cases += [(cargo(), WEIGHT_ZENO), (cargo(), parse_assignment("DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA"))]
    return cases


def test_prepare_initial_state_matches_gates_folded():
    for problem, assignment in _prep_cases():
        mult = Multipliers.uniform(problem.n_constraints, 2.0)
        layout = compiled_model(problem, assignment, mult).layout
        state = prepare_initial_state(problem, assignment, layout)
        folded = _prep_folded(problem, assignment, layout)
        gap = np.max(np.abs(state.amplitudes - folded.amplitudes))
        assert gap <= 1e-12, (problem, assignment, gap)
        assert state.survival_prob == 1.0
        # Every slack row of the decision-and-slack block is the functional
        # backend's initial row, bit for bit; every ancilla branch is exactly 0.
        row = FunctionalCircuit(problem, assignment, mult).initial
        k = len(layout.decision) + len(layout.slack)
        block = state.amplitudes[: 1 << k].reshape(-1, len(row))
        assert block.tobytes() == np.broadcast_to(row, block.shape).tobytes(), (problem, assignment)
        assert not state.amplitudes[1 << k :].any()


@pytest.mark.parametrize(
    "assignment",
    [
        ALL_QAOA,
        WEIGHT_DEPHASE,
        WEIGHT_ZENO,
        (ZENO,) * 6,
        parse_assignment("DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA"),
    ],
)
def test_prepare_initial_state_allocates_one_state(assignment, traced_peak):
    layout = compiled_model(cargo(), assignment, MULT).layout
    with traced_peak() as traced:
        state = prepare_initial_state(cargo(), assignment, layout)
    assert traced.peak <= 1.1 * state.amplitudes.nbytes, traced.peak / state.amplitudes.nbytes


def test_prepare_initial_state_capacity_and_layout_errors(traced_peak):
    problem = cargo()
    huge = CircuitLayout(27, tuple(range(6)), tuple(range(6, 12)), {})
    with traced_peak() as traced:
        with pytest.raises(CapacityError, match=r"n_qubits must be in \[1, 26\], got 27"):
            prepare_initial_state(problem, ALL_QAOA, huge)
    assert traced.peak < 1 << 20, traced.peak
    for decision, slack in [(tuple(range(1, 7)), ()), (tuple(range(6)), (7, 8)), ((1, 0, 2, 3, 4, 5), ())]:
        with pytest.raises(LayoutError, match=r"^decision and slack qubits must be 0\.\.[57], got "):
            prepare_initial_state(problem, ALL_QAOA, CircuitLayout(10, decision, slack, {}))


def test_ancilla_hygiene_full_circuit():
    problem = cargo()
    assignment = (DEPHASE, ZENO, QAOA, QAOA, DEPHASE, ZENO)
    circuit = build_circuit(problem, assignment, MULT, LayerParams((0.2,), (0.35,), 2))
    state = prepare_initial_state(problem, assignment, circuit.layout)
    out = run_circuit(circuit, state)
    assert ancilla_mass(out, circuit.layout) < 1e-9


def test_ancilla_mass_of_dirty_register_matches_bit_mask():
    # Stopped before its first projection, the weight-ZENO circuit has
    # computed its cost register and flag but not uncomputed them.
    circuit = build_circuit(cargo(), WEIGHT_ZENO, MULT, LayerParams((0.2,), (0.35,)))
    state = prepare_initial_state(cargo(), WEIGHT_ZENO, circuit.layout)
    dirty = apply_gates(state, circuit.gates[: circuit.projections[0][0]])
    mask = sum(1 << q for q in circuit.layout.ancilla)
    expected = dirty.probabilities()[(np.arange(dirty.dim) & mask) != 0].sum()
    assert expected > 0.5
    assert abs(ancilla_mass(dirty, circuit.layout) - expected) <= 1e-12
    assert ancilla_mass(new_state(3), build_layout(cargo(), ALL_QAOA, 3)) == 0.0


def _run_circuit_peak(traced_peak, assignment: str, q_measurements: int) -> float:
    """Peak bytes of ``run_circuit`` on a 16-qubit cargo circuit, in states."""
    assignment = parse_assignment(assignment)
    circuit = build_circuit(cargo(), assignment, MULT, LayerParams((0.1,), (0.2,), q_measurements))
    state = prepare_initial_state(cargo(), assignment, circuit.layout)
    assert circuit.layout.n_qubits == 16
    with traced_peak() as traced:
        run_circuit(circuit, state)
    return traced.peak / state.amplitudes.nbytes


# run_circuit maps one working copy of the state; the rest is a phase
# table of the decision and slack qubits, slices and gate matrices.
def test_run_circuit_peak_memory_within_state_copies(traced_peak):
    peak = _run_circuit_peak(traced_peak, "DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA", 2)
    assert peak <= 2.0, peak


def test_run_circuit_peak_memory_weight_zeno(traced_peak):
    peak = _run_circuit_peak(traced_peak, "ZENO,QAOA,QAOA,QAOA,QAOA,QAOA", 3)
    assert peak <= 2.0, peak


_RESIDENT_PROBE = """
import resource
from zenopt import LayerParams, Multipliers, QAOA, ZENO, cargo_instance, marginal_probabilities
from zenopt.builder import ancilla_mass, build_circuit, prepare_initial_state, run_circuit

problem = cargo_instance([1, 2, 3, 4], 2, 5)
assignment = (ZENO,) + (QAOA,) * (problem.n_constraints - 1)
mult = Multipliers.uniform(problem.n_constraints, 13)
circuit = build_circuit(problem, assignment, mult, LayerParams((0.05, 0.1), (0.3, 0.6), 3))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(2):
    state = prepare_initial_state(problem, assignment, circuit.layout)
    state = run_circuit(circuit, state)
    marginal_probabilities(state, range(problem.n_vars))
    ancilla_mass(state, circuit.layout)
    state.norm_error()
    del state
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(circuit.layout.n_qubits, (after - before) * 1024)
"""


def test_gate_evaluation_holds_one_resident_state():
    """Two 20-qubit weight-ZENO evaluations, run in a fresh interpreter so
    no earlier test has raised the high-water mark, grow the resident set
    by the working copy and little more: the prepared state is resident
    only where it is written, the marginals and the norm take slices, and
    the first evaluation's states are unmapped before the second's."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, "-c", _RESIDENT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    n_qubits, growth = map(int, proc.stdout.split())
    assert n_qubits == 20
    assert growth <= 1.3 * (16 << n_qubits), growth / (16 << n_qubits)


@pytest.mark.parametrize("assignment", ["DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA", "ZENO,QAOA,QAOA,QAOA,QAOA,QAOA"])
def test_run_circuit_matches_gates_and_sites_folded_one_at_a_time(assignment):
    """The fused runs of a 16-qubit cargo circuit, whose cost registers and
    flags take 5-qubit spans, against its gates and sites folded one at a
    time.  A projection keeping probability p scales rounding by 1/sqrt(p),
    so amplitudes agree within 1e-12/sqrt(survival)."""
    assignment = parse_assignment(assignment)
    circuit = build_circuit(cargo(), assignment, MULT, LayerParams((0.1,), (0.6,), 2))
    state = prepare_initial_state(cargo(), assignment, circuit.layout)
    assert circuit.layout.n_qubits == 16
    out = run_circuit(circuit, state)
    folded, done = state, 0
    for position, projection in circuit.projections:
        folded = functools.reduce(apply_gate, circuit.gates[done:position], folded)
        folded = project_qubit(folded, projection.qubit, projection.outcome)
        done = position
    folded = functools.reduce(apply_gate, circuit.gates[done:], folded)
    gap = np.max(np.abs(out.amplitudes - folded.amplitudes))
    assert gap <= 1e-12 / np.sqrt(folded.survival_prob), (gap, folded.survival_prob)
    assert abs(out.survival_prob - folded.survival_prob) <= 1e-12


def test_run_circuit_acts_on_the_prefix_that_can_be_nonzero(monkeypatch):
    """Spans and phase tables of a 16-qubit cargo circuit receive only the
    amplitudes that can be nonzero: the first phase return the 2**k decision
    and slack amplitudes of the prepared state, and no run whose qubits all
    lie below the top flag (qubit n - 1) the flag's half of the state."""
    sizes = []
    for name in ("_apply_span", "_apply_diagonal_run"):
        kernel = getattr(statevector, name)

        def recorded(amps, run, *args, kernel=kernel):
            sizes.append((len(amps), max(q for gate in run for q in gate.qubits)))
            return kernel(amps, run, *args)

        monkeypatch.setattr(statevector, name, recorded)
    for assignment in ("ZENO,QAOA,QAOA,QAOA,QAOA,QAOA", "DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA"):
        assignment = parse_assignment(assignment)
        circuit = build_circuit(cargo(), assignment, MULT, LayerParams((0.1,), (0.6,), 2))
        layout = circuit.layout
        n, k = layout.n_qubits, len(layout.decision) + len(layout.slack)
        state = prepare_initial_state(cargo(), assignment, layout)
        sizes.clear()
        run_circuit(circuit, state)
        assert n == 16 and sizes[0] == (1 << k, k - 1), (assignment, sizes[0])
        wide = [(size, top) for size, top in sizes if top < n - 1 and size > 1 << (n - 1)]
        assert not wide, (assignment, wide)


def _two_constraint_model():
    """All-QAOA model over 6 variables and two 7-bit slack registers: 20 bits."""
    constraints = (Constraint((1, 2, 3, 4, 5, 6), 127, "a"), Constraint((3, 1, 4, 1, 5, 9), 127, "b"))
    problem = ConstrainedBinaryProblem(6, (1, 2, 3, 4, 5, 6), constraints)
    return problem, (QAOA, QAOA), Multipliers.uniform(2, 13)


def test_functional_circuit_peak_memory_within_held_arrays():
    problem, assignment, mult = _two_constraint_model()
    tracemalloc.start()
    try:
        circuit = FunctionalCircuit(problem, assignment, mult)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert circuit.n_bits >= 20
    # The circuit holds one 2^n array, its cost table (8 * 2^n bytes), and
    # its initial row of 2^n_vars complex amplitudes.  Building the table
    # peaks at twice the table (``qubo_values``).  The 1 MiB covers what is
    # not 2^n_bits: the 2^n_vars decision-state arrays, the QUBO, the blocks.
    held = circuit.cost_table.nbytes + circuit.initial.nbytes
    assert held == (8 << circuit.n_bits) + (16 << circuit.n_vars)
    assert peak <= (16 << circuit.n_bits) + (1 << 20), peak / held


def test_functional_run_peak_memory_within_its_arrays():
    """One run of a 20-bit ZENO model allocates its state psi (16 * 2^n
    bytes) and, beside it, at most one of: the phase return's complex
    exponent, computed, raised and freed in place (16 * 2^n); an RX wall's
    temporaries (two half states); or the Zeno probability read, which copies
    the kept amplitudes (16 bytes each) and takes their moduli (8 each), then
    squares the moduli (8 each) once the copy is freed.  The projection works
    in place.  So the peak is psi plus the largest of these, plus 1 MiB for
    what is not 2^n, and the run leaves only psi behind."""
    base, _, _ = _two_constraint_model()
    zeno = Constraint((1, 1, 1, 1, 1, 1), 3, "zeno")
    problem = ConstrainedBinaryProblem(6, base.objective, (*base.constraints, zeno))
    circuit = FunctionalCircuit(problem, (QAOA, QAOA, ZENO), Multipliers.uniform(3, 13))
    assert circuit.n_bits >= 20 and circuit.blocks[0].keep is not None
    tracemalloc.start()
    try:
        state = circuit.run(LayerParams((0.3,), (0.7,), 2))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < state.survival_prob < 1.0
    kept = int(circuit.blocks[0].keep.sum()) << (circuit.n_bits - circuit.n_vars)
    beside = max(16 << circuit.n_bits, (16 + 8) * kept)
    assert peak <= (16 << circuit.n_bits) + beside + (1 << 20), peak / (16 << circuit.n_bits)
    assert current <= (16 << circuit.n_bits) + (1 << 20), current / (16 << circuit.n_bits)


def test_functional_circuit_rejects_oversized_model_before_allocating():
    # Bound 2^40 needs 41 slack bits: 44 QUBO bits, a 128 TiB cost table.
    problem = ConstrainedBinaryProblem(3, (1, 1, 1), (Constraint((1, 1, 1), 1 << 40, "huge"),))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"44 bits.*{8 << 44} bytes.*{16 << 44} bytes"):
            FunctionalCircuit(problem, (QAOA,), Multipliers.uniform(1, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_functional_circuit_checks_the_enumeration_limit_before_the_cost_table():
    # 25 variables and one ZENO constraint: 25 bits fit MAX_QUBITS, but the
    # brute-force masks stop at BRUTE_FORCE_MAX_VARS = 24 variables, before
    # the 8 * 2^25-byte cost table is built.
    problem = ConstrainedBinaryProblem(25, (1,) * 25, (Constraint((1,) * 25, 3, "w"),))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="^enumeration capped at 24 vars, got 25$"):
            FunctionalCircuit(problem, (ZENO,), Multipliers.uniform(1, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# Cargo family: weights 1..m on ``positions`` positions, max weight
# sum // 2 + positions, lambda = 13, p = Q = 1.  (non-local gates, qubits) of
# all-QAOA, weight-DEPHASE and weight-ZENO.  The weight penalty's two-qubit
# phase terms grow with the square of its support, the adder and comparator
# linearly, so all-QAOA needs the most non-local gates from between 35 and 48
# variables on: the order criterion 6 expects, past its 6-variable instance.
CROSSOVER = {
    (3, 2): ((48, 14), (97, 16), (93, 16)),
    (4, 3): ((144, 23), (209, 25), (204, 25)),
    (5, 4): ((316, 33), (398, 36), (392, 36)),
    (6, 5): ((621, 45), (672, 49), (665, 49)),
    (7, 5): ((850, 52), (895, 56), (887, 56)),
    (8, 6): ((1474, 67), (1200, 71), (1192, 71)),
}


@pytest.mark.parametrize("m, positions", CROSSOVER)
def test_gate_counts_reach_the_criterion_6_crossover(m, positions):
    weights = list(range(1, m + 1))
    problem = cargo_instance(weights, positions, sum(weights) // 2 + positions)
    rest = (QAOA,) * (problem.n_constraints - 1)
    mult = Multipliers.uniform(problem.n_constraints, 13)
    counts = []
    for assignment in ((QAOA, *rest), (DEPHASE, *rest), (ZENO, *rest)):
        compiled_model.cache_clear()  # count the compile too
        tracemalloc.start()
        try:
            stats = circuit_stats(build_circuit(problem, assignment, mult, LayerParams.initial(1, 1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Up to 71 qubits: one 2^n array would not fit in memory at all.
        assert peak < 2 << 20, (assignment[0], peak)
        counts.append((stats.non_local_gates, stats.n_qubits))
    assert tuple(counts) == CROSSOVER[m, positions]
    all_qaoa, dephase, zeno = (non_local for non_local, _ in counts)
    assert (all_qaoa > max(dephase, zeno)) == (problem.n_vars >= 48)


def test_circuit_stats_empty_and_cnot():
    layout_empty = build_layout(cargo(), ALL_QAOA, 3)
    empty = HybridCircuit(layout_empty, [], [], 2)
    stats = circuit_stats(empty)
    assert (stats.size, stats.depth, stats.width) == (0, 0, 3)
    assert stats.n_unitary_factors == 3

    from zenopt.statevector import gate_cnot

    layout2 = build_layout(cargo(), ALL_QAOA, 2)
    single = HybridCircuit(layout2, [gate_cnot(0, 1)], [], 2)
    stats = circuit_stats(single)
    assert stats.non_local_gates == 1
    assert stats.depth == 1
    assert stats.size == 1
    assert stats.n_unitary_factors == 1
    assert stats.size >= stats.depth


def test_circuit_stats_counts_projections_as_clbits():
    problem = cargo()
    circuit = build_circuit(problem, WEIGHT_ZENO, MULT, LayerParams((0.1,), (0.1,), 3))
    stats = circuit_stats(circuit)
    assert stats.n_clbits == 3
    assert stats.width == stats.n_qubits + 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gate_oracle_mode_equivalence_random_assignments(seed):
    # The gate circuit's ancilla-zero slice equals the functional backend's state.
    problem = cargo()
    rng = np.random.default_rng(seed)
    kinds = (QAOA, DEPHASE, ZENO)
    assignment = tuple(kinds[i] for i in rng.integers(0, 3, size=6))
    params = LayerParams((float(rng.uniform(0, 0.4)),), (float(rng.uniform(0, 0.5)),), 2)
    circuit = build_circuit(problem, assignment, MULT, params)
    gate = run_circuit(circuit, prepare_initial_state(problem, assignment, circuit.layout))
    functional = FunctionalCircuit(problem, assignment, MULT).run(params)
    assert ancilla_mass(gate, circuit.layout) < 1e-9
    diff = np.max(np.abs(gate.amplitudes[: 1 << functional.n_qubits] - functional.amplitudes))
    assert diff < 1e-8
    assert abs(gate.survival_prob - functional.survival_prob) < 1e-10


def test_circuit_json_dump():
    problem = cargo()
    circuit = build_circuit(problem, WEIGHT_ZENO, MULT, LayerParams((0.1,), (0.1,)))
    doc = json.loads(circuit_to_json(circuit))
    assert doc["n_qubits"] == 16
    assert len(doc["gates"]) == len(circuit.gates)
    assert doc["projections"][0]["outcome"] == 0
    first_rz = next(g for g in doc["gates"] if g["kind"] == "RZ")
    assert set(first_rz) == {"kind", "qubits", "angle"}


def test_parse_assignment():
    assert parse_assignment("qaoa, dephase ,ZENO") == (QAOA, DEPHASE, ZENO)
    with pytest.raises(InputError):
        parse_assignment("QAOA,MAGIC")


def test_multi_layer_parameter_count():
    problem = cargo()
    params = LayerParams((0.1, 0.2), (0.3, 0.4), 1)
    circuit = build_circuit(problem, WEIGHT_ZENO, MULT, params)
    assert circuit.n_parameters == 4
    assert len(circuit.projections) == 2  # one per layer at Q=1


def test_run_circuit_rejects_a_state_of_the_wrong_width():
    problem = ConstrainedBinaryProblem(2, (1, 1), (Constraint((1, 1), 1, "c"),))
    circuit = build_circuit(problem, (DEPHASE,), Multipliers.uniform(1, 1.0), LayerParams.initial())
    n = circuit.layout.n_qubits
    with pytest.raises(InputError, match=f"state has {n - 1} qubits, circuit needs {n}"):
        run_circuit(circuit, new_state(n - 1))
