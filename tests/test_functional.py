"""The functional backend against the gate circuit on seeded random problems.

Problem ``seed`` has 1 + seed % 5 variables and seed % 4 constraints.
Constraint ci of problem seed takes kind REP_KINDS[(seed + ci) % 3] and
style STYLES[(seed + ci) % 4], so the 20 problems pair every kind with every
style: ordinary, bound 0, vacuous bound (2^width, above the coefficient sum,
so the constraint cannot fail and its layout has no register for it) and
all-zero coefficients.  Each problem runs under every ordering at p in {1, 2}
and Q in {1, 3}.  Three wider problems (6-8 variables, 4 constraints) run the
same grid.
"""

import numpy as np
import pytest

from zenopt import (
    ORDERINGS,
    ConstrainedBinaryProblem,
    Constraint,
    FunctionalCircuit,
    LayerParams,
    Multipliers,
    build_circuit,
    circuit_stats,
    evaluate_params,
    prepare_initial_state,
    run_circuit,
)
from zenopt.arithmetic import register_width
from zenopt.builder import ancilla_mass, compiled_model
from zenopt.problem import DEPHASE, QAOA, REP_KINDS, ZENO, can_fail, feasible_mask, subset_sums
from zenopt.zeno import expm_hermitian, zeno_hamiltonian

STYLES = ("ordinary", "bound_zero", "vacuous", "zero_coeffs")
LAYERS = ((1, 1), (1, 3), (2, 1), (2, 3))  # (p, Q)


def _constraint(rng, n_vars, style, label):
    if style == "zero_coeffs":
        return Constraint((0,) * n_vars, int(rng.integers(0, 3)), label)
    coeffs = tuple(int(c) for c in rng.integers(0, 3, size=n_vars))
    if style == "bound_zero":
        return Constraint(coeffs, 0, label)
    if style == "vacuous":
        return Constraint(coeffs, 1 << register_width(coeffs), label)
    return Constraint(coeffs, int(rng.integers(0, min(sum(coeffs), 3) + 1)), label)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n_vars, n_cons = 1 + seed % 5, seed % 4
    constraints = tuple(
        _constraint(rng, n_vars, STYLES[(seed + ci) % 4], f"c{ci}") for ci in range(n_cons)
    )
    objective = tuple(int(v) for v in rng.integers(-2, 4, size=n_vars))
    problem = ConstrainedBinaryProblem(n_vars, objective, constraints)
    assignment = tuple(REP_KINDS[(seed + ci) % 3] for ci in range(n_cons))
    mult = Multipliers.uniform(n_cons, 1.0 + sum(abs(c) for c in objective), alpha=0.7)
    return rng, problem, assignment, mult


def test_cases_cover_every_kind_and_style():
    pairs = set()
    for seed in range(20):
        _, problem, assignment, _ = _random_case(seed)
        pairs |= {(kind, STYLES[(seed + ci) % 4]) for ci, kind in enumerate(assignment)}
        for con in problem.constraints:
            assert 1 << problem.n_vars == len(subset_sums(con.coeffs))
    assert pairs == {(kind, style) for kind in REP_KINDS for style in STYLES}


def _assert_backends_agree(rng, problem, assignment, mult, where):
    for ordering in ORDERINGS:
        for p, q in LAYERS:
            gamma = tuple(float(v) for v in rng.uniform(0.05, 0.6, size=p))
            beta = tuple(float(v) for v in rng.uniform(0.1, 0.9, size=p))
            params = LayerParams(gamma, beta, q)
            circuit = build_circuit(problem, assignment, mult, params, ordering)
            gate = run_circuit(circuit, prepare_initial_state(problem, assignment, circuit.layout))
            functional = FunctionalCircuit(problem, assignment, mult, ordering).run(params)
            here = f"{where}, {assignment}, {ordering}, p={p}, Q={q}"
            assert ancilla_mass(gate, circuit.layout) <= 1e-9, here
            gate_slice = gate.amplitudes[: 1 << functional.n_qubits]
            assert np.max(np.abs(gate_slice - functional.amplitudes)) <= 1e-8, here
            assert abs(gate.survival_prob - functional.survival_prob) <= 1e-10, here
            assert functional.norm_error() <= 1e-10, here
            metrics = evaluate_params(problem, assignment, mult, params, ordering)
            for value in metrics[1:]:
                assert 0.0 <= value <= 1.0 + 1e-12, here
            assert metrics.p_optimal <= metrics.p_feasible + 1e-12, here


@pytest.mark.parametrize("seed", range(20))
def test_functional_matches_gate_on_random_problem(seed):
    rng, problem, assignment, mult = _random_case(seed)
    _assert_backends_agree(rng, problem, assignment, mult, f"seed {seed}")


def test_backends_read_one_can_fail_rule():
    """``build_layout`` is the one reader of ``can_fail`` and both backends
    read its layout.  On every seeded problem the registers are exactly the
    DEPHASE/ZENO constraints that can fail, ``n_qubits`` counts the n_bits
    decision and slack qubits plus each distinct pooled register and its
    flag once, and at every (p, Q) every ancilla qubit is touched by a gate,
    the gate circuit makes p * Q flag projections per ZENO block that the
    functional backend projects, and the functional backend has a dephasing
    block for every DEPHASE register."""
    for seed in range(20):
        _, problem, assignment, mult = _random_case(seed)
        layout = compiled_model(problem, assignment, mult).layout
        failing = {
            ci for ci, con in enumerate(problem.constraints)
            if assignment[ci] != QAOA and can_fail(con.coeffs, con.bound)
        }
        assert set(layout.registers) == failing, seed
        pooled = {reg.flag_qubit: reg.width_m for reg in layout.registers.values()}
        n_bits = len(layout.decision) + len(layout.slack)
        assert layout.n_qubits == n_bits + sum(width + 1 for width in pooled.values()), seed
        functional = FunctionalCircuit(problem, assignment, mult)
        projecting = sum(block.keep is not None for block in functional.blocks)
        dephasing = sum(block.kind == DEPHASE for block in functional.blocks)
        assert dephasing == sum(assignment[ci] == DEPHASE for ci in layout.registers), seed
        for p, q in LAYERS:
            circuit = build_circuit(problem, assignment, mult, LayerParams((0.3,) * p, (0.5,) * p, q))
            assert circuit_stats(circuit).n_clbits == p * q * projecting, (seed, p, q)
            touched = {qubit for gate in circuit.gates for qubit in gate.qubits}
            assert set(layout.ancilla) <= touched, (seed, p, q)


# Wider problems: 6-8 variables and 4 constraints, each on 3 variables with
# weights in {1, 2} summing to 4-6, so every DEPHASE/ZENO register has width 3
# and shares one pooled 4-qubit register; with at most two QAOA constraints of
# bound <= 3 (2 slack bits each) the gate circuit has at most 16 qubits.
WIDE_KINDS = (
    (QAOA, DEPHASE, ZENO, ZENO),
    (ZENO, QAOA, DEPHASE, QAOA),
    (DEPHASE, ZENO, QAOA, DEPHASE),
)


def _wide_case(seed):
    rng = np.random.default_rng(100 + seed)
    n_vars = 6 + seed
    constraints = []
    for ci in range(4):
        support = rng.choice(n_vars, size=3, replace=False)
        weights = rng.permutation([2, int(rng.integers(1, 3)), int(rng.integers(1, 3))])
        coeffs = [0] * n_vars
        for v, w in zip(support, weights):
            coeffs[v] = int(w)
        constraints.append(Constraint(tuple(coeffs), int(rng.integers(1, 4)), f"c{ci}"))
    objective = tuple(int(v) for v in rng.integers(-2, 4, size=n_vars))
    problem = ConstrainedBinaryProblem(n_vars, objective, tuple(constraints))
    mult = Multipliers.uniform(4, 1.0 + sum(abs(c) for c in objective), alpha=0.7)
    return rng, problem, WIDE_KINDS[seed], mult


@pytest.mark.parametrize("seed", range(3))
def test_functional_matches_gate_on_wide_problem(seed):
    rng, problem, assignment, mult = _wide_case(seed)
    n_qubits = build_circuit(problem, assignment, mult, LayerParams.initial()).layout.n_qubits
    assert n_qubits <= 16
    _assert_backends_agree(rng, problem, assignment, mult, f"wide seed {seed}")


# Zeno limit (Facchi and Pascazio, PRL 89:080401, 2002).  A problem with one
# ZENO constraint, at gamma = 0 and p = 1, runs only its Zeno block: Q
# sub-blocks (P U)^Q psi0, U = exp(-i tau H), H = sum_j X_j / 2 on the
# decision bits, tau = beta / Q, P the projector onto a.x <= b.  Per
# sub-block P U P = exp(-i tau A) - (tau^2 / 2) K + O(tau^3), with A = P H P
# and K = P H (1 - P) H P, so the run is exp(-i beta A) (1 - (tau / 2) G)
# psi0 + O(1/Q^2), G = int_0^beta exp(i t A) K exp(-i t A) dt.  Hence, with
# psi(t) = exp(-i t A) psi0:
# - 1 - survival = L / Q + O(1/Q^2), L = beta <psi0|G|psi0>
#   = beta int_0^beta <psi(t)|H (1 - P) H|psi(t)> dt;
# - the fidelity deficit against psi(beta) is c / Q^2 + O(1/Q^3),
#   c = (beta^2 / 4) Var_psi0(G), so it falls 16x per 4x in Q.
# The O(1/Q) relative corrections come from the O(tau^3) terms of each
# sub-block (relative size tau ||H||, ||H|| = n_vars / 2, summed into
# beta ||H|| / Q), from the Riemann sum over the sub-blocks (the same order)
# and from the survival product (L / (2 Q)).  Every check below allows
# epsilon(Q) = (beta ||H|| + L) / Q of relative error, that order with its
# constant taken as 1.
ZENO_BETA = 0.9
ZENO_QS = (16, 64, 256, 1024)


def _zeno_case(seed):
    rng = np.random.default_rng(seed)
    n_vars = 3 + seed % 3
    constraint = _constraint(rng, n_vars, "ordinary", "c0")
    objective = tuple(int(v) for v in rng.integers(-2, 4, size=n_vars))
    return ConstrainedBinaryProblem(n_vars, objective, (constraint,))


def _x_field(n_vars):
    """sum_j X_j / 2 on n_vars bits, bit j of the basis index."""
    index = np.arange(1 << n_vars)
    field = np.zeros((1 << n_vars, 1 << n_vars))
    for j in range(n_vars):
        field[index, index ^ (1 << j)] += 0.5
    return field


def _zeno_limit(problem, beta):
    """psi(beta), the leak L and the deficit coefficient c, exact from the
    eigenvectors of A = P H P; psi0 is uniform over the feasible states."""
    keep = feasible_mask(problem, [0])
    assert 2 <= keep.sum() < len(keep)  # else P H P is 0 or H
    psi0 = np.where(keep, 1 / np.sqrt(keep.sum()), 0j)
    field = _x_field(problem.n_vars)
    proj = np.diag(keep.astype(float))
    limit = expm_hermitian(zeno_hamiltonian(field, proj), beta) @ psi0
    evals, vecs = np.linalg.eigh(proj @ field @ proj)
    k = vecs.conj().T @ (proj @ field @ (np.eye(len(proj)) - proj) @ field @ proj) @ vecs
    omega = evals[:, None] - evals[None, :]
    flat = np.abs(omega) < 1e-12
    # int_0^beta exp(i omega t) dt, in the eigenbasis of A
    kernel = np.where(flat, beta, (np.exp(1j * omega * beta) - 1) / (1j * np.where(flat, 1.0, omega)))
    g_psi0 = vecs @ ((k * kernel) @ (vecs.conj().T @ psi0))
    mean = np.vdot(psi0, g_psi0).real
    variance = np.vdot(g_psi0, g_psi0).real - mean**2
    return limit, beta * mean, beta**2 / 4 * variance


def _zeno_numbers(amplitudes, survival, limit, q):
    """(fidelity deficit against ``limit``, (1 - survival) * Q); the deficit
    is the squared norm of the part of the state orthogonal to ``limit``."""
    deficit = np.linalg.norm(amplitudes - np.vdot(limit, amplitudes) * limit) ** 2
    return deficit, (1.0 - survival) * q


# Seeds whose constraint keeps some but not all states and whose deficit has
# a nonzero leading coefficient: seeds 1 and 2 keep 1 or all states, and in
# seeds 3, 8 and 9 psi0 is an eigenvector of G, so c = 0.
@pytest.mark.parametrize("seed", [0, 4, 5, 11])
def test_zeno_block_follows_the_zeno_limit(seed):
    problem = _zeno_case(seed)
    circuit = FunctionalCircuit(problem, (ZENO,), Multipliers.uniform(1, 1.0))
    assert circuit.n_bits == problem.n_vars
    limit, leak, coeff = _zeno_limit(problem, ZENO_BETA)
    # Without a nonzero leading term the deficit would not fall as Q^-2.
    assert leak > 0.1 and coeff > 1e-3, (leak, coeff)

    def epsilon(q):
        return (ZENO_BETA * problem.n_vars / 2 + leak) / q

    deficits = []
    for q in ZENO_QS:
        state = circuit.run(LayerParams((0.0,), (ZENO_BETA,), q))
        deficit, scaled_leak = _zeno_numbers(state.amplitudes, state.survival_prob, limit, q)
        here = f"seed {seed}, Q={q}"
        assert abs(q * q * deficit / coeff - 1) <= epsilon(q), (here, q * q * deficit, coeff)
        assert abs(scaled_leak / leak - 1) <= epsilon(q), (here, scaled_leak, leak)
        deficits.append(deficit)
    for q, fine, coarse in zip(ZENO_QS, deficits[1:], deficits):
        ratio = coarse / fine
        low = 16 * (1 - epsilon(q)) / (1 + epsilon(4 * q))
        high = 16 * (1 + epsilon(q)) / (1 - epsilon(4 * q))
        assert low <= ratio <= high, (seed, q, ratio, low, high)


def test_gate_zeno_block_gives_the_functional_numbers():
    problem, q = _zeno_case(5), 16
    params = LayerParams((0.0,), (ZENO_BETA,), q)
    mult = Multipliers.uniform(1, 1.0)
    functional = FunctionalCircuit(problem, (ZENO,), mult)
    limit, _, _ = _zeno_limit(problem, ZENO_BETA)
    circuit = build_circuit(problem, (ZENO,), mult, params)
    gate = run_circuit(circuit, prepare_initial_state(problem, (ZENO,), circuit.layout))
    assert ancilla_mass(gate, circuit.layout) <= 1e-12
    gate_slice = gate.amplitudes[: 1 << problem.n_vars]
    expected = functional.run(params)
    assert np.max(np.abs(gate_slice - expected.amplitudes)) <= 1e-12
    gate_numbers = _zeno_numbers(gate_slice, gate.survival_prob, limit, q)
    functional_numbers = _zeno_numbers(expected.amplitudes, expected.survival_prob, limit, q)
    assert np.allclose(gate_numbers, functional_numbers, rtol=1e-9, atol=0), (gate_numbers, functional_numbers)
