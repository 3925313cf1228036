"""The functional backend against the gate circuit on seeded random problems.

Problem ``seed`` has 1 + seed % 5 variables and seed % 4 constraints.
Constraint ci of problem seed takes kind REP_KINDS[(seed + ci) % 3] and
style STYLES[(seed + ci) % 4], so the 20 problems pair every kind with every
style: ordinary, bound 0, vacuous bound (at least 2^width, so the gate
build has no flag) and all-zero coefficients.  Each problem runs under every
ordering at p in {1, 2} and Q in {1, 3}.  Three wider problems (6-8
variables, 4 constraints) run the same grid.
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
    evaluate_params,
    prepare_initial_state,
    register_width,
    run_circuit,
)
from zenopt.builder import ancilla_mass
from zenopt.problem import DEPHASE, QAOA, REP_KINDS, ZENO, subset_sums

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
