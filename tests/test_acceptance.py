"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The family-sweep
criterion performs the full 729-row study and takes several minutes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from zenopt import (
    AnnealSchedule,
    DEPHASE,
    FunctionalCircuit,
    LayerParams,
    Multipliers,
    OptimizerConfig,
    QAOA,
    ZENO,
    anneal,
    apply_gates,
    brute_force_solve,
    build_circuit,
    build_dephasing_layer,
    cargo_instance,
    circuit_stats,
    compile_qubo,
    enumerate_assignments,
    lagrange_sweep,
    marginal_probabilities,
    new_state,
    optimize,
    ordering_study,
    prepare_initial_state,
    qubo_values,
    run_assignment,
    run_circuit,
    run_family_sweep,
    slack_width,
    survival_empirical,
    zeno_limit_error,
)
from zenopt.builder import ancilla_mass, compiled_model
from zenopt.problem import feasible_mask
from zenopt.statevector import gate_h

CARGO = cargo_instance([1, 2, 3], 2, 3)
LAMBDA = 13.0
MULT = Multipliers.uniform(6, LAMBDA)
ALL_QAOA = (QAOA,) * 6
WEIGHT_ZENO = (ZENO,) + (QAOA,) * 5
WEIGHT_DEPHASE = (DEPHASE,) + (QAOA,) * 5


def _verdict(number: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    return line


def test_criterion_01_cargo_ground_truth():
    start = time.perf_counter()
    result = brute_force_solve(CARGO)
    elapsed = time.perf_counter() - start
    ok = (
        result.opt_value == 3
        and len(result.optimal_indices) == 4
        and len(result.feasible_indices) == 9
        and elapsed < 1.0
    )
    detail = (
        f"optimum {result.opt_value}, {len(result.optimal_indices)} optimal, "
        f"{len(result.feasible_indices)} feasible in {elapsed:.3f}s"
    )
    _verdict(1, ok, detail)
    assert ok, detail


def test_criterion_02_qaoa_baseline_lift():
    start = time.perf_counter()
    config = OptimizerConfig(max_iters=60, seed=0)
    trace = optimize(CARGO, ALL_QAOA, MULT, config)
    elapsed = time.perf_counter() - start
    costs = [r.expected_cost for r in trace.records]
    p_feas = [r.p_feasible for r in trace.records]
    pearson = float(np.corrcoef(costs, p_feas)[0, 1])
    ok = (
        trace.final.p_optimal > 1.5 * 4 / 64
        and trace.final.p_feasible > 9 / 64
        and elapsed < 30.0
        and pearson < 0.0
    )
    detail = (
        f"final p_optimal {trace.final.p_optimal:.4f} (need > {1.5 * 4 / 64:.5f}), "
        f"p_feasible {trace.final.p_feasible:.4f} (need > {9 / 64:.5f}), "
        f"pearson(cost, p_feasible) {pearson:+.3f} (need < 0), runtime {elapsed:.1f}s"
    )
    _verdict(2, ok, detail)
    assert ok, (
        detail
        + " | minimizing the exact expectation does not control p_optimal at "
        "this multiplier strength: minima reachable from the configured start "
        "carry p_optimal 0.04-0.06, and the landscape's deeper interference "
        "needles scatter it erratically (the deepest measured basin sits below "
        "the uniform baseline), so the stated lift does not occur"
    )


def test_criterion_03_zeno_preselection_and_retention():
    circuit = build_circuit(CARGO, WEIGHT_ZENO, MULT, LayerParams((0.1,), (0.2,), 4))
    state = prepare_initial_state(CARGO, WEIGHT_ZENO, circuit.layout)
    marginal = marginal_probabilities(state, range(6))
    support = frozenset(np.nonzero(marginal > 1e-12)[0].tolist())
    weight_feasible = frozenset(np.flatnonzero(feasible_mask(CARGO, [0])).tolist())
    support_ok = support == weight_feasible

    out = run_circuit(circuit, state)
    final_marginal = marginal_probabilities(out, range(6))
    infeasible_mass = float(
        sum(p for i, p in enumerate(final_marginal) if i not in weight_feasible)
    )
    ok = support_ok and infeasible_mass < 0.05
    detail = (
        f"pre-run support {'==' if support_ok else '!='} weight-feasible set "
        f"({len(support)} states), post-circuit infeasible mass {infeasible_mass:.2e} "
        f"at beta=0.2, Q=4"
    )
    _verdict(3, ok, detail)
    assert ok, detail


def test_criterion_04_dephasing_matches_functional_oracle():
    alpha, theta = float(MULT.alpha), 0.37
    model = compiled_model(CARGO, WEIGHT_DEPHASE, MULT)
    reg = model.layout.registers[0]
    layer = build_dephasing_layer(CARGO.constraints[0].coeffs, 3, reg, alpha, theta)
    n = model.layout.n_qubits
    state = apply_gates(new_state(n), [gate_h(q) for q in range(6)])
    evolved = apply_gates(state, layer)

    coeffs = np.asarray(CARGO.constraints[0].coeffs)
    idx = np.arange(1 << n)
    decision_bits = (idx.reshape(-1, 1) & (1 << np.arange(6))) > 0
    costs = decision_bits @ coeffs
    expected = state.amplitudes * np.exp(-1j * theta * alpha * np.maximum(0, costs - 3))
    worst = float(np.max(np.abs(evolved.amplitudes - expected)))
    ok = worst < 1e-8
    _verdict(4, ok, f"exhaustive max amplitude error {worst:.2e} over 2^6 decision states")
    assert ok


def test_criterion_05_repeated_measurement_survival():
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    t = np.pi / 2
    closed_form_ok = True
    for n in (1, 10, 200):
        value = survival_empirical(pauli_x, proj0, ket0, t, n)
        closed_form_ok &= abs(value - np.cos(t / n) ** (2 * n)) < 1e-10
    v1 = survival_empirical(pauli_x, proj0, ket0, t, 1)
    v10 = survival_empirical(pauli_x, proj0, ket0, t, 10)
    v200 = survival_empirical(pauli_x, proj0, ket0, t, 200)
    anchors_ok = v1 < 1e-10 and abs(v10 - 0.7805) < 1e-3 and v200 > 0.98

    series = [
        survival_empirical(pauli_x, proj0, ket0, t, n)
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    ]
    monotone_ok = all(b > a for a, b in zip(series, series[1:]))

    rng = np.random.default_rng(7)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (raw + raw.conj().T) / 2
    h /= np.linalg.norm(h, 2) / 1.5
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    ns = np.array([4, 8, 16, 32, 64, 128, 256])
    errors = np.array([zeno_limit_error(h, proj, psi, 1.0, int(n)) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(errors), 1)[0])
    slope_ok = -1.5 <= slope <= -0.6

    ok = closed_form_ok and anchors_ok and monotone_ok and slope_ok
    detail = (
        f"survival(1)={v1:.2e}, survival(10)={v10:.6f}, survival(200)={v200:.6f}, "
        f"monotone={monotone_ok}, limit-error slope {slope:.3f}"
    )
    _verdict(5, ok, detail)
    assert ok, detail


def test_criterion_06_gate_count_ordinal_claim():
    params = LayerParams((0.1,), (0.1,), 1)
    stats = {
        name: circuit_stats(build_circuit(CARGO, assignment, MULT, params))
        for name, assignment in (
            ("all_qaoa", ALL_QAOA),
            ("weight_dephase", WEIGHT_DEPHASE),
            ("weight_zeno", WEIGHT_ZENO),
        )
    }
    # Layout arithmetic, derived independently of the builder: 6 decision
    # qubits, one slack bit per unit-bound QAOA constraint plus two for the
    # weight bound, and (for the variants) a cost register wide enough for
    # the weight coefficients' sum 12 plus a flag.
    expect_all_qaoa = 6 + slack_width(3) + 5 * slack_width(1)
    expect_variant = 6 + 5 * slack_width(1) + math.ceil(math.log2(12 + 1)) + 1
    qubits_ok = (
        stats["all_qaoa"].n_qubits == expect_all_qaoa == 13
        and stats["weight_dephase"].n_qubits == expect_variant
        and stats["weight_zeno"].n_qubits == expect_variant
        and expect_variant > expect_all_qaoa
    )
    nl = {name: s.non_local_gates for name, s in stats.items()}
    nonlocal_ok = nl["all_qaoa"] > nl["weight_dephase"] and nl["all_qaoa"] > nl["weight_zeno"]
    ok = qubits_ok and nonlocal_ok
    detail = (
        f"qubits: all-QAOA {stats['all_qaoa'].n_qubits} vs variants "
        f"{stats['weight_dephase'].n_qubits}/{stats['weight_zeno'].n_qubits} "
        f"(more-qubits direction {'holds' if qubits_ok else 'broken'}); "
        f"non-local gates: all-QAOA {nl['all_qaoa']} vs weight-DEPHASE "
        f"{nl['weight_dephase']} and weight-ZENO {nl['weight_zeno']}"
    )
    _verdict(6, ok, detail)
    assert ok, (
        detail
        + " | counted over elementary gates, the arithmetic blocks of one "
        "dephasing/Zeno layer (Fourier-space adder up and down plus the "
        "comparator) exceed the 19 two-qubit phase terms the weight penalty "
        "contributes to the phase return, so the claimed reduction reverses "
        "at this instance size"
    )


@pytest.mark.slow
def test_criterion_07_family_sweep_under_budget():
    config = OptimizerConfig(max_iters=40, seed=0)
    start = time.perf_counter()
    rows = run_family_sweep(CARGO, MULT, config, workers=2)
    elapsed = time.perf_counter() - start
    fatal_ok = len(rows) == 729
    budget_ok = elapsed < 15 * 60

    def same(a: float, b: float) -> bool:
        return a == b or (math.isnan(a) and math.isnan(b))

    assignments = enumerate_assignments(6)
    rng = np.random.default_rng(2024)
    repro_ok = True
    for index in sorted(rng.choice(729, size=5, replace=False).tolist()):
        rerun = run_assignment(
            CARGO, assignments[index], MULT, replace(config, seed=config.seed + index)
        )
        row = rows[index]
        repro_ok &= (
            same(rerun.expected_cost, row.expected_cost)
            and same(rerun.p_feasible, row.p_feasible)
            and same(rerun.p_optimal, row.p_optimal)
            and rerun.stats == row.stats
        )
    error_rows = sum(1 for r in rows if r.error)
    ok = fatal_ok and budget_ok and repro_ok
    detail = (
        f"{len(rows)} rows in {elapsed / 60:.1f} min ({error_rows} non-fatal error rows), "
        f"5 re-run rows bit-exact: {repro_ok}"
    )
    _verdict(7, ok, detail)
    assert ok, detail


def test_criterion_08_lagrange_monotone_trend():
    config = OptimizerConfig(max_iters=60, seed=0)
    rows = lagrange_sweep(CARGO, ALL_QAOA, [1.0, 5.0, 9.0, 13.0], config)
    table = {lam: res.p_feasible for lam, res in rows}
    ok = table[13.0] > table[1.0]
    detail = ", ".join(f"lambda={lam:g}: p_feasible={pf:.4f}" for lam, pf in table.items())
    _verdict(8, ok, detail)
    assert ok, (
        detail
        + " | under exact-expectation optimization the smallest multiplier "
        "already dominates this instance's objective, and stronger penalties "
        "make the landscape more oscillatory, so the optimized feasibility "
        "trend comes out decreasing rather than increasing"
    )


def test_criterion_09_ordering_stability():
    assignment = (DEPHASE, ZENO, DEPHASE, ZENO, QAOA, QAOA)
    config = OptimizerConfig(max_iters=40, seed=0)
    rows = ordering_study(CARGO, assignment, MULT, config)
    values = [res.p_feasible for res in rows.values()]
    spread = max(values) - min(values)
    ok = len(rows) == 3 and spread < 0.1
    detail = (
        "p_feasible by ordering "
        + ", ".join(f"{name}={res.p_feasible:.4f}" for name, res in rows.items())
        + f"; spread {spread:.4f}"
    )
    _verdict(9, ok, detail)
    assert ok, detail


def test_criterion_10_simulated_annealing_benchmark():
    qubo = compile_qubo(CARGO, ALL_QAOA, MULT)
    optimum = float(qubo_values(qubo).min())
    hits = 0
    trace_ok = True
    for seed in range(20):
        result = anneal(CARGO, MULT, AnnealSchedule(steps=5000, seed=seed))
        hits += abs(result.best_cost - optimum) < 1e-9
        trace_ok &= len(result.visit_trace) == 5000
        trace_ok &= [rec.step for rec in result.visit_trace] == list(range(5000))
    ok = hits >= 16 and trace_ok
    detail = f"{hits}/20 seeds reached the optimum {optimum:g}; one state per step: {trace_ok}"
    _verdict(10, ok, detail)
    assert ok, detail


def test_criterion_11_mode_equivalence_thirty_assignments():
    # Gate circuit (ancilla-zero slice) against the functional backend.
    rng = np.random.default_rng(11)
    kinds = (QAOA, DEPHASE, ZENO)
    worst = 0.0
    worst_ancilla = 0.0
    for _ in range(30):
        assignment = tuple(kinds[i] for i in rng.integers(0, 3, size=6))
        params = LayerParams(
            (float(rng.uniform(0.0, 0.3)),), (float(rng.uniform(0.0, 0.4)),), int(rng.integers(1, 3))
        )
        circuit = build_circuit(CARGO, assignment, MULT, params)
        gate = run_circuit(circuit, prepare_initial_state(CARGO, assignment, circuit.layout))
        functional = FunctionalCircuit(CARGO, assignment, MULT).run(params)
        gate_slice = gate.amplitudes[: 1 << functional.n_qubits]
        worst = max(
            worst,
            float(np.max(np.abs(gate_slice - functional.amplitudes))),
            abs(gate.survival_prob - functional.survival_prob),
        )
        worst_ancilla = max(worst_ancilla, ancilla_mass(gate, circuit.layout))
    ok = worst < 1e-8 and worst_ancilla <= 1e-9
    _verdict(
        11, ok,
        f"worst gate/functional mismatch {worst:.2e}, worst ancilla mass {worst_ancilla:.2e} "
        f"over 30 sampled assignments",
    )
    assert ok
