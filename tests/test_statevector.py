import functools

import numpy as np
import pytest

from zenopt import (
    CapacityError,
    EmptySubspaceError,
    Gate,
    InputError,
    Projection,
    ShapeError,
    Statevector,
    apply_gate,
    apply_gates,
    basis_string,
    expectation_diagonal,
    marginal_probabilities,
    new_state,
    project_qubit,
    sample,
)
from zenopt import statevector
from zenopt.statevector import (
    gate_cnot,
    gate_cphase,
    gate_h,
    gate_mcx,
    gate_phase,
    gate_rx,
    gate_rz,
    gate_rzz,
    gate_x,
    rx_wall,
)


def test_new_state_one_qubit():
    state = new_state(1)
    assert np.allclose(state.amplitudes, [1, 0])
    assert state.survival_prob == 1.0


def test_new_state_two_qubits():
    assert np.allclose(new_state(2).amplitudes, [1, 0, 0, 0])


@pytest.mark.parametrize("n", [0, 27, -3])
def test_new_state_capacity(n):
    with pytest.raises(CapacityError):
        new_state(n)


def test_huge_counts_raise_without_allocating():
    """The capacity message states the GiB without building 16 << n, and
    numpy's int64 multinomial count bounds ``shots``."""
    with pytest.raises(CapacityError, match=r"got 27 \(2 GiB per state\)"):
        new_state(27)
    for n in (2**40, 2**63, 2**70):
        with pytest.raises(CapacityError, match=f"got {n}: a state takes"):
            new_state(n)
    with pytest.raises(InputError, match="^shots must be <= 9223372036854775807, got"):
        sample(new_state(1), 2**63, 0)


@pytest.mark.parametrize("n", [2.5, True, "3", None])
def test_new_state_needs_an_integer_count(n):
    with pytest.raises(InputError, match=f"^n_qubits must be an integer, got {n!r}$"):
        new_state(n)
    state = new_state(np.int64(3))
    assert state.n_qubits == 3 and sample(state, 4, seed=0) == {"000": 4}


def test_hadamard_on_zero():
    state = apply_gate(new_state(1), gate_h(0))
    assert np.allclose(state.amplitudes, [0.70710678, 0.70710678])


def test_rx_pi_is_minus_i_x():
    state = apply_gate(new_state(1), gate_rx(0, np.pi))
    assert np.allclose(state.amplitudes, [0, -1j])


def test_rzz_on_00():
    state = apply_gate(new_state(2), gate_rzz(0, 1, 0.7))
    assert np.allclose(state.amplitudes[0], np.exp(-0.35j))


def test_rz_convention():
    plus = apply_gate(new_state(1), gate_h(0))
    state = apply_gate(plus, gate_rz(0, 0.9))
    expected = np.array([np.exp(-0.45j), np.exp(+0.45j)]) / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected)


def test_cnot_and_mcx():
    state = apply_gates(new_state(3), [gate_x(0), gate_x(1), gate_mcx([0, 1], 2)])
    assert np.argmax(np.abs(state.amplitudes)) == 0b111
    state = apply_gates(new_state(2), [gate_x(0), gate_cnot(0, 1)])
    assert np.argmax(np.abs(state.amplitudes)) == 0b11


def test_cphase_single_qubit_is_phase_gate():
    state = apply_gates(new_state(1), [gate_x(0), gate_phase(0, 1.2)])
    assert np.allclose(state.amplitudes, [0, np.exp(1.2j)])
    # |0> branch untouched
    state = apply_gate(new_state(1), gate_phase(0, 1.2))
    assert np.allclose(state.amplitudes, [1, 0])


def test_gate_qubit_validation():
    for gate, qubit in [(gate_h(2), 2), (gate_cnot(0, 5), 5), (gate_mcx([-1, 0], 1), -1)]:
        message = rf"^{gate.kind} gate qubit {qubit} out of range for 2-qubit state$"
        with pytest.raises(ShapeError, match=message):
            apply_gate(new_state(2), gate)
    with pytest.raises(ShapeError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ShapeError):
        Gate("NOPE", (0,))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gate("RX", (0, 1)), r"^RX acts on exactly 1 qubit\(s\), got \(0, 1\)$"),
        (lambda: Gate("MCX", (3,)), r"^MCX acts on at least 2 qubit\(s\), got \(3,\)$"),
        (lambda: Gate("CPHASE", ()), r"^CPHASE acts on at least 1 qubit\(s\), got \(\)$"),
        (lambda: Projection(0, 2), r"^outcome must be 0 or 1, got 2$"),
    ],
    ids=["RX-two-qubits", "MCX-no-control", "CPHASE-no-qubit", "projection-outcome-2"],
)
def test_gates_and_projections_check_their_rules_when_built(build, message):
    with pytest.raises(ShapeError, match=message):
        build()


def test_angles_follow_the_gate_kind():
    gates = [gate_h(0), gate_x(0), gate_rx(0, 0.5), gate_rz(0, 0.5), gate_rzz(0, 1, 0.5),
             gate_cnot(0, 1), gate_cphase([0, 1], 0.5), gate_mcx([0, 1], 2)]
    assert {gate.kind for gate in gates if gate.has_angle} == {"RX", "RZ", "RZZ", "CPHASE"}
    assert gate_rzz(0, 1, 0.5).inverse() == gate_rzz(0, 1, -0.5)
    assert gate_mcx([0, 1], 2).inverse() == gate_mcx([0, 1], 2)


def _random_circuit(rng, n, length=40):
    gates = []
    for _ in range(length):
        kind = rng.integers(0, 7)
        q = int(rng.integers(0, n))
        r = int(rng.integers(0, n - 1))
        r = r if r != q else n - 1
        angle = float(rng.uniform(-np.pi, np.pi))
        gates.append(
            [
                gate_h(q),
                gate_x(q),
                gate_rx(q, angle),
                gate_rz(q, angle),
                gate_rzz(q, r, angle),
                gate_cnot(q, r),
                gate_cphase((q, r), angle),
            ][kind]
        )
    return gates


def test_norm_preserved_after_random_circuit():
    rng = np.random.default_rng(11)
    state = new_state(5)
    for gate in _random_circuit(rng, 5):
        state = apply_gate(state, gate)
        assert state.norm_error() < 1e-10


def test_unitarity_roundtrip():
    rng = np.random.default_rng(7)
    gates = _random_circuit(rng, 4, length=25)
    start = apply_gates(new_state(4), [gate_h(q) for q in range(4)])
    forward = apply_gates(start, gates)
    back = apply_gates(forward, [g.inverse() for g in reversed(gates)])
    assert np.max(np.abs(back.amplitudes - start.amplitudes)) < 1e-9


def test_projection_born_rule():
    state = apply_gate(new_state(1), gate_h(0))
    projected = project_qubit(state, 0, 0)
    assert np.allclose(projected.amplitudes, [1, 0])
    assert abs(projected.survival_prob - 0.5) < 1e-12


def test_projection_unequal_weights():
    amps = np.array([np.sqrt(0.25), np.sqrt(0.75)], dtype=complex)
    state = Statevector(1, amps, 1.0)
    projected = project_qubit(state, 0, 1)
    assert np.allclose(projected.amplitudes, [0, 1])
    assert abs(projected.survival_prob - 0.75) < 1e-12


def test_projection_empty_subspace():
    state = apply_gate(new_state(1), gate_x(0))
    with pytest.raises(EmptySubspaceError):
        project_qubit(state, 0, 0)


def test_projection_idempotent():
    state = apply_gates(new_state(2), [gate_h(0), gate_h(1)])
    once = project_qubit(state, 0, 0)
    twice = project_qubit(once, 0, 0)
    assert np.allclose(once.amplitudes, twice.amplitudes)
    assert abs(twice.survival_prob / once.survival_prob - 1.0) < 1e-10


def test_survival_non_increasing():
    state = apply_gates(new_state(3), [gate_h(q) for q in range(3)])
    last = state.survival_prob
    for q in range(3):
        state = project_qubit(state, q, 0)
        assert state.survival_prob <= last
        last = state.survival_prob


def test_sampling_deterministic_state():
    counts = sample(new_state(1), 100, seed=3)
    assert counts == {"0": 100}


def test_sampling_binomial_3sigma():
    state = apply_gate(new_state(1), gate_h(0))
    counts = sample(state, 10**5, seed=7)
    sigma = np.sqrt(10**5 * 0.25)
    assert abs(counts["0"] - 50000) <= 3 * sigma
    assert sum(counts.values()) == 10**5


def test_sampling_seed_reproducible():
    state = apply_gate(new_state(1), gate_h(0))
    assert sample(state, 10**5, seed=7) == sample(state, 10**5, seed=7)


@pytest.mark.parametrize("shots, seed", [(2.5, 0), (0, 0), (True, 0), (4, -1), (4, 1.5), (4, None)])
def test_sampling_rejects_non_integer_shots_and_seed(shots, seed):
    with pytest.raises(InputError, match="(shots|seed) must be"):
        sample(new_state(2), shots, seed)


def test_sampling_accepts_numpy_integers():
    assert sample(new_state(2), np.int64(3), np.int32(4)) == {"00": 3}


def test_sampling_law_of_large_numbers():
    rng = np.random.default_rng(5)
    state = apply_gates(new_state(4), _random_circuit(rng, 4, length=30))
    shots = 10**5
    counts = sample(state, shots, seed=9)
    probs = state.probabilities()
    for i, p in enumerate(probs):
        observed = counts.get(basis_string(i, 4), 0)
        sigma = np.sqrt(shots * p * (1 - p)) + 1e-12
        assert abs(observed - shots * p) <= 5 * sigma + 1


def test_expectation_diagonal_basics():
    assert expectation_diagonal(new_state(1), lambda z: z) == 0.0
    uniform = apply_gates(new_state(2), [gate_h(0), gate_h(1)])
    assert abs(expectation_diagonal(uniform, lambda z: z) - 1.5) < 1e-12


def test_expectation_diagonal_rejects_one_value_for_all_states():
    uniform = apply_gates(new_state(2), [gate_h(0), gate_h(1)])
    with pytest.raises(ShapeError):
        expectation_diagonal(uniform, lambda z: 1.0)


def test_basis_string_msb_first():
    assert basis_string(1, 3) == "001"  # qubit 0 rightmost
    assert basis_string(4, 3) == "100"


def test_marginal_probabilities():
    state = apply_gates(new_state(3), [gate_h(0), gate_x(2)])
    probs = marginal_probabilities(state, [0, 1])
    assert np.allclose(probs, [0.5, 0.5, 0, 0])
    probs = marginal_probabilities(state, [2])
    assert np.allclose(probs, [0, 1])


def test_marginal_probabilities_rejects_bad_qubits():
    state = apply_gate(new_state(3), gate_x(0))
    with pytest.raises(ShapeError):
        marginal_probabilities(state, [5])
    with pytest.raises(ShapeError):
        marginal_probabilities(state, [0, 0])


# Dense references: each kernel against its unitary built from 2x2 Kronecker
# products, qubit n-1 leftmost so that qubit 0 is the least significant bit.
_I2 = np.eye(2)
_P1 = np.diag([0.0, 1.0])
_XM = np.array([[0.0, 1.0], [1.0, 0.0]])
_ZM = np.diag([1.0, -1.0])


def _embed(n, factors):
    out = np.ones((1, 1))
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, _I2))
    return out


def _dense(gate, n):
    a = gate.angle
    c, s = np.cos(a / 2), np.sin(a / 2)
    eye = np.eye(1 << n)
    if gate.kind == "H":
        return _embed(n, {gate.qubits[0]: np.array([[1, 1], [1, -1]]) / np.sqrt(2)})
    if gate.kind == "X":
        return _embed(n, {gate.qubits[0]: _XM})
    if gate.kind == "RX":
        return _embed(n, {gate.qubits[0]: np.array([[c, -1j * s], [-1j * s, c]])})
    if gate.kind == "RZ":
        return _embed(n, {gate.qubits[0]: np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])})
    if gate.kind == "RZZ":
        return c * eye - 1j * s * _embed(n, dict.fromkeys(gate.qubits, _ZM))
    if gate.kind == "CPHASE":
        return eye + (np.exp(1j * a) - 1) * _embed(n, dict.fromkeys(gate.qubits, _P1))
    *controls, target = gate.qubits  # CNOT, MCX
    return eye + _embed(n, {**dict.fromkeys(controls, _P1), target: _XM - _I2})


def _kernel_cases(n, rng):
    def angle():
        return float(rng.uniform(-np.pi, np.pi))

    top = n - 1
    gates = []
    for q in sorted({0, top, int(rng.integers(n))}):
        gates += [gate_h(q), gate_x(q), gate_rx(q, angle()), gate_rz(q, angle()), gate_phase(q, angle())]
    perm = [int(q) for q in rng.permutation(n)]
    gates.append(gate_cphase(perm, angle()))  # every qubit pinned: the 0-d view
    gates.append(gate_cphase(perm[: int(rng.integers(1, n + 1))], angle()))
    if n >= 2:
        gates.append(gate_rzz(perm[0], perm[1], angle()))
        gates.append(gate_cnot(top, 0))
        gates.append(gate_cnot(0, top))
        gates.append(Gate("MCX", tuple(perm)))  # all qubits, unsorted controls
        for target in (0, top):
            controls = [q for q in perm if q != target][: int(rng.integers(1, n))]
            gates.append(Gate("MCX", (*controls, target)))
    return gates


def _random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, amps / np.linalg.norm(amps), 0.75)


@pytest.mark.parametrize("n", range(1, 7))
def test_gate_kernels_match_dense_unitaries(n):
    rng = np.random.default_rng(100 + n)
    for gate in _kernel_cases(n, rng):
        state = _random_state(n, rng)
        out = apply_gate(state, gate)
        expected = _dense(gate, n) @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12, gate
        assert out.survival_prob == state.survival_prob


@pytest.mark.parametrize("n", range(1, 7))
def test_rx_wall_matches_the_dense_kronecker_product(n):
    rng = np.random.default_rng(300 + n)
    walls = {
        "empty": [],
        "one": [int(rng.integers(n))],
        "unsorted": list(reversed(range(n))),
        "non-adjacent": list(range(0, n, 2)),
        "all": list(range(n)),
    }
    for name, qubits in walls.items():
        angle = float(rng.uniform(-np.pi, np.pi))
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        rx = np.array([[c, -1j * s], [-1j * s, c]])
        state = _random_state(n, rng)
        amps = state.amplitudes.copy()
        rx_wall(amps, qubits, angle)
        expected = _embed(n, dict.fromkeys(qubits, rx)) @ state.amplitudes
        assert np.max(np.abs(amps - expected)) < 1e-12, name
    before = amps.copy()
    for bad in (-1, n):
        with pytest.raises(ShapeError, match=f"out of range for {n}-qubit state"):
            rx_wall(amps, [0, bad], 0.3)
        assert np.array_equal(amps, before), "a rejected wall changed the amplitudes"


@pytest.mark.parametrize("n", range(1, 7))
def test_projection_and_marginals_match_bit_extraction(n):
    rng = np.random.default_rng(200 + n)
    state = _random_state(n, rng)
    probs = state.probabilities()
    idx = np.arange(1 << n)
    for qubit in range(n):
        for outcome in (0, 1):
            keep = ((idx >> qubit) & 1) == outcome
            prob = np.sum(probs[keep])
            projected = project_qubit(state, qubit, outcome)
            expected = np.where(keep, state.amplitudes, 0) / np.sqrt(prob)
            assert np.max(np.abs(projected.amplitudes - expected)) < 1e-12
            assert abs(projected.survival_prob - 0.75 * prob) < 1e-12
    for k in range(1, n + 1):
        qubits = [int(q) for q in rng.permutation(n)[:k]]
        key = np.zeros_like(idx)
        for bit, q in enumerate(qubits):
            key |= ((idx >> q) & 1) << bit
        expected = np.bincount(key, weights=probs, minlength=1 << k)
        assert np.max(np.abs(marginal_probabilities(state, qubits) - expected)) < 1e-12


def _marginal_by_transpose(state, qubits):
    """The whole-state marginal: reshape to one axis per qubit, move the
    kept axes to the front (qubits[0] last), sum the rest."""
    n, k = state.n_qubits, len(qubits)
    kept = [n - 1 - q for q in reversed(qubits)]
    rest = [a for a in range(n) if a not in kept]
    table = (np.abs(state.amplitudes) ** 2).reshape((2,) * n).transpose(kept + rest)
    return table.sum(axis=tuple(range(k, n))).reshape(-1)


# From 15 qubits on a state spans several 2**14-amplitude slices, so kept
# qubits fall below and above the slice width.
@pytest.mark.parametrize("n", range(1, 19))
def test_sliced_marginals_match_whole_state_formula(n):
    rng = np.random.default_rng(400 + n)
    state = _random_state(n, rng)
    k = (n + 1) // 2
    cases = {
        "empty": [],
        "full": list(range(n)),
        "low": list(range(k)),
        "high": list(range(n - k, n)),
        "non-contiguous": list(range(0, n, 2)),
        "permuted": [int(q) for q in rng.permutation(n)[:k]],
        "full-permuted": [int(q) for q in rng.permutation(n)],
    }
    for name, qubits in cases.items():
        sliced = marginal_probabilities(state, qubits)
        whole = _marginal_by_transpose(state, qubits)
        assert sliced.shape == (1 << len(qubits),), name
        assert np.all(np.abs(sliced - whole) <= 1e-12 * whole), name


def test_norm_error_of_mapped_state_matches_probability_sum():
    rng = np.random.default_rng(17)
    for n in (1, 5, 15):
        base = apply_gates(new_state(n), [gate_h(q) for q in range(n)])
        for scale in (1.0, 1.1):
            state = apply_gates(Statevector(n, scale * base.amplitudes), _fusion_cases(n, rng))
            old = abs(float(np.sum(state.probabilities())) - 1.0)
            assert abs(state.norm_error() - old) <= 1e-14, (n, scale)


def _fusion_cases(n, rng):
    """Gate list of alternating diagonal and single-qubit runs of 1, 2 and 9
    gates, with a CNOT or MCX between some of them, plus fixed runs: a
    diagonal run over every qubit and repeated gates on one qubit."""

    def angle():
        return float(rng.uniform(-np.pi, np.pi))

    def qubit():
        return int(rng.integers(n))

    def diagonal():
        pair = [int(q) for q in rng.permutation(n)[:2]]
        options = [gate_rz(qubit(), angle()), gate_phase(qubit(), angle())]
        if n >= 2:
            options += [gate_rzz(*pair, angle()), gate_cphase(pair, angle())]
        return options[int(rng.integers(len(options)))]

    def single():
        return [gate_h, gate_x, lambda q: gate_rx(q, angle())][int(rng.integers(3))](qubit())

    q = qubit()
    gates = [gate_rz(r, angle()) for r in range(n)]
    gates += [gate_rzz(r, (r + 1) % n, angle()) for r in range(n) if n >= 2]
    gates += [gate_cphase(range(n), angle()), gate_phase(q, angle()), gate_rz(q, angle())]
    gates += [gate_h(q), gate_rx(q, angle()), gate_x(q), gate_rx(q, angle())]
    for i, length in enumerate([1, 2, 9] * 4):
        gates += [(diagonal, single)[i % 2]() for _ in range(length)]
        if n >= 2 and i % 3 == 2:
            controls = [int(r) for r in rng.permutation(n)[: int(rng.integers(1, n))]]
            target = int(rng.choice([r for r in range(n) if r not in controls]))
            gates.append(Gate("CNOT" if len(controls) == 1 else "MCX", (*controls, target)))
    return gates


def _ladder(qubits, rng):
    """QFT-style ladder: H on each qubit from the top, then CPHASE to each lower one."""
    gates = []
    for k in range(len(qubits) - 1, -1, -1):
        gates.append(gate_h(qubits[k]))
        gates += [gate_cphase((qubits[j], qubits[k]), float(rng.uniform(-np.pi, np.pi))) for j in range(k)]
    return gates


def _comparator(cost, flag):
    """MCX cascade onto ``flag`` with X conjugations, as in a threshold comparator."""
    gates = []
    for k in range(len(cost) - 1, -1, -1):
        negated = [gate_x(q) for q in cost[k + 1 :: 2]]
        gates += [*negated, gate_mcx(cost[k:], flag), *negated]
    return gates


def _mixed_cases(n, rng):
    """Named gate lists whose runs mix diagonal and non-diagonal gates."""
    cases = {}
    for width in (4, 5, 6):
        w = min(width, n)
        for where, lo in (("bottom", 0), ("middle", (n - w) // 2), ("top", n - w)):
            qubits = list(range(lo, lo + w))
            ladder = _ladder(qubits, rng)
            cases[f"qft{width}-{where}"] = ladder + [g.inverse() for g in reversed(_ladder(qubits, rng))]
    w = min(6, n)
    cases["qft6-then-rx8"] = _ladder(range(w), rng) + [gate_rx(q, 0.3 + 0.1 * q) for q in range(min(8, n))]
    if n >= 2:
        m = min(4, n - 1)
        cases["comparator-top"] = _comparator(list(range(n - 1 - m, n - 1)), n - 1)
        cases["comparator-bottom"] = _comparator(list(range(m)), m)
        # A 5-qubit cost register with its flag on the top qubit, as in the
        # 20-qubit benchmark circuits (qubits 14-19).
        m = min(5, n - 1)
        cases["comparator5-flag-top"] = _comparator(list(range(n - 1 - m, n - 1)), n - 1)
        # Lone 5-qubit gates between single-qubit runs on the top qubit: from
        # 7 qubits up no run can take them in.
        five, top = list(range(min(5, n))), n - 1
        walls = [[gate_h(top), gate_rx(top, 0.4)], [gate_x(top)], [gate_rx(top, -0.8), gate_h(top)]]
        cases["lone-mcx5-and-cphase5"] = [
            *walls[0], gate_mcx(five[:-1], five[-1]), *walls[1], gate_cphase(five, 0.7), *walls[2]
        ]
        cases["cnot-across"] = [gate_h(0), gate_x(1), gate_cnot(0, n - 1), gate_h(1), gate_rz(0, 0.4), gate_h(0)]
        cases["qubit0-and-top-diagonal"] = [gate_rz(0, 0.3), gate_cphase((0, n - 1), 0.9), gate_rz(n - 1, 0.2)]
    cases["qubit0-diagonal"] = [gate_rz(0, 0.3), gate_phase(0, 1.1), gate_rz(0, -0.7)]
    cases["all"] = [gate for gates in list(cases.values()) for gate in gates]
    return cases


def _diagonal_runs(n, rng):
    """Named diagonal runs: RZ, RZZ on all pairs, CPHASE on 3 to all qubits
    and phase gates, over every qubit, over qubits 1..n-1 or over a gapped
    subset of them, each listed top-qubit-first and bottom-first."""

    def angle():
        return float(rng.uniform(-np.pi, np.pi))

    supports = {"with-qubit0": list(range(n))}
    if n >= 2:
        supports["without-qubit0"] = list(range(1, n))
        supports["gapped"] = sorted(int(q) for q in rng.choice(range(1, n), min(3, n - 1), replace=False))
    cases = {}
    for name, qubits in supports.items():
        gates = [gate_rz(q, angle()) for q in qubits]
        gates += [gate_rzz(a, b, angle()) for i, a in enumerate(qubits) for b in qubits[i + 1 :]]
        gates += [gate_cphase(rng.permutation(qubits)[:k], angle()) for k in range(3, len(qubits) + 1)]
        gates += [gate_phase(q, angle()) for q in qubits]
        gates = [gates[i] for i in rng.permutation(len(gates))]  # ties on one top qubit in random order
        cases[f"{name}-top-first"] = sorted(gates, key=lambda g: -max(g.qubits))
        cases[f"{name}-bottom-first"] = sorted(gates, key=lambda g: max(g.qubits))
    return cases


# 1-9 qubits cross the 4- and 6-qubit span limits; 16 qubits split every
# span's matmuls into several slices.  The mixed cases put 4-, 5- and 6-qubit
# QFT ladders at the bottom, middle and top of the register, an 8-qubit RX
# wall right after a ladder, comparators (one over a 5-qubit register with
# its flag on the top qubit), a lone 5-qubit MCX and CPHASE between runs, a
# CNOT from qubit 0 to the top qubit inside a run, and diagonal runs on
# qubit 0.  The diagonal runs build their phase tables by doubling, with
# gates listed top-qubit-first and bottom-first.
@pytest.mark.parametrize("n", [*range(1, 10), 16])
def test_fused_runs_match_gate_by_gate(n):
    rng = np.random.default_rng(300 + n)
    cases = {f"random-{i}": _fusion_cases(n, rng) for i in range(4)} | _mixed_cases(n, rng)
    cases |= _diagonal_runs(n, rng)
    for name, gates in cases.items():
        state = _random_state(n, rng)
        fused = apply_gates(state, gates)
        folded = functools.reduce(apply_gate, gates, state)
        assert np.max(np.abs(fused.amplitudes - folded.amplitudes)) < 1e-12, name
        assert fused.survival_prob == state.survival_prob


def test_fused_runs_peak_memory_within_state_copies(traced_peak):
    n = 16
    ring = [gate_rzz(q, (q + 1) % n, 0.3 + 0.1 * q) for q in range(n)]
    wall = [gate_rx(q, 0.7) for q in range(n)]
    # Mixed 4-qubit spans at lo 2 (one transposed chunk per matmul) and 6
    # (tiles), and 6-qubit spans at lo 0, 5 and n-6 (column slices of a tile).
    ladders = [_ladder(range(lo, lo + 4), np.random.default_rng(lo)) for lo in (2, 6)]
    ladders += [_ladder(range(lo, lo + 6), np.random.default_rng(lo)) for lo in (0, 5, n - 6)]
    state = new_state(n)
    for gates in [ring + wall, *ladders]:
        with traced_peak() as traced:
            apply_gates(state, gates)
        assert traced.peak <= 4.5 * state.amplitudes.nbytes, traced.peak / state.amplitudes.nbytes


def _projected_circuit(n, rng, outcome):
    """Random gates with projection sites first, in the middle back to back,
    and last, on qubit 0 and qubit n-1 with both outcomes (one qubit: the
    same outcome throughout).  An RX before the middle and the last site
    mixes the qubit projected there, so no site annihilates the state."""
    top, other = n - 1, (1 - outcome if n > 1 else outcome)
    head = _fusion_cases(n, rng) + [gate_rx(0, 1.3)]
    gates = head + _fusion_cases(n, rng) + [gate_rx(top, 0.9)]
    sites = [
        (0, Projection(0, outcome)),
        (len(head), Projection(top, outcome)),
        (len(head), Projection(0, other)),
        (len(gates), Projection(top, other)),
    ]
    return gates, sites


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16])
def test_projection_sites_match_segments_folded(n):
    rng = np.random.default_rng(400 + n)
    for i in range(3):
        for outcome in (0, 1):
            gates, sites = _projected_circuit(n, rng, outcome)
            state = _random_state(n, rng)
            before = state.amplitudes.copy()
            out = apply_gates(state, gates, sites)
            folded, done = state, 0
            for position, proj in sites:
                folded = apply_gates(folded, gates[done:position])
                folded = project_qubit(folded, proj.qubit, proj.outcome)
                done = position
            folded = apply_gates(folded, gates[done:])
            assert np.max(np.abs(out.amplitudes - folded.amplitudes)) < 1e-12, (i, outcome)
            assert abs(out.survival_prob - folded.survival_prob) < 1e-12, (i, outcome)
            assert np.array_equal(state.amplitudes, before) and state.survival_prob == 0.75


def test_projection_site_annihilation_and_order_errors():
    state = apply_gates(new_state(3), [gate_h(0), gate_x(2)])
    before = state.amplitudes.copy()
    message = r"^projection of qubit 2 onto \|0> has probability 0\.000e\+00$"
    with pytest.raises(EmptySubspaceError, match=message):
        apply_gates(state, [gate_h(1)], [(0, Projection(0, 1)), (1, Projection(2, 0))])
    with pytest.raises(EmptySubspaceError, match=message):
        project_qubit(state, 2, 0)
    assert np.array_equal(state.amplitudes, before)
    with pytest.raises(ShapeError, match="out of order"):
        apply_gates(state, [gate_h(1)], [(1, Projection(0, 0)), (0, Projection(1, 0))])
    with pytest.raises(ShapeError, match="beyond 1 gates"):
        apply_gates(state, [gate_h(1)], [(2, Projection(0, 0))])
    with pytest.raises(ShapeError, match="qubit 3 out of range"):
        apply_gates(state, [], [(0, Projection(3, 0))])
    with pytest.raises(ShapeError, match="outcome must be 0 or 1, got 2"):
        apply_gates(state, [], [(0, Projection(0, 2))])


def _zero_tail_state(n, k, rng, tail=0.0):
    """Random amplitudes on the first 2**k, zero above but ``tail`` on the last."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[: 1 << k] = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    amps /= np.linalg.norm(amps)
    amps[-1] += tail
    return Statevector(n, amps, 0.75)


def _folded_in_place(state, gates, sites=()):
    """The gates folded one at a time through ``_apply_inplace`` and each site
    through ``_project`` on a full copy of the amplitudes: no prefix."""
    amps, survival, done = state.amplitudes.copy(), state.survival_prob, 0
    for position, projection in [*sites, (len(gates), None)]:
        for gate in gates[done:position]:
            statevector._apply_inplace(amps, gate, state.n_qubits)
        if projection is not None:
            survival *= statevector._project(amps, state.n_qubits, projection)
        done = position
    return amps, survival


def _above_prefix_cases(n, k):
    """Runs that reach above a state zero from 2**k on: RZ and RZZ on the top
    qubit, alone and as a phase table; spans with lo < k <= hi and with
    lo >= k; a lone MCX wider than 4 qubits with its target on top."""
    top = n - 1
    cases = {
        "rz-top": [gate_rz(top, 0.7)],
        "rzz-top": [gate_rzz(top, 0, -1.1)],
        "rz-rzz-table-top": [gate_rz(top, 0.7), gate_rzz(top, 0, -1.1)],
    }
    lo, hi = max(0, k - 2), min(k + 1, top)
    cases["span-across"] = [gate_h(lo), gate_rx(hi, 0.3), gate_cnot(lo, hi), gate_h(hi), gate_rz(lo, 0.2)]
    if k + 1 < n:
        hi = min(k + 3, top)
        cases["span-above"] = [gate_h(k), gate_cnot(k, hi), gate_rx(hi, 0.4), gate_rx(k, -0.9)]
    if n >= 5:
        cases["lone-mcx5"] = [gate_mcx(range(4), top)]
    return cases


# States zero from 2**k on, against a fold that never uses the prefix: the
# mixed cases, diagonal runs and projected circuits over k qubits (below the
# prefix) and over n, and runs that reach above it.
@pytest.mark.parametrize("n", [3, 6, 9, 16])
def test_zero_tails_match_gates_folded_in_place(n):
    rng = np.random.default_rng(500 + n)
    for k in sorted({0, 1, n // 2, n - 2, n - 1}):
        below = _mixed_cases(k, rng) | _diagonal_runs(k, rng) if k else {}
        cases = {f"below-{name}": (gates, ()) for name, gates in below.items()}
        cases |= {name: (gates, ()) for name, gates in _above_prefix_cases(n, k).items()}
        cases |= {f"across-{name}": (gates, ()) for name, gates in _mixed_cases(n, rng).items()}
        cases |= {f"across-{name}": (gates, ()) for name, gates in _diagonal_runs(n, rng).items()}
        for outcome in (0, 1):
            if k:
                cases[f"below-projected-{outcome}"] = _projected_circuit(k, rng, outcome)
            cases[f"across-projected-{outcome}"] = _projected_circuit(n, rng, outcome)
        for name, (gates, sites) in cases.items():
            state = _zero_tail_state(n, k, rng)
            try:
                expected, survival = _folded_in_place(state, gates, sites)
            except EmptySubspaceError:
                with pytest.raises(EmptySubspaceError):
                    apply_gates(state, gates, sites)
                continue
            out = apply_gates(state, gates, sites)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-12, (k, name)
            assert abs(out.survival_prob - survival) < 1e-12, (k, name)
            if name.startswith("below"):
                assert not out.amplitudes[1 << k :].any(), (k, name)
        # One amplitude of 1e-200 on the last index keeps every qubit live:
        # the gates below k change the tail as the fold does, to 1e-12 of its size.
        for name in ("below-all", "below-with-qubit0-top-first"):
            if name in cases:
                gates, sites = cases[name]
                state = _zero_tail_state(n, k, rng, tail=1e-200)
                expected, _ = _folded_in_place(state, gates, sites)
                out = apply_gates(state, gates, sites).amplitudes
                assert np.max(np.abs(out - expected)[1 << k :]) < 1e-212, (k, name)
                assert np.max(np.abs(expected - state.amplitudes)[1 << k :]) > 1e-201, (k, name)


def test_projection_above_the_prefix():
    """A site on a qubit above every nonzero amplitude keeps nothing on |1>
    and everything on |0>, renormalized exactly as the whole-state
    projection; a qubit beyond the state is still out of range."""
    for n, gates, qubit in ((3, [gate_h(0)], 2), (16, [gate_h(q) for q in range(4)], 9)):
        state = apply_gates(new_state(n), gates)
        before = state.amplitudes.copy()
        message = rf"^projection of qubit {qubit} onto \|1> has probability 0\.000e\+00$"
        with pytest.raises(EmptySubspaceError, match=message):
            project_qubit(state, qubit, 1)
        kept = project_qubit(state, qubit, 0)
        whole = before.copy()
        prob = statevector._project(whole, n, Projection(qubit, 0))
        assert np.array_equal(kept.amplitudes, whole) and kept.survival_prob == prob
        with pytest.raises(ShapeError, match=f"^qubit {n} out of range$"):
            apply_gates(state, [], [(0, Projection(n, 0))])
        assert np.array_equal(state.amplitudes, before) and state.survival_prob == 1.0


@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (8, 4, 2), (1 << 12, 2, 16), (3, 1, 1 << 15), (2, 64, 1 << 10), (5, 1 << 14, 1)]
)
def test_slices_cover_a_view_once_within_the_chunk(shape):
    """Every element of an (a, d, c) view lies in exactly one slice; each
    slice holds at most ``_SPAN_CHUNK`` elements and is whole tiles, or,
    when a tile is wider than that, a column slice of one tile; slices
    come in order of their first element."""
    view = np.arange(np.prod(shape)).reshape(shape)
    parts = list(statevector._slices(view))
    for part in parts:
        assert part.size <= statevector._SPAN_CHUNK and part.base is view.base
        whole = part.shape[1:] == shape[1:]
        assert whole or (part.shape[0] == 1 and part.shape[1] == shape[1]), part.shape
        assert whole == (shape[1] * shape[2] <= statevector._SPAN_CHUNK)
    firsts = [part[0, 0, 0] for part in parts]
    assert firsts == sorted(firsts)
    assert np.array_equal(np.sort(np.concatenate([part.ravel() for part in parts])), view.ravel())


@pytest.mark.parametrize("n", [3, 6, 16])
def test_runs_follow_the_span_rule(n):
    """Every fused run grew by the rule: each prefix of two or more gates is
    diagonal, or spans at most 4 qubits, or holds a gate on two or more
    qubits and spans at most 6.  A run of single-qubit gates that is not
    diagonal spans at most 4, and no run could have taken the gate that
    starts the next one."""

    def span(gates):
        qubits = [q for gate in gates for q in gate.qubits]
        return min(qubits), max(qubits), all(gate.kind in ("RZ", "RZZ", "CPHASE") for gate in gates)

    def fits(gates):
        lo, hi, diagonal = span(gates)
        entangling = any(len(gate.qubits) > 1 for gate in gates)
        return diagonal or hi - lo < 4 or (entangling and hi - lo < 6)

    gates = _mixed_cases(n, np.random.default_rng(n))["all"] + _fusion_cases(n, np.random.default_rng(n))
    runs = list(statevector._runs(gates, n))
    assert [gate for run, *_ in runs for gate in run] == gates
    for (run, lo, hi, diagonal), (following, *_) in zip(runs, [*runs[1:], ([],)]):
        assert (lo, hi, diagonal) == span(run)
        assert all(fits(run[:k]) for k in range(2, len(run) + 1)), run
        if not diagonal and all(len(gate.qubits) == 1 for gate in run):
            assert hi - lo < 4, run
        if following:
            assert not fits([*run, following[0]]), (run, following[0])


@pytest.mark.parametrize(
    "n_qubits, amplitudes",
    [(3, np.ones(4) / 2), (2, np.ones(8) / np.sqrt(8)), (2, np.ones((2, 2)) / 2), (1, np.ones(1))],
)
def test_statevector_rejects_wrong_amplitude_count(n_qubits, amplitudes):
    with pytest.raises(ShapeError, match=f"{n_qubits}-qubit state"):
        Statevector(n_qubits, amplitudes)


# numpy's buffered ufunc loop allocates two buffers of 8192 elements for an
# in-place product over a strided view with a short contiguous axis, as the
# kernels' views on low qubits have: 256 KiB whatever the state's size.
_UFUNC_BUFFERS = 2 * 8192 * 16


def test_diagonal_run_allocates_one_table(traced_peak):
    """A diagonal run over every qubit holds the working copy and its one
    complex table: no real-phase, ``1j*phase`` or ``exp`` temporaries (a
    table built that way peaks above 3 states)."""
    n = 16
    gates = [gate_rz(q, 0.1 + 0.01 * q) for q in range(n)]
    gates += [gate_rzz(a, b, 0.3 - 0.001 * (a + n * b)) for a in range(n) for b in range(a + 1, n)]
    state = new_state(n)
    with traced_peak() as traced:
        apply_gates(state, gates)
    assert traced.peak <= 2.1 * state.amplitudes.nbytes + _UFUNC_BUFFERS, traced.peak / state.amplitudes.nbytes
