import re
from dataclasses import fields

import numpy as np
import pytest

from zenopt import (
    ContractError,
    CostRegisterLayout,
    LayoutError,
    Projection,
    Statevector,
    apply_gates,
    build_comparator,
    build_cost_adder,
    build_uncompute,
    register_width,
)
from zenopt.problem import subset_sums
from zenopt.statevector import gate_h, gate_rz, gate_x

# Every test here runs a gate circuit.  Under "gate" its cost register is
# checked against sums computed in the test; under "oracle" against
# ``problem.subset_sums``, the enumeration the constraint-excess table (and
# so the functional backend) is built from.  The flag is checked against
# cost > threshold under both.
MODES = ("gate", "oracle")


def _basis(n, index):
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return Statevector(n, amps, 1.0)


def _register_value(index, qubits):
    return sum(((index >> q) & 1) << k for k, q in enumerate(qubits))


def _sums(mode, weights):
    """a.x for every assignment x of the weighted variables (x_0 = bit 0)."""
    if mode == "oracle":
        return [int(v) for v in subset_sums(weights)]
    return [sum(w for i, w in enumerate(weights) if (x >> i) & 1) for x in range(1 << len(weights))]


@pytest.mark.parametrize("mode", MODES)
def test_adder_example_weights_123(mode):
    layout = CostRegisterLayout((0, 1, 2), (1, 2, 3), 0, (3, 4, 5), 6)
    adder = build_cost_adder(layout)
    state = apply_gates(_basis(7, 0b101), adder)
    index = int(np.argmax(np.abs(state.amplitudes)))
    assert _register_value(index, layout.cost_qubits) == _sums(mode, [1, 2, 3])[0b101] == 4
    assert index & 0b111 == 0b101  # decision qubits unchanged


@pytest.mark.parametrize("mode", MODES)
def test_adder_zero_weights(mode):
    layout = CostRegisterLayout((0, 1, 2), (0, 0, 0), 0, (3,), 4)
    adder = build_cost_adder(layout)
    state = apply_gates(apply_gates(_basis(5, 0), [gate_h(q) for q in range(3)]), adder)
    probs = state.probabilities()
    sums = _sums(mode, [0, 0, 0])
    assert probs[[i for i in range(32) if (i >> 3) & 1 != sums[i & 0b111]]].sum() < 1e-12


# ``CostRegisterLayout`` checks every range the adder and comparator rely on,
# once, when the register is built; the circuits themselves check nothing.
def test_adder_overflow_is_layout_error():
    with pytest.raises(LayoutError, match=re.escape("cost register of width 2 overflows: max sum 6")):
        CostRegisterLayout((0, 1, 2), (1, 2, 3), 0, (3, 4), 5)
    assert CostRegisterLayout((0, 1, 2), (1, 2, 3), 0, (3, 4, 5), 6).width_m == 3  # 6 < 2^3


def test_adder_rejects_negative_weights():
    with pytest.raises(LayoutError, match="adder weights must be non-negative"):
        CostRegisterLayout((0,), (-1,), 0, (1, 2), 3)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("weights", [[1, 2, 3], [2, 2, 1, 5], [1, 1, 1, 1, 1, 1, 1, 1]])
def test_adder_exhaustive(mode, weights):
    n_dec = len(weights)
    width = register_width(weights)
    layout = CostRegisterLayout(
        tuple(range(n_dec)), tuple(weights), 0, tuple(range(n_dec, n_dec + width)), n_dec + width
    )
    adder = build_cost_adder(layout)
    n = n_dec + width + 1
    sums = _sums(mode, weights)
    for x in range(1 << n_dec):
        state = apply_gates(_basis(n, x), adder)
        index = int(np.argmax(np.abs(state.amplitudes)))
        assert _register_value(index, layout.cost_qubits) == sums[x]
        assert abs(abs(state.amplitudes[index]) - 1.0) < 1e-10


@pytest.mark.parametrize("mode", MODES)
def test_adder_modes_agree_on_superposition(mode):
    # H on the decision qubits, then the adder: (1/sqrt 8) sum_x |x>|a.x>.
    layout = CostRegisterLayout((0, 1, 2), (1, 2, 3), 0, (3, 4, 5), 6)
    start = apply_gates(_basis(7, 0), [gate_h(q) for q in range(3)])
    state = apply_gates(start, build_cost_adder(layout))
    expected = np.zeros(1 << 7, dtype=complex)
    for x, total in enumerate(_sums(mode, [1, 2, 3])):
        expected[x | (total << 3)] = 1.0 / np.sqrt(8.0)
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-9


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_comparator_exhaustive(mode, width):
    for threshold in range(1 << width):
        comparator = build_comparator(CostRegisterLayout((), (), threshold, tuple(range(width)), width))
        for cost in range(1 << width):
            state = apply_gates(_basis(width + 1, cost), comparator)
            index = int(np.argmax(np.abs(state.amplitudes)))
            assert (index >> width) & 1 == (cost > threshold)
            assert index & ((1 << width) - 1) == cost  # register unchanged


def test_comparator_boundaries():
    comparator = build_comparator(CostRegisterLayout((), (), 3, (0, 1, 2), 3))
    flagged = apply_gates(_basis(4, 4), comparator)
    assert (int(np.argmax(np.abs(flagged.amplitudes))) >> 3) & 1 == 1
    equal = apply_gates(_basis(4, 3), comparator)
    assert (int(np.argmax(np.abs(equal.amplitudes))) >> 3) & 1 == 0
    zero = apply_gates(_basis(4, 0), build_comparator(CostRegisterLayout((), (), 0, (0, 1, 2), 3)))
    assert (int(np.argmax(np.abs(zero.amplitudes))) >> 3) & 1 == 0


def test_comparator_threshold_out_of_range():
    for bound in (4, -1):
        with pytest.raises(LayoutError, match=re.escape(f"threshold {bound} outside [0, 2^2)")):
            CostRegisterLayout((), (), bound, (0, 1), 2)
    for bound in (0, 3):  # both ends of [0, 2^2) are accepted
        assert CostRegisterLayout((), (), bound, (0, 1), 2).bound == bound


@pytest.mark.parametrize("mode", MODES)
def test_compute_uncompute_roundtrip(mode):
    layout = CostRegisterLayout((0, 1, 2), (1, 2, 3), 2, (3, 4, 5), 6)
    forward = build_cost_adder(layout) + build_comparator(layout)
    start = apply_gates(
        _basis(7, 0), [gate_h(q) for q in range(3)] + [gate_rz(0, 0.37)]
    )
    # the forward pass writes a.x and the flag [a.x > 2] on every branch
    computed = apply_gates(start, forward)
    sums = _sums(mode, [1, 2, 3])
    idx = np.arange(1 << 7)
    written = np.array([sums[i & 0b111] | (sums[i & 0b111] > 2) << 3 for i in idx])
    assert computed.probabilities()[(idx >> 3) != written].sum() < 1e-10
    state = apply_gates(computed, build_uncompute(forward))
    assert np.max(np.abs(state.amplitudes - start.amplitudes)) < 1e-10
    # dirty-ancilla branches carry no amplitude at all
    mask = 0b1111000
    assert state.probabilities()[(idx & mask) != 0].sum() < 1e-10


def test_uncompute_empty():
    assert build_uncompute([]) == []


def test_uncompute_rejects_projection():
    with pytest.raises(ContractError):
        build_uncompute([gate_x(0), Projection(0, 0)])


def test_register_width():
    assert register_width([1, 2, 3]) == 3
    assert register_width([1, 2, 3, 1, 2, 3]) == 4
    assert register_width([1]) == 1
    assert register_width([0, 0]) == 1
    assert register_width([1, 1, 1]) == 2


def test_register_width_is_exact_to_the_int64_limit():
    # The fewest bits that hold the sum, by exact integer comparison; at least 1.
    for k in range(63):
        for d in (-1, 0, 1):
            total = 2**k + d
            assert register_width([total]) == next(w for w in range(1, 65) if total < 1 << w), (k, d)


def test_layout_disjointness_enforced():
    for decision, cost, flag in [((0, 1), (1, 2), 3), ((0,), (1, 2), 2), ((0,), (1, 1), 3), ((0,), (1, 2), 0)]:
        with pytest.raises(LayoutError, match="decision, cost and flag qubits must be disjoint"):
            CostRegisterLayout(decision, (1,) * len(decision), 0, cost, flag)


def test_adder_needs_one_weight_per_decision_qubit():
    with pytest.raises(LayoutError, match="one weight per decision qubit required"):
        CostRegisterLayout((0, 1), (1,), 0, (2, 3), 4)


def test_uncompute_rejects_a_non_gate():
    with pytest.raises(ContractError, match="cannot uncompute non-gate element 'H'"):
        build_uncompute([gate_h(0), "H"])


def test_register_carries_its_constraint():
    # The fields are the constraint's support, weights and bound, and the
    # qubits; the width is read off the cost qubits, never stored beside them.
    layout = CostRegisterLayout((0, 2), (3, 4), 6, (5, 6, 7), 8)
    assert [f.name for f in fields(layout)] == ["decision_qubits", "weights", "bound", "cost_qubits", "flag_qubit"]
    assert layout.width_m == 3
