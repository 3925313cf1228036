"""Reversible cost accumulation and threshold comparison subcircuits.

The adder is a phase-space (Fourier) adder and the comparator an MCX
cascade, both as explicit gate lists.  Searches never run them: the
functional backend (``functional.py``) applies the net effect of every block
built from them directly on the decision and slack bits, and these circuits
are the gate-level reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError, LayoutError
from .statevector import (
    Gate,
    Projection,
    gate_cphase,
    gate_h,
    gate_mcx,
    gate_x,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CostRegisterLayout:
    """Qubit roles for one constraint's cost register and violation flag."""

    decision_qubits: tuple[int, ...]
    cost_qubits: tuple[int, ...]
    flag_qubit: int
    width_m: int

    def __post_init__(self):
        groups = (*self.decision_qubits, *self.cost_qubits, self.flag_qubit)
        if len(set(groups)) != len(groups):
            raise LayoutError("decision, cost and flag qubits must be disjoint")
        if len(self.cost_qubits) != self.width_m:
            raise LayoutError("cost register size must equal width_m")


def register_width(coeffs: Sequence[int]) -> int:
    """Bits needed to hold the largest achievable cost sum_i coeffs[i], at least 1."""
    return max(1, int(sum(c for c in coeffs if c > 0)).bit_length())


def _qft(qubits: Sequence[int]) -> list[Gate]:
    """Fourier transform placing the phase of order 2^{k+1} on qubit k.

    No terminal swaps: the phase-rotation adder below is written against this
    layout directly.
    """
    gates: list[Gate] = []
    m = len(qubits)
    for k in range(m - 1, -1, -1):
        gates.append(gate_h(qubits[k]))
        for j in range(k - 1, -1, -1):
            gates.append(gate_cphase((qubits[j], qubits[k]), math.pi / (1 << (k - j))))
    return gates


def _fourier_add_gates(value: int, control: int, cost_qubits: Sequence[int]) -> list[Gate]:
    """Phase rotations adding ``value``, controlled by ``control``, in Fourier space."""
    gates: list[Gate] = []
    for k, q in enumerate(cost_qubits):
        angle = _TWO_PI * value / (1 << (k + 1))
        if angle % _TWO_PI != 0.0:
            gates.append(gate_cphase((control, q), angle))
    return gates


def build_cost_adder(weights: Sequence[int], layout: CostRegisterLayout) -> list[Gate]:
    """Circuit adding sum_i weights[i] * x_i into the cost register.

    The register must start at |0> for the plain "compute the cost" reading;
    as a unitary the circuit performs modular addition on any register state.
    """
    weights = [int(w) for w in weights]
    if len(weights) != len(layout.decision_qubits):
        raise LayoutError("one weight per decision qubit required")
    if any(w < 0 for w in weights):
        raise LayoutError("adder weights must be non-negative")
    if sum(weights) >= (1 << layout.width_m):
        raise LayoutError(
            f"cost register of width {layout.width_m} overflows: max sum {sum(weights)}"
        )
    gates = _qft(layout.cost_qubits)
    for w, d in zip(weights, layout.decision_qubits):
        gates.extend(_fourier_add_gates(w, d, layout.cost_qubits))
    gates.extend(build_uncompute(_qft(layout.cost_qubits)))
    return gates


def build_comparator(layout: CostRegisterLayout, threshold: int) -> list[Gate]:
    """Flip the flag qubit exactly on branches where cost > threshold.

    The circuit writes the carry of cost + (2^m - 1 - threshold) onto the flag
    with an MCX cascade: walking the threshold's bits from the top, each zero
    bit contributes one multi-controlled X whose controls pin all higher cost
    bits to the threshold's bits.  The cubes are disjoint, so the flag flips
    at most once, and the cost register is untouched.

    The flag must enter in |0> on every branch; a dirty flag turns the write
    into an XOR (check the flag's probability mass beforehand to detect the
    contract violation).
    """
    m = layout.width_m
    if not 0 <= threshold < (1 << m):
        raise LayoutError(f"threshold {threshold} outside [0, 2^{m})")
    gates: list[Gate] = []
    for k in range(m - 1, -1, -1):
        if (threshold >> k) & 1:
            continue
        negated = [layout.cost_qubits[j] for j in range(k + 1, m) if not (threshold >> j) & 1]
        controls = [layout.cost_qubits[j] for j in range(k, m)]
        for q in negated:
            gates.append(gate_x(q))
        gates.append(gate_mcx(controls, layout.flag_qubit))
        for q in negated:
            gates.append(gate_x(q))
    return gates


def build_uncompute(forward: Sequence) -> list[Gate]:
    """Reversed, gate-by-gate inverted copy of ``forward``."""
    for item in forward:
        if isinstance(item, Projection):
            raise ContractError("projections are non-unitary and cannot be uncomputed")
        if not isinstance(item, Gate):
            raise ContractError(f"cannot uncompute non-gate element {item!r}")
    return [g.inverse() for g in reversed(forward)]
