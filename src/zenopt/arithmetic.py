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
    """One constraint's cost register and violation flag: the adder writes
    sum_i weights[i] * x_i of the decision qubits into ``cost_qubits``, and the
    comparator flags cost > ``bound``.  Every range the two circuits rely on
    is checked here, once, or LayoutError: the qubits are disjoint, there is
    one non-negative weight per decision qubit, the weight sum fits the
    ``width_m`` cost qubits and 0 <= bound < 2^width_m."""

    decision_qubits: tuple[int, ...]
    weights: tuple[int, ...]
    bound: int
    cost_qubits: tuple[int, ...]
    flag_qubit: int

    def __post_init__(self):
        groups = (*self.decision_qubits, *self.cost_qubits, self.flag_qubit)
        if len(set(groups)) != len(groups):
            raise LayoutError("decision, cost and flag qubits must be disjoint")
        if len(self.weights) != len(self.decision_qubits):
            raise LayoutError("one weight per decision qubit required")
        if any(w < 0 for w in self.weights):
            raise LayoutError("adder weights must be non-negative")
        m = self.width_m
        if sum(self.weights) >= (1 << m):
            raise LayoutError(f"cost register of width {m} overflows: max sum {sum(self.weights)}")
        if not 0 <= self.bound < (1 << m):
            raise LayoutError(f"threshold {self.bound} outside [0, 2^{m})")

    @property
    def width_m(self) -> int:
        return len(self.cost_qubits)


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


def build_cost_adder(reg: CostRegisterLayout) -> list[Gate]:
    """Circuit adding sum_i weights[i] * x_i into the cost register.

    The register must start at |0> for the plain "compute the cost" reading;
    as a unitary the circuit performs modular addition on any register state.
    """
    gates = _qft(reg.cost_qubits)
    for w, d in zip(reg.weights, reg.decision_qubits):
        gates.extend(_fourier_add_gates(w, d, reg.cost_qubits))
    gates.extend(build_uncompute(_qft(reg.cost_qubits)))
    return gates


def build_comparator(reg: CostRegisterLayout) -> list[Gate]:
    """Flip the flag qubit exactly on branches where cost > bound.

    The circuit writes the carry of cost + (2^m - 1 - bound) onto the flag
    with an MCX cascade: walking the bound's bits from the top, each zero
    bit contributes one multi-controlled X whose controls pin all higher cost
    bits to the bound's bits.  The cubes are disjoint, so the flag flips
    at most once, and the cost register is untouched.

    The flag must enter in |0> on every branch; a dirty flag turns the write
    into an XOR (check the flag's probability mass beforehand to detect the
    contract violation).
    """
    m, bound = reg.width_m, reg.bound
    gates: list[Gate] = []
    for k in range(m - 1, -1, -1):
        if (bound >> k) & 1:
            continue
        negated = [reg.cost_qubits[j] for j in range(k + 1, m) if not (bound >> j) & 1]
        controls = [reg.cost_qubits[j] for j in range(k, m)]
        for q in negated:
            gates.append(gate_x(q))
        gates.append(gate_mcx(controls, reg.flag_qubit))
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
