"""Ancilla-free functional backend: the action of a hybrid circuit on the
decision and slack bits, evaluated straight from the compiled model.

Every DEPHASE and ZENO block of the gate circuit (``builder.build_circuit``)
uncomputes its cost register and flag, so on the QUBO's ``n_bits`` decision
and slack bits (decision bits lowest) one layer acts, in the builder's block
order, as

- phase return: psi *= exp(-i*gamma*(cost - identity));
- dephasing block: psi *= exp(-i*gamma*alpha*max(0, a.x - b));
- Zeno sub-block, Q per block: RX(beta/Q) on every decision bit
  (``statevector.rx_wall``, on the pair views of the flat psi), then the
  projection onto a.x <= b in place (dropped columns zeroed, psi divided by
  the root of the kept probability), which is multiplied into the survival;
- mixer wall: RX(beta) on the builder's mixer targets, by ``rx_wall`` too.

The initial state is one row, uniform over the decision states that satisfy
every ZENO constraint, repeated for every slack value; ``initial_row`` builds
it for both backends.  A constraint without a register in the compiled
layout (``builder.build_layout`` gives one only to a constraint that can fail)
has no flag in the gate circuit, so here no dephasing block and no projection.  A
``FunctionalCircuit`` holds one 2^n array, its cost table (``qubo_values``: 8 *
2^n bytes, 16 * 2^n while built), and 2^n_vars arrays: its complex initial row
(16 * 2^n_vars bytes), the solution masks, and its blocks' excess rows and Zeno
masks.  A run allocates psi and, beside it, at most one of: per phase return,
one complex exponent taken in place; per wall qubit, a copy of half of psi
and one product of that size; per Zeno projection, the probability read's
24 bytes per kept amplitude.  So it peaks at 16 * 2^n + max(16 * 2^n,
24 * kept) bytes.  Every limit is checked before any 2^n
array exists: CapacityError for more than ``MAX_QUBITS`` bits, or, from the
solution masks built first, for more than ``BRUTE_FORCE_MAX_VARS`` variables.
These amplitudes are tested against the gate backend's ancilla-zero slice.

The run metrics are defined here, once: ``FunctionalCircuit.metrics`` reads
the expected compiled cost and the probabilities that the decision bits are
feasible or optimal off any distribution over the decision and slack bits,
exact (``evaluate``, which the optimizer runs) or sampled
(``harness.sampled_metrics``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .builder import NATURAL, LayerParams, block_order, compiled_model, initial_row, mixer_targets
from .errors import CapacityError, EmptySubspaceError
from .problem import DEPHASE, ZENO, ConstrainedBinaryProblem, Multipliers, constraint_excess
from .problem import check_kinds, qubo_values, solution_masks
from .statevector import ANNIHILATION_PROB, MAX_QUBITS, Statevector, rx_wall


class EvalResult(NamedTuple):
    expected_cost: float
    p_feasible: float
    p_optimal: float
    survival_prob: float


@dataclass(frozen=True)
class _Block:
    kind: str
    name: str  # constraint index and label, for error messages
    excess: np.ndarray  # max(0, a.x - b) per decision state
    keep: np.ndarray | None  # Zeno projection mask, excess == 0; None when no state fails


class FunctionalCircuit:
    """One hybrid circuit's action on the decision and slack bits."""

    def __init__(
        self,
        problem: ConstrainedBinaryProblem,
        assignment,
        mult: Multipliers,
        ordering: str = NATURAL,
    ):
        assignment = check_kinds(assignment)
        model = compiled_model(problem, assignment, mult)
        n = model.qubo.n_bits
        if n > MAX_QUBITS:
            raise CapacityError(
                f"the compiled model has {n} bits, more than MAX_QUBITS = {MAX_QUBITS}: its cost "
                f"table would take 8*2^n = {8 << n} bytes and each functional state 16*2^n = "
                f"{16 << n} bytes"
            )
        self.n_vars = problem.n_vars
        self.n_bits = n
        self.alpha = mult.alpha
        self.identity = model.ising.identity
        self.feasible, self.optimal = solution_masks(problem)  # enumeration limit before the table
        self.cost_table = qubo_values(model.qubo)  # QUBO value per decision+slack index
        self.decision = model.layout.decision
        self.mixer = mixer_targets(assignment, model.layout)
        excess = constraint_excess(problem)
        self.blocks = []
        for ci in block_order(assignment, ordering):
            con, kind = problem.constraints[ci], assignment[ci]
            if (fails := ci in model.layout.registers) or kind == ZENO:  # ZENO blocks always mix
                keep = excess[ci] == 0 if fails and kind == ZENO else None
                self.blocks.append(_Block(kind, f"{ci} ({con.label!r})", excess[ci], keep))
        self.initial = initial_row(problem, assignment, 1 << (n - self.n_vars))

    def run(self, params: LayerParams) -> Statevector:
        """Final state over the n_bits decision and slack bits, with survival.

        Raises EmptySubspaceError, naming the constraint, layer and sub-block,
        when a Zeno projection has probability at most ``ANNIHILATION_PROB``.
        """
        psi = np.tile(self.initial, (1 << (self.n_bits - self.n_vars), 1))
        survival = 1.0
        q_meas = params.q_measurements
        for p, (gamma, beta) in enumerate(zip(params.gamma, params.beta)):
            phase = np.subtract(self.cost_table, self.identity, dtype=complex)
            phase *= -1j * gamma
            psi *= np.exp(phase, out=phase).reshape(psi.shape)
            del phase  # free before the walls
            for block in self.blocks:
                if block.kind == DEPHASE:
                    psi *= np.exp(-1j * gamma * self.alpha * block.excess)
                    continue
                for q in range(q_meas):
                    rx_wall(psi.reshape(-1), self.decision, beta / q_meas)
                    if block.keep is None:
                        continue
                    prob = float(np.sum(np.abs(psi[:, block.keep]) ** 2))
                    if prob <= ANNIHILATION_PROB:
                        raise EmptySubspaceError(
                            f"Zeno projection of constraint {block.name} in layer "
                            f"{p + 1}/{params.p_layers}, sub-block {q + 1}/{q_meas} "
                            f"has probability {prob:.3e}"
                        )
                    psi[:, ~block.keep] = 0.0
                    psi /= np.sqrt(prob)
                    survival *= prob
            rx_wall(psi.reshape(-1), self.mixer, beta)
        return Statevector(self.n_bits, psi.reshape(-1), survival)

    def metrics(self, probs: np.ndarray, survival: float) -> EvalResult:
        """The run metrics of ``probs`` over the n_bits decision and slack bits.

        ``probs`` holds exact probabilities or shot frequencies.  p_feasible
        and p_optimal are measured against the brute-force feasible and
        optimal sets of the original problem, never the QUBO.
        """
        # The decision bits are the low qubits: their marginal sums the rest.
        decision_probs = probs.reshape(-1, 1 << self.n_vars).sum(axis=0)
        return EvalResult(
            expected_cost=float(probs @ self.cost_table),
            p_feasible=float(decision_probs[self.feasible].sum()),
            p_optimal=float(decision_probs[self.optimal].sum()),
            survival_prob=survival,
        )

    def evaluate(self, params: LayerParams) -> EvalResult:
        """``run`` then ``metrics``; raises EmptySubspaceError as ``run`` does."""
        state = self.run(params)
        return self.metrics(state.probabilities(), state.survival_prob)
