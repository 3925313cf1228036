"""Ancilla-free functional backend: the action of a hybrid circuit on the
decision and slack bits, evaluated straight from the compiled model.

Every DEPHASE and ZENO block of the gate circuit (``builder.build_circuit``)
uncomputes its cost register and flag, so on the QUBO's ``n_bits`` decision
and slack bits (decision bits lowest) one layer acts, in the builder's block
order, as

- phase return: psi *= exp(-i*gamma*(cost - identity));
- dephasing block: psi *= exp(-i*gamma*alpha*max(0, a.x - b));
- Zeno sub-block, Q per block: RX(beta/Q) on every decision bit, then the
  projection onto a.x <= b, renormalized, its probability multiplied into
  the survival;
- mixer wall: RX(beta) on the builder's mixer targets.

The initial state is uniform over the decision states that satisfy every
ZENO constraint, for every slack value; one rule, ``write_initial_block``,
writes it for both backends.  No circuit is built per run: a
``FunctionalCircuit`` takes its blocks' excess rows and Zeno masks from the
problem's cached ``constraint_excess`` table and runs any angles.  The gate
backend stays the reference; its ancilla-zero slice is what these amplitudes
are tested against.

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

from .builder import NATURAL, LayerParams, block_order, compiled_model, mixer_targets, write_initial_block
from .errors import EmptySubspaceError
from .problem import DEPHASE, ZENO, ConstrainedBinaryProblem, Multipliers, constraint_excess, solution_masks
from .statevector import ANNIHILATION_PROB, Statevector, _apply_inplace, gate_rx


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
    keep: np.ndarray | None  # Zeno projection mask, excess == 0; None when it drops no state


class FunctionalCircuit:
    """One hybrid circuit's action on the decision and slack bits."""

    def __init__(
        self,
        problem: ConstrainedBinaryProblem,
        assignment,
        mult: Multipliers,
        ordering: str = NATURAL,
    ):
        assignment = tuple(assignment)
        model = compiled_model(problem, assignment, mult)
        self.n_vars = problem.n_vars
        self.n_bits = model.qubo.n_bits
        self.alpha = mult.alpha
        self.cost_table = model.cost_table  # QUBO value per decision+slack index
        self.centered = (model.cost_table - model.ising.identity).reshape(-1, 1 << self.n_vars)
        self.decision = model.layout.decision
        self.feasible, self.optimal = solution_masks(problem)
        self.mixer = mixer_targets(assignment, model.layout)
        excess = constraint_excess(problem)
        self.blocks = []
        for ci in block_order(assignment, ordering):
            keep = excess[ci] == 0
            projects = assignment[ci] == ZENO and not keep.all()
            name = f"{ci} ({problem.constraints[ci].label!r})"
            self.blocks.append(_Block(assignment[ci], name, excess[ci], keep if projects else None))
        self.initial = np.empty(self.centered.shape, dtype=np.complex128)
        write_initial_block(problem, assignment, self.initial)

    def _rx_wall(self, psi: np.ndarray, qubits, angle: float) -> None:
        for q in qubits:
            _apply_inplace(psi.reshape(-1), gate_rx(q, angle), self.n_bits)

    def run(self, params: LayerParams) -> Statevector:
        """Final state over the n_bits decision and slack bits, with survival.

        Raises EmptySubspaceError, naming the constraint, layer and sub-block,
        when a Zeno projection has probability at most ``ANNIHILATION_PROB``.
        """
        psi = self.initial.copy()
        survival = 1.0
        q_meas = params.q_measurements
        for p, (gamma, beta) in enumerate(zip(params.gamma, params.beta)):
            psi *= np.exp(-1j * gamma * self.centered)
            for block in self.blocks:
                if block.kind == DEPHASE:
                    psi *= np.exp(-1j * gamma * self.alpha * block.excess)
                    continue
                for q in range(q_meas):
                    self._rx_wall(psi, self.decision, beta / q_meas)
                    if block.keep is None:
                        continue
                    prob = float(np.sum(np.abs(psi[:, block.keep]) ** 2))
                    if prob <= ANNIHILATION_PROB:
                        raise EmptySubspaceError(
                            f"Zeno projection of constraint {block.name} in layer "
                            f"{p + 1}/{params.p_layers}, sub-block {q + 1}/{q_meas} "
                            f"has probability {prob:.3e}"
                        )
                    psi = np.where(block.keep, psi, 0.0) / np.sqrt(prob)
                    survival *= prob
            self._rx_wall(psi, self.mixer, beta)
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
