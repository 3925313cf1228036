# Walk through the statevector simulator: gates, post-selected measurement,
# sampling, and diagonal expectations.

import numpy as np

from zenopt import apply_gates, expectation_diagonal, new_state, project_qubit, sample
from zenopt.statevector import gate_cnot, gate_h, gate_rx, gate_rzz

# A Bell pair: H on qubit 0, then CNOT onto qubit 1.
state = apply_gates(new_state(2), [gate_h(0), gate_cnot(0, 1)])
print("Bell amplitudes:", np.round(state.amplitudes, 6))

# Sampling is deterministic given a seed and follows the Born rule.
print("1000 shots:", sample(state, 1000, seed=42))

# Projective measurement keeps a branch, renormalizes, and records the
# retained probability in survival_prob.
kept = project_qubit(state, 0, 1)
print("after projecting qubit 0 onto 1:", np.round(kept.amplitudes, 6))
print("survival probability:", kept.survival_prob)

# Parameterized rotations: RX mixes, RZZ phases by joint parity.
rotated = apply_gates(new_state(2), [gate_rx(0, 0.6), gate_rzz(0, 1, 1.1)])
print("norm after rotations:", np.sum(np.abs(rotated.amplitudes) ** 2))

# Diagonal observables are plain functions of the basis index.
uniform = apply_gates(new_state(3), [gate_h(q) for q in range(3)])
print("<index> over uniform 3-qubit state:", expectation_diagonal(uniform, lambda z: z))
