# The measurement-pinning effect in isolation: a two-level system driven by
# X survives repeated |0><0| projections with probability -> 1 as the
# measurements get denser, and the projected product converges to evolution
# under the projected Hamiltonian P H P.

import numpy as np

from zenopt import (
    survival_analytic,
    survival_empirical,
    zeno_hamiltonian,
    zeno_limit_error,
)

pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
proj0 = np.diag([1.0, 0.0]).astype(complex)
ket0 = np.array([1.0, 0.0], dtype=complex)
t = np.pi / 2

print(" n   exact survival   second-order    limit distance")
for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
    exact = survival_empirical(pauli_x, proj0, ket0, t, n)
    approx = survival_analytic(pauli_x, ket0, t, n)
    err = zeno_limit_error(pauli_x, proj0, ket0, t, n)
    print(f"{n:3d}   {exact:.12f}   {approx:+.6f}      {err:.2e}")

# A full Rabi flip (n=1) never survives; dense measurement pins the state.
print("\nprojected generator P X P:")
print(zeno_hamiltonian(pauli_x, proj0).real)

# The same physics drives the circuit layer: a Zeno block's cumulative
# survival equals the dense repeated-measurement product of its mixer
# Hamiltonian and feasibility projector (see tests/test_zeno.py for the
# cross-check on a toy constraint).
