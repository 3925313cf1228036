# The cargo-loading instance: three items of weights 1, 2, 3, two positions,
# total weight capped at 3.  Shows the exact ground truth and the penalized
# QUBO/Ising compilation the quantum pipelines minimize.

import numpy as np

from zenopt import (
    Multipliers,
    brute_force_solve,
    cargo_instance,
    compile_qubo,
    problem_to_json,
    qubo_to_ising,
    qubo_values,
)

problem = cargo_instance([1, 2, 3], 2, 3)
print("variables:", problem.var_labels)
print("constraints:", [c.label for c in problem.constraints])

oracle = brute_force_solve(problem)
print("optimum:", oracle.opt_value)
print("optimal placements:", sorted(oracle.optimal_set))
print("feasible count:", len(oracle.feasible_indices))

# All constraints penalized: 6 decision bits plus 7 slack bits.
mult = Multipliers.uniform(problem.n_constraints, 13.0)
qubo = compile_qubo(problem, ("QAOA",) * 6, mult)
print("QUBO bits:", qubo.n_bits, "slack map:", qubo.slack_map)

values = qubo_values(qubo)
print("QUBO minimum:", values.min(), "(negated optimum, slack cleared)")

# The Ising form reproduces the QUBO value on every assignment.
ising = qubo_to_ising(qubo)
idx = np.arange(1 << qubo.n_bits)
print("Ising reconstruction max error:", np.abs(ising.value(idx, qubo.n_bits) - values).max())
print("couplers:", len(ising.zz), "fields:", len(ising.z))

# Problems round-trip through a small JSON document.
print(problem_to_json(problem)[:120], "...")
