"""Constrained binary problems, QUBO/Ising compilation, brute-force oracle.

Problems are maximization of a linear objective subject to linear <= bound
constraints over binary variables.  Compilation negates the objective once
so everything downstream minimizes.  Bit order in basis strings: variable 0
rightmost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import INT64_MAX, CapacityError, ContractError, InputError, check_finite, check_int, check_tuple
from .statevector import basis_string

QAOA = "QAOA"
DEPHASE = "DEPHASE"
ZENO = "ZENO"
REP_KINDS = (QAOA, DEPHASE, ZENO)

BRUTE_FORCE_MAX_VARS = 24


@dataclass(frozen=True)
class Constraint:
    """Linear inequality sum_i coeffs[i] * x_i <= bound."""

    coeffs: tuple[int, ...]
    bound: int
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", check_tuple(self.coeffs, "coeffs"))


def _check_int64(value: int, what: str) -> None:
    """InputError unless ``value`` fits int64, in which the exact enumeration
    (``subset_sums``) adds up objectives and constraint sums."""
    if value > INT64_MAX:
        raise InputError(f"{what} is {value}, more than 2^63 - 1")


@dataclass(frozen=True)
class ConstrainedBinaryProblem:
    """Maximize objective . x subject to a list of <= constraints."""

    n_vars: int
    objective: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    var_labels: tuple[str, ...] = ()

    def __post_init__(self):
        check_int(self.n_vars, "n_vars", 1)
        for name in ("objective", "constraints", "var_labels"):
            object.__setattr__(self, name, check_tuple(getattr(self, name), name))
        if len(self.objective) != self.n_vars:
            raise InputError("objective length must equal n_vars")
        for i, c in enumerate(self.objective):
            check_int(c, f"objective entry {i}")
        _check_int64(sum(abs(int(c)) for c in self.objective), "the sum of |objective entries|")
        for con in self.constraints:
            if not isinstance(con, Constraint):
                raise InputError(f"constraints must hold Constraint values, got {con!r}")
            if len(con.coeffs) != self.n_vars:
                raise InputError(f"constraint {con.label!r} has wrong coefficient count")
            for i, a in enumerate(con.coeffs):
                check_int(a, f"constraint {con.label!r} coefficient {i}")
            check_int(con.bound, f"constraint {con.label!r} bound")
            if con.bound < 0:
                raise InputError(f"constraint {con.label!r} has negative bound")
            # QAOA slack bits encode b - a.x >= 0, and the DEPHASE/ZENO cost
            # registers hold a.x, so both assume a.x >= 0.
            if any(c < 0 for c in con.coeffs):
                raise InputError(f"constraint {con.label!r} has a negative coefficient")
            _check_int64(con.bound, f"constraint {con.label!r} bound")
            _check_int64(sum(int(a) for a in con.coeffs), f"constraint {con.label!r} coefficient sum")
        if self.var_labels and len(self.var_labels) != self.n_vars:
            raise InputError("var_labels length must equal n_vars")

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class Multipliers:
    """Per-constraint Lagrange weights plus the dephasing strength."""

    lambdas: tuple[float, ...]
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "lambdas", check_tuple(self.lambdas, "lambdas"))
        for lam in self.lambdas:
            check_finite(lam, "lambda")
        check_finite(self.alpha, "alpha")
        if any(lam < 0 for lam in self.lambdas) or self.alpha < 0:
            raise InputError("multipliers must be non-negative")

    @staticmethod
    def uniform(n_constraints: int, lam: float, alpha: float | None = None) -> "Multipliers":
        check_int(n_constraints, "n_constraints", 0, INT64_MAX)
        alpha = lam if alpha is None else alpha
        check_finite(lam, "lambda")
        check_finite(alpha, "alpha")
        return Multipliers((float(lam),) * n_constraints, float(alpha))


def default_multipliers(problem: ConstrainedBinaryProblem, alpha: float | None = None) -> Multipliers:
    """Single scalar for every constraint, large enough for penalty dominance;
    ``alpha`` as in ``Multipliers.uniform``."""
    lam = float(sum(abs(c) for c in problem.objective) + 1)
    return Multipliers.uniform(problem.n_constraints, lam, alpha)


def cargo_instance(weights: list[int], n_positions: int, max_weight: int) -> ConstrainedBinaryProblem:
    """Cargo-loading instance: items with weights placed on positions.

    Variable x_{i,j} (cargo i at position j) has index j * len(weights) + i.
    Constraints, in order: one total-weight bound, one per-position occupancy
    bound, one per-cargo placement bound.
    """
    weights = check_tuple(weights, "weights")
    if not weights:
        raise InputError("weights must be non-empty")
    check_int(n_positions, "n_positions", 1)
    check_finite(max_weight, "max_weight")  # the weight constraint checks it is an integer
    if max_weight < 0:
        raise InputError("max_weight must be >= 0")
    n_cargo = len(weights)
    n_vars = n_cargo * n_positions
    objective = tuple(weights[i] for _ in range(n_positions) for i in range(n_cargo))
    labels = tuple(f"x_c{i}_p{j}" for j in range(n_positions) for i in range(n_cargo))
    constraints = [Constraint(objective, max_weight, "weight")]
    for j in range(n_positions):
        coeffs = tuple(1 if v // n_cargo == j else 0 for v in range(n_vars))
        constraints.append(Constraint(coeffs, 1, f"position_{j}"))
    for i in range(n_cargo):
        coeffs = tuple(1 if v % n_cargo == i else 0 for v in range(n_vars))
        constraints.append(Constraint(coeffs, 1, f"cargo_{i}"))
    return ConstrainedBinaryProblem(n_vars, objective, tuple(constraints), labels)


def slack_width(bound: int) -> int:
    """Number of slack bits for an inequality with the given bound: exactly enough for 0..bound."""
    return int(bound).bit_length()


def can_fail(coeffs, bound: int) -> bool:
    """Whether some x violates a.x <= bound: as a >= 0, exactly when x = all ones does."""
    return sum(int(a) for a in coeffs) > bound


@dataclass
class Qubo:
    """Minimization cost x^T Q x + B . x + const over decision + slack bits."""

    n_bits: int
    Q: np.ndarray
    B: np.ndarray
    const_term: float
    slack_map: dict[int, tuple[int, ...]]


def qubo_values(qubo: Qubo) -> np.ndarray:
    """float64 QUBO cost of every basis index 0..2^n_bits - 1 (bit k = bit k of the index).

    Built by doubling, as ``subset_sums`` builds a.x: setting bit k over the
    table of the lower bits adds B[k] + Q[k,k] plus the couplings
    Q[j,k] + Q[k,j] of the lower bits j that are set, themselves a
    subset-sum table.  The peak is twice the 8 * 2^n_bits byte table: the top
    bit's couplings table takes half of that again, its doubling temporaries
    the other half.
    """
    Q, B = qubo.Q, qubo.B
    table = np.empty(1 << qubo.n_bits)
    table[0] = qubo.const_term
    for k in range(qubo.n_bits):
        half = 1 << k
        upper = table[half : 2 * half]
        np.add(table[:half], subset_sums(Q[:k, k] + Q[k, :k]), out=upper)
        upper += B[k] + Q[k, k]
    return table


def check_kinds(kinds) -> tuple[str, ...]:
    """The representation kinds as a tuple; InputError for any outside REP_KINDS."""
    kinds = check_tuple(kinds, "assignment")
    for kind in kinds:
        if kind not in REP_KINDS:
            raise InputError(f"unknown representation {kind!r}")
    return kinds


def compile_qubo(problem: ConstrainedBinaryProblem, assignment, mult: Multipliers) -> Qubo:
    """Negated objective plus squared penalties for QAOA-assigned constraints.

    Each QAOA constraint with bound b gets slack bits encoding
    delta = sum_k 2^k C_k so that lambda * (a . x + delta - b)^2 penalizes any
    violation; DEPHASE/ZENO constraints contribute nothing here.
    """
    assignment = check_kinds(assignment)
    if len(assignment) != problem.n_constraints:
        raise InputError("assignment length must equal the number of constraints")
    if len(mult.lambdas) != problem.n_constraints:
        raise InputError("multiplier count must equal the number of constraints")
    qaoa = [ci for ci, kind in enumerate(assignment) if kind == QAOA]
    n_bits = problem.n_vars + sum(slack_width(problem.constraints[ci].bound) for ci in qaoa)
    Q = np.zeros((n_bits, n_bits))
    B = np.zeros(n_bits)
    const = 0.0
    B[: problem.n_vars] = [-c for c in problem.objective]
    slack_map: dict[int, tuple[int, ...]] = {}
    next_bit = problem.n_vars
    for ci in qaoa:
        con, lam = problem.constraints[ci], mult.lambdas[ci]
        slack_map[ci] = bits = tuple(range(next_bit, next_bit + slack_width(con.bound)))
        next_bit += len(bits)
        coeffs = np.zeros(n_bits)
        coeffs[: problem.n_vars] = con.coeffs
        for k, bit in enumerate(bits):
            coeffs[bit] = 2**k
        Q += lam * np.outer(coeffs, coeffs)
        B += -2.0 * lam * con.bound * coeffs
        const += lam * con.bound**2
    return Qubo(n_bits, Q, B, const, slack_map)


@dataclass(frozen=True)
class IsingCoeffs:
    """Diagonal Hamiltonian over spin variables z_i = 2 x_i - 1."""

    zz: dict[tuple[int, int], float] = field(default_factory=dict)
    z: dict[int, float] = field(default_factory=dict)
    identity: float = 0.0

    def value(self, indices: np.ndarray, n_bits: int) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        out = np.full(idx.shape, self.identity)
        for (i, j), coeff in self.zz.items():
            si = 2.0 * ((idx >> i) & 1) - 1.0
            sj = 2.0 * ((idx >> j) & 1) - 1.0
            out += coeff * si * sj
        for i, coeff in self.z.items():
            out += coeff * (2.0 * ((idx >> i) & 1) - 1.0)
        return out


def qubo_to_ising(qubo: Qubo) -> IsingCoeffs:
    """Exact change of variables x_i = (1 + z_i) / 2 on the QUBO cost."""
    Q, B = qubo.Q, qubo.B
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ContractError("QUBO matrix must be symmetric")
    n = qubo.n_bits
    zz: dict[tuple[int, int], float] = {}
    z: dict[int, float] = {}
    identity = qubo.const_term + float(np.sum(np.diag(Q)) / 2.0 + np.sum(B) / 2.0)
    for i in range(n):
        for j in range(i + 1, n):
            coeff = (Q[i, j] + Q[j, i]) / 4.0
            if coeff != 0.0:
                zz[(i, j)] = coeff
            identity += (Q[i, j] + Q[j, i]) / 4.0
    for i in range(n):
        coeff = (float(np.sum(Q[i, :])) + B[i]) / 2.0
        if coeff != 0.0:
            z[i] = coeff
    return IsingCoeffs(zz, z, identity)


@dataclass(frozen=True)
class BruteForceResult:
    opt_value: int
    optimal_indices: frozenset[int]
    feasible_indices: frozenset[int]
    n_vars: int

    @property
    def optimal_set(self) -> frozenset[str]:
        return frozenset(basis_string(i, self.n_vars) for i in self.optimal_indices)


def subset_sums(coeffs) -> np.ndarray:
    """a.x for every assignment x of len(coeffs) variables (x_0 = bit 0), by doubling.

    int64 for integer coefficients, float64 for float ones.
    """
    sums = np.zeros(1, dtype=np.int64)
    for c in coeffs:
        sums = np.concatenate((sums, sums + c))
    return sums


@lru_cache(maxsize=64)
def constraint_excess(problem: ConstrainedBinaryProblem) -> np.ndarray:
    """Read-only (n_constraints, 2^n_vars) int64 max(0, a.x - b), the one enumeration of
    constraint sums: 8 * n_constraints * 2^n_vars bytes, 128 MiB per constraint at 24 vars."""
    if problem.n_vars > BRUTE_FORCE_MAX_VARS:
        raise CapacityError(f"enumeration capped at {BRUTE_FORCE_MAX_VARS} vars, got {problem.n_vars}")
    table = np.empty((problem.n_constraints, 1 << problem.n_vars), dtype=np.int64)
    for row, con in zip(table, problem.constraints):
        np.maximum(subset_sums(con.coeffs) - con.bound, 0, out=row)
    table.flags.writeable = False
    return table


def feasible_mask(problem: ConstrainedBinaryProblem, which) -> np.ndarray:
    """Boolean mask over the 2^n_vars decision states that satisfy the selected
    constraints (all True when none is); copies no ``constraint_excess`` row."""
    excess = constraint_excess(problem)
    mask = np.ones(excess.shape[1], dtype=bool)
    for ci in which:
        mask &= excess[ci] == 0
    return mask


def solution_masks(problem: ConstrainedBinaryProblem) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (feasible, optimal) masks over the 2^n_vars decision states."""
    feasible = feasible_mask(problem, range(problem.n_constraints))
    values = subset_sums(problem.objective)
    return feasible, feasible & (values == values[feasible].max())


def brute_force_solve(problem: ConstrainedBinaryProblem) -> BruteForceResult:
    """Exact enumeration of all 2^n assignments, the ground-truth oracle.

    Not cached: the result's frozensets take about 64 bytes per feasible
    state, against 8 for the cached ``constraint_excess`` table it reads.
    """
    feasible, optimal = (np.flatnonzero(mask).tolist() for mask in solution_masks(problem))
    opt_value = int(sum(c for v, c in enumerate(problem.objective) if optimal[0] >> v & 1))
    return BruteForceResult(opt_value, frozenset(optimal), frozenset(feasible), problem.n_vars)


def problem_to_json(problem: ConstrainedBinaryProblem) -> str:
    doc = {
        "objective": list(problem.objective),
        "constraints": [
            {"coeffs": list(c.coeffs), "bound": c.bound, "label": c.label}
            for c in problem.constraints
        ],
        "labels": list(problem.var_labels),
    }
    return json.dumps(doc, indent=2)


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; InputError for floats, booleans and the rest."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def problem_from_json(text: str) -> ConstrainedBinaryProblem:
    """Load ``problem_to_json``'s document; every number must be a JSON integer."""
    try:
        doc = json.loads(text)
        objective = tuple(_json_int(c, f"objective entry {i}") for i, c in enumerate(doc["objective"]))
        constraints = tuple(
            Constraint(
                tuple(_json_int(a, f"constraint {ci} coefficient {i}") for i, a in enumerate(c["coeffs"])),
                _json_int(c["bound"], f"constraint {ci} bound"),
                str(c.get("label", "")),
            )
            for ci, c in enumerate(doc["constraints"])
        )
        labels = tuple(str(s) for s in doc.get("labels", []))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc
    return ConstrainedBinaryProblem(len(objective), objective, constraints, labels)


def load_problem(path: str) -> ConstrainedBinaryProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_json(fh.read())


def save_problem(problem: ConstrainedBinaryProblem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(problem_to_json(problem))
