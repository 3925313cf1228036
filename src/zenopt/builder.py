"""Assembly of hybrid circuits: QAOA phase return plus per-constraint
dephasing and Zeno layers, block ordering, initial-state preparation,
execution, and complexity statistics.

Layer anatomy per repetition p: phase return with angle gamma_p over the
QAOA-compiled Ising terms; one block per DEPHASE/ZENO constraint in the
chosen ordering; a transverse mixer with angle beta_p.  Zeno blocks own the
mixing of decision qubits (Q sub-blocks of RX(beta_p/Q), each followed by a
flag projection), so the trailing global mixer covers decision qubits only
when no constraint is Zeno-assigned.  ``build_layout`` is the one reader of
``problem.can_fail``: it gives a DEPHASE or ZENO constraint a cost register
and flag only when some decision state violates it.  A constraint without a
register has no flag, so its DEPHASE block adds no gates and its Zeno
sub-blocks only mix.

These gate circuits are the reference and the source of circuit statistics;
searches run the same layers on the ancilla-free functional backend
(``functional.py``), which shares ``compiled_model``, ``block_order``,
``mixer_targets`` and ``initial_row``, the one 2^n_vars row both backends
broadcast over the slack values, with them.  The compiled model holds no 2^n
table, so building and counting a circuit takes memory polynomial in its
qubits; only a state or the functional backend's cost table is 2^n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import (
    CostRegisterLayout,
    build_comparator,
    build_cost_adder,
    build_uncompute,
    register_width,
)
from .errors import INT64_MAX, InputError, LayoutError, check_finite, check_int, check_tuple
from .problem import (
    DEPHASE,
    QAOA,
    ZENO,
    ConstrainedBinaryProblem,
    IsingCoeffs,
    Multipliers,
    Qubo,
    can_fail,
    check_kinds,
    compile_qubo,
    feasible_mask,
    qubo_to_ising,
)
from .statevector import (
    Gate,
    Projection,
    Statevector,
    apply_gates,
    gate_cphase,
    gate_phase,
    gate_rx,
    gate_rz,
    gate_rzz,
    marginal_probabilities,
    new_state,
    project_qubit,  # noqa: F401 - unused; the bench tracer wraps builder.project_qubit
)

NATURAL = "natural"
ZENO_FIRST = "zeno_first"
DEPHASE_FIRST = "dephase_first"
ORDERINGS = (NATURAL, ZENO_FIRST, DEPHASE_FIRST)


@dataclass(frozen=True)
class LayerParams:
    """Angles for P layers plus the Zeno measurement count Q."""

    gamma: tuple[float, ...]
    beta: tuple[float, ...]
    q_measurements: int = 1

    def __post_init__(self):
        for name in ("gamma", "beta"):
            object.__setattr__(self, name, check_tuple(getattr(self, name), name))
        if len(self.gamma) != len(self.beta) or not self.gamma:
            raise InputError("gamma and beta must have equal, positive length")
        for name, angles in (("gamma", self.gamma), ("beta", self.beta)):
            for angle in angles:
                check_finite(angle, name)
        check_int(self.q_measurements, "q_measurements", 1)

    @property
    def p_layers(self) -> int:
        return len(self.gamma)

    @staticmethod
    def initial(p_layers: int = 1, q_measurements: int = 1) -> "LayerParams":
        check_int(p_layers, "p_layers", 1, INT64_MAX)
        return LayerParams((0.1,) * p_layers, (0.1,) * p_layers, q_measurements)


@dataclass(frozen=True)
class CircuitLayout:
    """Qubit roles: decision vars, QAOA slack bits, per-constraint registers.

    ``registers`` holds exactly the DEPHASE and ZENO constraints that can fail
    (``can_fail``); "has a flag" means ``ci in registers``.  Registers of equal
    width are pooled: sequential blocks uncompute their ancillas, so
    constraints whose cost registers have the same width share physical
    qubits.
    """

    n_qubits: int
    decision: tuple[int, ...]
    slack: tuple[int, ...]
    registers: dict[int, CostRegisterLayout]

    @property
    def ancilla(self) -> tuple[int, ...]:
        qubits = (q for reg in self.registers.values() for q in (*reg.cost_qubits, reg.flag_qubit))
        return tuple(dict.fromkeys(qubits))  # first-seen order, pooled registers once


@dataclass
class HybridCircuit:
    """Ordered gate list with interleaved projection sites."""

    layout: CircuitLayout
    gates: list[Gate]
    projections: list[tuple[int, Projection]]  # (gates applied before, projection)
    n_parameters: int


@dataclass(frozen=True)
class CircuitStats:
    non_local_gates: int
    n_qubits: int
    n_clbits: int
    depth: int
    width: int
    size: int
    n_parameters: int
    n_unitary_factors: int


def parse_assignment(text: str) -> tuple[str, ...]:
    return check_kinds(part.strip().upper() for part in text.split(","))


def _constraint_support(coeffs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    vars_ = tuple(i for i, c in enumerate(coeffs) if c != 0)
    return vars_, tuple(int(coeffs[i]) for i in vars_)


def build_layout(problem: ConstrainedBinaryProblem, assignment, qubo_n_bits: int) -> CircuitLayout:
    """Allocate decision, slack, and pooled cost-register qubits; a register
    only for a DEPHASE or ZENO constraint that can fail."""
    decision = tuple(range(problem.n_vars))
    slack = tuple(range(problem.n_vars, qubo_n_bits))
    registers: dict[int, CostRegisterLayout] = {}
    pool: dict[int, tuple[tuple[int, ...], int]] = {}
    next_q = qubo_n_bits
    for ci, kind in enumerate(assignment):
        con = problem.constraints[ci]
        if kind == QAOA or not can_fail(con.coeffs, con.bound):
            continue
        support, weights = _constraint_support(con.coeffs)
        width = register_width(weights)
        if width not in pool:
            cost = tuple(range(next_q, next_q + width))
            flag = next_q + width
            next_q += width + 1
            pool[width] = (cost, flag)
        cost, flag = pool[width]
        registers[ci] = CostRegisterLayout(support, cost, flag, width)
    return CircuitLayout(next_q, decision, slack, registers)


def build_phase_return(ising: IsingCoeffs, gamma: float) -> list[Gate]:
    """Gate realization of the diagonal evolution e^{-i*gamma*H}.

    The identity term is a global phase and is omitted.  RZ angles carry a
    sign flip relative to the stored spin coefficients because the spin
    variable 2x-1 is the negated Z eigenvalue of the basis state.
    """
    gates = [gate_rz(i, -2.0 * gamma * coeff) for i, coeff in sorted(ising.z.items())]
    return gates + [gate_rzz(i, j, 2.0 * gamma * coeff) for (i, j), coeff in sorted(ising.zz.items())]


def _penalty_phase_gates(reg: CostRegisterLayout, bound: int, alpha: float, theta: float) -> list[Gate]:
    """Flag-controlled phases realizing e^{-i*theta*alpha*(cost-bound)} when flagged."""
    gates: list[Gate] = []
    for k, q in enumerate(reg.cost_qubits):
        gates.append(gate_cphase((reg.flag_qubit, q), -theta * alpha * float(1 << k)))
    gates.append(gate_phase(reg.flag_qubit, theta * alpha * float(bound)))
    return gates


def _flag_circuit(constraint_coeffs, bound: int, reg: CostRegisterLayout) -> list[Gate]:
    """Adder plus comparator flagging cost > bound, on the register ``build_layout``
    gave a constraint that can fail."""
    support, weights = _constraint_support(constraint_coeffs)
    if support != reg.decision_qubits:
        raise LayoutError("register layout does not match the constraint support")
    return build_cost_adder(weights, reg) + build_comparator(reg, bound)


def build_dephasing_layer(
    constraint_coeffs,
    bound: int,
    reg: CostRegisterLayout,
    alpha: float,
    theta: float,
) -> list[Gate]:
    """Adder, comparator, violation-weighted dephasing, and uncompute.

    Net effect is the diagonal phase e^{-i*theta*alpha*max(0, cost-bound)}
    with all ancillas restored.
    """
    forward = _flag_circuit(constraint_coeffs, bound, reg)
    penalty = _penalty_phase_gates(reg, bound, alpha, theta)
    return forward + penalty + build_uncompute(forward)


def build_zeno_layer(
    constraint_coeffs,
    bound: int,
    reg: CostRegisterLayout | None,
    beta: float,
    q_measurements: int,
    mixer_qubits,
) -> tuple[list[Gate], list[int]]:
    """Q sub-blocks of mixing followed by a flag projection each.

    Every sub-block mixes the decision qubits by RX(beta/Q), recomputes the
    violation flag, projects it onto 0, and uncomputes.  With ``reg`` None (the
    constraint cannot fail, so it has no register) a sub-block only mixes.
    Returns the gate list and the projection positions within it.
    """
    forward = [] if reg is None else _flag_circuit(constraint_coeffs, bound, reg)
    gates: list[Gate] = []
    positions: list[int] = []
    for _ in range(q_measurements):
        gates.extend(gate_rx(q, beta / q_measurements) for q in mixer_qubits)
        if reg is None:
            continue
        gates.extend(forward)
        positions.append(len(gates))
        gates.extend(build_uncompute(forward))
    return gates, positions


@dataclass(frozen=True)
class CompiledModel:
    """Compiled cost model shared by circuit building and evaluation."""

    qubo: Qubo
    ising: IsingCoeffs
    layout: CircuitLayout


@lru_cache(maxsize=128)
def compiled_model(problem: ConstrainedBinaryProblem, assignment, mult: Multipliers) -> CompiledModel:
    """Cached compilation: QUBO, Ising terms and layout, O(n_bits^2) memory at
    any size.  Its QUBO ``Q`` and ``B`` are read-only: every caller of the same
    model shares them."""
    qubo = compile_qubo(problem, assignment, mult)
    for array in (qubo.Q, qubo.B):
        array.flags.writeable = False
    return CompiledModel(qubo, qubo_to_ising(qubo), build_layout(problem, assignment, qubo.n_bits))


def block_order(assignment, ordering: str) -> list[int]:
    """Constraint indices of the DEPHASE and ZENO blocks in circuit order."""
    if ordering not in ORDERINGS:
        raise InputError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    dephase_idx = [ci for ci, k in enumerate(assignment) if k == DEPHASE]
    zeno_idx = [ci for ci, k in enumerate(assignment) if k == ZENO]
    if ordering == NATURAL:
        return sorted(dephase_idx + zeno_idx)
    if ordering == ZENO_FIRST:
        return zeno_idx + dephase_idx
    return dephase_idx + zeno_idx


def mixer_targets(assignment, layout: CircuitLayout) -> tuple[int, ...]:
    """Qubits of the trailing RX wall: Zeno blocks own the decision mixing."""
    return layout.slack if ZENO in assignment else layout.decision + layout.slack


def build_circuit(
    problem: ConstrainedBinaryProblem,
    assignment,
    mult: Multipliers,
    params: LayerParams,
    ordering: str = NATURAL,
) -> HybridCircuit:
    """Full hybrid circuit for a representation assignment."""
    assignment = check_kinds(assignment)
    model = compiled_model(problem, assignment, mult)
    blocks = block_order(assignment, ordering)
    ising, layout = model.ising, model.layout
    mixer = mixer_targets(assignment, layout)

    gates: list[Gate] = []
    projections: list[tuple[int, Projection]] = []
    for p in range(params.p_layers):
        gamma, beta = params.gamma[p], params.beta[p]
        gates.extend(build_phase_return(ising, gamma))
        for ci in blocks:
            con = problem.constraints[ci]
            reg = layout.registers.get(ci)
            if assignment[ci] == ZENO:
                zgates, zpos = build_zeno_layer(
                    con.coeffs, con.bound, reg, beta, params.q_measurements, layout.decision
                )
                offset = len(gates)
                gates.extend(zgates)
                projections.extend(
                    (offset + pos, Projection(reg.flag_qubit, 0)) for pos in zpos
                )
            elif reg is not None:  # a DEPHASE constraint without a register has nothing to dephase
                gates.extend(build_dephasing_layer(con.coeffs, con.bound, reg, mult.alpha, gamma))
        gates.extend(gate_rx(q, beta) for q in mixer)
    return HybridCircuit(layout, gates, projections, 2 * params.p_layers)


def initial_row(problem: ConstrainedBinaryProblem, assignment, n_rows: int) -> np.ndarray:
    """The complex 2^n_vars row each of ``n_rows`` slack values repeats in both
    backends' initial state: uniform over the decision states that satisfy
    every ZENO constraint, never empty, as x = 0 satisfies them (a, b >= 0)."""
    feasible = feasible_mask(problem, [ci for ci, kind in enumerate(assignment) if kind == ZENO])
    return np.where(feasible, 1.0 / np.sqrt(feasible.sum() * n_rows), 0j)


def prepare_initial_state(
    problem: ConstrainedBinaryProblem,
    assignment,
    layout: CircuitLayout,
) -> Statevector:
    """Uniform superposition post-selected on the Zeno-assigned constraints.

    Written directly, with no gate: ``build_layout`` puts the k decision and
    slack qubits on qubits 0..k-1 (any other layout raises LayoutError), so
    ``initial_row`` is broadcast into the first 2**k amplitudes of a state
    from ``new_state``, read as a (2**n_slack, 2**n_vars) block; ancillas
    stay clean.  This equals the Hadamard wall followed by each ZENO flag
    circuit computed, projected onto 0 and uncomputed.  The pre-run
    post-selection is state preparation, so survival_prob is 1 and then
    tracks only the circuit's own projections.
    """
    k = len(layout.decision) + len(layout.slack)
    if (*layout.decision, *layout.slack) != tuple(range(k)):
        raise LayoutError(
            f"decision and slack qubits must be 0..{k - 1}, got {layout.decision} and {layout.slack}"
        )
    state = new_state(layout.n_qubits)
    block = state.amplitudes[: 1 << k].reshape(1 << len(layout.slack), 1 << len(layout.decision))
    block[...] = initial_row(problem, assignment, block.shape[0])
    return state


def run_circuit(circuit: HybridCircuit, state: Statevector) -> Statevector:
    """Execute gates and projections in stream order on one working copy."""
    if state.n_qubits != circuit.layout.n_qubits:
        raise InputError(
            f"state has {state.n_qubits} qubits, circuit needs {circuit.layout.n_qubits}"
        )
    return apply_gates(state, circuit.gates, circuit.projections)


def ancilla_mass(state: Statevector, layout: CircuitLayout) -> float:
    """Probability mass on branches with any cost/flag qubit not in |0>."""
    return float(marginal_probabilities(state, layout.ancilla)[1:].sum())


def circuit_stats(circuit: HybridCircuit) -> CircuitStats:
    """Complexity metrics over the flat gate list."""
    n = circuit.layout.n_qubits
    depth_per_qubit = [0] * n
    non_local = 0
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for gate in circuit.gates:
        if len(gate.qubits) >= 2:
            non_local += 1
            root = find(gate.qubits[0])
            for q in gate.qubits[1:]:
                parent[find(q)] = root
        level = 1 + max(depth_per_qubit[q] for q in gate.qubits)
        for q in gate.qubits:
            depth_per_qubit[q] = level
    n_clbits = len(circuit.projections)
    return CircuitStats(
        non_local_gates=non_local,
        n_qubits=n,
        n_clbits=n_clbits,
        depth=max(depth_per_qubit) if circuit.gates else 0,
        width=n + n_clbits,
        size=len(circuit.gates),
        n_parameters=circuit.n_parameters,
        n_unitary_factors=len({find(q) for q in range(n)}),
    )


def circuit_to_json(circuit: HybridCircuit) -> str:
    """Stable JSON dump of the gate stream for golden tests."""
    gates = [
        {"kind": g.kind, "qubits": list(g.qubits), **({"angle": g.angle} if g.has_angle else {})}
        for g in circuit.gates
    ]
    doc = {
        "n_qubits": circuit.layout.n_qubits,
        "gates": gates,
        "projections": [
            {"position": pos, "qubit": proj.qubit, "outcome": proj.outcome}
            for pos, proj in circuit.projections
        ],
    }
    return json.dumps(doc, indent=2)
