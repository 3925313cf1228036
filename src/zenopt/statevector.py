"""Exact statevector simulation with projective post-selection.

Qubit 0 is the least significant bit of a basis index; basis strings are
printed most-significant qubit first.  All operations are pure: they return
new ``Statevector`` values and never mutate their arguments.

A ``Gate`` checks its kind, its arity and that its qubits are distinct
when it is built, from one table that gives each kind its fewest and most
qubits and whether it takes an angle; a ``Projection`` checks its outcome.
The kernels check only that the qubits are in range.

Kernels keep no caches.  A gate on two or more qubits acts on a strided view
of the amplitudes read as one axis per qubit (qubit q is axis n-1-q), with
the qubits it conditions on pinned to a bit; single-qubit gates, projections
and ``rx_wall`` (RX on a list of qubits, also the functional backend's
walls) act on the equivalent pair view, the ``(-1, 2, 2**q)`` reshape.
``apply_gates`` runs a gate list and its post-selection sites on one working
copy of the amplitudes.  Between sites it splits the gates into greedy runs
by one rule.  A run grows while all its gates are diagonal (RZ, RZZ,
CPHASE), at any width; or while the qubits it touches span at most 4, from
its lowest qubit lo to its highest hi; or while it holds a gate on two or
more qubits and spans at most 6.  A diagonal run of two or more gates builds
one phase table over the qubits it touches, by doubling: each gate acts only
on the entries up to its highest qubit, and copies extend the table one
qubit at a time.  The table is multiplied into the state in one broadcast.
A lone diagonal gate, and a lone gate spanning more than 4 qubits, use the
per-gate kernel.  Every other run builds one matrix of at most 64 x 64 over
qubits lo..hi, applied in place by matmuls over slices of the state.

``apply_gates`` keeps one invariant on its working copy: every amplitude
from index 2**live on is exactly 0.  A run or projection whose highest
qubit is hi acts on the prefix ``amps[:2**m]`` as an m-qubit state, m =
max(live, hi + 1): exact, as a run on qubits below m maps each all-zero
block of 2**m amplitudes above it to zero, and a span reads only its
matrix rows below 2**live.  After a run or projection that reaches qubit
live - 1, ``live`` steps down from m while the top half of the prefix is
all zero (``.any()``: -0.0 is zero, no threshold).  The prefix is of the
working copy, so all operations stay pure.

Capacity: a state holds 2**n complex128 amplitudes, 16 * 2**n bytes, which
is 1 GiB at ``MAX_QUBITS`` = 26.  ``new_state`` and ``apply_gates``' working
copy put their amplitudes in a private anonymous mapping: a page takes
memory only once it is written, and the mapping is returned to the system
as soon as its last view dies.  The working copy, which writes every page,
maps them all up front (MAP_POPULATE) instead of faulting them in one at a
time, and is still mapped and populated in full when runs act on a prefix;
``new_state`` stays lazy.  So a state prepared on 2**k amplitudes
holds about 16 * 2**k bytes, and one gate evaluation (prepare, run,
``marginal_probabilities``, ``Statevector.norm_error``) holds the caller's
state plus one mapped working copy.  Beyond those it allocates at most one
phase table of a diagonal run (never more entries than the state); one
slice from ``_slices``, the owner of the 256 KiB bound on every pass over
the state (spans, projection sums, live-prefix scans and marginals); the
256 KiB of buffers numpy's ufunc loop takes for a product over a strided
view with a short contiguous axis; and the swap buffer of a CNOT or MCX
spanning more than 4 qubits, at most a quarter of the state.  ``rx_wall``
holds two half-array temporaries per qubit; ``Statevector.probabilities``,
``sample`` and ``expectation_diagonal`` allocate arrays of state size.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import INT64_MAX, CapacityError, EmptySubspaceError, ShapeError, check_int

MAX_QUBITS = 26
# After projections of total survival s, amplitudes reproduce only to about 1e-17/sqrt(s).
ANNIHILATION_PROB = 1e-12  # a projection keeping at most this raises EmptySubspaceError

# Gate kinds. CPHASE accepts any number of qubits >= 1: with a single qubit it
# is the phase gate diag(1, e^{i*phi}); with more it phases the all-ones branch.
H = "H"
X = "X"
RX = "RX"
RZ = "RZ"
RZZ = "RZZ"
CNOT = "CNOT"
CPHASE = "CPHASE"
MCX = "MCX"

# Gate kind -> (fewest qubits, most qubits or None for any, takes an angle).
_GATE_RULES = {
    H: (1, 1, False), X: (1, 1, False), RX: (1, 1, True), RZ: (1, 1, True),
    RZZ: (2, 2, True), CNOT: (2, 2, False), CPHASE: (1, None, True), MCX: (2, None, False),
}

# The gate kinds a diagonal run may hold; the widest span, in qubits, of a
# fused run of single-qubit gates (16 x 16: such a run is a Kronecker
# product, a 64 x 64 pass costs more than two 16 x 16 ones, and 32 x 32
# mixer walls measured no faster overall); the widest span of a fused run
# that holds a gate on two or more qubits (64 x 64: such a run does not
# factor, so each qubit it takes in saves whole passes over the state);
# the most amplitudes one of ``_slices``' slices holds, which bounds the
# temporaries of a pass over the state (256 KiB); and the highest lo whose
# tiles a span transposes into one matmul (rows of at most 16 amplitudes).
_DIAGONAL = frozenset({RZ, RZZ, CPHASE})
_SPAN_QUBITS = 4
_ENTANGLING_SPAN_QUBITS = 6
_SPAN_CHUNK = 1 << 14
_NARROW_LO = 4

_SQRT1_2 = 1.0 / np.sqrt(2.0)


def _bits_view(amps: np.ndarray, n_qubits: int, fixed: dict[int, int]) -> np.ndarray:
    """Strided view of ``amps`` with each qubit in ``fixed`` pinned to its bit.

    The amplitudes are read as one axis per qubit, qubit q on axis n-1-q, and
    the free qubits keep their axes.  The trailing Ellipsis keeps the result a
    writable 0-d view when every qubit is pinned.
    """
    idx: list = [slice(None)] * n_qubits
    for q, bit in fixed.items():
        idx[n_qubits - 1 - q] = bit
    return amps.reshape((2,) * n_qubits)[(*idx, ...)]


@dataclass(frozen=True)
class Gate:
    """A single circuit operation over explicit qubit indices.

    For CNOT and MCX the last qubit is the target and the rest are controls.
    ``angle`` is in radians and only meaningful for parameterized kinds.
    Conventions fixed project-wide: RZ = diag(e^{-i a/2}, e^{+i a/2}),
    RZZ = e^{-i a/2 Z(x)Z}, RX = e^{-i a/2 X}, CPHASE phases the all-ones
    branch by e^{i a}.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in _GATE_RULES:
            raise ShapeError(f"unknown gate kind {self.kind!r}")
        fewest, most, _ = _GATE_RULES[self.kind]
        if not fewest <= len(self.qubits) <= (most or len(self.qubits)):
            arity = f"exactly {fewest}" if most else f"at least {fewest}"
            raise ShapeError(f"{self.kind} acts on {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ShapeError(f"duplicate qubit in {self.kind} gate: {self.qubits}")

    @property
    def has_angle(self) -> bool:
        return _GATE_RULES[self.kind][2]

    def inverse(self) -> "Gate":
        """Gate with the inverse action (self-inverse or negated angle)."""
        return Gate(self.kind, self.qubits, -self.angle) if self.has_angle else self


def gate_h(q: int) -> Gate:
    return Gate(H, (q,))


def gate_x(q: int) -> Gate:
    return Gate(X, (q,))


def gate_rx(q: int, angle: float) -> Gate:
    return Gate(RX, (q,), angle)


def gate_rz(q: int, angle: float) -> Gate:
    return Gate(RZ, (q,), angle)


def gate_rzz(q1: int, q2: int, angle: float) -> Gate:
    return Gate(RZZ, (q1, q2), angle)


def gate_cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (control, target))


def gate_cphase(qubits: Sequence[int], angle: float) -> Gate:
    return Gate(CPHASE, tuple(qubits), angle)


def gate_phase(q: int, angle: float) -> Gate:
    """Single-qubit phase diag(1, e^{i*angle}) as a one-qubit CPHASE."""
    return Gate(CPHASE, (q,), angle)


def gate_mcx(controls: Sequence[int], target: int) -> Gate:
    if len(controls) == 1:
        return gate_cnot(controls[0], target)
    return Gate(MCX, (*controls, target))


@dataclass(frozen=True)
class Projection:
    """Mid-circuit projective measurement post-selected on ``outcome``."""

    qubit: int
    outcome: int = 0

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise ShapeError(f"outcome must be 0 or 1, got {self.outcome}")


@dataclass(frozen=True)
class Statevector:
    """2^n complex amplitudes plus cumulative post-selection probability."""

    n_qubits: int
    amplitudes: np.ndarray
    survival_prob: float = 1.0

    def __post_init__(self):
        shape = np.shape(self.amplitudes)
        if shape != (2**self.n_qubits,):
            raise ShapeError(f"a {self.n_qubits}-qubit state needs shape ({2**self.n_qubits},), got {shape}")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_error(self) -> float:
        return abs(float(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0)


def _mapped_zeros(n_qubits: int, populate: bool = False) -> np.ndarray:
    """2**n zero amplitudes in a private anonymous mapping (see Capacity).

    ``populate`` maps every page up front (MAP_POPULATE, Linux only), for a
    copy that writes them all: far cheaper than faulting them in one by one.
    """
    flags = mmap.MAP_PRIVATE | (getattr(mmap, "MAP_POPULATE", 0) if populate else 0)
    return np.frombuffer(mmap.mmap(-1, 16 << n_qubits, flags=flags), np.complex128)


def new_state(n_qubits: int) -> Statevector:
    """All-zeros computational basis state |0...0> on ``n_qubits`` qubits.

    The state takes 16 * 2**n bytes; see the module docstring for the copies
    a gate run holds on top of it.
    """
    check_int(n_qubits, "n_qubits")
    if not 1 <= n_qubits <= MAX_QUBITS:
        size = f" ({16 * 2.0 ** (n_qubits - 30):g} GiB per state)" if 0 < n_qubits < 1024 else ""
        raise CapacityError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}{size}: a state takes "
            f"16*2^n bytes, {(16 << MAX_QUBITS) >> 30} GiB at {MAX_QUBITS} qubits, and a "
            "gate circuit holds the state and one working copy"
        )
    amps = _mapped_zeros(n_qubits)
    amps[0] = 1.0
    return Statevector(n_qubits, amps, 1.0)


def basis_string(index: int, n_qubits: int) -> str:
    """Basis index as a bit string, qubit 0 rightmost."""
    return format(index, f"0{n_qubits}b")


def rx_wall(amps: np.ndarray, qubits: Sequence[int], angle: float) -> None:
    """RX(``angle``) in place on ``qubits`` of the flat ``amps``, on their pair views,
    cos and sin taken once; ShapeError, before any change, for a qubit out of range."""
    n = amps.size.bit_length() - 1
    if not all(0 <= q < n for q in qubits):
        raise ShapeError(f"RX qubits {tuple(qubits)} out of range for {n}-qubit state")
    c, s = np.cos(angle / 2.0), -1j * np.sin(angle / 2.0)
    for q in qubits:
        pair = amps.reshape(-1, 2, 1 << q)
        a0, a1 = pair[:, 0], pair[:, 1]
        t = a0.copy()
        a0 *= c
        a0 += s * a1
        a1 *= c
        a1 += s * t


def _apply_inplace(amps: np.ndarray, gate: Gate, n_qubits: int) -> None:
    """Apply ``gate`` to ``amps`` in place.  Callers own the array."""
    kind = gate.kind
    if kind == RX:
        rx_wall(amps, gate.qubits, gate.angle)
    elif kind in (H, X, RZ):
        pair = amps.reshape(-1, 2, 1 << gate.qubits[0])
        if kind == X:
            pair[...] = pair[:, ::-1]  # numpy copies an overlapping source first
        elif kind == H:
            t = pair[:, ::-1].copy()
            np.negative(pair[:, 1], out=pair[:, 1])
            pair += t
            pair *= _SQRT1_2
        else:  # RZ: one broadcast of both phases rounds differently on 2 amplitudes
            pair[:, 0] *= np.exp(-0.5j * gate.angle)
            pair[:, 1] *= np.exp(+0.5j * gate.angle)
    elif kind == RZZ:
        a, b = gate.qubits
        # Phase the whole state by e^{-i a/2}, then the odd-parity branch by
        # e^{+i a} on top.
        amps *= np.exp(-0.5j * gate.angle)
        for bit in (0, 1):
            _bits_view(amps, n_qubits, {a: bit, b: 1 - bit})[...] *= np.exp(1j * gate.angle)
    elif kind == CPHASE:
        ones = dict.fromkeys(gate.qubits, 1)
        _bits_view(amps, n_qubits, ones)[...] *= np.exp(1j * gate.angle)
    elif kind in (CNOT, MCX):
        *controls, target = gate.qubits
        fixed = dict.fromkeys(controls, 1)
        lo = _bits_view(amps, n_qubits, {**fixed, target: 0})
        hi = _bits_view(amps, n_qubits, {**fixed, target: 1})
        t = lo.copy()
        lo[...] = hi
        hi[...] = t


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Unitary gate application; preserves the norm to 1e-10."""
    return apply_gates(state, [gate])


def _relabel(gate: Gate, label: dict[int, int]) -> Gate:
    return Gate(gate.kind, tuple(label[q] for q in gate.qubits), gate.angle)


def _apply_diagonal_run(amps: np.ndarray, run: list[Gate], n_qubits: int) -> None:
    """Multiply in the phase table of a run of diagonal gates, in place.

    The table covers the k qubits the run touches, relabeled to 0..k-1, and
    is built by doubling: from ``table[0] = 1``, level b copies
    ``table[:2**b]`` into ``table[2**b:2**(b+1)]`` and then applies the gates
    whose highest relabeled qubit is b to ``table[:2**(b+1)]``, read as a
    (b+1)-qubit state.  Diagonal gates commute, so this is the table of the
    whole run, and each gate touches 2**(top+1) entries instead of 2**k.  The
    table is the run's only allocation.  It then scales the
    one-axis-per-qubit view of the state in one broadcast.
    """
    qubits = sorted({q for gate in run for q in gate.qubits})
    label = {q: i for i, q in enumerate(qubits)}
    by_top: list[list[Gate]] = [[] for _ in qubits]
    for gate in run:
        relabeled = _relabel(gate, label)
        by_top[max(relabeled.qubits)].append(relabeled)
    table = np.empty(1 << len(qubits), dtype=np.complex128)
    table[0] = 1.0
    for b, gates in enumerate(by_top):
        size = 1 << b
        table[size : 2 * size] = table[:size]
        for gate in gates:
            _apply_inplace(table[: 2 * size], gate, b + 1)
    shape = [1] * n_qubits
    for q in qubits:
        shape[n_qubits - 1 - q] = 2
    amps.reshape((2,) * n_qubits)[...] *= table.reshape(shape)


def _runs(gates: Sequence[Gate], n_qubits: int):
    """Split ``gates`` into greedy runs, yielding (run, lo, hi, diagonal).

    A run takes the next gate while, with it, all its gates are diagonal, at
    any width; or its span hi - lo + 1 is at most ``_SPAN_QUBITS``; or it
    holds a gate on two or more qubits and spans at most
    ``_ENTANGLING_SPAN_QUBITS``.  So a run that is not diagonal is one gate
    or spans at most 6 qubits, and one of single-qubit gates spans at most 4.
    """
    run: list[Gate] = []
    for gate in gates:
        g_lo, g_hi = min(gate.qubits), max(gate.qubits)
        if g_lo < 0 or g_hi >= n_qubits:
            q = g_lo if g_lo < 0 else g_hi
            raise ShapeError(f"{gate.kind} gate qubit {q} out of range for {n_qubits}-qubit state")
        g_diagonal, g_entangling = gate.kind in _DIAGONAL, len(gate.qubits) > 1
        if run:
            new_lo, new_hi = min(lo, g_lo), max(hi, g_hi)
            new_diagonal, new_entangling = diagonal and g_diagonal, entangling or g_entangling
            width = new_hi - new_lo + 1
            if (
                new_diagonal
                or width <= _SPAN_QUBITS
                or (new_entangling and width <= _ENTANGLING_SPAN_QUBITS)
            ):
                run.append(gate)
                lo, hi, diagonal, entangling = new_lo, new_hi, new_diagonal, new_entangling
                continue
            yield run, lo, hi, diagonal
        run, lo, hi, diagonal, entangling = [gate], g_lo, g_hi, g_diagonal, g_entangling
    if run:
        yield run, lo, hi, diagonal


def _slices(view: np.ndarray):
    """Sub-views of an ``(a, d, c)`` view, in order, of at most ``_SPAN_CHUNK``
    amplitudes each: runs of whole ``(d, c)`` tiles, or, when one tile is
    wider than that, ``_SPAN_CHUNK // d`` of its columns at a time."""
    a, d, c = view.shape
    tiles = _SPAN_CHUNK // (d * c)
    if tiles:
        for i in range(0, a, tiles):
            yield view[i : i + tiles]
        return
    cols = _SPAN_CHUNK // d
    for i in range(a):
        for j in range(0, c, cols):
            yield view[i : i + 1, :, j : j + cols]


def _apply_span(amps: np.ndarray, run: list[Gate], lo: int, hi: int, live: int) -> None:
    """Apply a run within qubits lo..hi in place as one d x d matrix.

    d = 2**(hi-lo+1) <= 64.  The matrix acts on axis 1 of the
    ``(2**(n-hi-1), d, 2**lo)`` view, by one matmul per ``_slices`` slice.
    Each matmul reads only the k = min(d, 2**max(0, live - lo)) rows below
    2**live.
    """
    width = hi - lo + 1
    d = 1 << width
    k = min(d, 1 << max(0, live - lo))
    # Read as a 2*width-qubit state, the identity's row j holds e_j on the low
    # qubits; the gates turn it into U e_j, so the array is U^T.
    u_t = np.eye(d, dtype=np.complex128)
    for gate in run:
        _apply_inplace(u_t.reshape(-1), _relabel(gate, {q: q - lo for q in gate.qubits}), 2 * width)
    for part in _slices(amps.reshape(-1, d, 1 << lo)):
        if lo <= _NARROW_LO:
            # Tiles of rows <= 16 wide: transpose them into one (-1, d) block.
            out = part[:, :k].transpose(0, 2, 1).reshape(-1, k) @ u_t[:k]
            part[...] = out.reshape(len(part), -1, d).transpose(0, 2, 1)
        else:
            part[...] = u_t.T[:, :k] @ part[:, :k]


def _live(amps: np.ndarray, top: int) -> int:
    """Step ``top`` down while the top half of ``amps[:2**top]`` is all zero,
    read in ``_slices`` up to the first nonzero one."""
    while top:
        half = amps[1 << (top - 1) : 1 << top]
        if any(part.any() for part in _slices(half.reshape(-1, 1, 1))):
            return top
        top -= 1
    return top


def _apply_runs(amps: np.ndarray, gates: Sequence[Gate], n_qubits: int, live: int) -> int:
    """Apply ``gates`` to ``amps`` in place, run by run (see ``_runs``).

    Each branch applies a whole run, chosen by its shape: a diagonal run of
    two or more gates as a phase table; one gate that is diagonal or spans
    more than ``_SPAN_QUBITS`` by the per-gate kernel; any other run, which
    ``_runs`` keeps within ``_ENTANGLING_SPAN_QUBITS``, as one span.  Each
    acts on the prefix of the module docstring; returns the new ``live``.
    """
    for run, lo, hi, diagonal in _runs(gates, n_qubits):
        m = max(live, hi + 1)
        prefix = amps[: 1 << m]
        if diagonal and len(run) > 1:
            _apply_diagonal_run(prefix, run, m)
        elif len(run) == 1 and (diagonal or hi - lo >= _SPAN_QUBITS):
            _apply_inplace(prefix, run[0], m)
        else:
            _apply_span(prefix, run, lo, hi, live)
        live = _live(amps, m) if hi + 1 >= live else live
    return live


def _project(amps: np.ndarray, n_qubits: int, projection: Projection) -> float:
    """Post-select ``amps`` in place on ``projection``; returns the kept probability.

    ``amps`` may be the prefix of an ``n_qubits``-qubit state that holds its
    nonzero amplitudes; the range check is against ``n_qubits``.  The
    probability is summed over ``_slices``.  Raises
    EmptySubspaceError when it is at most ANNIHILATION_PROB, the sign that
    post-selection annihilated the state.
    """
    qubit, outcome = projection.qubit, projection.outcome
    if not 0 <= qubit < n_qubits:
        raise ShapeError(f"qubit {qubit} out of range")
    view = amps.reshape(-1, 2, 1 << qubit)
    kept = view[:, outcome : outcome + 1]
    prob = sum(float(np.vdot(part, part).real) for part in _slices(kept))
    if prob <= ANNIHILATION_PROB:
        raise EmptySubspaceError(
            f"projection of qubit {qubit} onto |{outcome}> has probability {prob:.3e}"
        )
    view[:, 1 - outcome, :] = 0.0
    kept /= np.sqrt(prob)
    return prob


def apply_gates(
    state: Statevector,
    gates: Sequence[Gate],
    projections: Sequence[tuple[int, Projection]] = (),
) -> Statevector:
    """Apply a gate sequence and its post-selection sites to one working copy.

    ``projections`` holds ``(position, Projection)`` pairs in stream order,
    as in ``HybridCircuit.projections``: each follows the first ``position``
    gates.  Between sites the gates go through the fused runs of the module
    docstring, each on the prefix of amplitudes that can be nonzero.  A
    projection renormalizes the kept half in place and multiplies its
    probability into ``survival_prob``; one keeping at most
    ANNIHILATION_PROB raises EmptySubspaceError.  Fused runs round
    differently from the gates folded one by one, by about 1e-15.
    """
    n = state.n_qubits
    amps = _mapped_zeros(n, populate=True)
    amps[...] = state.amplitudes
    survival = state.survival_prob
    live = _live(amps, n)
    done = 0
    for position, projection in projections:
        if not done <= position <= len(gates):
            raise ShapeError(
                f"projection position {position} is out of order or beyond {len(gates)} gates"
            )
        live = _apply_runs(amps, gates[done:position], n, live)
        m = max(live, projection.qubit + 1)
        survival *= _project(amps[: 1 << m], n, projection)
        live = _live(amps, m) if projection.qubit + 1 >= live else live
        done = position
    _apply_runs(amps, gates[done:], n, live)
    return Statevector(n, amps, survival)


def project_qubit(state: Statevector, qubit: int, outcome: int) -> Statevector:
    """Post-select ``qubit`` on ``outcome``, renormalize, track survival.

    This is ``apply_gates`` with one projection and no gates, so it raises
    EmptySubspaceError when the outcome probability is at most
    ANNIHILATION_PROB.
    """
    return apply_gates(state, (), [(0, Projection(qubit, outcome))])


def sample(state: Statevector, shots: int, seed: int) -> dict[str, int]:
    """Multinomial sampling of basis strings; deterministic given ``seed``."""
    check_int(shots, "shots", 1, INT64_MAX)
    check_int(seed, "seed", 0)
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    n = state.n_qubits
    return {basis_string(i, n): int(c) for i, c in enumerate(counts) if c > 0}


def expectation_diagonal(state: Statevector, value_fn: Callable) -> float:
    """Expectation sum_z |amp_z|^2 * value_fn(z) over basis indices.

    ``value_fn`` is called once on the int64 array of all basis indices and
    must return one value per index; any other shape raises ShapeError.
    """
    idx = np.arange(state.dim, dtype=np.int64)
    vals = np.asarray(value_fn(idx), dtype=np.float64)
    if vals.shape != idx.shape:
        raise ShapeError(f"value_fn returned shape {vals.shape}, expected {idx.shape}")
    return float(state.probabilities() @ vals)


def marginal_probabilities(state: Statevector, qubits: Sequence[int]) -> np.ndarray:
    """Probability of each joint outcome of ``qubits`` (qubits[0] = bit 0).

    Reduced over the ``_slices`` of the amplitudes, rows of 2**low, so no
    state-size temporary is made.  Each row is squared into one buffer and
    summed over the qubits below ``low`` that are not kept; the sum is added
    to the outputs that the row's bits on the kept qubits above it select.
    """
    qubits = list(qubits)
    n, k = state.n_qubits, len(qubits)
    if len(set(qubits)) != k or not all(0 <= q < n for q in qubits):
        raise ShapeError(f"marginal qubits {qubits} must be distinct and in [0, {n})")
    rows = list(_slices(state.amplitudes.reshape(-1, 1, 1)))
    low = len(rows[0]).bit_length() - 1
    # Read a row with qubit q on axis low-1-q and the output with bit j on
    # axis k-1-j; a row's sum keeps its low kept qubits, highest first.
    summed = tuple(low - 1 - q for q in range(low) if q not in qubits)
    kept_low = sorted((q for q in qubits if q < low), reverse=True)
    order = [kept_low.index(q) for q in reversed(qubits) if q < low]
    high = [(k - 1 - j, q - low) for j, q in enumerate(qubits) if q >= low]
    marginal = np.zeros(1 << k)
    out = marginal.reshape((2,) * k)
    buf = np.empty(rows[0].shape)
    for i, row in enumerate(rows):
        np.abs(row, out=buf)
        buf *= buf
        idx: list = [slice(None)] * k
        for axis, shift in high:
            idx[axis] = (i >> shift) & 1
        out[(*idx, ...)] += buf.reshape((2,) * low).sum(axis=summed).transpose(order)
    return marginal
