"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public zenopt names at module boundaries from outside the
library: it rebinds a module attribute (for example
``zenopt.optimizer.run_circuit``, the binding the optimizer calls through)
to a wrapper that records one span per call.  A span is
``[name, start, end, parent, op]``: the parent is the index of the span
that was open when the call began, and ``op`` is the benchmark op it
belongs to.  Spans stay in memory and are written out when the run ends.

A patch point that no longer exists is listed as unmeasured instead of
failing the run; a span none of whose patch points exist reports its
metrics as ``None``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

AMPLITUDE_BYTES = 16  # complex128

GATE_KINDS = ("H", "X", "RX", "RZ", "RZZ", "CNOT", "CPHASE", "MCX", "DIAGONAL_ORACLE")


def _count_apply(tracer, state, gates, *args, **kwargs):
    state_bytes = AMPLITUDE_BYTES << state.n_qubits
    for gate in gates:
        tracer.counts["statevector.gates." + gate.kind] += 1
    tracer.counts["statevector.bytes_computed"] += state_bytes * len(gates)
    tracer.state_bytes_max = max(tracer.state_bytes_max, state_bytes)


def _count_project(tracer, state, *args, **kwargs):
    state_bytes = AMPLITUDE_BYTES << state.n_qubits
    tracer.counts["statevector.bytes_computed"] += state_bytes
    tracer.state_bytes_max = max(tracer.state_bytes_max, state_bytes)


def _count_empty(tracer, exc):
    if type(exc).__name__ == "EmptySubspaceError":
        tracer.counts["statevector.project.empty"] += 1


def _count_gates(tracer, circuit):
    tracer.counts["builder.build.gates"] += len(circuit.gates)


def _count_iters(tracer, trace):
    tracer.counts["optimizer.iters"] += len(trace.records)


def _count_row_error(tracer, row):
    if row.error:
        tracer.counts["harness.rows_failed"] += 1
        tracer.counts["harness.rows_failed." + row.error.split(":", 1)[0]] += 1


# span name -> (patch points as (module, attribute), on_call, on_result, on_error)
PATCH_POINTS = {
    "problem.compile": (
        [("builder", "compile_qubo"), ("builder", "qubo_to_ising"), ("builder", "qubo_values")],
        None, None, None,
    ),
    "builder.build": (
        [("optimizer", "build_circuit"), ("harness", "build_circuit"), ("builder", "build_circuit")],
        None, _count_gates, None,
    ),
    "builder.prep": (
        [("optimizer", "prepare_initial_state"), ("harness", "prepare_initial_state"),
         ("builder", "prepare_initial_state")],
        None, None, None,
    ),
    "builder.run": (
        [("optimizer", "run_circuit"), ("harness", "run_circuit"), ("builder", "run_circuit")],
        None, None, None,
    ),
    "builder.stats": ([("harness", "circuit_stats"), ("builder", "circuit_stats")], None, None, None),
    "statevector.apply": ([("builder", "apply_gates")], _count_apply, None, None),
    "statevector.project": ([("builder", "project_qubit")], _count_project, None, _count_empty),
    "statevector.marginal": (
        [("optimizer", "marginal_probabilities"), ("harness", "marginal_probabilities"),
         ("statevector", "marginal_probabilities")],
        None, None, None,
    ),
    "optimizer.optimize": ([("cli", "optimize"), ("harness", "optimize")], None, _count_iters, None),
    "harness.row": ([("harness", "run_assignment")], None, _count_row_error, None),
    "cli.solve": ([("cli", "main")], None, None, None),
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.state_bytes_max = 0
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._found: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_call, on_result, on_error):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            index = len(self.spans)
            record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, package) -> None:
        for name, (points, on_call, on_result, on_error) in PATCH_POINTS.items():
            for module_name, attr in points:
                module = getattr(package, module_name, None)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{package.__name__}.{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, on_call, on_result, on_error))
                self._found[name] += 1

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def measured(self, name: str) -> bool:
        return self._found[name] > 0

    def layer_metrics(self, compile_misses) -> dict[str, float | None]:
        """Per-layer metrics, keyed by the names BENCHMARK.json lists."""
        total = defaultdict(float)
        calls = Counter()
        self_s = defaultdict(float)
        child = self._child_time()
        evals = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == "builder.run" and self._under(i, "optimizer.optimize"):
                evals += 1

        def gate(span, value):
            return value if self.measured(span) else None

        iters = self.counts["optimizer.iters"]
        m = {
            "problem.compile.s": gate("problem.compile", total["problem.compile"]),
            "problem.compile.calls": gate("problem.compile", calls["problem.compile"]),
            "problem.compile.misses": compile_misses,
            "builder.build.s": gate("builder.build", total["builder.build"]),
            "builder.build.calls": gate("builder.build", calls["builder.build"]),
            "builder.build.gates": gate("builder.build", self.counts["builder.build.gates"]),
            "builder.prep.s": gate("builder.prep", total["builder.prep"]),
            "builder.prep.calls": gate("builder.prep", calls["builder.prep"]),
            "builder.run.s": gate("builder.run", total["builder.run"]),
            "builder.run.calls": gate("builder.run", calls["builder.run"]),
            "builder.stats.s": gate("builder.stats", total["builder.stats"]),
            "statevector.apply.s": gate("statevector.apply", total["statevector.apply"]),
            "statevector.apply.calls": gate("statevector.apply", calls["statevector.apply"]),
        }
        for kind in GATE_KINDS:
            key = "statevector.gates." + kind
            m[key] = gate("statevector.apply", self.counts[key])
        both = self.measured("statevector.apply") and self.measured("statevector.project")
        m.update({
            "statevector.bytes_computed": self.counts["statevector.bytes_computed"] if both else None,
            "statevector.project.s": gate("statevector.project", total["statevector.project"]),
            "statevector.project.calls": gate("statevector.project", calls["statevector.project"]),
            "statevector.project.empty": gate(
                "statevector.project", self.counts["statevector.project.empty"]
            ),
            "statevector.marginal.s": gate("statevector.marginal", total["statevector.marginal"]),
            "statevector.marginal.calls": gate("statevector.marginal", calls["statevector.marginal"]),
            "statevector.state_bytes_max": self.state_bytes_max if both else None,
        })
        has_opt = self.measured("optimizer.optimize")
        has_evals = has_opt and self.measured("builder.run")
        m.update({
            "optimizer.self_s": self_s["optimizer.optimize"] if has_opt else None,
            "optimizer.evals": evals if has_evals else None,
            "optimizer.iters": iters if has_opt else None,
            "optimizer.evals_per_iter": (evals / iters if iters else 0.0) if has_evals else None,
            "harness.row.s": gate("harness.row", total["harness.row"]),
            "harness.row.self_s": gate("harness.row", self_s["harness.row"]),
            "harness.rows_failed": gate("harness.row", self.counts["harness.rows_failed"]),
            "harness.rows_failed.EmptySubspaceError": gate(
                "harness.row", self.counts["harness.rows_failed.EmptySubspaceError"]
            ),
            "cli.solve.self_s": gate("cli.solve", self_s["cli.solve"]),
        })
        return m

    def _child_time(self) -> list[float]:
        """Per span, the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """One JSON object per span, with its self time, in start order."""
        child = self._child_time()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "self_s": end - start - child[i],
                }) + "\n")
