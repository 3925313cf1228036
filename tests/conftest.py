import contextlib
import tracemalloc
import types

import pytest

from zenopt import statevector


@pytest.fixture
def traced_peak(monkeypatch):
    """Context manager factory measuring the peak bytes of its block.

    ``statevector`` puts amplitudes in anonymous mappings, which tracemalloc
    does not see, so the block's ``peak`` is tracemalloc's peak plus every
    byte mapped for amplitudes in the block, as if all mappings were alive at
    that peak.
    """
    mapped = []
    mapped_zeros = statevector._mapped_zeros

    def counted(n_qubits):
        mapped.append(16 << n_qubits)
        return mapped_zeros(n_qubits)

    monkeypatch.setattr(statevector, "_mapped_zeros", counted)

    @contextlib.contextmanager
    def measure():
        result = types.SimpleNamespace(peak=None)
        mapped.clear()
        tracemalloc.start()
        try:
            yield result
            result.peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
        finally:
            tracemalloc.stop()

    return measure
