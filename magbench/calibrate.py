"""A fixed slice of host work, timed next to every operation.

The shared host this benchmark was built on changes speed by up to a
factor of two over seconds, for all code at once (other tenants share
its cores, caches and memory bandwidth).  A slice mixes the three kinds
of work the workloads do: interpreted Python, small LAPACK calls and a
vectorized reduction.  It does not touch magtrace,
so no change to the program can change its time.  Dividing an
operation's time by the time of the slices around it, and multiplying by
REFERENCE_S, gives the operation's time at the host's reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one slice on the reference host (2 vCPUs, numpy 2.4,
# Python 3.11), measured over 30 runs of the three workloads.
REFERENCE_S = 0.0091
_SMALL = np.random.default_rng(0).normal(size=(6, 6))
_VECTOR = np.ones(1 << 16, dtype=complex)
_TABLE = np.ones((223, 223), dtype=complex)
_WEIGHTS = np.ones((112, 112), dtype=complex)
# Bound now, so a tracer that later wraps numpy.linalg does not see the slices.
_EIG = np.linalg.eig


def calibration_slice() -> float:
    """Run the slice; return its wall time in seconds."""
    began = time.perf_counter()
    total = 0.0
    for i in range(12000):
        total += i * 0.5
    for _ in range(100):
        _EIG(_SMALL)
    for _ in range(20):
        total += float(_VECTOR.real.sum())
    window = np.lib.stride_tricks.sliding_window_view(_TABLE[:112], 112, axis=1)
    total += float(np.einsum("jsk,jk->s", window, _WEIGHTS).real.sum())
    return time.perf_counter() - began
