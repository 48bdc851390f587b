"""Reference kernel that tracks how fast the shared machine runs right now.

On the 2-core VM the benchmark was written on, the same code runs up to 1.7x
slower for minutes at a time while other tenants are busy (CPU time equals
wall time, so this is not descheduling). Medians inside a run cannot remove a
slowdown that lasts the whole run: ten runs of the ``curves`` workload read
rows_per_s between 2391 and 4033. The benchmark therefore times this kernel a
few times per pass, next to the operations, and reports operation times
scaled to the speed at which the kernel takes ``NOMINAL_S``. The kernel does
the kind of work the package does (4x4 complex numpy calls and a scalar
double loop) but shares no code with it, so a change to the package moves
the scaled times exactly as it moves the raw ones. The raw times are in the
details line of every run.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median kernel time on the machine the baseline was recorded on: Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, 2 vCPUs.
NOMINAL_S = 1.6e-3

_ITERATIONS = 25
_STATE = np.array([0.6, 0.3 + 0.2j, -0.4j, 0.5 - 0.1j])
_STATE = _STATE / np.linalg.norm(_STATE)


def kernel() -> float:
    """A fixed eigen-decomposition and kernel-sum loop; returns its sum."""
    projector = np.outer(_STATE, _STATE.conj())
    identity = np.eye(4) / 4.0
    total = 0.0
    for i in range(_ITERATIONS):
        p = 0.5 + 0.4 * math.sin(0.1 * i)
        values, vectors = np.linalg.eigh(p * projector + (1.0 - p) * identity)
        elements = vectors.conj().T @ (projector - identity) @ vectors
        for k in range(4):
            for m in range(4):
                total += abs(elements[k, m]) ** 2 * 2.0 / (values[k] + values[m])
    return total


def sample() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
