"""A fixed reference computation that gauges how fast the CPU runs right now.

On a few vCPUs of a shared host the speed of this process drifts: the same
pass of jobs took 5.3 s and 8.1 s four minutes apart on a 2-vCPU share of a
2.1 GHz Xeon.  A run cannot average out a slow stretch that lasts longer
than it does, so raw wall times of runs made minutes apart differ by more
than any useful bound.  The benchmark therefore times this computation right
before every job and reports times rescaled to a host on which it takes
``NOMINAL_S`` seconds:

    rescaled = measured * NOMINAL_S / reference time measured beside it

It mixes the three kinds of work the workloads do, in about equal shares of
time: interpreted Python (the Green sweep, the root finder's loops), small
dense LAPACK calls (the single-k SVDs of ``star-modesum``) and a determinant
over a stack of matrices too large for the caches (the scan grid of
``random-spectrum``).  It uses only the standard library and numpy, so no
change to qgraph changes its time.
"""

from __future__ import annotations

import time

import numpy as np

#: its time, in seconds, on an unloaded vCPU of a 2.1 GHz Xeon
NOMINAL_S = 0.06

_rng = np.random.default_rng(2007)
_SMALL = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_STACK = _rng.standard_normal((500, 32, 32)) + 1j * _rng.standard_normal((500, 32, 32))  # 8 MB


def _work() -> float:
    total = 0
    for i in range(160_000):
        total += i * i % 7
    for _ in range(1000):
        total += float(np.linalg.svd(_SMALL, compute_uv=False)[-1])
    for _ in range(2):  # det factors a fresh copy of the stack each time
        total += float(np.abs(np.linalg.det(_STACK)).sum())
    return total


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference computation."""
    w0, c0 = time.perf_counter(), time.process_time()
    _work()
    return time.perf_counter() - w0, time.process_time() - c0
