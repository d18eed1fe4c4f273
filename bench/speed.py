"""Machine-speed reference for calibrating wall times.

On a shared 2-core virtual machine the speed of one core drifted by up to
2x within minutes, and CPU time drifted with it, so raw wall times of two
runs of the same code were not comparable.  A fixed reference kernel, a
small imitation of orthoplex's own mix of Python loops and small numpy
calls, is timed after each op.  A calibrated time is the raw time scaled by
REF_MS / (reference time measured around it): the time the op would take
on a machine where the reference kernel takes REF_MS milliseconds.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

#: Nominal reference-kernel time: about its median on a quiet 2-core x86
#: virtual machine with Python 3.11, numpy 2.4 and OpenBLAS 0.3.
REF_MS = 1.5

_RNG = np.random.default_rng(0)
_M = _RNG.normal(size=(8, 8))
_M = _M @ _M.T
_V = _RNG.normal(size=(9, 8))


def reference_ms() -> float:
    """Wall time of one run of the reference kernel, in milliseconds.

    The kernel imitates orthoplex's hot loops: Python loops over vertex
    pairs with small vector products, small eigensolves, and face
    centroids built from index combinations.
    """
    start = time.perf_counter()
    acc = 0.0
    for i, j in combinations(range(9), 2):
        e = _V[i] - _V[j]
        acc += abs(float(e @ _V[0])) / (np.linalg.norm(e) * np.linalg.norm(_V[0]))
    for _ in range(30):
        vals, _vecs = np.linalg.eigh(_M)
        acc += float(vals[-1])
    acc += float(np.array([_V[list(c)].mean(axis=0) for c in combinations(range(9), 4)]).sum())
    return (time.perf_counter() - start) * 1e3
