"""Host-speed probes: fixed computations that share no code with ddiqkd.

On a shared host, the speed of one core drifts by tens of percent over
seconds to minutes. The benchmark times a probe before and after every
operation. It scales the operation's latency by the probe's reference time
over the probe's measured time, so a drift that slows both cancels. Each
workload uses the probe closest to its own kind of work: interpreted
float arithmetic, small numpy calls, or passes over large numpy arrays.
"""

from __future__ import annotations

import math
import time

import numpy as np


def python_floats():
    total = 0.0
    for i in range(1, 45_001):
        total += math.log(i) * math.exp(-i * 1e-4) / (1.0 + i)
    return total


def small_numpy():
    mat = np.arange(16, dtype=complex).reshape(4, 4)
    herm = mat + mat.conj().T
    vec = herm[0]
    for _ in range(1_100):
        np.linalg.eigvalsh(herm)
        np.outer(vec, vec.conj()).reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    return herm


def large_numpy():
    rng = np.random.default_rng(0)
    sent = rng.poisson(0.7, 400_000)
    kept = rng.binomial(sent, 0.5)
    return np.bincount(np.minimum(kept, 3), minlength=4)


# probe -> its time at the reference host speed, in seconds
REFERENCE_S = {
    python_floats: 0.020,
    small_numpy: 0.019,
    large_numpy: 0.037,
}


def time_probe(probe) -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start
