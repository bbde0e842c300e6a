"""Machine-speed yardstick: a fixed numpy loop timed next to every sample.

On a shared 2-CPU host the speed of one core drifts by up to 2x over tens
of seconds (other tenants; hardware counters are not exposed), so raw
wall times of runs made minutes apart are not comparable.  Every sample
times this loop just before and just after its workload, in the same
process, and run.py reports each time multiplied by

    NOMINAL_S / (mean yardstick time of the sample),

i.e. the time the sample would have taken with the yardstick at its
nominal speed.  Raw times and the factor are kept in the result file.

The loop mimics the engine's pairwise-table work (outer products,
masked division, pair distances, a kernel and a reduction) at the
workload's agent count, because slow-downs hit dispatch-bound small
arrays and cache-resident large arrays differently.  It does not import
sphereflock, so no change to the program moves it.  Do not edit it:
that would change the meaning of every recorded time.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.03


def _loop(n: int):
    k = np.arange(3 * n, dtype=float).reshape(n, 3)
    a = np.sin(1.7 * k + 0.3)
    reps = 900 if n <= 64 else 7

    def run():
        for _ in range(reps):
            x0, x1, x2 = a[:, 0], a[:, 1], a[:, 2]
            c0 = np.multiply.outer(x1, x2) - np.multiply.outer(x2, x1)
            c1 = np.multiply.outer(x2, x0) - np.multiply.outer(x0, x2)
            nsq = c0 * c0 + c1 * c1
            w = np.where(nsq > 1e-3, c0 / np.where(nsq > 1e-3, nsq, 1.0), 0.0)
            d = a[:, None, :] - a[None, :, :]
            r = np.sqrt((d * d).sum(axis=-1))
            (np.exp(-r) * w).sum(axis=0)
    return run


def seconds(n: int) -> float:
    """Time of one pass of the yardstick loop sized for ``n`` agents."""
    run = _loop(n)
    start = time.perf_counter()
    run()
    return time.perf_counter() - start
