"""The fixed reference computation that operation times are divided by.

Small dense SVDs and eigenvalues plus a Python loop: the same work on every
run, so the ratio of an operation's time to it cancels the drift of a shared
machine's speed. Run as a script it is the reference of a CLI job: a fresh
interpreter that imports numpy and runs the computation once, so that
process start and import costs drift with the job's.
"""

from __future__ import annotations

import time

import numpy as np

_SEED = 20140221
_MATRICES = [np.random.default_rng([_SEED, k]).standard_normal((12, 12)) for k in range(6)]
_REPEATS = 3


def reference_seconds() -> float:
    """Fastest of three runs of the block, so one preemption does not skew a ratio."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        for M in _MATRICES:
            np.linalg.svd(M)
            np.linalg.eigvals(M)
        acc = 0.0
        for k in range(4000):
            acc += (k % 7) * 0.5
        best = min(best, time.perf_counter() - start)
    return best


if __name__ == "__main__":
    reference_seconds()
