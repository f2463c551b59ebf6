"""The try loop that ``synthesize`` once ran, one candidate at a time, as an oracle for its two stacked batches.

Each try makes its own rank test of V, its own 2-D solve for F and its own
2-D ``eigvals`` of A + BF, then verifies the gain, until one passes.
"""

import numpy as np

from monotrack import synthesis
from monotrack.errors import RankDeficientAfterRetries, UnstableResult
from monotrack.numkernel import rank_of


def one_try_at_a_time(sys, spec, delta, candidates, tol):
    """Drop-in for ``synthesis._try_candidates``: the first passing ``(vg, V, W, F, closed_loop)``, or the last failure."""
    for vg, directions in candidates:
        V = np.column_stack([directions[j].v for j in delta] + ([vg.V] if vg.dim else []))
        W = np.column_stack([directions[j].w for j in delta] + ([vg.W] if vg.dim else []))
        failure = None
        if rank_of(V, tol) == sys.n:
            F = np.linalg.solve(V.T, W.T).T
            closed_loop = sys.A + sys.B @ F
            formed = (closed_loop, np.linalg.eigvals(closed_loop), sys.C + sys.D @ F)
            failure = synthesis._verify_gain(sys, spec, vg, directions, delta, V, W, F, formed)
            if failure is None:
                return vg, V, W, F, formed
    if failure is not None:
        raise UnstableResult(failure)
    raise RankDeficientAfterRetries("eigenvector matrix stayed singular after all retries")
