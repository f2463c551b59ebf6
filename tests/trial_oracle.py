"""The per-trial loop that ``genericity_trial`` once ran, one ``rank_of`` per trial, as an oracle for the stacked trial."""

import numpy as np

from monotrack.errors import RankDeficientAfterRetries
from monotrack.numkernel import DEFAULT_POLICY, rank_of
from monotrack.seeding import rng_for
from monotrack.subspaces import default_frequency_pool, discover_vstar_g, draw
from monotrack.synthesis import _random_direction, _witnesses
from monotrack.sysmodel import invariant_zeros


def loop_failing_seeds(sys, trials, seed, tol=DEFAULT_POLICY) -> tuple:
    """The failing trial seeds of a solvable plant: each trial draws its V and rank-tests it on its own."""
    zeros = invariant_zeros(sys, tol)
    pool = default_frequency_pool(sys, zeros, count=max(sys.n + 3, sys.p))
    vg_kernels = discover_vstar_g(sys, tol=tol, zeros=zeros)
    delta, pairs, factors = _witnesses(sys, vg_kernels, pool[: sys.p], tol)

    def fails(trial_seed: int) -> bool:
        try:
            vg = draw(vg_kernels, trial_seed)
        except RankDeficientAfterRetries:
            return True
        rng = rng_for(trial_seed, "trial-directions")
        cols = [_random_direction(sys, pairs[j], factors[pairs[j].mode].null_basis, rng).v for j in delta]
        return rank_of(np.column_stack(cols + [vg.V]), tol) != sys.n

    return tuple(s for s in (seed + 1000003 * (t + 1) for t in range(trials)) if fails(s))
