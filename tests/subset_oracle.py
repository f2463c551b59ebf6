"""The exhaustive subset enumeration that ``solvability`` once reported with, as an oracle for its certificate,
and the greedy scan it once found delta with, as an oracle for the witness set."""

import itertools

from monotrack.numkernel import TolerancePolicy, subspace_sum_dim

_MAX_REPORTED_FAILURES = 32


def _failing_subsets(vg, bases, n: int, h: int, tol: TolerancePolicy, cap=_MAX_REPORTED_FAILURES) -> tuple:
    """Subsets S violating dim(V*g + sum R_j) >= n - p + card(S), smallest first, capped at 32.

    Subsets of cardinality at most h - (n - p) satisfy the inequality
    trivially and are skipped. ``cap=None`` lists every failing subset.
    """
    p = len(bases)
    failures = []
    for size in range(max(0, h - (n - p) + 1), p + 1):
        for subset in itertools.combinations(range(p), size):
            achieved = subspace_sum_dim([vg] + [bases[j] for j in subset], tol)
            if achieved < n - p + size:
                failures.append((subset, achieved, n - p + size))
                if len(failures) == cap:
                    return tuple(failures)
    return tuple(failures)


def _greedy_witness(vg, picks, n: int, h: int, tol: TolerancePolicy):
    """The witness set delta of picks that complete V*g to rank n, or None if the scan falls short.

    Output j joins delta when r_j raises the rank, up to n: the greedy, lexicographically first basis.
    """
    if h == n - len(picks):
        return tuple(range(len(picks)))
    delta, chosen, rank = [], [vg], h
    for j, r in enumerate(picks):
        if rank == n:
            break
        grown = subspace_sum_dim([*chosen, r], tol)
        if grown > rank:
            delta.append(j)
            chosen.append(r)
            rank = grown
    return tuple(delta) if rank == n else None


def dimensions_consistent(vg, bases, tol: TolerancePolicy) -> bool:
    """Whether the rank decisions d(S) = dim(V*g + sum R_S) over all subsets are monotone and submodular.

    Submodularity is checked in its local form, d(S + i) + d(S + j) >= d(S + i + j) + d(S),
    which is equivalent to the global one. Only consistent decisions are the
    rank function of a matroid, which the certificate's argument assumes.
    """
    p = len(bases)
    dims = {
        mask: subspace_sum_dim([vg] + [bases[j] for j in range(p) if mask >> j & 1], tol) for mask in range(1 << p)
    }
    for mask, d in dims.items():
        outside = [1 << j for j in range(p) if not mask >> j & 1]
        if any(dims[mask | i] < d for i in outside):
            return False
        for i, j in itertools.combinations(outside, 2):
            if dims[mask | i] + dims[mask | j] < dims[mask | i | j] + d:
                return False
    return True
