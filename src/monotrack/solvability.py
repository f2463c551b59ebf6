"""Necessary-and-sufficient dimension test for global monotonic tracking.

For every subset S of output indices the sum of the stabilisability
output-nulling subspace V*g with the per-output reachability subspaces R_j
must have dimension at least ``n - p + card(S)``. One test covers every case:
given the full per-output subspaces it is the frequency-free family, given
the subspaces at a mode tuple it is the frequency-dependent family, and when
V*g is larger than ``n - p`` it also finds the outputs that need an assigned
mode (the rest are tracked instantaneously).

The family is Rado's condition for an independent transversal of the R_j taken modulo V*g (R. Rado 1942;
J. Edmonds 1965, 1967): with one generic pick r_j in each R_j, rank [V*g, r_1 ... r_p] is the least value
over S of dim(V*g + sum R_S) + p - card(S), so the family holds exactly when it is n, and n minus it is the
largest deficiency of a subset. The same stacked rank test ranks the prefixes [V*g, r_1 ... r_j], and an
output needs an assigned mode when its prefix raises the rank. The picks come from the fixed
``DEFAULT_SEED`` stream, so a verdict depends on the bases alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LambdaAtZero, NumericalInconsistency, UnstableLambda
from .numkernel import DEFAULT_POLICY, TolerancePolicy, _as_matrix, ranks_of, subspace_sum_dim
from .seeding import DEFAULT_SEED, mixing_coefficients, rng_for
from .subspaces import KernelSpan
from .sysmodel import InvariantZero, LtiSystem, TimeDomain, exclusion_violation

_DRAWS = 4


@dataclass(frozen=True)
class SolvabilityVerdict:
    """Outcome of one condition family.

    ``failing_subsets`` holds at most two (subset, achieved, required
    dimension) triples, smallest first: the empty set if h < n - p, and the
    smallest subset of largest deficiency; ``delta`` is the witness set of
    outputs that receive an assigned mode when h > n - p (all outputs at n - p).
    """

    solvable: bool
    failing_subsets: tuple
    h: int
    delta: tuple | None

    def to_json_dict(self) -> dict:
        return {
            "solvable": self.solvable,
            "failing_subsets": [
                {"outputs": list(s), "achieved": a, "required": r} for (s, a, r) in self.failing_subsets
            ],
            "h": self.h,
            "delta": list(self.delta) if self.delta is not None else None,
        }


def _picks(bases, seed: int, attempt: int) -> list:
    """One seeded direction r_j = R_j c_j per output, from the ``seed`` transversal stream."""
    rng = rng_for(seed, "transversal", attempt)
    return [B @ mixing_coefficients(rng, B.shape[1])[:, None] for B in bases]


def _transversal(vg, picks, n: int, h: int | None, tol: TolerancePolicy) -> tuple:
    """``(h, rank [V*g, picks], delta)`` of one draw from one :func:`ranks_of`; delta is None when the draw fails.

    The stack holds V*g alone when ``h`` is None, then the prefixes [V*g, r_1 ... r_j] (the full matrix alone when
    h <= n - p). Output j joins delta when its prefix rank exceeds h and every prefix rank before it; a delta
    short of n - h members fails the draw, as rank decisions need not be monotone.
    """
    p, full = len(picks), np.hstack([vg, *picks])
    prefixes = [full] if h is not None and h <= n - p else [full[:, : full.shape[1] - p + j] for j in range(1, p + 1)]
    h, *ranks = ranks_of([vg, *prefixes], tol) if h is None else [h, *ranks_of(prefixes, tol)]
    if ranks[-1] < n or h <= n - p:
        return h, ranks[-1], tuple(range(p)) if ranks[-1] == n and h == n - p else None
    delta = tuple(j for j, (grown, peak) in enumerate(zip(ranks, np.maximum.accumulate([h, *ranks]))) if grown > peak)
    return h, n, delta if len(delta) == n - h else None


def _certificate(vg, bases, picks, rank: int, n: int, h: int, tol: TolerancePolicy) -> tuple:
    """The empty set and N, each if it fails on the full bases, from picks of rank ``rank`` below n.

    The subsets of largest deficiency n - rank are closed under intersection, and dropping a pick outside
    one of them lowers the rank, so N, the outputs whose drop leaves ``rank``, is the smallest of them.
    The p drop-one matrices [V*g, picks without r_j] share one shape and take one :func:`ranks_of`.
    """
    p = len(bases)
    failures = [((), h, n - p)] if h < n - p else []
    drops = np.stack([np.hstack([vg, *picks[:j], *picks[j + 1 :]]) for j in range(p)])
    tight = tuple(j for j, dropped in enumerate(ranks_of(drops, tol)) if dropped >= rank)
    if tight:
        achieved = subspace_sum_dim([vg, *(bases[j] for j in tight)], tol)
        if achieved < n - p + len(tight):
            failures.append((tight, achieved, n - p + len(tight)))
    return tuple(failures)


def check_solvable(
    sys: LtiSystem, vstar_g_basis, rstar_j_bases, tol: TolerancePolicy = DEFAULT_POLICY
) -> SolvabilityVerdict:
    """Subset-dimension test on the given stabilisability and per-output bases.

    Pass the full per-output reachability subspaces for the frequency-free
    test, or the subspaces at a mode tuple (validated beforehand with
    :func:`validate_modes`) for the frequency-dependent one. h = dim V*g is
    read from a :class:`KernelSpan`, whose basis is orthonormal, and from the
    first draw's rank test for any other basis (an array, or a replay).

    The test draws one direction per output from the ``DEFAULT_SEED``
    transversal stream and passes when V*g and the draws span the state
    space. Each draw is one stacked rank test, whose prefix ranks also give
    delta, of cardinality ``n - h`` (empty, with no draw, when h = n); up to
    four draws (one when h + p < n). The verdict and delta are functions of the bases.
    When every draw failed, p rank tests on the first draw's picks, made as
    one stacked test, and one on the full bases give the certificate in
    ``failing_subsets``: at most two subsets, smallest first.

    Raises
    ------
    NumericalInconsistency
        If every draw fails while neither certificate subset violates the
        inequality, which only inconsistent rank decisions can cause.
    """
    vg = _as_matrix(vstar_g_basis)
    bases = [_as_matrix(b) for b in rstar_j_bases]
    if len(bases) != sys.p:
        raise ValueError(f"expected {sys.p} per-output bases, got {len(bases)}")
    n, p = sys.n, sys.p
    h = vstar_g_basis.dim if isinstance(vstar_g_basis, KernelSpan) else None
    for attempt in range(_DRAWS):
        if h == n:
            # V*g spans the state space, so every output is tracked instantaneously.
            return SolvabilityVerdict(solvable=True, failing_subsets=(), h=h, delta=())
        if attempt and h + p < n:
            break
        picks = _picks(bases, DEFAULT_SEED, attempt)
        h, rank, delta = _transversal(vg, picks, n, h, tol)
        first = (picks, rank) if attempt == 0 else first
        if delta is not None:
            return SolvabilityVerdict(solvable=True, failing_subsets=(), h=h, delta=delta)
    failures = _certificate(vg, bases, *first, n, h, tol)
    if not failures:
        raise NumericalInconsistency(
            f"transversal draws missed rank {n} but neither certificate subset violates the dimension condition"
        )
    return SolvabilityVerdict(solvable=False, failing_subsets=failures, h=h, delta=None)


def _validate_mode(sys: LtiSystem, lam: float, zeros: list[InvariantZero]) -> None:
    if not math.isfinite(lam):
        raise UnstableLambda(f"mode {lam} is not finite")
    if not sys.domain.is_stable(lam):
        raise UnstableLambda(f"mode {lam} is outside the stability region")
    if sys.domain is TimeDomain.DISCRETE and lam <= 0.0:
        raise UnstableLambda(f"discrete modes must lie in (0, 1), got {lam}")
    if exclusion_violation(lam, zeros):
        raise LambdaAtZero(f"mode {lam} coincides with an invariant zero")


def validate_modes(sys: LtiSystem, lambdas, zeros: list[InvariantZero]) -> tuple:
    """One stable mode per output, none on an invariant zero; returns the modes as floats.

    Raises
    ------
    UnstableLambda
        If a mode is not finite or lies outside the stability region
        (discrete modes must lie in (0, 1)).
    LambdaAtZero
        If a mode lies inside the exclusion radius of an invariant zero.
    """
    lambdas = tuple(float(l) for l in lambdas)
    if len(lambdas) != sys.p:
        raise ValueError(f"expected {sys.p} modes, got {len(lambdas)}")
    for lam in lambdas:
        _validate_mode(sys, lam, zeros)
    return lambdas
