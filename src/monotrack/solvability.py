"""Necessary-and-sufficient dimension test for global monotonic tracking.

For every subset S of output indices the sum of the stabilisability
output-nulling subspace V*g with the per-output reachability subspaces R_j
must have dimension at least ``n - p + card(S)``. One test covers every case:
given the full per-output subspaces it is the frequency-free family, given
the subspaces at a mode tuple it is the frequency-dependent family, and when
V*g is larger than ``n - p`` it also finds the outputs that need an assigned
mode (the rest are tracked instantaneously).

The family is Rado's condition for an independent transversal of the R_j
taken modulo V*g (R. Rado 1942; J. Edmonds 1965, 1967): with one generic
pick r_j in each R_j, rank [V*g, r_1 ... r_p] is the least value over S of
dim(V*g + sum R_S) + p - card(S), so the family holds exactly when it is n,
and n minus it is the largest deficiency of a subset. The picks come from the fixed
``DEFAULT_SEED`` stream, so a verdict depends on the bases alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LambdaAtZero, NumericalInconsistency, UnstableLambda
from .numkernel import DEFAULT_POLICY, TolerancePolicy, _as_matrix, rank_of, subspace_sum_dim
from .seeding import DEFAULT_SEED, mixing_coefficients, rng_for
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


def _certificate(vg, bases, picks, rank: int, n: int, h: int, tol: TolerancePolicy) -> tuple:
    """The empty set and N, each if it fails on the full bases, from picks of rank ``rank`` below n.

    The subsets of largest deficiency n - rank are closed under intersection, and dropping a pick outside
    one of them lowers the rank, so N, the outputs whose drop leaves ``rank``, is the smallest of them.
    """
    p = len(bases)
    failures = [((), h, n - p)] if h < n - p else []
    tight = tuple(j for j in range(p) if subspace_sum_dim([vg, *picks[:j], *picks[j + 1 :]], tol) >= rank)
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
    :func:`validate_modes`) for the frequency-dependent one.

    The test draws one direction per output from the ``DEFAULT_SEED``
    transversal stream and passes when V*g and the draws span the state
    space: one rank test per draw, up to four draws (one when h + p < n). It
    takes no seed: the verdict and delta are functions of the bases. When
    h = dim V*g exceeds n - p, a greedy scan of at most p more rank tests
    finds delta, of cardinality ``n - h`` (empty, with no draw, when h = n).
    When every draw failed, p rank tests on the first draw's picks and one on
    the full bases give the certificate in ``failing_subsets``: at most two
    subsets, smallest first.

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
    n, p, h = sys.n, sys.p, rank_of(vg, tol)
    if h == n:
        # V*g spans the state space, so every output is tracked instantaneously.
        return SolvabilityVerdict(solvable=True, failing_subsets=(), h=h, delta=())
    for attempt in range(_DRAWS if h + p >= n else 1):
        picks = _picks(bases, DEFAULT_SEED, attempt)
        rank = subspace_sum_dim([vg, *picks], tol)
        if attempt == 0:
            first = picks, rank
        delta = _greedy_witness(vg, picks, n, h, tol) if rank == n else None
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
