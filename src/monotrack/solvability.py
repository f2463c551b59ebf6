"""Necessary-and-sufficient dimension test for global monotonic tracking.

For every subset S of output indices the sum of the stabilisability
output-nulling subspace V*g with the per-output reachability subspaces R_j
must have dimension at least ``n - p + card(S)``. One test covers every case:
given the full per-output subspaces it is the frequency-free family, given
the subspaces at a mode tuple it is the frequency-dependent family, and when
V*g is larger than ``n - p`` it also finds the outputs that need an assigned
mode (the rest are tracked instantaneously).

The family is Rado's condition for an independent transversal of the R_j
taken modulo V*g (R. Rado 1942; J. Edmonds 1967), so it holds exactly when
one generic pick r_j in each R_j gives rank [V*g, r_1 ... r_p] = n. The test
draws the picks from the fixed ``DEFAULT_SEED`` stream, so a verdict depends
on the bases alone, and makes one rank test per draw; the subsets themselves
are enumerated only after every draw failed, to report which of them fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import LambdaAtZero, NumericalInconsistency, UnstableLambda
from .numkernel import DEFAULT_POLICY, TolerancePolicy, _as_matrix, rank_of, subspace_sum_dim
from .seeding import DEFAULT_SEED, mixing_coefficients, rng_for
from .sysmodel import InvariantZero, LtiSystem, TimeDomain, exclusion_violation

_DRAWS = 4
_MAX_REPORTED_FAILURES = 32


@dataclass(frozen=True)
class SolvabilityVerdict:
    """Outcome of one condition family.

    ``failing_subsets`` holds (subset, achieved dimension, required dimension)
    triples ordered smallest subset first and capped at 32 entries;
    ``delta`` is the witness set of outputs that receive an assigned mode in
    the generalized case (all outputs when dim V*g equals n - p).
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


def _transversal_witness(vg, bases, n: int, h: int, seed: int, attempt: int, tol: TolerancePolicy):
    """One seeded transversal draw; returns the witness set delta, or None if the draw misses rank n.

    The verdict is a single rank test on [V*g, r_1 ... r_p]. When h exceeds
    n - p, a greedy scan then adds output j to delta whenever r_j raises the
    rank, stopping at n: the greedy basis of the transversal matroid, which
    is its lexicographically first basis.
    """
    rng = rng_for(seed, "transversal", attempt)
    picks = [B @ mixing_coefficients(rng, B.shape[1])[:, None] for B in bases]
    if subspace_sum_dim([vg, *picks], tol) != n:
        return None
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


def _failing_subsets(vg, bases, n: int, h: int, tol: TolerancePolicy) -> tuple:
    """Subsets S violating dim(V*g + sum R_j) >= n - p + card(S), smallest first, capped at 32.

    Subsets of cardinality at most h - (n - p) satisfy the inequality
    trivially and are skipped.
    """
    p = len(bases)
    failures = []
    for size in range(max(0, h - (n - p) + 1), p + 1):
        for subset in itertools.combinations(range(p), size):
            achieved = subspace_sum_dim([vg] + [bases[j] for j in subset], tol)
            if achieved < n - p + size:
                failures.append((subset, achieved, n - p + size))
                if len(failures) == _MAX_REPORTED_FAILURES:
                    return tuple(failures)
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
    space: one rank test per draw, up to four draws. It takes no seed: the
    verdict and delta are functions of the bases, whoever asks. When
    h = dim V*g exceeds n - p, a greedy scan of at most p more rank tests
    after the passing draw finds the witness set delta of cardinality
    ``n - h``, the lexicographically first set of outputs whose draws
    complete V*g (empty, with no draw, when h = n). Only after every draw
    failed are the subsets enumerated, to fill ``failing_subsets``; no draw
    is made when h + p < n, since none can reach rank n.

    Raises
    ------
    NumericalInconsistency
        If every draw fails while no subset violates the inequality, which
        only inconsistent rank decisions can cause.
    """
    vg = _as_matrix(vstar_g_basis)
    bases = [_as_matrix(b) for b in rstar_j_bases]
    if len(bases) != sys.p:
        raise ValueError(f"expected {sys.p} per-output bases, got {len(bases)}")
    n, p, h = sys.n, sys.p, rank_of(vg, tol)
    if h == n:
        # V*g spans the state space, so every output is tracked instantaneously.
        return SolvabilityVerdict(solvable=True, failing_subsets=(), h=h, delta=())
    for attempt in range(_DRAWS if h + p >= n else 0):
        delta = _transversal_witness(vg, bases, n, h, DEFAULT_SEED, attempt, tol)
        if delta is not None:
            return SolvabilityVerdict(solvable=True, failing_subsets=(), h=h, delta=delta)
    failures = _failing_subsets(vg, bases, n, h, tol)
    if not failures:
        raise NumericalInconsistency(
            f"{_DRAWS} transversal draws missed rank {n} but no output subset violates the dimension condition"
        )
    return SolvabilityVerdict(solvable=False, failing_subsets=failures, h=h, delta=None)


def _validate_mode(sys: LtiSystem, lam: float, zeros: list[InvariantZero], tol: TolerancePolicy) -> None:
    if not sys.domain.is_stable(lam):
        raise UnstableLambda(f"mode {lam} is outside the stability region")
    if sys.domain is TimeDomain.DISCRETE and lam <= 0.0:
        raise UnstableLambda(f"discrete modes must lie in (0, 1), got {lam}")
    if exclusion_violation(lam, zeros, tol):
        raise LambdaAtZero(f"mode {lam} coincides with an invariant zero")


def validate_modes(
    sys: LtiSystem, lambdas, zeros: list[InvariantZero], tol: TolerancePolicy = DEFAULT_POLICY
) -> tuple:
    """One stable mode per output, none on an invariant zero; returns the modes as floats.

    Raises
    ------
    UnstableLambda
        If a mode lies outside the stability region (discrete modes must lie
        in (0, 1)).
    LambdaAtZero
        If a mode lies inside the exclusion radius of an invariant zero.
    """
    lambdas = tuple(float(l) for l in lambdas)
    if len(lambdas) != sys.p:
        raise ValueError(f"expected {sys.p} modes, got {len(lambdas)}")
    for lam in lambdas:
        _validate_mode(sys, lam, zeros, tol)
    return lambdas
