"""Necessary-and-sufficient dimension test for global monotonic tracking.

For every subset S of output indices the sum of the stabilisability
output-nulling subspace with the per-output reachability subspaces must have
dimension at least ``n - p + card(S)``. One test covers every case: given the
full per-output subspaces it is the frequency-free family, given the
subspaces at a mode tuple it is the frequency-dependent family, and when the
stabilisability subspace is larger than ``n - p`` it also finds the outputs
that need an assigned mode (the rest are tracked instantaneously).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import LambdaAtZero, NumericalInconsistency, UnstableLambda
from .numkernel import DEFAULT_POLICY, TolerancePolicy, _as_matrix, rank_of, subspace_sum_dim
from .seeding import DEFAULT_SEED, rng_for
from .sysmodel import InvariantZero, LtiSystem, TimeDomain, exclusion_violation, invariant_zeros

_MAX_OUTPUTS = 20
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


def _subset_family(indices, sizes, vg, bases, threshold_base: int, tol: TolerancePolicy):
    """Evaluate the dimension inequality over the subsets of ``indices`` with the given sizes.

    Returns (all_pass, failures) with failures ordered by subset cardinality.
    """
    failures = []
    all_pass = True
    for size in sizes:
        for subset in itertools.combinations(indices, size):
            achieved = subspace_sum_dim([vg] + [bases[j] for j in subset], tol)
            required = threshold_base + size
            if achieved < required:
                all_pass = False
                if len(failures) < _MAX_REPORTED_FAILURES:
                    failures.append((subset, achieved, required))
    return all_pass, failures


def check_solvable(
    sys: LtiSystem,
    vstar_g_basis,
    rstar_j_bases,
    tol: TolerancePolicy = DEFAULT_POLICY,
) -> SolvabilityVerdict:
    """Subset-dimension test on the given stabilisability and per-output bases.

    Pass the full per-output reachability subspaces for the frequency-free
    test, or the subspaces at a mode tuple (validated beforehand with
    :func:`validate_modes`) for the frequency-dependent one. When
    h = dim V*g exceeds n - p, a witness set delta of cardinality ``n - h``
    (lexicographic order, first hit returned) whose restricted subset family
    passes with thresholds ``h + card(S)`` is searched for. The equivalent
    global formulation over subsets of cardinality above ``h - (n - p)`` is
    evaluated as a cross-check; disagreement raises, since both characterize
    the same solvability property.
    """
    vg = _as_matrix(vstar_g_basis)
    bases = [_as_matrix(b) for b in rstar_j_bases]
    if len(bases) != sys.p:
        raise ValueError(f"expected {sys.p} per-output bases, got {len(bases)}")
    if sys.p > _MAX_OUTPUTS:
        raise ValueError(f"subset enumeration over {sys.p} outputs exceeds the {_MAX_OUTPUTS}-output guard")
    n, p, h = sys.n, sys.p, rank_of(vg, tol)
    if h <= n - p:
        ok, failures = _subset_family(range(p), range(p + 1), vg, bases, n - p, tol)
        delta = tuple(range(p)) if ok else None
        return SolvabilityVerdict(solvable=ok, failing_subsets=tuple(failures), h=h, delta=delta)

    witness = None
    first_failures: tuple = ()
    for delta in itertools.combinations(range(p), n - h):
        ok, failures = _subset_family(delta, range(len(delta) + 1), vg, bases, h, tol)
        if ok:
            witness = delta
            break
        if not first_failures:
            first_failures = tuple(failures)
    global_ok, global_failures = _subset_family(range(p), range(h - (n - p) + 1, p + 1), vg, bases, n - p, tol)
    if (witness is not None) != global_ok:
        raise NumericalInconsistency(
            "witness search and global subset formulation disagree; rank tolerances are inconsistent"
        )
    if witness is not None:
        return SolvabilityVerdict(solvable=True, failing_subsets=(), h=h, delta=witness)
    reported = tuple(global_failures) if global_failures else first_failures
    return SolvabilityVerdict(solvable=False, failing_subsets=reported, h=h, delta=None)


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


def repair_lambda_tuple(
    sys: LtiSystem,
    vstar_g_basis,
    lambdas,
    rstar_j_factory,
    tol: TolerancePolicy = DEFAULT_POLICY,
    seed: int = DEFAULT_SEED,
    zeros: list[InvariantZero] | None = None,
    attempts: int = 10,
):
    """Perturb a failing mode tuple until the frequency-dependent test passes.

    The set of failing tuples has empty interior whenever the frequency-free
    test passes, so a small random perturbation generically repairs a bad
    tuple. The perturbation radius starts at 1e-3 and doubles each attempt;
    ``rstar_j_factory(j, lam)`` must return the per-output basis at ``lam``.
    Returns ``(tuple, verdict)`` on success, ``(None, last_verdict)``
    otherwise.
    """
    if zeros is None:
        zeros = invariant_zeros(sys, tol)
    rng = rng_for(seed, "lambda-repair")
    lambdas = tuple(float(l) for l in lambdas)
    last = None
    radius = 1e-3
    for _ in range(attempts):
        shifts = rng.uniform(-radius, radius, len(lambdas))
        candidate = []
        for lam, shift in zip(lambdas, shifts):
            moved = lam + shift
            if not sys.domain.is_stable(moved) or exclusion_violation(moved, zeros, tol):
                moved = lam - shift
            candidate.append(moved)
        try:
            candidate = validate_modes(sys, candidate, zeros, tol)
        except (UnstableLambda, LambdaAtZero):
            radius *= 2.0
            continue
        bases = [rstar_j_factory(j, candidate[j]) for j in range(sys.p)]
        last = check_solvable(sys, vstar_g_basis, bases, tol)
        if last.solvable:
            return candidate, last
        radius *= 2.0
    return None, last
