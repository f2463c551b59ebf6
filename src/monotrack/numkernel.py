"""Tolerance-governed dense linear-algebra primitives.

All structural decisions made by the library (rank tests, kernel extraction,
dimension counts) route through this module. The rank threshold is the one
tolerance a caller sets, through :class:`TolerancePolicy`; the other
tolerances are the fixed constants below, so no caller can widen the checks
that the design's guarantee rests on. Complex arithmetic stays confined here
and in :mod:`monotrack.sysmodel`; every basis exported to callers is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_EPS = float(np.finfo(np.float64).eps)
# Magnitudes below this are treated as exact zero.
ABSOLUTE_FLOOR = 1e-12
# Relative residual accepted for linear solves and basis invariants.
RESIDUAL_TOL = 1e-9
# Relative radius around an invariant zero inside which a frequency is
# rejected, and the margin that keeps a zero off the stability boundary.
ZERO_EXCLUSION = 1e-6
# Safety factor on the machine-epsilon rank threshold.
_RANK_SAFETY = 10.0


@dataclass(frozen=True)
class TolerancePolicy:
    """The rank threshold, the one tolerance a caller sets.

    Parameters
    ----------
    relative_rank_tol : float or None
        Explicit relative threshold for rank decisions. When None, the
        threshold for a matrix with largest singular value ``smax`` is
        ``max(shape) * eps * smax * 10``.
    """

    relative_rank_tol: float | None = None

    def __post_init__(self):
        if self.relative_rank_tol is not None and self.relative_rank_tol <= 0.0:
            raise ValueError("relative_rank_tol must be strictly positive")

    def rank_threshold(self, shape: tuple[int, int], smax: float) -> float:
        if self.relative_rank_tol is not None:
            return self.relative_rank_tol * smax
        return max(shape) * _EPS * smax * _RANK_SAFETY


DEFAULT_POLICY = TolerancePolicy()


def _as_matrix(obj) -> np.ndarray:
    """Accept a PairedBasis-like object (``.V``), a KernelSpan-like one (``.basis``) or a raw array."""
    if hasattr(obj, "V"):
        return np.atleast_2d(obj.V)
    if hasattr(obj, "basis"):
        return obj.basis
    return np.atleast_2d(np.asarray(obj))


def _rank(s: np.ndarray, shape: tuple[int, int], tol: TolerancePolicy) -> int:
    """Number of the descending singular values ``s`` of a non-empty matrix of ``shape`` above the policy threshold."""
    return int(np.sum(s > tol.rank_threshold(shape, float(s[0]))))


def _per_dtype(mats: list, factor) -> list:
    """``factor`` of each matrix of ``mats``, from one stacked call per dtype and shape, in the order given.

    ``factor`` maps a (k, r, c) stack to k per-member results. Real and
    complex matrices go into separate stacks, so no real matrix is factored
    in complex arithmetic. No call is made for an empty list.
    """
    results = [None] * len(mats)
    for kind in dict.fromkeys((M.dtype, M.shape) for M in mats):
        members = [i for i, M in enumerate(mats) if (M.dtype, M.shape) == kind]
        for i, result in zip(members, factor(np.stack([mats[i] for i in members]))):
            results[i] = result
    return results


def ranks_of(stack, tol: TolerancePolicy = DEFAULT_POLICY) -> list[int]:
    """Rank of each member of a (k, r, c) ``stack`` or list of matrices, from one SVD; an empty member has rank 0.

    Each member gets its own threshold, from its own largest singular value.
    LAPACK factors the members one at a time, so each rank is the one a separate call gives, bit for bit. Matrices
    of different shapes are zero-padded to the largest; a padded member's own min(r, c) singular values, judged at
    its own shape's threshold, agree with a separate call's to about 1e-15 relative, not bit for bit.
    """
    shapes = [np.shape(M) for M in stack] if isinstance(stack, list) else []
    if len(set(shapes)) > 1:
        padded = np.zeros((len(stack), *map(max, zip(*shapes))), np.result_type(*stack))
        for slot, M, (r, c) in zip(padded, stack, shapes):
            slot[:r, :c] = M
        svs = zip(np.linalg.svd(padded, compute_uv=False), shapes)
        return [_rank(s[: min(shape)], shape, tol) if min(shape) else 0 for s, shape in svs]
    stack = np.asarray(stack)
    if stack.size == 0:
        return [0] * stack.shape[0]
    return [_rank(s, stack.shape[1:], tol) for s in np.linalg.svd(stack, compute_uv=False)]


def rank_of(M, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Number of singular values of ``M`` above the policy threshold (:func:`ranks_of` of one member)."""
    return ranks_of(np.atleast_2d(np.asarray(M))[None], tol)[0]


def full_svds(stack: np.ndarray, tol: TolerancePolicy = DEFAULT_POLICY) -> list[tuple]:
    """Full SVD factors ``(u, s, vh)`` of each member of a (k, r, c) stack of non-empty matrices, and its rank.

    One LAPACK call factors the whole stack; each member's factors are views into it.
    """
    u, s, vh = np.linalg.svd(stack)
    return [(u[i], s[i], vh[i], _rank(s[i], stack.shape[1:], tol)) for i in range(stack.shape[0])]


def full_svd(M: np.ndarray, tol: TolerancePolicy = DEFAULT_POLICY):
    """Full SVD factors ``(u, s, vh)`` of a non-empty ``M`` and its rank at the policy threshold."""
    return full_svds(M[None], tol)[0]


def nullspace(M, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of the kernel of ``M``.

    The returned column count is ``cols(M) - rank_of(M)``; an empty basis is
    a legal result for injective maps.
    """
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        raise ValueError("nullspace of an empty matrix is undefined")
    _, _, vh, rank = full_svd(M, tol)
    return vh[rank:].conj().T


def residual_violation(M, x, b, smax: float) -> str | None:
    """Why ``x`` does not solve ``M x = b`` at tolerance, or None when it does.

    The residual is accepted up to ``RESIDUAL_TOL * (smax |x| + |b|)``, with
    ``smax`` the largest singular value of ``M``, and never below
    ``ABSOLUTE_FLOOR``.
    """
    residual = float(np.linalg.norm(M @ x - b))
    bound = RESIDUAL_TOL * (smax * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
    if residual > max(bound, ABSOLUTE_FLOOR):
        return f"residual {residual:.3e} exceeds tolerance {bound:.3e}"
    return None


def subspace_sum_dim(bases, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Dimension of the sum of the given subspaces (rank of the concatenation)."""
    mats = [m for m in map(_as_matrix, bases) if m.shape[1] > 0]
    if not mats:
        return 0
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise DimensionMismatch(f"bases live in different ambient spaces: {sorted(rows)}")
    return rank_of(np.hstack(mats), tol)


def orthonormalize(M, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of the column span of ``M`` (may shrink the column count)."""
    M = _as_matrix(M)
    if M.shape[1] == 0:
        return M.astype(float)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, : _rank(s, M.shape, tol)]
