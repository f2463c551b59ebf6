"""Tolerance-governed dense linear-algebra primitives.

All structural decisions made by the library (rank tests, kernel extraction,
dimension counts) route through this module so that a single tolerance policy
governs every one of them. Complex arithmetic stays confined here and in
:mod:`monotrack.sysmodel`; every basis exported to callers is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Unsolvable

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class TolerancePolicy:
    """Shared numerical tolerances.

    Parameters
    ----------
    relative_rank_tol : float or None
        Explicit relative threshold for rank decisions. When None, the
        threshold for a matrix with largest singular value ``smax`` is
        ``max(shape) * eps * smax * rank_safety``.
    absolute_floor : float
        Magnitudes below this are treated as exact zero.
    residual_tol : float
        Relative residual accepted for linear solves and basis invariants.
    zero_exclusion : float
        Relative radius around invariant zeros inside which a requested
        frequency is rejected.
    rank_safety : float
        Safety factor applied to the machine-epsilon rank threshold.
    """

    relative_rank_tol: float | None = None
    absolute_floor: float = 1e-12
    residual_tol: float = 1e-9
    zero_exclusion: float = 1e-6
    rank_safety: float = 10.0

    def __post_init__(self):
        for name in ("absolute_floor", "residual_tol", "zero_exclusion", "rank_safety"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.relative_rank_tol is not None and self.relative_rank_tol <= 0.0:
            raise ValueError("relative_rank_tol must be strictly positive")

    def rank_threshold(self, shape: tuple[int, int], smax: float) -> float:
        if self.relative_rank_tol is not None:
            return self.relative_rank_tol * smax
        return max(shape) * _EPS * smax * self.rank_safety


DEFAULT_POLICY = TolerancePolicy()


def _as_matrix(obj) -> np.ndarray:
    """Accept a PairedBasis-like object (``.V``) or a raw array."""
    if hasattr(obj, "V"):
        return np.atleast_2d(obj.V)
    return np.atleast_2d(np.asarray(obj))


def rank_of(M, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Number of singular values of ``M`` above the policy threshold."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > tol.rank_threshold(M.shape, float(s[0]))))


def full_svd(M: np.ndarray, tol: TolerancePolicy = DEFAULT_POLICY):
    """Full SVD factors ``(u, s, vh)`` of a non-empty ``M`` and its rank at the policy threshold."""
    u, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > tol.rank_threshold(M.shape, float(s[0])))) if s.size else 0
    return u, s, vh, rank


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


def residual_violation(M, x, b, smax: float, tol: TolerancePolicy = DEFAULT_POLICY) -> str | None:
    """Why ``x`` does not solve ``M x = b`` at tolerance, or None when it does.

    The residual is accepted up to ``residual_tol * (smax |x| + |b|)``, with
    ``smax`` the largest singular value of ``M``, and never below the
    absolute floor.
    """
    residual = float(np.linalg.norm(M @ x - b))
    bound = tol.residual_tol * (smax * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
    if residual > max(bound, tol.absolute_floor):
        return f"residual {residual:.3e} exceeds tolerance {bound:.3e}"
    return None


def min_norm_solve(M, b, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Moore-Penrose minimum-norm solution of ``M x = b``.

    Raises
    ------
    Unsolvable
        If :func:`residual_violation` rejects the solution, i.e. the
        right-hand side is not in the range of ``M`` at tolerance.
    """
    M = np.atleast_2d(np.asarray(M))
    b = np.asarray(b).reshape(-1)
    if b.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != rows {M.shape[0]}")
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    thr = tol.rank_threshold(M.shape, float(s[0])) if s.size else 0.0
    keep = s > thr
    coeff = (u.conj().T @ b)[keep] / s[keep]
    x = vh.conj().T[:, keep] @ coeff
    if not (np.iscomplexobj(M) or np.iscomplexobj(b)):
        x = x.real
    reason = residual_violation(M, x, b, float(s[0]) if s.size else 0.0, tol)
    if reason is not None:
        raise Unsolvable(reason)
    return x


def subspace_sum_dim(bases, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Dimension of the sum of the given subspaces (rank of the concatenation)."""
    mats = [_as_matrix(b) for b in bases]
    mats = [m for m in mats if m.shape[1] > 0]
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
    rank = int(np.sum(s > tol.rank_threshold(M.shape, float(s[0]))))
    return u[:, :rank]
