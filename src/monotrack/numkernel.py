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

from .errors import DimensionMismatch, Unsolvable

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


def thin_svd(M) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(M, u, s, vh)``: ``M`` as a 2-D array and its thin SVD, for :func:`min_norm_from_factors`."""
    M = np.atleast_2d(np.asarray(M))
    return (M, *np.linalg.svd(M, full_matrices=False))


def min_norm_from_factors(factors: tuple, b, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Moore-Penrose minimum-norm solution of ``M x = b`` from ``factors = thin_svd(M)``, so one factor serves many ``b``.

    Raises :class:`Unsolvable` when :func:`residual_violation` rejects it: ``b`` is not in the range of ``M``.
    """
    M, u, s, vh = factors
    b = np.asarray(b).reshape(-1)
    if b.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != rows {M.shape[0]}")
    thr = tol.rank_threshold(M.shape, float(s[0])) if s.size else 0.0
    keep = s > thr
    coeff = (u.conj().T @ b)[keep] / s[keep]
    x = vh.conj().T[:, keep] @ coeff
    if not (np.iscomplexobj(M) or np.iscomplexobj(b)):
        x = x.real
    reason = residual_violation(M, x, b, float(s[0]) if s.size else 0.0)
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


def controllable_staircase(A: np.ndarray, B: np.ndarray, tol: TolerancePolicy = DEFAULT_POLICY):
    """Orthonormal bases ``(X, Z)`` of the controllable subspace of (A, B) and of its orthogonal complement, or None.

    The orthogonal staircase (Van Dooren 1981; Paige 1981): Z starts as I
    and M as B. Each step takes one SVD of Z^T M, moves its r leading left
    singular directions from Z to X, and makes A times them the next M. It
    stops when r = 0 or Z is empty, after about n / rank B steps. Every rank
    decision is made at the one threshold of the n x (n+m) matrix [A B],
    with ``||[A B]||_F`` for its scale: a block's own largest singular value
    would call a weakly controllable block full rank.

    A direction kept at a singular value s is tilted by up to error / s,
    where error is what a perturbation of [A B] at the threshold moves the
    block by, plus what the tilt so far moves it by: the next block is Z^T
    A times the kept directions, and the tilt of Z and of those directions
    moves it by up to ``||A||_F`` times the tilt each. The tilt compounds
    from step to step, and a nearly
    uncontrollable mode can reach a later block above the threshold; an
    unstable mode hidden behind a long single-input chain does. So the
    staircase returns None at the first step that keeps a singular value not
    above its error: it cannot tell the controllable subspace from a
    nearly uncontrollable one, and the caller must decide another way.
    """
    n = A.shape[0]
    scale = float(np.linalg.norm(np.hstack([A, B])))
    threshold = tol.rank_threshold((n, n + B.shape[1]), scale)
    growth = 2.0 * float(np.linalg.norm(A))
    reached, Z, M, tilt = [np.empty((n, 0))], np.eye(n), B, 0.0
    while Z.shape[1]:
        u, s, _ = np.linalg.svd(Z.T @ M)
        r = int(np.sum(s > threshold))
        if r == 0:
            break
        error = threshold + growth * tilt
        if s[r - 1] <= error:
            return None
        tilt += error / s[r - 1]
        W = Z @ u
        reached.append(W[:, :r])
        Z, M = W[:, r:], A @ W[:, :r]
    return np.hstack(reached), Z


def orthonormalize(M, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of the column span of ``M`` (may shrink the column count)."""
    M = _as_matrix(M)
    if M.shape[1] == 0:
        return M.astype(float)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > tol.rank_threshold(M.shape, float(s[0]))))
    return u[:, :rank]
