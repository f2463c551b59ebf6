"""Span comparisons and the single-mode basis, as the tests use them."""

import numpy as np

import monotrack as mt
from monotrack.numkernel import ABSOLUTE_FLOOR, _as_matrix, orthonormalize
from monotrack.subspaces import _single_mode_basis, factor_pencils


def containment_residual(inner, outer, tol=mt.DEFAULT_POLICY) -> float:
    """Worst-case relative distance of unit vectors of span(inner) from span(outer).

    Zero (up to roundoff) iff span(inner) is contained in span(outer).
    """
    X = _as_matrix(inner)
    if X.shape[1] == 0:
        return 0.0
    Q = orthonormalize(outer, tol)
    worst = 0.0
    for k in range(X.shape[1]):
        c = X[:, k]
        nrm = float(np.linalg.norm(c))
        if nrm <= ABSOLUTE_FLOOR:
            continue
        c = c / nrm
        res = c - Q @ (Q.conj().T @ c) if Q.shape[1] else c
        worst = max(worst, float(np.linalg.norm(res)))
    return worst


def span_equal(first, second, tol=mt.DEFAULT_POLICY, residual: float = 1e-8) -> bool:
    """Two-sided containment test at the given residual."""
    return (
        containment_residual(first, second, tol) <= residual
        and containment_residual(second, first, tol) <= residual
    )


def single_mode_basis(sys, lam, excluded_output=None):
    """R_j at the real mode ``lam`` as ``synthesize`` builds it: from one factored pencil."""
    return _single_mode_basis(sys, factor_pencils(sys, (lam,))[0].kernel(excluded_output), float(lam))
