import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monotrack as mt
from monotrack.numkernel import orthonormalize
from monotrack.subspaces import _real_columns

from .subspace_checks import containment_residual

POLICY = mt.DEFAULT_POLICY


class TestRankOf:
    def test_identity(self):
        assert mt.rank_of(np.eye(3)) == 3

    def test_zero_matrix(self):
        assert mt.rank_of(np.zeros((2, 4))) == 0

    def test_rank_one_symmetric(self):
        assert mt.rank_of(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(6, 6)) @ np.diag([1, 1, 1, 1e-4, 1e-8, 1e-13]) @ rng.normal(size=(6, 6))
        loose = mt.TolerancePolicy(relative_rank_tol=1e-6)
        tight = mt.TolerancePolicy(relative_rank_tol=1e-14)
        assert mt.rank_of(M, loose) <= mt.rank_of(M, tight)

    def test_policy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mt.TolerancePolicy(residual_tol=0.0)


class TestNullspace:
    def test_invertible_has_empty_kernel(self):
        assert mt.nullspace(np.eye(2)).shape == (2, 0)

    def test_single_equation(self):
        basis = mt.nullspace(np.array([[1.0, 1.0]]))
        assert basis.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        col = basis[:, 0]
        assert np.allclose(np.abs(col @ expected), 1.0)

    def test_columns_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(3, 7))
        basis = mt.nullspace(M)
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        assert np.linalg.norm(M @ basis) <= POLICY.residual_tol * np.linalg.norm(M)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, rows, cols, seed):
        M = np.random.default_rng(seed).normal(size=(rows, cols))
        assert mt.rank_of(M) + mt.nullspace(M).shape[1] == cols


class TestMinNormSolve:
    def test_identity(self):
        x = mt.min_norm_solve(np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(x, [3.0, 4.0])

    def test_inconsistent_raises(self):
        M = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(mt.Unsolvable):
            mt.min_norm_solve(M, np.array([1.0, 2.0]))

    def test_matches_lstsq_oracle_on_consistent_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows, cols = rng.integers(1, 7, size=2)
            M = rng.normal(size=(rows, cols))
            b = M @ rng.normal(size=cols)
            x = mt.min_norm_solve(M, b)
            x_ref, *_ = np.linalg.lstsq(M, b, rcond=None)
            assert np.allclose(x, x_ref, atol=1e-9)
            assert np.linalg.norm(M @ x - b) <= 1e-9 * (1.0 + np.linalg.norm(b))

    def test_solution_orthogonal_to_kernel(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(2, 5))
        b = M @ rng.normal(size=5)
        x = mt.min_norm_solve(M, b)
        kernel = mt.nullspace(M)
        assert np.linalg.norm(kernel.T @ x) <= POLICY.residual_tol


class TestSubspaceSumDim:
    def test_identical_spans(self):
        e1 = np.eye(3)[:, :1]
        assert mt.subspace_sum_dim([e1, e1]) == 1

    def test_canonical_axes(self):
        cols = [np.eye(3)[:, k : k + 1] for k in range(3)]
        assert mt.subspace_sum_dim(cols) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(mt.DimensionMismatch):
            mt.subspace_sum_dim([np.eye(3), np.eye(4)])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_and_recombination_invariant(self, seed):
        rng = np.random.default_rng(seed)
        parts = [rng.normal(size=(5, rng.integers(1, 3))) for _ in range(3)]
        base = mt.subspace_sum_dim(parts)
        assert mt.subspace_sum_dim(parts[::-1]) == base
        mixed = [p @ np.triu(rng.normal(size=(p.shape[1], p.shape[1])) + 3 * np.eye(p.shape[1])) for p in parts]
        assert mt.subspace_sum_dim(mixed) == base


class TestRealifyPair:
    """``subspaces._real_columns``: one real column at a real mode, a realified pair at a complex one."""

    def test_real_odd_identity(self):
        v = np.array([1.0, -2.0])
        (col,) = _real_columns(v, -1.0)
        assert np.array_equal(col, v)

    def test_even_takes_imaginary_part(self):
        v = np.array([1 + 2j, 3 + 0j])
        odd, even = _real_columns(v, complex(-1.0, 2.0))
        assert np.array_equal(odd, [1.0, 3.0])
        assert np.array_equal(even, [-2.0, 0.0])

    def test_conjugate_pair_spans_real_plane(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = np.column_stack(_real_columns(v, complex(-1.0, 2.0)))
        expected = np.column_stack([v.real, v.imag])
        assert got.dtype == float
        assert mt.subspace_sum_dim([expected, got]) == mt.rank_of(expected)


def test_containment_residual_detects_escape():
    inside = np.eye(3)[:, :1]
    plane = np.eye(3)[:, :2]
    assert containment_residual(inside, plane) <= 1e-14
    outside = np.array([[0.0], [0.0], [1.0]])
    assert containment_residual(outside, plane) > 0.9


def test_orthonormalize_shrinks_dependent_columns():
    M = np.array([[1.0, 2.0], [1.0, 2.0]])
    Q = orthonormalize(M)
    assert Q.shape == (2, 1)
