import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monotrack as mt
from monotrack.numkernel import RESIDUAL_TOL, controllable_staircase, min_norm_from_factors, orthonormalize, thin_svd
from monotrack.subspaces import _real_columns

from .subspace_checks import containment_residual

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
            mt.TolerancePolicy(relative_rank_tol=0.0)

    @pytest.mark.parametrize("name", ["absolute_floor", "residual_tol", "zero_exclusion", "rank_safety"])
    def test_policy_sets_only_the_rank_threshold(self, name):
        # The other tolerances are constants: no caller can widen the checks the design rests on.
        with pytest.raises(TypeError):
            mt.TolerancePolicy(**{name: 1.0})


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
        assert np.linalg.norm(M @ basis) <= RESIDUAL_TOL * np.linalg.norm(M)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, rows, cols, seed):
        M = np.random.default_rng(seed).normal(size=(rows, cols))
        assert mt.rank_of(M) + mt.nullspace(M).shape[1] == cols


class TestMinNormSolve:
    def test_identity(self):
        x = min_norm_from_factors(thin_svd(np.eye(2)), np.array([3.0, 4.0]))
        assert np.allclose(x, [3.0, 4.0])

    def test_inconsistent_raises(self):
        M = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(mt.Unsolvable):
            min_norm_from_factors(thin_svd(M), np.array([1.0, 2.0]))

    def test_matches_lstsq_oracle_on_consistent_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows, cols = rng.integers(1, 7, size=2)
            M = rng.normal(size=(rows, cols))
            b = M @ rng.normal(size=cols)
            x = min_norm_from_factors(thin_svd(M), b)
            x_ref, *_ = np.linalg.lstsq(M, b, rcond=None)
            assert np.allclose(x, x_ref, atol=1e-9)
            assert np.linalg.norm(M @ x - b) <= 1e-9 * (1.0 + np.linalg.norm(b))

    def test_solution_orthogonal_to_kernel(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(2, 5))
        b = M @ rng.normal(size=5)
        x = min_norm_from_factors(thin_svd(M), b)
        kernel = mt.nullspace(M)
        assert np.linalg.norm(kernel.T @ x) <= RESIDUAL_TOL


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


class TestControllableStaircase:
    @pytest.mark.parametrize("seed", range(4))
    def test_bases_split_the_state_space_at_the_reachable_subspace(self, seed):
        # x_u = (x1, x2) is not reached from u; (A_c, B_c) is a random pair,
        # so the controllable subspace is spanned by the last 4 coordinates.
        rng = np.random.default_rng(seed)
        A = np.block([[rng.normal(size=(2, 2)), np.zeros((2, 4))], [rng.normal(size=(4, 2)), rng.normal(size=(4, 4))]])
        B = np.vstack([np.zeros((2, 2)), rng.normal(size=(4, 2))])
        T, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        X, Z = controllable_staircase(T @ A @ T.T, T @ B)
        assert X.shape == (6, 4) and Z.shape == (6, 2)
        assert np.allclose(np.hstack([X, Z]).T @ np.hstack([X, Z]), np.eye(6), atol=1e-12)
        assert np.linalg.norm(Z.T @ T[:, 2:]) <= 1e-12
        assert np.sort_complex(np.linalg.eigvals(Z.T @ T @ A @ T.T @ Z)) == pytest.approx(
            np.sort_complex(np.linalg.eigvals(A[:2, :2])), abs=1e-12
        )

    def test_a_weak_coupling_is_judged_at_the_threshold_of_A_B(self):
        # x2 is reached only through a 1e-15 coupling from x1. The second
        # block is that coupling alone: at its own largest singular value it
        # would be full rank, at the threshold of [A B] it is not.
        A = np.array([[-1.0, 0.0], [1e-15, 2.0]])
        B = np.array([[1.0], [0.0]])
        X, Z = controllable_staircase(A, B)
        assert X.shape == (2, 1) and Z.shape == (2, 1)
        assert abs(Z[1, 0]) == pytest.approx(1.0)

    def test_an_uncontrollable_pair_ends_the_staircase_at_once(self):
        A = np.diag([1.0, -2.0])
        X, Z = controllable_staircase(A, np.array([[0.0], [1.0]]))
        assert X.shape == (2, 1) and Z.shape == (2, 1)


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
