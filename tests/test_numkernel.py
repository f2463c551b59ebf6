import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import monotrack as mt
from monotrack.numkernel import RESIDUAL_TOL, full_svd, orthonormalize
from monotrack.subspaces import PencilFactor, _real_columns

from .conftest import count_calls
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


POLICIES = (mt.DEFAULT_POLICY, mt.TolerancePolicy(relative_rank_tol=1e-8))


class TestRanksOf:
    """One stacked rank test against one ``rank_of`` per member."""

    @given(
        seed=st.integers(0, 2**20),
        k=st.integers(0, 5),
        rows=st.integers(1, 6),
        cols=st.integers(0, 6),
        complex_entries=st.booleans(),
        policy=st.sampled_from(POLICIES),
    )
    @settings(max_examples=80)
    def test_equals_one_rank_test_per_member(self, seed, k, rows, cols, complex_entries, policy):
        # Each member is a product through a random inner dimension, so ranks
        # below full occur; a member scaled by 1e-9 sits near the relative threshold.
        rng = np.random.default_rng(seed)
        members = []
        for inner in rng.integers(0, 7, size=k):
            M = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
            if complex_entries:
                M = M + 1j * (rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols)))
            members.append(M + 1e-9 * rng.normal(size=(rows, cols)) * rng.integers(0, 2))
        stack = np.array(members, dtype=complex if complex_entries else float).reshape(k, rows, cols)
        ranks = mt.ranks_of(stack, policy)
        assert ranks == [mt.rank_of(M, policy) for M in stack]
        assert all(type(r) is int for r in ranks)

    def test_an_empty_member_has_rank_zero(self, monkeypatch):
        # A drop-one matrix with no column left, as at p = 1 with h = 0.
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        assert mt.ranks_of(np.zeros((1, 4, 0))) == [0]
        assert mt.ranks_of(np.zeros((3, 0, 2))) == [0, 0, 0]
        assert mt.ranks_of(np.zeros((0, 4, 4))) == []
        assert calls == {"svd": 0}

    def test_one_call_for_the_stack(self, monkeypatch):
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3))])
        assert mt.ranks_of(stack) == [3, 2, 0]
        assert calls == {"svd": 1}

    @given(
        seed=st.integers(0, 2**20),
        k=st.integers(2, 5),
        complex_entries=st.booleans(),
        policy=st.sampled_from(POLICIES),
    )
    @settings(max_examples=80)
    def test_mixed_shapes_equal_one_rank_test_per_member(self, seed, k, complex_entries, policy):
        # Members of different shapes and scales (2^-40 ... 2^40), ranks below
        # full among them; each is judged as a separate call judges it.
        rng = np.random.default_rng(seed)
        members = []
        for rows, cols, inner, scale in zip(*rng.integers((1, 0, 0, -1), (7, 7, 7, 2), size=(k, 4)).T):
            M = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
            if complex_entries:
                M = M + 1j * (rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols)))
            members.append(M * 2.0 ** (40 * scale))
        assume(len({M.shape for M in members}) > 1)
        ranks = mt.ranks_of(members, policy)
        assert ranks == [mt.rank_of(M, policy) for M in members]
        assert all(type(r) is int for r in ranks)

    def test_scaled_input_and_output_matrices_in_one_call(self, monkeypatch):
        # The constructor's pair with B scaled by 2^-40 and C by 2^40: each
        # member's threshold follows its own largest singular value.
        rng = np.random.default_rng(7)
        B, C, D = rng.normal(size=(6, 3)), rng.normal(size=(2, 6)), rng.normal(size=(2, 3))
        pair = [np.vstack([B * 2.0**-40, D]), np.hstack([C * 2.0**40, D]).T]
        deficient = [np.vstack([B * 2.0**-40, D]) @ np.diag([1.0, 1.0, 0.0]), pair[1] @ np.diag([1.0, 0.0])]
        separate = [mt.rank_of(M) for M in pair + deficient]
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        assert mt.ranks_of(pair) + mt.ranks_of(deficient) == separate == [3, 2, 2, 1]
        assert calls == {"svd": 2}

    def test_padding_adds_no_rank(self, monkeypatch):
        # Each member counts only its own min(r, c) singular values, and an
        # empty member, padded among others, has rank 0.
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        members = [np.ones((2, 2)), np.eye(2), np.zeros((5, 4)), np.ones((5, 1)), np.zeros((3, 0)), np.zeros((0, 4))]
        assert mt.ranks_of(members) == [1, 2, 0, 1, 0, 0]
        assert calls == {"svd": 1}

    def test_a_padded_member_keeps_its_own_shapes_threshold(self):
        # sigma_2 = 1e-14 lies above the 2 x 2 default threshold (4.4e-15) and
        # below that of the 2 x 20 member it is padded to (4.4e-14).
        members = [np.diag([1.0, 1e-14]), np.ones((2, 20))]
        assert mt.ranks_of(members) == [mt.rank_of(M) for M in members] == [2, 1]


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


def min_norm_solve(M, b):
    """``PencilFactor.solve`` of ``b`` on the factor of ``M``, read as a pencil with no state rows."""
    return PencilFactor(M, *full_svd(M), 0).solve(b)


class TestMinNormSolve:
    def test_identity(self):
        x = min_norm_solve(np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(x, [3.0, 4.0])

    def test_inconsistent_gives_none(self):
        M = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert min_norm_solve(M, np.array([1.0, 2.0])) is None

    def test_matches_lstsq_oracle_on_consistent_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows, cols = rng.integers(1, 7, size=2)
            M = rng.normal(size=(rows, cols))
            b = M @ rng.normal(size=cols)
            x = min_norm_solve(M, b)
            x_ref, *_ = np.linalg.lstsq(M, b, rcond=None)
            assert np.allclose(x, x_ref, atol=1e-9)
            assert np.linalg.norm(M @ x - b) <= 1e-9 * (1.0 + np.linalg.norm(b))

    def test_solution_orthogonal_to_kernel(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(2, 5))
        b = M @ rng.normal(size=5)
        x = min_norm_solve(M, b)
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
