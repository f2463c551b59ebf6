import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import monotrack as mt
from monotrack.subspaces import _conformable_min_phase, discover_rstar, discover_vstar_g, draw, factor_pencil
from monotrack.sysmodel import rosenbrock

from .conftest import wide_plant
from .subspace_checks import containment_residual, single_mode_basis, span_equal

POLICY = mt.DEFAULT_POLICY

# Canonical axis spans of the per-output reachability subspaces of the
# bundled demo plant, frozen from independent rank counting.
DEMO_RSTAR_J_AXES = {0: (1, 2, 3, 4), 1: (2, 3, 4), 2: (1, 2, 3, 4)}


def axis_span_matches(basis, axes, n=5):
    target = np.eye(n)[:, list(axes)]
    return span_equal(basis.V, target)


class TestRstarAt:
    def test_full_output_kernel_is_one_dimensional(self, demo_system):
        pb = single_mode_basis(demo_system, -1.3)
        assert pb.dim == 1
        pb.validate(demo_system)

    def test_deleted_output_span_containment(self, demo_system):
        pb = single_mode_basis(demo_system, -0.7, excluded_output=1)
        target = np.eye(5)[:, [2, 3, 4]]
        assert containment_residual(pb.V, target) <= 1e-9
        pb.validate(demo_system, excluded_output=1)

    def test_square_invertible_feedthrough_has_empty_kernel(self):
        rng = np.random.default_rng(2)
        sys = mt.LtiSystem(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)),
                           rng.normal(size=(2, 3)), rng.normal(size=(2, 2)) + 2 * np.eye(2))
        pb = single_mode_basis(sys, -1.0)
        assert pb.dim == 0


def deleted_row_kernel(sys, mu, j):
    """The kernel of the pencil with output row j deleted, from its own SVD."""
    return mt.nullspace(np.delete(rosenbrock(sys, mu), sys.n + j, axis=0))


def min_norm_direction(sys, mu, j):
    """The minimum-norm solution of P(mu) x = e_{n+j}, or None when there is none."""
    rhs = np.zeros(sys.n + sys.p)
    rhs[sys.n + j] = 1.0
    try:
        return mt.min_norm_solve(rosenbrock(sys, mu), rhs)
    except mt.Unsolvable:
        return None


# The rungs of the benchmark's generated-ladder workload (generator seed 0).
LADDER = (
    (6, 3, 2, ()), (6, 3, 2, (-3.0,)), (6, 3, 2, (2.0,)), (8, 4, 3, ()), (8, 4, 3, (-3.0,)),
    (8, 4, 3, (2.0,)), (10, 4, 3, ()), (12, 5, 4, (-3.0,)), (16, 6, 5, (2.0,)), (24, 8, 6, ()),
)


def factor_oracle_cases(demo_system):
    """(plant, mode) pairs: the demo, the wide-outputs plants and the generated ladder at their modes."""
    cases = [(demo_system, mu) for mu in (-1.0, -2.0, -0.7, -1.3)]
    plants = [wide_plant(seed, index, p) for seed in (0, 1) for index in range(2) for p in (8, 10, 12)]
    plants += [mt.generate(mt.GeneratorSpec(n=n, m=m, p=p, planted_zero_values=z, seed=0)) for n, m, p, z in LADDER]
    for plant in plants:
        cases += [(plant, -1.0 - 0.25 * k) for k in range(plant.p)]
    return cases


# p = 2 > m = 1; the mode -2 of A is neither reachable nor seen, so ker P(-2)
# is the second state axis, and neither e_{n+j} lies in the range of P(-2).
TALL_PLANT = mt.LtiSystem(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[1.0, 0.0], [2.0, 0.0]], [[0.0], [1.0]])


class TestPencilFactor:
    """One SVD of P(mu) against the old construction: a separate SVD of each row-deleted pencil plus a solve."""

    def test_row_deleted_kernels_and_directions_match_the_old_construction(self, demo_system):
        for plant, mu in factor_oracle_cases(demo_system):
            factor = factor_pencil(plant, mu)
            for j in range(plant.p):
                kernel, expected = factor.kernel(j), deleted_row_kernel(plant, mu, j)
                assert kernel.shape == expected.shape, (plant.n, plant.p, mu, j)
                assert np.allclose(kernel.T @ kernel, np.eye(kernel.shape[1]), atol=1e-12)
                assert span_equal(kernel, expected), (plant.n, plant.p, mu, j)
                x, x_ref = factor.solution(j), min_norm_direction(plant, mu, j)
                assert x_ref is not None
                assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref), (plant.n, plant.p, mu, j)

    def test_whole_kernel_is_the_nullspace_byte_for_byte(self, demo_system):
        for plant, mu in factor_oracle_cases(demo_system)[::7]:
            kernel = factor_pencil(plant, mu).kernel()
            assert kernel.tobytes() == mt.nullspace(rosenbrock(plant, mu)).tobytes()

    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        extra_outputs=st.integers(1, 3),
        hidden=st.booleans(),
        rotated=st.booleans(),
    )
    @settings(max_examples=60)
    def test_without_a_solution_no_kernel_vector_couples_into_the_output(
        self, seed, n, m, extra_outputs, hidden, rotated
    ):
        # p > m, so e_{n+j} is almost never in the range of P(mu); a hidden
        # mode at mu (uncontrollable and unobservable, optionally rotated out
        # of the state axes) leaves ker P(mu) nonempty. The kernel without
        # output j is then ker P(mu), and no vector of it reaches output j:
        # a direction redraw cannot succeed where x_j is missing.
        rng, mu, p = np.random.default_rng(seed), -1.3, m + extra_outputs
        A, B, C = rng.normal(size=(n, n)), rng.normal(size=(n, m)), rng.normal(size=(p, n))
        if hidden:
            A = np.block([[A, np.zeros((n, 1))], [np.zeros((1, n)), np.array([[mu]])]])
            B, C = np.vstack([B, np.zeros((1, m))]), np.hstack([C, np.zeros((p, 1))])
        if rotated:
            Q = np.linalg.qr(rng.normal(size=(A.shape[0], A.shape[0])))[0]
            A, B, C = Q @ A @ Q.T, Q @ B, C @ Q.T
        plant = mt.LtiSystem.relaxed(A, B, C, rng.normal(size=(p, m)))
        factor = factor_pencil(plant, mu)
        missing = [j for j in range(p) if factor.solution(j) is None]
        assume(missing)
        for j in missing:
            kernel = factor.kernel(j)
            beta = plant.C[j] @ kernel[: plant.n] + plant.D[j] @ kernel[plant.n :]
            # The kernel is orthonormal: this bounds |beta| over its unit vectors.
            assert np.linalg.norm(beta) <= POLICY.absolute_floor

    def test_an_output_outside_the_range_leaves_the_kernel_of_the_whole_pencil(self):
        factor = factor_pencil(TALL_PLANT, -2.0)
        assert np.allclose(np.abs(factor.null_basis[:, 0]), [0.0, 1.0, 0.0])
        for j in range(TALL_PLANT.p):
            assert factor.solution(j) is None and min_norm_direction(TALL_PLANT, -2.0, j) is None
            expected = deleted_row_kernel(TALL_PLANT, -2.0, j)
            assert factor.kernel(j).shape == expected.shape == (3, 1)
            assert span_equal(factor.kernel(j), expected)


class TestRstar:
    def test_demo_dimension(self, demo_system, demo_zeros):
        assert draw(discover_rstar(demo_system, zeros=demo_zeros)).dim == 1

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_demo_deleted_output_spans(self, demo_system, demo_zeros, j):
        pb = draw(discover_rstar(demo_system, j, zeros=demo_zeros))
        assert pb.dim == len(DEMO_RSTAR_J_AXES[j])
        assert axis_span_matches(pb, DEMO_RSTAR_J_AXES[j])
        pb.validate(demo_system, excluded_output=j)

    def test_matches_recursion_oracle(self, demo_system, demo_zeros):
        stacked = draw(discover_rstar(demo_system, zeros=demo_zeros))
        assert span_equal(stacked, mt.rstar_recursive(demo_system))

    def test_single_frequency_contained_in_sum(self, demo_system, demo_zeros):
        whole = draw(discover_rstar(demo_system, 0, zeros=demo_zeros))
        for mu in (-0.4, -1.1, -2.7):
            part = single_mode_basis(demo_system, mu, excluded_output=0)
            assert containment_residual(part.V, whole.V) <= 1e-9



class TestDiscoverAndDraw:
    def test_every_draw_spans_the_discovered_subspace(self, demo_system, demo_zeros):
        cases = [(discover_vstar_g(demo_system, zeros=demo_zeros), None)]
        cases += [(discover_rstar(demo_system, j, zeros=demo_zeros), j) for j in (None, 0, 1, 2)]
        for kernels, excluded in cases:
            assert np.allclose(kernels.basis.T @ kernels.basis, np.eye(kernels.dim), atol=1e-12)
            for seed in (0, 1, 2):
                pb = draw(kernels, seed)
                assert pb.dim == kernels.dim
                assert span_equal(pb.V, kernels.basis)
                pb.validate(demo_system, excluded_output=excluded)

    def test_empty_span_draws_an_empty_basis(self):
        # A wide plant has no zeros, so an empty free pool leaves V*g nothing to span.
        plant = wide_plant(0, 0, 8)
        pb = draw(discover_vstar_g(plant, free_pool=(), zeros=mt.invariant_zeros(plant)))
        assert pb.V.shape == (plant.n, 0)
        assert pb.W.shape == (plant.m, 0)


class TestVstarRecursive:
    def test_injective_output_yields_zero_subspace(self):
        sys = mt.LtiSystem.relaxed(np.diag([-1.0, -2.0]), np.zeros((2, 1)), np.eye(2), np.zeros((2, 1)))
        assert mt.vstar_recursive(sys).shape == (2, 0)

    def test_demo_dominates_stabilisability_subspace(self, demo_system, demo_zeros):
        vstar = mt.vstar_recursive(demo_system)
        vg = draw(discover_vstar_g(demo_system, zeros=demo_zeros))
        assert vstar.shape[1] >= vg.dim
        assert containment_residual(vg.V, vstar) <= 1e-9

    def test_rstar_contained_in_vstar(self, demo_system, demo_zeros):
        rs = draw(discover_rstar(demo_system, zeros=demo_zeros))
        assert containment_residual(rs.V, mt.vstar_recursive(demo_system)) <= 1e-9


class TestVstarG:
    def test_demo_span_matches_replay_basis(self, demo_system, demo_zeros, demo_replay):
        vg = draw(discover_vstar_g(demo_system, zeros=demo_zeros))
        assert vg.dim == 2
        assert span_equal(vg.V, demo_replay.vg_state)
        vg.validate(demo_system)

    def test_demo_inner_modes_sit_on_the_stable_zero(self, demo_system, demo_zeros):
        vg = draw(discover_vstar_g(demo_system, zeros=demo_zeros))
        assert all(abs(m + 6.0) <= 1e-6 for m in np.real(vg.modes))

    def test_no_stable_zeros_degenerates_to_rstar(self):
        # All-unstable-zero plant: stabilisability subspace equals reachability.
        rng = np.random.default_rng(31)
        for _ in range(40):
            A = rng.normal(size=(3, 3))
            B = rng.normal(size=(3, 2))
            C = rng.normal(size=(2, 3))
            D = rng.normal(size=(2, 2)) + 2 * np.eye(2)
            sys = mt.LtiSystem(A, B, C, D)
            zeros = mt.invariant_zeros(sys)
            if any(z.is_minimum_phase for z in zeros) or not mt.audit_assumptions(sys).all_pass:
                continue
            vg = draw(discover_vstar_g(sys, zeros=zeros))
            rs = draw(discover_rstar(sys, zeros=zeros))
            assert vg.dim == rs.dim
            if vg.dim:
                assert span_equal(vg, rs)
            return
        pytest.skip("no all-unstable-zero draw found")

    def test_complex_pair_rotation_block(self):
        spec = mt.GeneratorSpec(n=4, m=2, p=2, planted_zero_values=(complex(-1, 2), complex(-1, -2)), seed=11)
        sys = mt.generate(spec)
        zeros = mt.invariant_zeros(sys)
        vg = draw(discover_vstar_g(sys, zeros=zeros))
        vg.validate(sys)
        pair_slots = [i for i, m in enumerate(vg.modes) if isinstance(m, complex) and m.imag > 0]
        assert pair_slots, "expected a realified pair column"
        i = pair_slots[0]
        mu = vg.modes[i]
        block_v, block_w = vg.V[:, i : i + 2], vg.W[:, i : i + 2]
        rot = np.array([[mu.real, -mu.imag], [mu.imag, mu.real]])
        assert np.allclose(sys.A @ block_v + sys.B @ block_w, block_v @ rot, atol=1e-9)
        assert np.allclose(sys.C @ block_v + sys.D @ block_w, 0.0, atol=1e-9)

    def test_free_pool_validation(self, demo_system, demo_zeros):
        # Unstable, repeated, and on the zero at -6.
        with pytest.raises(ValueError):
            discover_vstar_g(demo_system, free_pool=(1.0, -2.0), zeros=demo_zeros)
        with pytest.raises(ValueError):
            discover_vstar_g(demo_system, free_pool=(-1.0, -1.0), zeros=demo_zeros)
        with pytest.raises(mt.FrequencyIsZero):
            discover_vstar_g(demo_system, free_pool=(-6.0, -1.0), zeros=demo_zeros)

    def test_free_pool_exhausted_before_saturation(self):
        # V*g of a wide plant needs two pool kernels: a single frequency adds
        # a direction, and no second one can show that the sum has stopped growing.
        plant = wide_plant(0, 0, 8)
        zeros = mt.invariant_zeros(plant)
        assert discover_vstar_g(plant, zeros=zeros).dim == plant.n - plant.p == 2
        with pytest.raises(mt.SaturationFailure):
            discover_vstar_g(plant, free_pool=(-1.0,), zeros=zeros)

    def test_remixing_preserves_span(self, demo_system, demo_zeros):
        kernels = discover_vstar_g(demo_system, zeros=demo_zeros)
        first, second = draw(kernels, 1), draw(kernels, 2)
        assert span_equal(first, second)

    def test_coincident_min_phase_zeros_rejected(self):
        # Two decoupled channels sharing the zero -2: geometric multiplicity 2.
        A = np.diag([-1.0, -3.0])
        B = np.eye(2)
        C = np.diag([1.0, -1.0])
        D = np.eye(2)
        sys = mt.LtiSystem(A, B, C, D)
        zeros = mt.invariant_zeros(sys)
        assert len(zeros) == 1 and abs(zeros[0].value + 2.0) <= 1e-9
        assert zeros[0].geometric_multiplicity == 2
        report = mt.audit_assumptions(sys)
        assert not report.distinct_min_phase_zeros
        assert "multiplicity 2" in report.details["distinct_min_phase_zeros"]
        with pytest.raises(mt.AssumptionViolation, match="multiplicity 2"):
            discover_vstar_g(sys, zeros=zeros)

    def test_jordan_double_zero_merges_to_simple_geometric_zero(self):
        # Algebraically double zero at -2 with a one-dimensional kernel: the
        # clustered report carries geometric multiplicity 1 and passes audit.
        A = np.array([[-1.0, 1.0], [0.0, -2.0]])
        sys = mt.LtiSystem(A, [[1.0], [0.0]], [[1.0, 0.0]], [[1.0]])
        zeros = mt.invariant_zeros(sys)
        assert len(zeros) == 1
        assert abs(zeros[0].value + 2.0) <= 1e-9
        assert zeros[0].geometric_multiplicity == 1


class TestOracleEquivalence:
    def test_kernel_stacking_equals_recursion_on_random_plants(self):
        count = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 4))
            p = int(rng.integers(1, m + 1))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            C = rng.normal(size=(p, n))
            D = rng.normal(size=(p, m)) if rng.random() > 0.4 else np.zeros((p, m))
            try:
                sys = mt.LtiSystem(A, B, C, D)
                zeros = mt.invariant_zeros(sys)
                stacked = draw(discover_rstar(sys, zeros=zeros))
            except (mt.MonotrackError, ValueError):
                continue
            recursive = mt.rstar_recursive(sys)
            assert stacked.dim == recursive.shape[1], f"seed {seed}"
            if stacked.dim:
                assert span_equal(stacked, recursive, residual=1e-8), f"seed {seed}"
            count += 1
            if count >= 50:
                return
        raise AssertionError(f"only {count} admissible random plants")


def test_conformable_ordering_puts_pairs_first():
    zs = [
        mt.InvariantZero(complex(-2, 0), 1, True),
        mt.InvariantZero(complex(-1, 3), 1, True),
        mt.InvariantZero(complex(-1, -3), 1, True),
        mt.InvariantZero(complex(4, 0), 1, False),
    ]
    ordered = _conformable_min_phase(zs)
    assert ordered[0].value == complex(-1, 3)
    assert ordered[-1].value == complex(-2, 0)


def test_default_pool_skips_zeros(demo_system, demo_zeros):
    pool = mt.default_frequency_pool(demo_system, demo_zeros)
    assert len(pool) >= demo_system.n
    assert all(mu < 0 for mu in pool)
    assert all(abs(mu + 6.0) > 1e-6 for mu in pool)
