import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import monotrack as mt
from monotrack import subspaces, sysmodel
from monotrack.fixtures import demo_system_path
from monotrack.numkernel import ABSOLUTE_FLOOR, DEFAULT_POLICY, TolerancePolicy, rank_of, residual_violation
from monotrack.subspaces import (
    _POOL_VISITS,
    _best_block,
    _conformable_min_phase,
    _fixed_dims,
    _SpanTracker,
    discover_rstar,
    discover_vstar_g,
    draw,
    factor_pencils,
)
from monotrack.sysmodel import rosenbrock

from .conftest import count_calls, kept_pencils, record_calls, wide_plant
from .discover_oracle import probe_rstar, probe_vstar_g
from .draw_oracle import LoopSpanTracker, loop_best_block, loop_draw
from .subspace_checks import containment_residual, single_mode_basis, span_equal

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
    """The minimum-norm solution of P(mu) x = e_{n+j} by least squares at the default rank cut, or None when there is none."""
    P, rhs = rosenbrock(sys, mu), np.eye(sys.n + sys.p)[sys.n + j]
    x, _, _, s = np.linalg.lstsq(P, rhs, rcond=10.0 * max(P.shape) * np.finfo(float).eps)
    return None if residual_violation(P, x, rhs, float(s[0])) else x


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
            factor = factor_pencils(plant, (mu,))[0]
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
            kernel = factor_pencils(plant, (mu,))[0].kernel()
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
        factor = factor_pencils(plant, (mu,))[0]
        missing = [j for j in range(p) if factor.solution(j) is None]
        assume(missing)
        for j in missing:
            kernel = factor.kernel(j)
            beta = plant.C[j] @ kernel[: plant.n] + plant.D[j] @ kernel[plant.n :]
            # The kernel is orthonormal: this bounds |beta| over its unit vectors.
            assert np.linalg.norm(beta) <= ABSOLUTE_FLOOR

    def test_an_output_outside_the_range_leaves_the_kernel_of_the_whole_pencil(self):
        factor = factor_pencils(TALL_PLANT, (-2.0,))[0]
        assert np.allclose(np.abs(factor.null_basis[:, 0]), [0.0, 1.0, 0.0])
        for j in range(TALL_PLANT.p):
            assert factor.solution(j) is None and min_norm_direction(TALL_PLANT, -2.0, j) is None
            expected = deleted_row_kernel(TALL_PLANT, -2.0, j)
            assert factor.kernel(j).shape == expected.shape == (3, 1)
            assert span_equal(factor.kernel(j), expected)


class TestFactorPencils:
    """One stacked SVD per dtype against one one-value ``factor_pencils`` call per mode, bit for bit."""

    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        p=st.integers(1, 3),
        picks=st.lists(st.integers(0, 5), max_size=5),
        policy=st.sampled_from((DEFAULT_POLICY, TolerancePolicy(relative_rank_tol=1e-8))),
    )
    @settings(max_examples=60)
    def test_equals_one_factor_per_mode(self, seed, n, m, p, picks, policy):
        # A diagonal A with integer modes and a hidden state makes P(mu) rank
        # deficient at some real modes; complex modes make a second stack.
        rng = np.random.default_rng(seed)
        A = np.diag(rng.integers(-3, 0, size=n).astype(float))
        B, C = rng.normal(size=(n, m)), rng.normal(size=(p, n))
        B[0], C[:, 0] = 0.0, 0.0
        plant = mt.LtiSystem.relaxed(A, B, C, rng.normal(size=(p, m)))
        values = (float(A[0, 0]), -1.5, complex(-1.0, 2.0), complex(-2.0, -0.5), float(A[-1, -1]), -0.25)
        mus = [values[i] for i in picks]
        factors = factor_pencils(plant, mus, policy)
        assert len(factors) == len(mus)
        for mu, got in zip(mus, factors):
            want = factor_pencils(plant, (mu,), policy)[0]
            assert got.rank == want.rank and got.n == want.n
            for name in ("pencil", "u", "s", "vh"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (mu, name)

    def test_modes_of_one_dtype_take_one_svd(self, demo_system, monkeypatch):
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        assert factor_pencils(demo_system, []) == []
        assert calls == {"svd": 0}
        factor_pencils(demo_system, [-1.0, -2.0, -1.5])
        assert calls == {"svd": 1}
        factor_pencils(demo_system, [-1.0, complex(-1.0, 1.0), -2.0])
        assert calls == {"svd": 3}


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
        # C has full column rank and D = 0, so V* = {0} and the bound is 0,
        # and an empty free pool leaves V*g nothing to span.
        plant = mt.LtiSystem(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
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

    # `analyze` discovers V*g over the default pool, `synthesize` over the
    # pool that skips its modes -1, -1.25, ...; both should find the plant's
    # dimension: dim V* less the multiplicities of the non-minimum-phase
    # zeros. Discovery stops when one more pool kernel extends the span by
    # less than _EXTEND_RTOL, and neighbouring pool kernels are nearly
    # parallel, so it stops early: today it gives 10 and 9 against 12 at
    # (12, 5, 4), and 11 and 9 against 15 at (16, 6, 5) with a zero at +2.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("n, m, p, planted", [(12, 5, 4, ()), (16, 6, 5, (2.0,))])
    def test_discovered_dim_depends_on_the_plant_alone(self, n, m, p, planted):
        plant = mt.generate(mt.GeneratorSpec(n, m, p, planted_zero_values=planted, seed=0))
        zeros = mt.invariant_zeros(plant)
        unstable = sum(z.geometric_multiplicity for z in zeros if not z.is_minimum_phase)
        oracle = mt.vstar_recursive(plant).shape[1] - unstable
        modes = tuple(-1.0 - 0.25 * k for k in range(p))
        dims = (discover_vstar_g(plant, zeros=zeros).dim, discover_vstar_g(plant, zeros=zeros, avoid=modes).dim)
        assert dims == (oracle, oracle)

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
        # Unstable, not finite, repeated, and on the zero at -6.
        with pytest.raises(ValueError):
            discover_vstar_g(demo_system, free_pool=(1.0, -2.0), zeros=demo_zeros)
        for value in (-np.inf, np.nan):
            with pytest.raises(ValueError, match="not finite"):
                discover_vstar_g(demo_system, free_pool=(value, -2.0, -3.0), zeros=demo_zeros)
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

    def test_an_empty_pool_below_the_bound_is_exhausted(self):
        # The plant has no zeros, so nothing is seeded and an empty pool leaves
        # the span at 0, below the bound: the pool is exhausted, as with one value.
        plant = mt.generate(mt.GeneratorSpec(6, 3, 2, seed=0))
        for pool in ((), (-1.5,)):
            with pytest.raises(mt.SaturationFailure):
                mt.synthesize(plant, mt.SynthesisSpec(lambdas=(-1.0, -1.25), reference=(1.0, 1.0), free_pool=pool))

    def test_an_empty_pool_is_enough_when_the_seeded_kernels_reach_the_bound(self, fresh_demo):
        # The demo's kernel at its zero -6 spans V*g alone.
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), free_pool=())
        fb = mt.synthesize(fresh_demo, spec)
        assert sorted(fb.closed_loop_spectrum, key=lambda z: z.real)[:2] == pytest.approx([-6.0, -6.0])

    def test_a_kept_pool_kernel_cannot_be_written_through(self):
        # A visited kernel is a view of a factor the plant keeps in its store
        # of pencil factors, which a design over the same pool reads; a write to it must
        # fail rather than change that design.
        plant = mt.generate(mt.GeneratorSpec(6, 3, 2, seed=0))
        spec = mt.SynthesisSpec(lambdas=(-1.0, -1.25), reference=(1.0, 1.0))
        before = mt.synthesize(mt.LtiSystem.from_json_dict(plant.to_json_dict()), spec).F
        span = discover_vstar_g(plant, zeros=mt.invariant_zeros(plant), avoid=spec.lambdas)
        kernel = span.visited[0][1]
        assert any(np.shares_memory(kernel, f.vh) for f in kept_pencils(plant).values())
        with pytest.raises(ValueError):
            kernel[...] = 0.0
        assert np.array_equal(mt.synthesize(plant, spec).F, before)

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


SWEEP_SIZES = [(4, 2, 2), (6, 3, 2), (8, 4, 3), (10, 4, 3), (12, 5, 4), (16, 6, 5)]
STRICTLY_PROPER_SIZES = [(4, 2, 2), (6, 3, 2), (8, 4, 3), (10, 4, 3), (12, 5, 4), (12, 7, 6), (16, 6, 5), (20, 10, 8)]


def sweep_plants(n, m, p):
    """The generated plants of one size: planted zeros none, -3 or +2, generator seeds 0-5."""
    return [
        mt.generate(mt.GeneratorSpec(n, m, p, planted_zero_values=planted, seed=seed))
        for planted in ((), (-3.0,), (2.0,))
        for seed in range(6)
    ]


def strictly_proper_plants(n, m, p):
    """A/sqrt(n), B and C standard normal, D = 0, from ``default_rng([seed, n, m, p])``, seeds 0-5."""
    plants = []
    for seed in range(6):
        rng = np.random.default_rng([seed, n, m, p])
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        plants.append(mt.LtiSystem(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)), np.zeros((p, m))))
    return plants


def rank_deficient_output_plant():
    """A relaxed strictly proper plant whose C has rank 1 < p: dim V* = 2n - rank P(mu) = 1, not n - p = 0."""
    return mt.LtiSystem.relaxed(np.diag([-1.0, -2.0]), np.eye(2), [[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)))


BOUND_CASES = (
    [pytest.param(sweep_plants, size, id=f"sweep-{size}") for size in SWEEP_SIZES]
    + [pytest.param(strictly_proper_plants, size, id=f"strictly-proper-{size}") for size in STRICTLY_PROPER_SIZES]
    + [pytest.param(lambda *_: [rank_deficient_output_plant()], (2, 2, 2), id="rank-deficient-C")]
)


def discovered(discover):
    """(dim, basis bytes) of a discovery, or the name of the error it raised."""
    try:
        span = discover()
    except mt.MonotrackError as exc:
        return type(exc).__name__
    return span.dim, span.basis.tobytes()


class TestBoundedDiscovery:
    @pytest.mark.parametrize("plants, size", BOUND_CASES)
    def test_discovery_matches_the_probe_oracle(self, plants, size):
        # Stopping at the bound drops only the probe: dims and bases are those of
        # the loop that factors pool pencils until one adds nothing.
        for plant in plants(*size):
            zeros = mt.invariant_zeros(plant)
            modes = tuple(-1.0 - 0.25 * k for k in range(plant.p))
            assert discovered(lambda: discover_vstar_g(plant, zeros=zeros)) == discovered(lambda: probe_vstar_g(plant, zeros))
            assert discovered(lambda: discover_vstar_g(plant, zeros=zeros, avoid=modes)) == discovered(
                lambda: probe_vstar_g(plant, zeros, avoid=modes)
            )
            assert discovered(lambda: discover_rstar(plant, zeros=zeros)) == discovered(lambda: probe_rstar(plant, zeros))
            for j in range(plant.p):
                assert discovered(lambda: discover_rstar(plant, j, zeros=zeros)) == discovered(
                    lambda: probe_rstar(plant, zeros, j)
                )

    @pytest.mark.parametrize("plants, size", BOUND_CASES)
    def test_the_bound_holds_the_dimension_the_zeros_leave(self, plants, size):
        # The kept dim V* is that of the recursion, and no discovery exceeds
        # it less the zeros that the span leaves out.
        for plant in plants(*size):
            zeros = mt.invariant_zeros(plant)
            dim_vstar = kept_dim_vstar(plant)
            assert dim_vstar == mt.vstar_recursive(plant).shape[1]
            assert discover_vstar_g(plant, zeros=zeros).dim <= dim_vstar - _fixed_dims(zeros, every=False)
            assert discover_rstar(plant, zeros=zeros).dim <= dim_vstar - _fixed_dims(zeros, every=True)

    def test_a_rank_deficient_c_keeps_its_output_nulling_direction(self):
        plant = rank_deficient_output_plant()
        zeros = mt.invariant_zeros(plant)
        assert zeros == []
        assert discover_vstar_g(plant, zeros=zeros).dim == discover_rstar(plant, zeros=zeros).dim == 1

    def test_a_span_that_reaches_its_bound_at_the_last_pool_value_is_saturated(self):
        # A wide plant's V*g (n - p = 2) needs two pool kernels; with exactly two
        # there is no probe to show saturation, and the bound shows it instead.
        plant = wide_plant(0, 0, 8)
        zeros = mt.invariant_zeros(plant)
        span = discover_vstar_g(plant, free_pool=(-1.0, -1.5), zeros=zeros)
        assert span.dim == 2 and [mu for mu, _ in span.visited] == [-1.0, -1.5]


LADDER_SPECS = (
    (6, 3, 2, ()), (6, 3, 2, (-3.0,)), (6, 3, 2, (2.0,)), (8, 4, 3, ()), (8, 4, 3, (-3.0,)),
    (8, 4, 3, (2.0,)), (10, 4, 3, ()), (12, 5, 4, (-3.0,)), (16, 6, 5, (2.0,)), (24, 8, 6, ()),
)


def ladder_plants():
    return [mt.generate(mt.GeneratorSpec(n, m, p, planted_zero_values=z, seed=0)) for n, m, p, z in LADDER_SPECS]


def batch_plants():
    return ladder_plants() + [wide_plant(0, k, p) for p in (8, 10, 12) for k in range(4)]


def kept_dim_vstar(plant):
    """dim V* as the plant's ``structure`` fact keeps it: the column count of its basis T."""
    return sysmodel._structure(plant, DEFAULT_POLICY).T.shape[1]


def audited_copy(plant):
    """A new object of ``plant`` that holds its structure fact alone, and the zeros."""
    copy = mt.LtiSystem.from_json_dict(plant.to_json_dict())
    return copy, mt.invariant_zeros(copy)


def modes_of(plant):
    return tuple(-1.0 - 0.25 * k for k in range(plant.p))


def discoveries_bits(plant, design_modes: bool):
    """The bytes of each discovery's basis, seeded and visited kernels and of the pool factors kept after it.

    The discoveries are those of ``analyze``: R*, every R*_j and V*g, then V*g over the pool that avoids the
    design's modes when ``design_modes``.
    """
    plant, zeros = audited_copy(plant)
    discoveries = [lambda: discover_rstar(plant, zeros=zeros)]
    discoveries += [lambda j=j: discover_rstar(plant, j, zeros=zeros) for j in range(plant.p)]
    discoveries += [lambda: discover_vstar_g(plant, zeros=zeros)]
    if design_modes:
        discoveries += [lambda: discover_vstar_g(plant, zeros=zeros, avoid=modes_of(plant))]
    bits = []
    for discover in discoveries:
        try:
            span = discover()
        except mt.MonotrackError as exc:
            bits.append(repr(exc))
            continue
        bits.append([span.basis.tobytes(), [(mode, k.tobytes()) for mode, k in span.seeded + span.visited]])
        kept = kept_pencils(plant)
        bits.append([(mu, f.rank, *(a.tobytes() for a in (f.pencil, f.u, f.s, f.vh))) for mu, f in kept.items()])
    return bits


class TestBatchedDiscovery:
    def test_a_batch_gives_the_bits_of_one_value_per_call(self, demo_system, monkeypatch):
        cases = [(demo_system, False)] + [(plant, True) for plant in batch_plants()]
        batches = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: len(mus))
        batched = [discoveries_bits(plant, design) for plant, design in cases]
        assert max(batches) > 1
        factor = subspaces.factor_pencils
        monkeypatch.setattr(subspaces, "factor_pencils", lambda sys, mus, tol: [f for mu in mus for f in factor(sys, [mu], tol)])
        assert [discoveries_bits(plant, design) for plant, design in cases] == batched

    def test_a_span_that_reaches_its_bound_visits_every_value_it_factored(self, monkeypatch):
        factored = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: list(mus))
        reached = 0
        for plant in batch_plants():
            for fixed, avoid, discover in (
                (True, (), lambda plant, zeros, avoid: discover_rstar(plant, zeros=zeros)),
                (False, (), lambda plant, zeros, avoid: discover_vstar_g(plant, zeros=zeros)),
                (False, modes_of(plant), lambda plant, zeros, avoid: discover_vstar_g(plant, zeros=zeros, avoid=avoid)),
            ):
                copy, zeros = audited_copy(plant)
                factored.clear()
                span = discover(copy, zeros, avoid)
                if span.dim == kept_dim_vstar(copy) - _fixed_dims(zeros, every=fixed):
                    # Every kernel added its full width, so one call factored the values visited, and no other.
                    reached += 1
                    pool = mt.default_frequency_pool(copy, zeros, avoid=avoid)
                    calls = [[mu for mu in mus if mu in pool] for mus in factored]
                    assert [mus for mus in calls if mus] == [[mu for mu, _ in span.visited]]
        assert reached >= 50


def filtered_plant(p):
    """A generated plant with a zero at +2 and a 1/(s+1) filter on each of its p outputs: n = 2p + 4, D = 0."""
    g = mt.generate(mt.GeneratorSpec(p + 4, p + 2, p, planted_zero_values=(2.0,), seed=0))
    A = np.block([[g.A, np.zeros((g.n, p))], [g.C, -np.eye(p)]])
    return mt.LtiSystem(A, np.vstack([g.B, g.D]), np.hstack([np.zeros((p, g.n)), np.eye(p)]), np.zeros((p, g.m)))


STRUCTURE_CASES = (
    [pytest.param(sweep_plants, size, id=f"sweep-{size}") for size in SWEEP_SIZES]
    + [pytest.param(strictly_proper_plants, size, id=f"strictly-proper-{size}") for size in STRICTLY_PROPER_SIZES]
    + [pytest.param(lambda: [filtered_plant(p) for p in range(4, 20, 2)], (), id="filtered")]
    + [pytest.param(lambda: [mt.LtiSystem.load(demo_system_path())], (), id="demo")]
)


class TestPlantStructure:
    """The reduction's basis T of V*, friend F0 and free inputs N, kept in the plant's one ``structure`` fact."""

    @pytest.mark.parametrize("plants, size", STRUCTURE_CASES)
    def test_the_basis_friend_and_free_inputs_satisfy_their_identities(self, plants, size):
        for i, plant in enumerate(plants(*size)):
            s = sysmodel._structure(plant, DEFAULT_POLICY)
            A, B, C, D = plant.A, plant.B, plant.C, plant.D
            bound = 1e-12 * max(1.0, np.linalg.norm(A))
            assert np.linalg.norm(A @ s.T + B @ s.F0 - s.T @ s.A_f) <= bound, f"plant {i}"
            assert np.linalg.norm(C @ s.T + D @ s.F0) <= bound, f"plant {i}"
            assert np.linalg.norm(B @ s.N - s.T @ s.B_f) <= bound, f"plant {i}"
            assert np.linalg.norm(s.T.T @ s.T - np.eye(s.T.shape[1])) <= 1e-13, f"plant {i}"
            assert s.T.shape[1] == mt.vstar_recursive(plant).shape[1], f"plant {i}"
            assert not any(M.flags.writeable for M in (s.T, s.A_f, s.B_f, s.F0, s.N))

    @pytest.mark.parametrize("first", ["normal_rank", "invariant_zeros", "audit_assumptions", "discovery"])
    def test_a_fresh_plant_reduces_once_per_policy_whatever_it_is_asked_first(self, first, monkeypatch):
        # The strictly proper plant takes two reduction steps and has no zeros,
        # so a discovery asked first needs none computed.
        plant = wide_plant(0, 0, 8)
        asks = {
            "normal_rank": mt.normal_rank,
            "invariant_zeros": mt.invariant_zeros,
            "audit_assumptions": mt.audit_assumptions,
            "discovery": lambda plant, tol: discover_rstar(plant, tol=tol, zeros=[]),
        }
        calls = count_calls(monkeypatch, (sysmodel, "_reduction"))
        for k, tol in enumerate((DEFAULT_POLICY, TolerancePolicy(relative_rank_tol=1e-10))):
            asks[first](plant, tol)
            for ask in asks.values():
                ask(plant, tol)
            assert calls == {"_reduction": k + 1}
            assert sysmodel._structure(plant, tol).T.shape == (plant.n, 2)
        assert "structure" in plant._facts and not {"zeros", "audit"} & plant._facts.keys()

    def test_the_normal_rank_after_an_audit_makes_no_lapack_call(self, monkeypatch):
        plant = wide_plant(0, 1, 10)
        report = mt.audit_assumptions(plant)
        calls = count_calls(monkeypatch, *((np.linalg, name) for name in ("svd", "eigvals", "eig", "solve", "lstsq", "qr")))
        assert mt.normal_rank(plant) == report.normal_rank
        assert mt.invariant_zeros(plant) == report.zeros
        assert set(calls.values()) == {0}


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


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape, got.dtype) == (want.shape, want.dtype) and (
        np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


def tracked_spans(n: int, dim: int, rng):
    """A :class:`_SpanTracker` and the loop oracle, each fed the same ``dim`` random columns."""
    stacked, loop = _SpanTracker(n), LoopSpanTracker(n)
    for col in rng.standard_normal((dim, n, 1)):
        assert stacked.try_add(col) == loop.try_add(col)
    assert stacked.dim == loop.dim == dim
    assert same_bits(stacked.Q, loop.Q) and stacked.Q.flags.c_contiguous
    return stacked, loop


def block_kernel(kind: str, n: int, m: int, k: int, span: _SpanTracker, rng, layout: str) -> np.ndarray:
    """A (n + m, k) kernel: random, all zero, complex, or with its state rows inside the span."""
    if kind == "zero":
        kernel = np.zeros((n + m, k))
    elif kind == "complex":
        kernel = rng.standard_normal((n + m, k)) + 1j * rng.standard_normal((n + m, k))
    else:
        kernel = rng.standard_normal((n + m, k))
        if kind == "in-span":
            kernel[:n] = span.Q @ rng.standard_normal((span.dim, k))
    return np.asfortranarray(kernel) if layout == "F" else np.ascontiguousarray(kernel)


def assert_blocks_match(n, m, k, dim, kind, layout, seed):
    """The stacked block equals the loop oracle's to the bit, and leaves the rng stream where the oracle does."""
    rng = np.random.default_rng(seed)
    stacked, loop = tracked_spans(n, dim, rng)
    kernel = block_kernel(kind, n, m, k, stacked, rng, layout)
    mode = complex(-1.0, 2.0) if kind == "complex" else -1.5
    stream, oracle_stream = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = _best_block(stacked, kernel, mode, n, stream)
    want = loop_best_block(loop, kernel, mode, n, oracle_stream)
    assert stream.random() == oracle_stream.random()
    assert (got is None) == (want is None)
    if want is None:
        return None
    (v, w, quality, extends, chosen), (v0, w0, extension) = got, want
    assert same_bits(v, v0) and same_bits(w, w0)
    assert quality == extension[1] and extends == extension[2]
    if extends:
        stacked.add(*chosen)
    assert loop.add(extension) == extends
    assert stacked.dim == loop.dim and same_bits(stacked.Q, loop.Q) and stacked.Q.flags.c_contiguous
    return got


class TestStackedDraw:
    """The stacked draw slot against the per-column loop it replaced (``tests/draw_oracle.py``)."""

    @settings(max_examples=300)
    @given(
        n=st.integers(1, 8),
        m=st.integers(0, 4),
        k=st.integers(1, 6),
        dim_share=st.floats(0.0, 1.0),
        kind=st.sampled_from(["random", "zero", "in-span", "complex"]),
        layout=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**16),
    )
    def test_a_slot_matches_the_loop_to_the_bit(self, n, m, k, dim_share, kind, layout, seed):
        assert_blocks_match(n, m, k, round(dim_share * n), kind, layout, seed)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_each_kernel_dimension_on_empty_and_full_spans_and_a_zero_kernel(self, k):
        n, m = 5, 3
        assert assert_blocks_match(n, m, k, 0, "random", "F", k) is not None
        assert assert_blocks_match(n, m, k, 2, "random", "C", k) is not None
        assert assert_blocks_match(n, m, k, n, "random", "F", k) is None
        # Realified pairs: on an empty span, beside a span, and when a pair no longer fits.
        assert assert_blocks_match(n, m, k, 0, "complex", "C", k) is not None
        assert assert_blocks_match(n, m, k, 2, "complex", "F", k) is not None
        assert assert_blocks_match(n, m, k, n - 1, "complex", "F", k) is None
        assert assert_blocks_match(n, m, k, 2, "zero", "C", k) is None
        # Kernel columns inside the span leave only roundoff: scored, but they do not extend it.
        in_span = assert_blocks_match(n, m, k, 3, "in-span", "F", k)
        assert in_span is None or not in_span[3]

    @pytest.mark.parametrize("spec", [None, (12, 5, 4), (24, 14, 10)])
    def test_a_pass_matches_the_loop_on_discovered_spans(self, demo_system, spec):
        plant = demo_system if spec is None else mt.generate(mt.GeneratorSpec(*spec, seed=0))
        zeros = mt.invariant_zeros(plant)
        spans = [discover_vstar_g(plant, zeros=zeros), discover_rstar(plant, 0, zeros=zeros)]
        for kernels in spans:
            for seed in range(3):
                want = loop_draw(kernels, seed, _POOL_VISITS)
                if want is None:
                    with pytest.raises(mt.RankDeficientAfterRetries):
                        draw(kernels, seed)
                    continue
                got = draw(kernels, seed)
                assert same_bits(got.V, want[0]) and same_bits(got.W, want[1]) and got.modes == want[2]


class TestRankTestOnce:
    """A genericity trial rank-tests only the n x n V: a rank-deficient V*g draw must fail that test too."""

    @settings(max_examples=300)
    @given(
        n=st.integers(2, 10),
        data=st.data(),
        below=st.floats(0.0, 0.95),
        direction_scale=st.floats(-6.0, 1.0),
        tol=st.sampled_from([DEFAULT_POLICY, TolerancePolicy(relative_rank_tol=1e-10), TolerancePolicy(relative_rank_tol=1e-7)]),
        seed=st.integers(0, 2**16),
    )
    def test_a_rank_deficient_vstar_g_draw_fails_the_test_of_v(self, n, data, below, direction_scale, tol, seed):
        # V*g with sigma_1 = 1 and sigma_h at ``below`` times its rank threshold,
        # next to n - h random directions scaled by 10**direction_scale. Exact
        # singular values interlace, sigma_n(V) <= sigma_h(V*g), and V's threshold
        # is at least V*g's. Computed ones differ by SVD roundoff, measured at up
        # to about 1.2% of the default threshold, so the draw sits at most at 95%.
        h = data.draw(st.integers(2, n))
        rng = np.random.default_rng(seed)
        sigma = np.sort(rng.uniform(0.01, 1.0, h))[::-1]
        sigma[0], sigma[-1] = 1.0, below * tol.rank_threshold((n, h), 1.0)
        left = np.linalg.qr(rng.standard_normal((n, h)))[0]
        right = np.linalg.qr(rng.standard_normal((h, h)))[0]
        vg = (left * sigma) @ right
        directions = rng.standard_normal((n, n - h)) * 10.0**direction_scale
        assert rank_of(vg, tol) < h
        assert rank_of(np.column_stack([directions, vg]), tol) < n

    @pytest.mark.parametrize("h", [1, 3, 5])
    def test_a_zero_vstar_g_column_fails_the_test_of_v(self, h):
        rng = np.random.default_rng(h)
        vg = rng.standard_normal((5, h))
        vg[:, -1] = 0.0
        assert rank_of(vg) < h
        assert rank_of(np.column_stack([rng.standard_normal((5, 5 - h)), vg])) < 5
