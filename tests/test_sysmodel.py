import ast
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import monotrack as mt
from monotrack import sysmodel
from monotrack.seeding import DEFAULT_SEED, rng_for
from monotrack.sysmodel import rosenbrock

from .compression_oracle import oracle_zeros, sampled_normal_rank
from .conftest import DEMO_ZEROS, INTEGRATORS, count_calls, record_calls, wide_plant
from .pbh_oracle import pbh_stabilizable


class TestLtiSystem:
    def test_rejects_rank_deficient_input_stack(self):
        with pytest.raises(ValueError, match=r"^\[B; D\] must have full column rank$"):
            mt.LtiSystem(np.eye(2), np.zeros((2, 1)), np.eye(1, 2), np.zeros((1, 1)))

    def test_rejects_dependent_output_rows(self, demo_system):
        C = np.vstack([demo_system.C, demo_system.C[0]])
        D = np.vstack([demo_system.D, demo_system.D[0]])
        with pytest.raises(ValueError, match=r"^\[C D\] must have full row rank$"):
            mt.LtiSystem(demo_system.A, demo_system.B, C, D)

    @pytest.mark.parametrize("n, m, p", [(5, 3, 3), (6, 4, 2), (4, 2, 3)])
    def test_a_checked_construction_makes_one_svd(self, monkeypatch, n, m, p):
        # [B; D] and [C D]^T share one stacked rank test, padded when m != p;
        # the relaxed constructor makes none.
        rng = np.random.default_rng([n, m, p])
        matrices = rng.normal(size=(n, n)), rng.normal(size=(n, m)), rng.normal(size=(p, n)), rng.normal(size=(p, m))
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        mt.LtiSystem(*matrices)
        assert calls == {"svd": 1}
        mt.LtiSystem.relaxed(*matrices)
        assert calls == {"svd": 1}

    def test_both_checks_are_judged_in_the_one_test(self):
        # [B; D] passes and [C D] fails, and the reverse, with m != p so the stack is padded.
        B, D = np.eye(3, 2), np.zeros((1, 2))
        with pytest.raises(ValueError, match=r"^\[C D\] must have full row rank$"):
            mt.LtiSystem(np.eye(3), B, np.zeros((1, 3)), D)
        with pytest.raises(ValueError, match=r"^\[B; D\] must have full column rank$"):
            mt.LtiSystem(np.eye(3), np.ones((3, 2)), np.eye(1, 3), D)

    def test_relaxed_constructor_bypasses_rank_checks(self):
        sys = mt.LtiSystem.relaxed(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
        assert sys.n == 2

    def test_relaxed_system_compares_prints_and_serialises_like_a_checked_one(self, demo_system):
        relaxed = mt.LtiSystem.relaxed(demo_system.A, demo_system.B, demo_system.C, demo_system.D)
        assert vars(relaxed).keys() == vars(demo_system).keys()
        assert repr(relaxed) == repr(demo_system)
        assert relaxed.to_json_dict() == demo_system.to_json_dict()
        assert mt.LtiSystem.from_json_dict(relaxed.to_json_dict()).to_json_dict() == relaxed.to_json_dict()

    def test_holds_read_only_copies_of_its_matrices(self):
        A = np.diag([-1.0, -2.0])
        plant = mt.LtiSystem(A, np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            plant.A[0, 0] = 1.0
        A[0, 0] = 5.0
        assert plant.A[0, 0] == -1.0
        assert A.flags.writeable

    def test_json_round_trip(self, tmp_path, demo_system):
        path = tmp_path / "sys.json"
        demo_system.save(path)
        loaded = mt.LtiSystem.load(path)
        assert np.array_equal(loaded.A, demo_system.A)
        assert loaded.domain is mt.TimeDomain.CONTINUOUS

    @pytest.mark.parametrize("field, value", [(None, [1, 2]), ("A", {"x": 1}), ("B", [[1.0, [2.0]]]), ("C", "row")])
    def test_a_malformed_payload_raises_value_error(self, tmp_path, demo_system, field, value):
        payload = value if field is None else demo_system.to_json_dict() | {field: value}
        with pytest.raises(ValueError):
            mt.LtiSystem.from_json_dict(payload)
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            mt.LtiSystem.load(path)


def block_pencil(sys, lam):
    """The np.block assembly rosenbrock used to make, kept as its byte-level oracle."""
    shift = sys.A - lam * np.eye(sys.n)
    return np.block([[shift, sys.B.astype(shift.dtype)], [sys.C.astype(shift.dtype), sys.D.astype(shift.dtype)]])


class TestRosenbrock:
    @pytest.mark.parametrize("lam", [-1.0, 2.5, 0.0, 0, -1.0 + 2.0j, 3.0j, -0.5 - 1.5j])
    def test_matches_the_block_assembly_byte_for_byte(self, demo_system, lam):
        rng = np.random.default_rng(5)
        strictly_proper = mt.LtiSystem(rng.standard_normal((6, 6)), rng.standard_normal((6, 4)), rng.standard_normal((3, 6)), np.zeros((3, 4)))
        # -0.0 off the diagonal: A - lam*I turns it into +0.0 for negative lam.
        signed_zeros = mt.LtiSystem([[-1.0, -0.0], [-0.0, -2.0]], np.eye(2), [[1.0, -0.0]], [[0.0, -0.0]])
        generated = mt.generate(mt.GeneratorSpec(n=8, m=4, p=3, planted_zero_values=(-3.0,), seed=1))
        for plant in (demo_system, strictly_proper, signed_zeros, generated):
            pencil, expected = rosenbrock(plant, lam), block_pencil(plant, lam)
            assert pencil.dtype == expected.dtype
            assert pencil.shape == expected.shape == (plant.n + plant.p, plant.n + plant.m)
            assert pencil.tobytes() == expected.tobytes()

    def test_zero_shift_concatenates_blocks(self, demo_system):
        P = rosenbrock(demo_system, 0.0)
        assert np.array_equal(P[:5, :5], demo_system.A)
        assert np.array_equal(P[5:, 5:], demo_system.D)

    def test_pencil_linearity(self, demo_system):
        lam = 2.5
        diff = rosenbrock(demo_system, lam) - rosenbrock(demo_system, 0.0)
        expected = np.zeros_like(diff)
        expected[:5, :5] = -lam * np.eye(5)
        assert np.allclose(diff, expected)

    def test_kernel_dimension_at_stable_zero(self, demo_system):
        P = rosenbrock(demo_system, -6.0)
        assert P.shape[1] - mt.rank_of(P) == 2


class TestNormalRank:
    def test_demo_is_right_invertible(self, demo_system):
        assert mt.normal_rank(demo_system) == demo_system.n + demo_system.p

    def test_rank_drop_only_at_zeros(self, demo_system):
        nr = mt.normal_rank(demo_system)
        for lam in (-1.0, 0.0, 1.0, -3.3, 4.0):
            assert mt.rank_of(rosenbrock(demo_system, lam)) == nr
        for lam in DEMO_ZEROS:
            assert mt.rank_of(rosenbrock(demo_system, lam)) < nr

    def test_vanishing_output_rows(self):
        sys = mt.LtiSystem.relaxed(np.diag([-1.0, -2.0]), np.eye(2), np.zeros((1, 2)), np.zeros((1, 2)))
        assert mt.normal_rank(sys) == 2

    def test_siso_integrator(self):
        sys = mt.LtiSystem([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        assert mt.normal_rank(sys) == 2

    def test_a_dependent_output_row_is_counted_without_sampling(self, monkeypatch):
        # The second state is unreachable and C = I: the reduction finds one
        # dependent row after one step, and the sampled rank agrees.
        sys = mt.LtiSystem.relaxed(np.diag([-1.0, -2.0]), [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)))
        calls = count_calls(monkeypatch, (sysmodel, "rank_of"))
        assert mt.normal_rank(sys) == 3 == sampled_normal_rank(sys)
        assert calls == {"rank_of": 0}


class TestPureIntegrators:
    """The only candidate of (A, B), 0, is unstable, and the smallest singular pair of [A - 0 I, B] = [0, B] has no state part."""

    def test_a_singular_pair_with_no_state_part_takes_no_newton_step(self):
        assert sysmodel._newton_step(np.hstack([np.zeros((2, 2)), np.eye(2)]), 2, 2) is None

    @pytest.mark.parametrize("make, lambdas", INTEGRATORS)
    def test_an_integrator_is_audited_and_designed(self, make, lambdas):
        # The test suite turns warnings into errors, so a division by the
        # zero slope would fail here.
        plant = make()
        report = mt.audit_assumptions(plant)
        assert report.all_pass and report.zeros == []
        assert report.details["stabilizable"] == "all unstable modes controllable"
        assert mt.normal_rank(make()) == plant.n + plant.p
        fb = mt.synthesize(plant, mt.SynthesisSpec(lambdas=lambdas, reference=np.ones(plant.p)))
        assert sorted(z.real for z in fb.closed_loop_spectrum) == pytest.approx(sorted(lambdas), rel=1e-12)
        assert np.array_equal(fb.x_ss, np.ones(plant.n)) and not fb.u_ss.any()


class TestInvariantZeros:
    def test_demo_zero_set(self, demo_zeros):
        values = [z.value for z in demo_zeros]
        assert len(values) == 4
        assert max(abs(v - e) for v, e in zip(values, DEMO_ZEROS)) <= 1e-6
        assert all(z.geometric_multiplicity == 1 for z in demo_zeros)

    def test_first_order_lag_has_no_zeros(self):
        sys = mt.LtiSystem([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        assert mt.invariant_zeros(sys) == []

    def test_square_invertible_feedthrough_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 3))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, p))
            C = rng.normal(size=(p, n))
            D = rng.normal(size=(p, p)) + 2.0 * np.eye(p)
            sys = mt.LtiSystem(A, B, C, D)
            expected = list(np.linalg.eigvals(A - B @ np.linalg.solve(D, C)))
            got = [z.value for z in mt.invariant_zeros(sys)]
            assert len(got) == len(expected), f"trial {trial}"
            for e in expected:
                gaps = [abs(g - e) for g in got]
                best = int(np.argmin(gaps))
                assert gaps[best] <= 1e-6 * (1.0 + abs(e)), f"trial {trial}"
                got.pop(best)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            B = rng.normal(size=(4, 2))
            C = rng.normal(size=(2, 4))
            D = rng.normal(size=(2, 2)) + np.eye(2)
            zeros = mt.invariant_zeros(mt.LtiSystem(A, B, C, D))
            values = [z.value for z in zeros]
            for z in values:
                assert any(abs(z.conjugate() - other) <= 1e-6 * (1 + abs(z)) for other in values)

    def test_complex_zeros_serialise(self):
        # The phase flags of a complex pair must stay Python bools for the CLI's json output.
        zeros = mt.invariant_zeros(mt.generate(mt.GeneratorSpec(n=4, m=2, p=2, seed=1)))
        assert any(z.value.imag != 0.0 for z in zeros)
        assert all(type(z.value) is complex and type(z.is_minimum_phase) is bool for z in zeros)

    def test_uncontrollable_modes_appear_among_zeros(self):
        spec = mt.GeneratorSpec(n=4, m=2, p=2, planted_uncontrollable_modes=(-1.5,), seed=21)
        sys = mt.generate(spec)
        values = [z.value for z in mt.invariant_zeros(sys)]
        assert any(abs(v + 1.5) <= 1e-6 for v in values)


def qz_compression_candidates(sys, nr, sigma):
    """The square QZ compressions invariant_zeros once solved, an independent candidate set for the compression oracle.

    Each of the two compresses to min(n+p, n+m) whatever the normal rank
    ``nr`` and solves the generalized eigenproblem (L P(0) R, L E R) with
    SciPy, one at a time, so it needs no shift ``sigma``.
    """
    P0 = rosenbrock(sys, 0.0)
    E = np.zeros_like(P0)
    E[: sys.n, : sys.n] = np.eye(sys.n)
    k = min(P0.shape)
    candidates = []
    for index in (0, 1):
        rng = rng_for(DEFAULT_SEED, "zero-compression", index)
        L = rng.standard_normal((k, P0.shape[0]))
        R = rng.standard_normal((P0.shape[1], k))
        ev = scipy.linalg.eigvals(L @ P0 @ R, L @ E @ R)
        finite = ev[np.isfinite(ev)]
        candidates.append(finite[np.abs(finite) < 1.0 / np.sqrt(np.finfo(float).eps)])
    return tuple(candidates)


def found_plant():
    """Strictly proper n=16, m=p=12 plant whose zero at -85.02 sat in the QZ compression's gray zone."""
    rng = np.random.default_rng([2, 16, 12, 12])
    A = rng.standard_normal((16, 16)) / 4.0
    return mt.LtiSystem(A, rng.standard_normal((16, 12)), rng.standard_normal((12, 16)), np.zeros((12, 12)))


def gray_zone_plant():
    """A SISO plant whose zero near 0.504 leaves both of its candidate values in the rank test's gray zone."""
    A = [[-1, -2, -2, -2], [-3, -1, 1, -3], [0, 3, -2, -3], [3, 2, -3, 0]]
    return mt.LtiSystem(A, [[-1], [3], [-3], [-3]], [[-3, 0, 1, -1]], [[0.00665095169634921]])


def oracle_plants(demo_system):
    plants = [demo_system]
    plants += [wide_plant(seed, index, p) for seed in (0, 1) for index in range(4) for p in (8, 10, 12)]
    for n, m, p in ((4, 2, 2), (8, 4, 3), (12, 5, 4), (24, 8, 6)):
        for planted in ((), (-3.0,), (2.0,), (-1.0 + 2.0j, -1.0 - 2.0j)):
            plants.append(mt.generate(mt.GeneratorSpec(n=n, m=m, p=p, planted_zero_values=planted, seed=1)))
    return plants


def sweep_plants():
    """``generate`` over the six sweep sizes, planted none, -3, +2 or -1 +- 2j, seeds 0-2."""
    sizes = ((4, 2, 2), (6, 3, 2), (8, 4, 3), (10, 4, 3), (12, 5, 4), (16, 6, 5))
    plantings = ((), (-3.0,), (2.0,), (-1.0 + 2.0j, -1.0 - 2.0j))
    return [
        mt.generate(mt.GeneratorSpec(n, m, p, planted_zero_values=planted, seed=seed))
        for n, m, p in sizes for planted in plantings for seed in range(3)
    ]


def assert_same_zeros(got, want, rtol, label):
    """The two zero lists agree value by value to ``rtol`` relative, with the same multiplicities and phases."""
    assert len(got) == len(want), label
    got = list(got)
    for w in want:
        match = min(got, key=lambda z: abs(z.value - w.value))
        got.remove(match)
        assert abs(match.value - w.value) <= rtol * abs(w.value), label
        assert match.geometric_multiplicity == w.geometric_multiplicity, label
        assert match.is_minimum_phase == w.is_minimum_phase, label


def confirmed_by_rank_test(plant, zeros):
    """Each zero drops the rank of P(z) below the normal rank by its multiplicity, by a direct rank test."""
    nr = sampled_normal_rank(plant)
    return all(mt.rank_of(rosenbrock(plant, z.value)) == nr - z.geometric_multiplicity for z in zeros)


class TestZerosAgainstTheCompressionOracle:
    def test_the_zeros_and_normal_rank_equal_the_compression_path(self):
        for i, plant in enumerate(sweep_plants()):
            fresh = mt.LtiSystem.from_json_dict(plant.to_json_dict())
            want, nr = oracle_zeros(fresh)
            assert mt.normal_rank(fresh) == nr, f"plant {i}"
            assert_same_zeros(mt.invariant_zeros(fresh), want, 1e-10, f"plant {i}")

    def test_agrees_with_the_qz_compression(self, demo_system):
        for i, plant in enumerate(oracle_plants(demo_system)):
            want, _ = oracle_zeros(plant, candidates=qz_compression_candidates)
            assert_same_zeros(mt.invariant_zeros(plant), want, 1e-9, f"plant {i}")

    def test_zero_in_the_qz_gray_zone_is_confirmed(self):
        plant = found_plant()
        nr = mt.normal_rank(plant)
        zeros = mt.invariant_zeros(plant)
        assert len(zeros) == 4
        assert any(abs(z.value + 85.021) <= 1e-3 for z in zeros)
        for z in zeros:
            assert mt.rank_of(rosenbrock(plant, z.value)) == nr - z.geometric_multiplicity

    def test_a_gray_zone_candidate_is_confirmed_after_one_newton_step(self):
        # sigma_min of P at the candidate 0.5039911855668655 is 5.49e-13, within
        # ten thresholds (9.39e-14), which raised; one step from its singular
        # pair takes it to 0.5039911855660518, where sigma_min is 2.6e-16.
        plant = gray_zone_plant()
        zeros = mt.invariant_zeros(plant)
        want, _ = oracle_zeros(gray_zone_plant())
        assert_same_zeros(zeros, want, 1e-10, "gray zone")
        assert [z.value for z in zeros if not z.is_minimum_phase] == [pytest.approx(0.50399118556605, rel=1e-10)]
        assert confirmed_by_rank_test(plant, zeros)

    def test_a_candidate_beyond_the_gray_zone_is_decided_after_one_newton_step(self):
        # The zeros solve D z^2 + 12 z - 6 + 2D = 0: one near 0.5, one near -12/D. The eigenvalue
        # at 0.5 leaves sigma_min of P at 35 thresholds, which rejected the zero without a word.
        d = 0.00016989328613053583
        plant = mt.LtiSystem([[-2, 2], [-3, 2]], [[2], [2]], [[3, 3]], [[d]])
        q = -(12.0 + np.sqrt(144.0 - 4.0 * d * (2.0 * d - 6.0))) / 2.0
        zeros = mt.invariant_zeros(plant)
        assert [z.value.real for z in zeros] == pytest.approx([q / d, (2.0 * d - 6.0) / q], rel=1e-12)
        assert [z.is_minimum_phase for z in zeros] == [True, False]
        assert confirmed_by_rank_test(plant, zeros)

    def test_a_step_beyond_the_clustering_radius_leaves_the_candidate_ill_conditioned(self, monkeypatch):
        monkeypatch.setattr(sysmodel, "_newton_step", lambda *args: 1e-3)
        with pytest.raises(mt.IllConditionedPencil, match=r"candidate \(0\.50399118556"):
            mt.invariant_zeros(gray_zone_plant())

    def test_every_zero_pair_is_exactly_conjugate(self, demo_system):
        for plant in oracle_plants(demo_system):
            values = [z.value for z in mt.invariant_zeros(plant)]
            assert all(v.conjugate() in values for v in values if v.imag)


class TestReduction:
    def test_a_roundoff_input_on_vstar_has_no_columns(self):
        # The reduction leaves one state, at 5, and a B_f of roundoff size,
        # below the threshold. Taken as a column, the scaled shift
        # s B_f B_f^T would move 5 onto 0, and the zero would be lost.
        D = np.zeros((3, 4))
        D[0, 0] = 1.0
        plant = mt.LtiSystem.relaxed(
            [[-1, -3, -3], [-2, 3, 1], [2, -1, 3]],
            [[-2, 2, -2, -2], [-2, 1, -1, 0], [0, 1, -1, -2]],
            [[-1, -1, 1], [1, -2, 1], [-2, 1, -1]],
            D,
        )
        T, A_f, B_f, _, _, nr, threshold = sysmodel._reduction(plant, mt.DEFAULT_POLICY)
        assert T.shape == (3, 1) and A_f.shape == (1, 1) and A_f[0, 0] == pytest.approx(5.0, rel=1e-12)
        assert np.linalg.norm(B_f) <= threshold
        assert nr == sampled_normal_rank(plant) == 6
        zeros = mt.invariant_zeros(plant)
        assert [(round(z.value.real, 9), z.geometric_multiplicity) for z in zeros] == [(5.0, 1)]
        assert confirmed_by_rank_test(plant, zeros)

    @pytest.mark.parametrize("state", [4.0, -1.0])
    def test_a_state_no_input_or_output_reaches_is_a_zero(self, state):
        # P(lam) = [[state - lam, 0], [0, 0] x 3]: normal rank 1, and rank 0 at lam = state.
        plant = mt.LtiSystem.relaxed([[state]], np.zeros((1, 1)), np.zeros((3, 1)), np.zeros((3, 1)))
        zeros = mt.invariant_zeros(plant)
        assert mt.normal_rank(plant) == 1
        assert zeros == [mt.InvariantZero(complex(state), 1, state < 0.0)]
        assert confirmed_by_rank_test(plant, zeros)

    @pytest.mark.parametrize("domain", tuple(mt.TimeDomain))
    def test_a_zero_near_the_tracking_frequency_keeps_its_value(self, domain, monkeypatch):
        # SISO zero at A - B C / D = a - 2; P at the tracking frequency joins
        # the confirmation's one stacked SVD, after the candidate's two
        # values, and the zero is not moved onto it.
        tf = domain.tracking_frequency
        plant = mt.LtiSystem([[tf + 2.0 + 1e-7]], [[1.0]], [[1.0]], [[0.5]], domain)
        stacks = record_calls(monkeypatch, np.linalg, "svd", lambda a, *args, **kwargs: a.shape)
        report = mt.audit_assumptions(plant)
        assert (3, 2, 2) in stacks
        assert [z.value for z in report.zeros] == pytest.approx([tf + 1e-7], abs=1e-15)
        assert report.no_zero_at_tracking_frequency and report.all_pass
        assert report.details["no_zero_at_tracking_frequency"] == f"pencil rank 2 at frequency {tf}"
        assert confirmed_by_rank_test(plant, report.zeros)

    @pytest.mark.parametrize("domain", tuple(mt.TimeDomain))
    def test_a_zero_at_the_tracking_frequency_fails_the_audit(self, domain):
        tf = domain.tracking_frequency
        report = mt.audit_assumptions(mt.LtiSystem([[tf + 2.0]], [[1.0]], [[1.0]], [[0.5]], domain))
        assert [z.value for z in report.zeros] == [tf]
        assert not report.no_zero_at_tracking_frequency
        assert report.details["no_zero_at_tracking_frequency"] == f"pencil rank 1 at frequency {tf}"

    def test_the_confirmation_is_one_stacked_svd(self, demo_system, monkeypatch):
        # The demo's four real zeros, each with its two values, are confirmed
        # by one singular-value SVD of a stack of eight real pencils; no
        # candidate is polished.
        candidates = [(complex(z), complex(z), 1) for z in DEMO_ZEROS]
        stacks = record_calls(monkeypatch, np.linalg, "svd", lambda a, *args, **kwargs: a.shape)
        pencil = lambda v: rosenbrock(demo_system, v)  # noqa: E731
        confirmed, ranks = sysmodel._confirm(pencil, demo_system.n, candidates, [], 8, mt.DEFAULT_POLICY)
        assert stacks == [(8, 8, 9)] and ranks == []
        assert confirmed == [(z, 1) for z in DEMO_ZEROS]

    def test_a_zero_beside_a_controllable_mode_is_decided_at_its_shifted_value(self):
        # The uncontrollable state's mode -2 lies 3e-4 from a controllable
        # mode of A_f, so its eigenvalue of A_f is off by 1e-11 and P there is
        # 33 times the threshold from singular. The shift moves the
        # controllable mode away, and P at the shifted value confirms the zero.
        A = [[2, 2, 1, -3, -2, -3], [-2, 3, 2, 0, -1, 3], [3, -3, 3, 3, 0, -2], [-2, -1, 0, -1, 1, -2], [1, 3, 3, -3, 3, -3], [0, 0, 0, 0, 0, -2]]
        B = [[-2, 0, -1, 2], [0, -2, 2, 0], [-2, -2, 1, 1], [2, 2, 0, 2], [0, -2, 2, -2], [0, 0, 0, 0]]
        plant = mt.LtiSystem.relaxed(A, B, [[1, -2, -2, -2, 1, -2]], np.zeros((1, 4)))
        zeros = mt.invariant_zeros(plant)
        assert [(round(z.value.real, 9), z.geometric_multiplicity) for z in zeros] == [(-2.0, 1)]
        assert confirmed_by_rank_test(plant, zeros)


class TestClassifyZeros:
    def test_demo_partition(self, demo_system, demo_zeros):
        minimum = [z for z in demo_zeros if z.is_minimum_phase]
        non_minimum = [z for z in demo_zeros if not z.is_minimum_phase]
        assert len(minimum) == 1 and abs(minimum[0].value + 6) <= 1e-6
        assert len(non_minimum) == 3

    def test_discrete_region_membership(self, demo_zeros):
        inside = [z for z in demo_zeros if mt.TimeDomain.DISCRETE.is_stable(z.value)]
        assert inside == []

    def test_boundary_zero_is_non_minimum_phase(self):
        # Transmission zero at A - B/D*C = 2 - 2 = 0, exactly on the axis.
        sys = mt.LtiSystem([[2.0]], [[1.0]], [[1.0]], [[0.5]])
        zeros = mt.invariant_zeros(sys)
        assert len(zeros) == 1 and abs(zeros[0].value) <= 1e-9
        assert not zeros[0].is_minimum_phase


class TestSeedFreeZeros:
    def test_invariant_zeros_equal_the_audit_bit_for_bit(self, demo_system):
        plants = [
            demo_system,
            wide_plant(0, 1, 10),
            mt.generate(mt.GeneratorSpec(n=8, m=4, p=3, planted_zero_values=(-3.0,), seed=0)),
        ]
        for plant in plants:
            zeros, audited = mt.invariant_zeros(plant), mt.audit_assumptions(plant).zeros
            assert zeros == audited
            assert np.array([z.value for z in zeros]).tobytes() == np.array([z.value for z in audited]).tobytes()
        assert any(abs(z.value + 3.0) <= 1e-9 for z in mt.invariant_zeros(plants[2]))


class TestAuditAssumptions:
    def test_demo_passes_all(self, demo_system):
        report = mt.audit_assumptions(demo_system)
        assert report.all_pass
        assert report.right_invertible and report.stabilizable

    def test_full_rank_audit_takes_the_normal_rank_from_the_reduction(self, fresh_demo, monkeypatch):
        # The demo's D has full row rank: the reduction makes one SVD and no
        # step, and A_f has A's shape, so one stacked eigenvalue problem finds
        # the candidates of both fixed-mode tests. One stacked SVD confirms
        # the 4 zeros; no zero is near 0, so P(0) is not factored. One mode of
        # A is uncontrollable, but it is stable, so the stabilizability test
        # takes no SVD.
        calls = count_calls(monkeypatch, (sysmodel, "rank_of"), (np.linalg, "svd"), (np.linalg, "eigvals"))
        report = mt.audit_assumptions(fresh_demo)
        assert calls == {"rank_of": 0, "svd": 1 + 1, "eigvals": 1}
        assert report.normal_rank == fresh_demo.n + fresh_demo.p
        assert report.details["no_zero_at_tracking_frequency"] == "pencil rank 8 at frequency 0.0"
        assert report.stabilizable

    def test_zeros_alone_are_the_audit_zeros_bit_for_bit(self, fresh_demo, monkeypatch):
        # invariant_zeros without an audit makes the reduction's one SVD, the
        # one stacked eigenvalue problem, which also finds the candidates of
        # (A, B), and the one confirmation SVD; it confirms no candidate of (A, B).
        audited = mt.audit_assumptions(mt.LtiSystem(fresh_demo.A, fresh_demo.B, fresh_demo.C, fresh_demo.D)).zeros
        calls = count_calls(monkeypatch, (np.linalg, "svd"), (np.linalg, "eigvals"))
        zeros = mt.invariant_zeros(fresh_demo)
        assert calls == {"svd": 1 + 1, "eigvals": 1}
        assert np.array([z.value for z in zeros]).tobytes() == np.array([z.value for z in audited]).tobytes()

    def test_a_controllable_single_input_plant_takes_one_eigenvalue_problem(self, monkeypatch):
        # Unstable modes 1 +- 2j and 0.5 with a stable mode -1, all reachable
        # from one input: no eigenvalue of A recurs in A - s b b^T, so the
        # stacked eigenvalue problem of the audit leaves (A, B) no candidate,
        # and the stabilizability test factors no [A - vI, b].
        A = np.array([[1.0, 2.0, 0.0, 0.0], [-2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, -1.0]])
        B = np.array([[1.0], [0.0], [1.0], [1.0]])
        plant = mt.LtiSystem(A, B, [[1.0, 0.0, 1.0, 0.0]], [[0.0]])
        eigvals = record_calls(monkeypatch, np.linalg, "eigvals", lambda a, *args: np.shape(a))
        stacks = record_calls(monkeypatch, np.linalg, "svd", lambda a, *args, **kwargs: a.shape)
        report = mt.audit_assumptions(plant)
        assert eigvals == [(1, 3, 3), (2, 4, 4)]  # D = 0: A_f is smaller than A
        assert not [shape for shape in stacks if shape[-2:] == (4, 5)]
        assert report.stabilizable

    def test_a_strictly_proper_draw_at_n_64_audits_in_two_svds(self, monkeypatch):
        # D = 0 is below the threshold and takes no SVD. The reduction makes
        # one SVD of C, restricts the state to ker C and appends C B, which
        # has full row rank: one SVD more. The plant has no zeros and (A, B)
        # no uncontrollable mode: neither stacked eigenvalue problem leaves a
        # candidate, so no pencil is factored.
        rng = np.random.default_rng([0, 64, 34, 26])
        A = rng.standard_normal((64, 64)) / 8.0
        sys = mt.LtiSystem(A, rng.standard_normal((64, 34)), rng.standard_normal((26, 64)), np.zeros((26, 34)))
        calls = count_calls(monkeypatch, (np.linalg, "svd"), (np.linalg, "eigvals"))
        report = mt.audit_assumptions(sys)
        assert report.stabilizable and report.zeros == []
        assert calls == {"svd": 2, "eigvals": 1 + 1}

    def test_an_uncontrollable_pair_lists_both_members(self):
        # The pair 1 +- 2j is not reachable from B; both members are reported,
        # lower first.
        A = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
        B = np.array([[0.0], [0.0], [1.0]])
        sys = mt.LtiSystem(A, B, [[1.0, 0.0, 1.0]], [[1.0]])
        report = mt.audit_assumptions(sys)
        assert not report.stabilizable
        bad = sorted((lam for lam in np.linalg.eigvals(A).tolist() if lam.real > 0.0), key=lambda lam: lam.imag)
        assert report.details["stabilizable"] == f"uncontrollable unstable modes {bad}"
        # Plain Python numbers, not NumPy reprs.
        assert "np." not in report.details["stabilizable"]

    def test_report_carries_the_normal_rank_and_zeros(self, demo_system, demo_zeros):
        report = mt.audit_assumptions(demo_system)
        assert report.normal_rank == mt.normal_rank(demo_system) == demo_system.n + demo_system.p
        assert report.zeros == demo_zeros

    def test_ill_conditioned_zeros_are_recorded(self, fresh_demo, ill_conditioned_zeros):
        report = mt.audit_assumptions(fresh_demo)
        assert report.zeros is None
        assert not report.distinct_min_phase_zeros and not report.all_pass
        assert ill_conditioned_zeros in report.details["distinct_min_phase_zeros"]
        with pytest.raises(mt.AssumptionViolation) as err:
            mt.synthesize(fresh_demo, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert err.value.report == report

    def test_the_report_and_zeros_are_kept_on_the_plant(self, fresh_demo, monkeypatch):
        report = mt.audit_assumptions(fresh_demo)
        calls = count_calls(monkeypatch, (sysmodel, "_analyze"), (sysmodel, "_reduction"))
        assert mt.audit_assumptions(fresh_demo) is report
        zeros = mt.invariant_zeros(fresh_demo)
        assert zeros == report.zeros and zeros is not report.zeros
        zeros.clear()
        assert mt.invariant_zeros(fresh_demo) == report.zeros
        assert mt.normal_rank(fresh_demo) == report.normal_rank
        assert calls == {"_analyze": 0, "_reduction": 0}
        # Another policy is another key.
        other = mt.TolerancePolicy(relative_rank_tol=1e-10)
        assert mt.audit_assumptions(fresh_demo, other) is not report
        assert calls == {"_analyze": 1, "_reduction": 1}

    def test_uncontrollable_unstable_mode_fails(self):
        A = np.diag([1.0, -2.0])
        B = np.array([[0.0], [1.0]])
        C = np.array([[1.0, 1.0]])
        D = np.array([[1.0]])
        report = mt.audit_assumptions(mt.LtiSystem(A, B, C, D))
        assert not report.stabilizable

    def test_zero_at_tracking_frequency_fails(self):
        # One transmission zero placed exactly at the origin.
        sys = mt.LtiSystem([[2.0]], [[1.0]], [[1.0]], [[0.5]])
        report = mt.audit_assumptions(sys)
        assert not report.no_zero_at_tracking_frequency


def both_pairs(plant, tol=mt.DEFAULT_POLICY):
    """The two pairs of the fixed-mode tests: (A_f, B_f) at the reduction's threshold and (A, B) at that of [A B]."""
    _, A_f, B_f, _, _, _, threshold = sysmodel._reduction(plant, tol)
    AB_threshold = tol.rank_threshold((plant.n, plant.n + plant.m), float(np.linalg.norm(np.hstack([plant.A, plant.B]))))
    return [(A_f, B_f, threshold), (plant.A, plant.B, AB_threshold)]


class TestOneEigenvalueCallForBothFixedModeTests:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        p=st.integers(1, 4),
        proper=st.booleans(),
        hidden=st.integers(0, 2),
    )
    @settings(max_examples=150)
    def test_the_merged_call_gives_the_candidates_of_two_separate_calls_bit_for_bit(self, seed, n, m, p, proper, hidden):
        # The first ``hidden`` states are unreachable from B, so (A, B) has candidates to find.
        assume(hidden < n)
        m, p = (m, p) if proper else (min(m, n - hidden), min(p, n))
        rng = np.random.default_rng(seed)
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        A[:hidden, hidden:], B[:hidden] = 0.0, 0.0
        T, _ = np.linalg.qr(rng.standard_normal((n, n)))
        D = rng.standard_normal((p, m)) if proper else np.zeros((p, m))
        try:
            plant = mt.LtiSystem(T @ A @ T.T, T @ B, rng.standard_normal((p, n)), D)
        except ValueError:
            assume(False)
        pairs = both_pairs(plant)
        merged = sysmodel._fixed_mode_candidates(pairs)
        separate = [sysmodel._fixed_mode_candidates([pair])[0] for pair in pairs]
        assert repr(merged) == repr(separate)

    def test_a_complex_spectrum_of_A_beside_a_real_one_of_A_f(self, monkeypatch):
        # A = [[0, 1], [-1, 0]] has eigenvalues +-j, and A_f = A - B C has the
        # real ones of s^2 + 3s + 1. One stacked call returns both spectra
        # complex; the candidates are still those of separate calls.
        plant = mt.LtiSystem([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[0.0, 3.0]], [[1.0]])
        pairs = both_pairs(plant)
        assert not np.iscomplexobj(np.linalg.eigvals(pairs[0][0])) and np.iscomplexobj(np.linalg.eigvals(plant.A))
        shapes = record_calls(monkeypatch, np.linalg, "eigvals", lambda a, *args: np.shape(a))
        merged = sysmodel._fixed_mode_candidates(pairs)
        assert shapes == [(3, 2, 2)]
        assert repr(merged) == repr([sysmodel._fixed_mode_candidates([pair])[0] for pair in pairs])
        assert [len(candidates) for candidates in merged] == [2, 0]

    @pytest.mark.parametrize("proper, calls", [(False, 2), (True, 1)])
    def test_an_audit_makes_one_eigenvalue_call_per_shape(self, proper, calls, monkeypatch):
        # The wide-outputs plant is strictly proper and its A_f is 2 x 2, smaller
        # than A; with a D of full row rank, A_f has A's shape and one call serves both tests.
        plant = wide_plant(0, 0, 4)
        if proper:
            plant = mt.LtiSystem(plant.A, plant.B, plant.C, np.random.default_rng(1).standard_normal((plant.p, plant.m)))
        counted = count_calls(monkeypatch, (np.linalg, "eigvals"))
        mt.audit_assumptions(plant)
        assert counted == {"eigvals": calls}


def _hidden_uncontrollable_plant(seed, kind, unstable, domain, n_c, m):
    """T [[A_u, 0], [*, A_c]] T^T with B = T [0; B_c], and the eigenvalues of A_u.

    A_u is a real mode, a complex pair or a 2 x 2 Jordan block, unstable or
    stable in ``domain``; (A_c, B_c) is a random pair and T a random orthogonal matrix.
    """
    rng = np.random.default_rng(seed)
    if domain is mt.TimeDomain.CONTINUOUS:
        radius = rng.uniform(0.1, 3.0) * (1.0 if unstable else -1.0)
        angle = rng.uniform(0.2, 2.0)
        real, imag = radius, angle
    else:
        radius = rng.uniform(1.05, 2.0) if unstable else rng.uniform(0.1, 0.95)
        angle = rng.uniform(0.2, 2.9)
        real, imag = radius * np.cos(angle), radius * np.sin(angle)
    if kind == "pair":
        A_u = np.array([[real, imag], [-imag, real]])
        modes = [complex(real, imag), complex(real, -imag)]
    else:
        lam = radius if domain is mt.TimeDomain.CONTINUOUS else radius * rng.choice([-1.0, 1.0])
        A_u = np.array([[lam]]) if kind == "real" else np.array([[lam, 1.0], [0.0, lam]])
        modes = [complex(lam)] * A_u.shape[0]
    k = A_u.shape[0]
    n = k + n_c
    A = np.block([[A_u, np.zeros((k, n_c))], [rng.standard_normal((n_c, k)), rng.standard_normal((n_c, n_c)) / np.sqrt(n_c)]])
    B = np.vstack([np.zeros((k, m)), rng.standard_normal((n_c, m))])
    T, _ = np.linalg.qr(rng.standard_normal((n, n)))
    plant = mt.LtiSystem(T @ A @ T.T, T @ B, rng.standard_normal((1, n)), np.zeros((1, m)), domain)
    return plant, modes


def reported_modes(report):
    """The modes that ``details["stabilizable"]`` of a failed audit lists."""
    return [complex(r) for r in ast.literal_eval(report.details["stabilizable"].removeprefix("uncontrollable unstable modes "))]


class TestStabilizabilityAgainstPbh:
    def test_a_hidden_mode_behind_a_single_input_chain_takes_one_eigenvalue_problem_and_one_svd(self, monkeypatch):
        # Five single-input steps of a controllability staircase reach the
        # controllable states, and the hidden mode leaks into the sixth block
        # at about 1.3 times the threshold. The fixed-mode test finds it in
        # the audit's stacked eigenvalue problem of A's shape and confirms it
        # in one stacked SVD of [A - vI, b] at its two values, with no Newton
        # step, after the zeros' confirmation.
        plant, modes = _hidden_uncontrollable_plant(0, "real", True, mt.TimeDomain.CONTINUOUS, 5, 1)
        stacks = record_calls(monkeypatch, np.linalg, "svd", lambda a, *args, **kwargs: a.shape)
        eigvals = record_calls(monkeypatch, np.linalg, "eigvals", lambda a, *args: np.shape(a))
        calls = count_calls(monkeypatch, (sysmodel, "rank_of"))
        report = mt.audit_assumptions(plant)
        assert calls == {"rank_of": 0}
        assert eigvals == [(1, 5, 5), (2, 6, 6)]  # D = 0: A_f is smaller than A
        assert [shape for shape in stacks if shape[-2:] == (6, 7)] == [(2, 6, 7)] and stacks[-1] == (2, 6, 7)
        assert not report.stabilizable and reported_modes(report) == pytest.approx(modes, rel=1e-8)

    @pytest.mark.parametrize(
        "seed, kind, domain, n_c, m",
        [
            (131, "real", mt.TimeDomain.DISCRETE, 3, 1),
            (131, "real", mt.TimeDomain.DISCRETE, 3, 2),
            (131, "real", mt.TimeDomain.DISCRETE, 3, 3),
            (11, "real", mt.TimeDomain.CONTINUOUS, 6, 1),
            (54, "jordan", mt.TimeDomain.CONTINUOUS, 3, 3),
            (112, "jordan", mt.TimeDomain.CONTINUOUS, 4, 2),
        ],
    )
    def test_a_hidden_mode_the_pbh_test_misses_fails_the_audit(self, seed, kind, domain, n_c, m):
        # The real cases hide an unstable mode 1e-5 or 1e-2 from a
        # controllable one: its computed eigenvalue of A is off by more than
        # the threshold, and the PBH test there calls the plant stabilizable.
        # The Jordan pairs split, and the PBH test at the split values misses
        # them; the last one's eigenvalues of A lie 1.9e-6 apart, beyond the
        # clustering radius, and are reported at their mean.
        plant, modes = _hidden_uncontrollable_plant(seed, kind, True, domain, n_c, m)
        report = mt.audit_assumptions(plant)
        assert not report.stabilizable
        reported = reported_modes(report)
        assert len(reported) == len(modes)
        if kind == "jordan":
            assert abs(sum(reported) / 2.0 - modes[0]) <= 1e-8 * abs(modes[0])
            assert max(abs(r - modes[0]) for r in reported) <= 1e-6 * abs(modes[0])
        else:
            assert reported == pytest.approx(modes, rel=1e-8)

    def test_an_undecided_candidate_fails_the_assumption(self, ill_conditioned_zeros):
        plant, _ = _hidden_uncontrollable_plant(0, "real", True, mt.TimeDomain.CONTINUOUS, 5, 1)
        report = mt.audit_assumptions(plant)
        assert not report.stabilizable
        assert report.details["stabilizable"] == f"stabilizability test ill-conditioned: {ill_conditioned_zeros}"

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(("real", "pair", "jordan")),
        unstable=st.booleans(),
        domain=st.sampled_from(tuple(mt.TimeDomain)),
        n_c=st.integers(1, 6),
        m=st.integers(1, 3),
    )
    @settings(max_examples=200)
    def test_verdict_and_modes_match_the_pbh_oracle(self, seed, kind, unstable, domain, n_c, m):
        assume(m <= n_c)
        plant, modes = _hidden_uncontrollable_plant(seed, kind, unstable, domain, n_c, m)
        report = mt.audit_assumptions(plant)
        expected, _ = pbh_stabilizable(plant)
        assert report.stabilizable == expected == (not unstable)
        if report.stabilizable:
            return
        reported = [complex(r) for r in ast.literal_eval(report.details["stabilizable"].removeprefix("uncontrollable unstable modes "))]
        assert len(reported) == len(modes)
        if kind == "jordan":
            # A perturbation e splits a defective eigenvalue by sqrt(e): only
            # the mean of the pair is determined to working precision.
            assert abs(sum(reported) / 2.0 - modes[0]) <= 1e-8 * abs(modes[0])
            assert max(abs(r - modes[0]) for r in reported) <= 1e-6 * abs(modes[0])
            return
        for value in modes:
            assert min(abs(r - value) for r in reported) <= 1e-8 * abs(value)
