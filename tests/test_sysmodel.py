import ast

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import monotrack as mt
from monotrack import ensemble, sysmodel
from monotrack.numkernel import controllable_staircase
from monotrack.seeding import DEFAULT_SEED, rng_for
from monotrack.sysmodel import rosenbrock

from .conftest import DEMO_ZEROS, count_calls, wide_plant
from .pbh_oracle import pbh_stabilizable


class TestLtiSystem:
    def test_rejects_rank_deficient_input_stack(self):
        with pytest.raises(ValueError):
            mt.LtiSystem(np.eye(2), np.zeros((2, 1)), np.eye(1, 2), np.zeros((1, 1)))

    def test_rejects_dependent_output_rows(self, demo_system):
        C = np.vstack([demo_system.C, demo_system.C[0]])
        D = np.vstack([demo_system.D, demo_system.D[0]])
        with pytest.raises(ValueError):
            mt.LtiSystem(demo_system.A, demo_system.B, C, D)

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

    def test_uncontrollable_modes_appear_among_zeros(self):
        spec = mt.GeneratorSpec(n=4, m=2, p=2, planted_uncontrollable_modes=(-1.5,), seed=21)
        sys = mt.generate(spec)
        values = [z.value for z in mt.invariant_zeros(sys)]
        assert any(abs(v + 1.5) <= 1e-6 for v in values)


def qz_compression_candidates(sys, index, nr, sigma):
    """The square QZ compression invariant_zeros used to solve, kept as its oracle.

    It compresses to min(n+p, n+m) whatever the normal rank ``nr`` and solves
    the generalized eigenproblem (L P(0) R, L E R) with SciPy, so it needs no
    shift ``sigma``.
    """
    P0 = rosenbrock(sys, 0.0)
    E = np.zeros_like(P0)
    E[: sys.n, : sys.n] = np.eye(sys.n)
    k = min(P0.shape)
    rng = rng_for(DEFAULT_SEED, "zero-compression", index)
    L = rng.standard_normal((k, P0.shape[0]))
    R = rng.standard_normal((P0.shape[1], k))
    ev = scipy.linalg.eigvals(L @ P0 @ R, L @ E @ R)
    finite = ev[np.isfinite(ev)]
    return finite[np.abs(finite) < 1.0 / np.sqrt(np.finfo(float).eps)]


def found_plant():
    """Strictly proper n=16, m=p=12 plant whose zero at -85.02 sat in the QZ compression's gray zone."""
    rng = np.random.default_rng([2, 16, 12, 12])
    A = rng.standard_normal((16, 16)) / 4.0
    return mt.LtiSystem(A, rng.standard_normal((16, 12)), rng.standard_normal((12, 16)), np.zeros((12, 12)))


def oracle_plants(demo_system):
    plants = [demo_system]
    plants += [wide_plant(seed, index, p) for seed in (0, 1) for index in range(4) for p in (8, 10, 12)]
    for n, m, p in ((4, 2, 2), (8, 4, 3), (12, 5, 4), (24, 8, 6)):
        for planted in ((), (-3.0,), (2.0,), (-1.0 + 2.0j, -1.0 - 2.0j)):
            plants.append(mt.generate(mt.GeneratorSpec(n=n, m=m, p=p, planted_zero_values=planted, seed=1)))
    return plants


class TestZeroCompression:
    def test_agrees_with_the_qz_compression(self, demo_system, monkeypatch):
        expected = {}
        plants = oracle_plants(demo_system)
        with monkeypatch.context() as patch:
            patch.setattr(sysmodel, "_compression_candidates", qz_compression_candidates)
            for i, plant in enumerate(plants):
                expected[i] = mt.invariant_zeros(plant)
        for i, plant in enumerate(plants):
            got = mt.invariant_zeros(plant)
            assert len(got) == len(expected[i]), f"plant {i}"
            for want in expected[i]:
                match = min(got, key=lambda z: abs(z.value - want.value))
                got.remove(match)
                assert abs(match.value - want.value) <= 1e-9 * abs(want.value), f"plant {i}"
                assert match.geometric_multiplicity == want.geometric_multiplicity
                assert match.is_minimum_phase == want.is_minimum_phase

    def test_zero_in_the_qz_gray_zone_is_confirmed(self):
        plant = found_plant()
        nr = mt.normal_rank(plant)
        zeros = mt.invariant_zeros(plant)
        assert len(zeros) == 4
        assert any(abs(z.value + 85.021) <= 1e-3 for z in zeros)
        for z in zeros:
            assert mt.rank_of(rosenbrock(plant, z.value)) == nr - z.geometric_multiplicity

    def test_a_pair_straddling_the_rounding_grid_is_not_restored_twice(self, monkeypatch):
        z = complex(-1.0, 2.0000000005)
        generated = mt.generate(mt.GeneratorSpec(n=4, m=2, p=2, planted_zero_values=(z, z.conjugate()), seed=0))
        # A new object: the generated one keeps the zeros its audit confirmed.
        plant = mt.LtiSystem.from_json_dict(generated.to_json_dict())
        # The planted pair a few ulps off, already at the rank threshold, so
        # polishing keeps it; at 9 digits the imaginary parts round to
        # 2.000000001 and -2.0, not to a conjugate pair.
        pair = np.array([complex(-1.0, 2.0000000005 + 3e-15), complex(-1.0, -2.0000000005 + 3e-15)])
        monkeypatch.setattr(sysmodel, "_compression_candidates", lambda *args: pair)
        assert [w.value for w in mt.invariant_zeros(plant)] == [complex(pair[1]), complex(pair[0])]


class TestConfirmedZeros:
    def test_confirmation_reuses_the_polishing_svd(self, demo_system, monkeypatch):
        # Each of the 4 demo zeros is at the rank threshold already, so
        # polishing takes no step and its SVD confirms the zero.
        policy = mt.DEFAULT_POLICY
        with monkeypatch.context() as patch:
            # Discarding the polishing SVD forces a second SVD per zero.
            polish = sysmodel._polish_candidate
            patch.setattr(sysmodel, "_polish_candidate", lambda *args: (polish(*args)[0], None))
            expected = sysmodel._confirmed_zeros(demo_system, 8, policy)
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        zeros = sysmodel._confirmed_zeros(demo_system, 8, policy)
        assert calls == {"svd": 4}
        assert zeros == expected
        assert [z.value.real for z in zeros] == pytest.approx(DEMO_ZEROS, abs=1e-9)

    def test_both_compressions_share_one_shift(self, demo_system, monkeypatch):
        shifts = []
        compress = sysmodel._compression_candidates

        def capture(*args):
            shifts.append(args[-1])
            return compress(*args)

        monkeypatch.setattr(sysmodel, "_compression_candidates", capture)
        calls = count_calls(monkeypatch, (sysmodel, "rosenbrock"))
        sysmodel._confirmed_zeros(demo_system, 8, mt.DEFAULT_POLICY)
        assert shifts == [1j * (1.0 + np.linalg.norm(rosenbrock(demo_system, 0.0), 1))] * 2
        # P(0) once for the shift, P(sigma) per compression, and two pencils
        # per demo zero (polishing and confirmation).
        assert calls == {"rosenbrock": 1 + 2 + 2 * 4}


class TestPolishCandidate:
    def test_a_root_at_the_rank_threshold_is_not_stepped_away(self, monkeypatch):
        # A second Newton step from an exact root follows noise singular
        # vectors; polishing must stop once the pencil is singular to working
        # precision.
        audited = []
        audit = ensemble.audit_assumptions

        def capture(plant, *args, **kwargs):
            audited.append(plant)
            return audit(plant, *args, **kwargs)

        monkeypatch.setattr(ensemble, "audit_assumptions", capture)
        mt.generate(mt.GeneratorSpec(n=8, m=4, p=3, planted_zero_values=(-3.0,), seed=5))
        plant, z = audited[0], complex(-2.9999999999998996)
        P = rosenbrock(plant, z)
        s = np.linalg.svd(P, compute_uv=False)
        assert s[-1] <= mt.DEFAULT_POLICY.rank_threshold(P.shape, s[0])
        polished, singular_values = sysmodel._polish_candidate(plant, z, mt.DEFAULT_POLICY)
        assert polished == z
        # No step was taken: the singular values of P at the root come back.
        assert np.allclose(singular_values, s, rtol=1e-12, atol=1e-12 * s[0])

    def test_a_nearby_candidate_is_refined(self, demo_system, monkeypatch):
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        refined, singular_values = sysmodel._polish_candidate(demo_system, complex(-6.0 + 1e-8), mt.DEFAULT_POLICY)
        assert abs(refined + 6.0) <= 1e-12
        assert type(refined) is complex
        # One step costs 3 SVDs: the singular values at the candidate, the
        # full SVD it steps from, and the full SVD at the value it reaches,
        # whose singular values come back to confirm the refined value, so
        # the caller factors no pencil.
        assert calls == {"svd": 3}
        expected = np.linalg.svd(rosenbrock(demo_system, refined.real), compute_uv=False)
        assert np.allclose(singular_values, expected, rtol=1e-12, atol=1e-12 * expected[0])

    def test_refined_complex_zeros_serialise(self):
        # The complex pair of this plant is refined by a Newton step; its phase
        # flags must stay Python bools for the CLI's json output.
        zeros = mt.invariant_zeros(mt.generate(mt.GeneratorSpec(n=4, m=2, p=2, seed=1)))
        assert any(z.value.imag != 0.0 for z in zeros)
        assert all(type(z.value) is complex and type(z.is_minimum_phase) is bool for z in zeros)


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

    def test_full_rank_audit_reads_the_normal_rank_at_the_tracking_frequency(self, fresh_demo, monkeypatch):
        # The test at the tracking frequency reaches n + min(m, p), which is
        # then the normal rank. The staircase takes 2 steps: B reaches 4 of
        # the 5 states, and A adds nothing to them, so one stable mode stays
        # uncontrollable. The other 4 SVDs confirm the 4 zeros.
        calls = count_calls(monkeypatch, (sysmodel, "rank_of"), (sysmodel, "normal_rank"), (np.linalg, "svd"))
        report = mt.audit_assumptions(fresh_demo)
        assert calls == {"rank_of": 1, "normal_rank": 0, "svd": 1 + 2 + 4}
        assert report.normal_rank == fresh_demo.n + fresh_demo.p
        assert report.stabilizable

    def test_a_zero_at_the_tracking_frequency_samples_the_normal_rank(self, monkeypatch):
        sys = mt.LtiSystem([[2.0]], [[1.0]], [[1.0]], [[0.5]])
        calls = count_calls(monkeypatch, (sysmodel, "normal_rank"))
        report = mt.audit_assumptions(sys)
        assert calls == {"normal_rank": 1}
        assert report.normal_rank == 2
        assert report.details["no_zero_at_tracking_frequency"] == "pencil rank 1 at frequency 0.0"

    def test_a_single_input_staircase_takes_one_step_per_state(self, monkeypatch):
        # Unstable modes 1 +- 2j and 0.5 with a stable mode -1, all reachable
        # from one input: each staircase step reaches one more state, so
        # there are n = 4 steps, one SVD of a column vector each, and no
        # eigenvalue problem. (The PBH loop took 2 tests, one per unstable
        # conjugate pair, after an eigenvalue problem on A.)
        A = np.array([[1.0, 2.0, 0.0, 0.0], [-2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, -1.0]])
        B = np.array([[1.0], [0.0], [1.0], [1.0]])
        calls = count_calls(monkeypatch, (np.linalg, "svd"), (np.linalg, "eigvals"))
        X, Z = controllable_staircase(A, B)
        assert calls == {"svd": 4, "eigvals": 0}
        assert X.shape == (4, 4) and Z.shape == (4, 0)
        assert mt.audit_assumptions(mt.LtiSystem(A, B, [[1.0, 0.0, 1.0, 0.0]], [[0.0]])).stabilizable

    def test_a_strictly_proper_draw_at_n_64_audits_in_three_svds(self, monkeypatch):
        # B reaches 34 of the 64 states and A B the other 30: 2 staircase
        # steps after the rank test at the tracking frequency. The plant has
        # no zeros; the 2 eigenvalue problems are those of the zero compressions.
        rng = np.random.default_rng([0, 64, 34, 26])
        A = rng.standard_normal((64, 64)) / 8.0
        sys = mt.LtiSystem(A, rng.standard_normal((64, 34)), rng.standard_normal((26, 64)), np.zeros((26, 34)))
        calls = count_calls(monkeypatch, (np.linalg, "svd"), (np.linalg, "eigvals"))
        report = mt.audit_assumptions(sys)
        assert report.stabilizable and report.zeros == []
        assert calls == {"svd": 1 + 2, "eigvals": 2}

    def test_an_uncontrollable_pair_lists_both_members(self):
        # The pair 1 +- 2j is not reachable from B; both members are reported.
        A = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
        B = np.array([[0.0], [0.0], [1.0]])
        sys = mt.LtiSystem(A, B, [[1.0, 0.0, 1.0]], [[1.0]])
        report = mt.audit_assumptions(sys)
        assert not report.stabilizable
        bad = [lam for lam in np.linalg.eigvals(A).tolist() if lam.real > 0.0]
        assert report.details["stabilizable"] == f"uncontrollable unstable modes {bad}"
        # Plain Python numbers, not NumPy reprs.
        assert "np." not in report.details["stabilizable"]

    def test_normal_rank_samples_on_while_below_full_rank(self, monkeypatch):
        sys = mt.LtiSystem.relaxed(np.diag([-1.0, -2.0]), [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)))
        calls = count_calls(monkeypatch, (sysmodel, "rank_of"))
        assert mt.normal_rank(sys) == 3
        assert calls == {"rank_of": sysmodel._NORMAL_RANK_SAMPLES}

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
        calls = count_calls(monkeypatch, (sysmodel, "_audit"), (sysmodel, "_compression_candidates"))
        assert mt.audit_assumptions(fresh_demo) is report
        zeros = mt.invariant_zeros(fresh_demo)
        assert zeros == report.zeros and zeros is not report.zeros
        zeros.clear()
        assert mt.invariant_zeros(fresh_demo) == report.zeros
        assert calls == {"_audit": 0, "_compression_candidates": 0}
        # Another policy is another key.
        other = mt.TolerancePolicy(relative_rank_tol=1e-10)
        assert mt.audit_assumptions(fresh_demo, other) is not report
        assert calls == {"_audit": 1, "_compression_candidates": 2}

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


class TestStaircaseAgainstPbh:
    def test_an_uncertain_staircase_gives_way_to_the_pencil_test(self, monkeypatch):
        # Five single-input steps reach the controllable states, and the
        # hidden mode leaks into the sixth block at about 1.3 times the
        # threshold, so the staircase alone would call the plant
        # controllable. Its error bound has grown past that block's singular
        # value by then, so it gives up, and the audit tests each unstable
        # eigenvalue of A on the pencil after one eigenvalue problem on A.
        plant, modes = _hidden_uncontrollable_plant(0, "real", True, mt.TimeDomain.CONTINUOUS, 5, 1)
        assert controllable_staircase(plant.A, plant.B) is None
        tested = [lam for lam in np.linalg.eigvals(plant.A) if lam.imag >= 0.0 and not plant.domain.is_stable(lam)]
        calls = count_calls(monkeypatch, (sysmodel, "rank_of"), (np.linalg, "eigvals"))
        report = sysmodel._audit(plant, mt.DEFAULT_POLICY)
        # The rank test at the tracking frequency, one pencil test per
        # unstable mode or pair; eigvals(A) and the two zero compressions.
        assert calls == {"rank_of": 1 + len(tested), "eigvals": 1 + 2}
        assert not report.stabilizable
        reported = ast.literal_eval(report.details["stabilizable"].removeprefix("uncontrollable unstable modes "))
        assert reported == pytest.approx(modes, rel=1e-8)

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
