import numpy as np
import pytest

import monotrack as mt
from monotrack import synthesis, sysmodel
from monotrack.subspaces import factor_pencil
from monotrack.synthesis import _direction_from

from .conftest import DEMO_GAIN, DEMO_USS, DEMO_XSS, count_calls
from .test_solvability import UNSOLVABLE_A, UNSOLVABLE_B, UNSOLVABLE_C, UNSOLVABLE_D

# Direction pairs of the demo plant at the requested modes, as exact rationals.
DEMO_V1 = np.array([0.0, -27 / 4, 20.0, -29.0, -3.0]) / 18.0
DEMO_W1 = np.array([-29.0, -9.0, -9.0, -9.0]) / 18.0
DEMO_V2 = np.array([0.0, 0.0, -9 / 2, 26 / 5, 1.0]) / 21.0
DEMO_W2 = np.array([13 / 5, 4.0, 0.0, 0.0]) / 21.0
DEMO_V3 = np.array([0.0, -27 / 4, 7.0, -55 / 4, -3 / 2]) / 18.0
DEMO_W3 = np.array([-55 / 4, -9 / 2, 0.0, -9.0]) / 18.0


def direction(sys, j, lam):
    """Output ``j``'s direction pair at ``lam``, as ``synthesize`` reads it from the factored pencil."""
    return _direction_from(sys, j, lam, factor_pencil(sys, lam), mt.DEFAULT_POLICY)


class TestDirectionForOutput:
    def test_demo_minimum_norm_solutions(self, demo_system):
        pairs = {
            (0, -1.0): (DEMO_V1, DEMO_W1),
            (1, -2.0): (DEMO_V2, DEMO_W2),
            (2, -1.0): (DEMO_V3, DEMO_W3),
        }
        for (j, lam), (v_ref, w_ref) in pairs.items():
            pair = direction(demo_system, j, lam)
            assert np.allclose(pair.v, v_ref, atol=1e-12)
            assert np.allclose(pair.w, w_ref, atol=1e-12)
            assert abs(pair.beta - 1.0) <= 1e-12
            pair.validate(demo_system)

    def test_closed_loop_relations(self, demo_system, demo_feedback):
        # Once the gain honors F v = w, the direction becomes an eigenvector
        # with its assigned mode and couples only into its own output.
        F = demo_feedback.F
        for j, lam in ((0, -1.0), (1, -2.0), (2, -1.0)):
            pair = direction(demo_system, j, lam)
            if np.linalg.norm(F @ pair.v - pair.w) > 1e-9:
                continue
            closed = (demo_system.A + demo_system.B @ F) @ pair.v
            assert np.allclose(closed, lam * pair.v, atol=1e-9)

    # synthesize checks every mode before it reads a direction at it.
    def test_rejects_unstable_mode(self, demo_system):
        spec = mt.SynthesisSpec(lambdas=(0.5, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        with pytest.raises(mt.UnstableLambda):
            mt.synthesize(demo_system, spec)

    def test_rejects_mode_at_zero(self, demo_system):
        spec = mt.SynthesisSpec(lambdas=(-6.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        with pytest.raises(mt.LambdaAtZero):
            mt.synthesize(demo_system, spec)

    def test_rejects_nonpositive_discrete_mode(self):
        sys = mt.LtiSystem(np.diag([0.5, 0.2]), np.eye(2), np.eye(2), np.zeros((2, 2)), mt.TimeDomain.DISCRETE)
        spec = mt.SynthesisSpec(lambdas=(-0.3, 0.5), reference=(1.0, 1.0))
        with pytest.raises(mt.UnstableLambda):
            mt.synthesize(sys, spec)

    def test_degenerate_coupling_raises(self):
        # Output 1 reads nothing, so no kernel draw can couple into it.
        sys = mt.LtiSystem.relaxed(np.diag([-1.0, -2.0]), np.eye(2), [[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)))
        with pytest.raises(mt.DegenerateDirection):
            direction(sys, 1, -3.0)


class TestSteadyState:
    def test_reference_values_satisfy_equations(self, demo_system):
        residual_state = demo_system.A @ DEMO_XSS + demo_system.B @ DEMO_USS
        residual_out = demo_system.C @ DEMO_XSS + demo_system.D @ DEMO_USS - 2.0
        assert np.max(np.abs(residual_state)) <= 1e-12
        assert np.max(np.abs(residual_out)) <= 1e-12

    def test_computed_pair_residual(self, demo_system):
        x_ss, u_ss = mt.steady_state(demo_system, (2.0, 2.0, 2.0))
        assert np.max(np.abs(demo_system.A @ x_ss + demo_system.B @ u_ss)) <= 1e-9
        assert np.max(np.abs(demo_system.C @ x_ss + demo_system.D @ u_ss - 2.0)) <= 1e-9

    def test_zero_reference_gives_origin(self, demo_system):
        x_ss, u_ss = mt.steady_state(demo_system, np.zeros(3))
        assert np.allclose(x_ss, 0.0) and np.allclose(u_ss, 0.0)

    def test_random_right_invertible_plants(self):
        count = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, m, p = 4, 3, 2
            sys = mt.LtiSystem(rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                               rng.normal(size=(p, n)), rng.normal(size=(p, m)))
            if not mt.audit_assumptions(sys).all_pass:
                continue
            r = rng.normal(size=p)
            x_ss, u_ss = mt.steady_state(sys, r)
            assert np.linalg.norm(sys.A @ x_ss + sys.B @ u_ss) <= 1e-9 * (1 + np.linalg.norm(x_ss))
            assert np.linalg.norm(sys.C @ x_ss + sys.D @ u_ss - r) <= 1e-9 * (1 + np.linalg.norm(r))
            count += 1
        assert count >= 30

    def test_discrete_equilibrium_equation(self):
        sys = mt.LtiSystem([[0.5]], [[1.0]], [[1.0]], [[0.0]], mt.TimeDomain.DISCRETE)
        x_ss, u_ss = mt.steady_state(sys, (1.0,))
        assert abs(sys.A[0, 0] * x_ss[0] + u_ss[0] - x_ss[0]) <= 1e-12
        assert abs(x_ss[0] - 1.0) <= 1e-12


class TestSynthesize:
    def test_replay_reproduces_reference_gain(self, demo_system, demo_replay):
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        fb = mt.synthesize(demo_system, spec, replay=demo_replay)
        assert np.max(np.abs(fb.F - DEMO_GAIN)) <= 1e-9
        spots = {(0, 0): 68419 / 8250, (1, 0): -5351 / 2475, (3, 0): 4 / 9}
        for (i, j), value in spots.items():
            assert abs(fb.F[i, j] - value) <= 1e-9

    def test_default_spectrum_across_seeds(self, demo_system):
        expected = sorted([-6.0, -6.0, -2.0, -1.0, -1.0])
        for seed in range(20):
            spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), seed=seed)
            fb = mt.synthesize(demo_system, spec)
            got = sorted(z.real for z in fb.closed_loop_spectrum)
            assert np.max(np.abs(np.imag(fb.closed_loop_spectrum))) <= 1e-6
            assert np.max(np.abs(np.array(got) - expected)) <= 1e-6, f"seed {seed}"

    def test_plant_facts_do_not_depend_on_the_seed(self, demo_system, monkeypatch):
        # The seed reaches only the drawn bases: every seed audits to the same
        # zeros, bit for bit, and reaches the same delta.
        reports = []
        audit = synthesis.audit_assumptions

        def capture(*args):
            reports.append(audit(*args))
            return reports[-1]

        monkeypatch.setattr(synthesis, "audit_assumptions", capture)
        deltas = set()
        for seed in range(10):
            spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), seed=seed)
            deltas.add(mt.synthesize(demo_system, spec).delta)
        zeros = {np.array([z.value for z in report.zeros]).tobytes() for report in reports}
        assert len(reports) == 10 and len(zeros) == 1
        assert deltas == {(0, 1, 2)}

    def test_gain_invariant_under_paired_scaling(self, demo_system, demo_replay):
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        fb = mt.synthesize(demo_system, spec, replay=demo_replay)
        scaled_directions = {
            j: (np.asarray(v) * (2.0 + j), np.asarray(w) * (2.0 + j))
            for j, (v, w) in demo_replay.directions.items()
        }
        scaled = mt.Replay(demo_replay.vg_state, demo_replay.vg_input, scaled_directions)
        fb_scaled = mt.synthesize(demo_system, spec, replay=scaled)
        assert np.max(np.abs(fb.F - fb_scaled.F)) <= 1e-8

    def test_eigen_relations_and_output_nulling(self, demo_system, demo_feedback):
        fb = demo_feedback
        closed = demo_system.A + demo_system.B @ fb.F
        out_map = demo_system.C + demo_system.D @ fb.F
        for idx, j in enumerate(fb.delta):
            v = fb.V[:, idx]
            lam = fb.assigned_modes[j]
            assert np.linalg.norm(closed @ v - lam * v) <= 1e-8 * max(1.0, np.linalg.norm(closed))
        vg_cols = fb.V[:, len(fb.delta) :]
        assert np.linalg.norm(out_map @ vg_cols) <= 1e-8

    def test_spectrum_stays_stable(self, demo_feedback):
        assert all(z.real < 0 for z in demo_feedback.closed_loop_spectrum)

    def test_unsolvable_plant_raises(self):
        sys = mt.LtiSystem(UNSOLVABLE_A, UNSOLVABLE_B, UNSOLVABLE_C, UNSOLVABLE_D)
        spec = mt.SynthesisSpec(lambdas=(-0.5, -0.9), reference=(1.0, 1.0))
        with pytest.raises(mt.NotSolvable) as err:
            mt.synthesize(sys, spec)
        assert err.value.verdict is not None
        assert not err.value.verdict.solvable

    def test_assumption_failure_raises(self):
        A = np.diag([1.0, -2.0])
        B = np.array([[0.0], [1.0]])
        sys = mt.LtiSystem(A, B, np.array([[1.0, 1.0]]), np.array([[1.0]]))
        with pytest.raises(mt.AssumptionViolation):
            mt.synthesize(sys, mt.SynthesisSpec(lambdas=(-1.0,), reference=(1.0,)))

    def test_plant_facts_are_computed_once(self, demo_system, monkeypatch):
        # The audit reads the normal rank off its rank test at the tracking
        # frequency (the demo has no zero there, so nothing is sampled) and
        # solves the two compressed eigenproblems of one zero computation;
        # synthesis reuses both.
        calls = count_calls(monkeypatch, (sysmodel, "normal_rank"), (sysmodel, "_compression_candidates"))
        mt.synthesize(demo_system, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert calls == {"normal_rank": 0, "_compression_candidates": 2}

    def test_each_distinct_mode_pencil_is_factored_once(self, demo_system, monkeypatch):
        # Outputs 0 and 2 share the mode -1: their R_j kernels and directions
        # come from one factorization.
        calls = count_calls(monkeypatch, (synthesis, "factor_pencil"))
        mt.synthesize(demo_system, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert calls == {"factor_pencil": 2}

    def test_demo_design_svd_budget(self, demo_system, monkeypatch):
        # The audit: 1 rank test at the tracking frequency (it gives the normal
        # rank), 4 PBH tests, 4 zero confirmations that reuse their polishing
        # SVD. V*g: 2 pencil kernels and 1 rank test of the draw. 2 mode
        # pencils, 2 solvability rank tests, 1 rank test of V, 1 steady-state
        # solve. A change that brings back a recomputation fails here.
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        mt.synthesize(demo_system, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert calls == {"svd": 9 + 3 + 2 + 2 + 1 + 1}

    def test_spectrum_failure_prints_plain_numbers(self, demo_system, monkeypatch):
        # A spectrum that misses its modes is reported with Python floats, not NumPy reprs.
        monkeypatch.setattr(synthesis, "_SPECTRUM_TOL", 0.0)
        with pytest.raises(mt.UnstableResult) as info:
            mt.synthesize(demo_system, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert str(info.value).startswith("closed-loop spectrum [")
        assert "np." not in str(info.value)

    def test_last_resort_directions_solve_the_pencil_equation(self, demo_system, monkeypatch):
        # Every verification fails, so the final redraw runs; its directions
        # are x_j plus a kernel vector and keep unit coupling.
        verified = []

        def failing_verification(sys, spec, tol, vg, directions, delta, V, W):
            verified.append(directions)
            return None, None, "forced verification failure"

        monkeypatch.setattr(synthesis, "_verify_gain", failing_verification)
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), max_retries=2)
        with pytest.raises(mt.UnstableResult):
            mt.synthesize(demo_system, spec)
        first, last = verified[0], verified[-1]
        for j, pair in last.items():
            pair.validate(demo_system)
            assert abs(pair.beta - 1.0) <= 1e-12
            assert np.linalg.norm(pair.v - first[j].v) > 1e-6

    def test_failed_verification_raises_unstable_result_after_every_retry(self, demo_system, monkeypatch):
        reason = "forced verification failure"
        verified = []

        def failing_verification(*args):
            verified.append(args)
            return None, None, reason

        monkeypatch.setattr(synthesis, "_verify_gain", failing_verification)
        calls = count_calls(monkeypatch, (synthesis, "discover_vstar_g"), (synthesis, "draw"))
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), max_retries=3)
        with pytest.raises(mt.UnstableResult) as info:
            mt.synthesize(demo_system, spec)
        assert type(info.value) is mt.UnstableResult
        assert str(info.value) == reason
        # One verification for the first draw, one per reseeded V*g draw and
        # one after the final direction redraw; V*g itself is found once.
        assert len(verified) == spec.max_retries + 2
        assert calls == {"discover_vstar_g": 1, "draw": 1 + spec.max_retries}

    def test_plain_eigenstructure_assignment_when_p_equals_n(self):
        # Square controllable plant with as many outputs as states: no
        # invisible modes, V is just the direction matrix.
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            B = rng.normal(size=(2, 2))
            C = np.eye(2)
            D = np.zeros((2, 2))
            try:
                sys = mt.LtiSystem(A, B, C, D)
                if not mt.audit_assumptions(sys).all_pass:
                    continue
                spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0), reference=(1.0, -1.0))
                fb = mt.synthesize(sys, spec)
            except (mt.MonotrackError, ValueError):
                continue
            assert sorted(z.real for z in fb.closed_loop_spectrum) == pytest.approx([-2.0, -1.0], abs=1e-8)
            assert fb.V.shape == (2, 2)
            return
        pytest.skip("no admissible square draw found")

    def test_instantaneous_outputs_in_generalized_case(self):
        rng = np.random.default_rng(0)
        M = np.array([[-1.0, 0.3], [0.0, -2.0]])
        B = rng.normal(size=(2, 2))
        C = rng.normal(size=(2, 2))
        sys = mt.LtiSystem(M + B @ C, B, C, np.eye(2))
        fb = mt.synthesize(sys, mt.SynthesisSpec(lambdas=(-0.5, -0.7), reference=(1.0, 2.0)))
        assert fb.assigned_modes == {0: "instantaneous", 1: "instantaneous"}
        assert fb.delta == ()
        assert fb.instantaneous_outputs == (0, 1)


class TestControlInput:
    def test_equilibrium_returns_feedforward(self, demo_feedback):
        u = mt.control_input(demo_feedback, demo_feedback.x_ss)
        assert np.allclose(u, demo_feedback.u_ss)

    def test_affine_identity(self, demo_feedback):
        rng = np.random.default_rng(4)
        x1, x2 = rng.normal(size=5), rng.normal(size=5)
        lhs = mt.control_input(demo_feedback, x1 + x2 - demo_feedback.x_ss)
        rhs = mt.control_input(demo_feedback, x1) + mt.control_input(demo_feedback, x2) - demo_feedback.u_ss
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_zero_gain_gives_constant_feedforward(self, demo_feedback):
        frozen = mt.FeedbackResult(
            F=np.zeros_like(demo_feedback.F),
            x_ss=demo_feedback.x_ss,
            u_ss=demo_feedback.u_ss,
            V=demo_feedback.V,
            W=demo_feedback.W,
            closed_loop_spectrum=demo_feedback.closed_loop_spectrum,
            assigned_modes=demo_feedback.assigned_modes,
            delta=demo_feedback.delta,
            column_modes=demo_feedback.column_modes,
        )
        rng = np.random.default_rng(8)
        for _ in range(3):
            assert np.allclose(mt.control_input(frozen, rng.normal(size=5)), demo_feedback.u_ss)
