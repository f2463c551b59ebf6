import dataclasses
import gc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import monotrack as mt
from monotrack import subspaces, synthesis, sysmodel
from monotrack.fixtures import demo_system_path
from monotrack.numkernel import RESIDUAL_TOL
from monotrack.subspaces import factor_pencils
from monotrack.synthesis import _direction_from

from .conftest import DEMO_GAIN, DEMO_USS, DEMO_XSS, count_calls, kept_pencils, record_calls, wide_plant
from .test_solvability import UNSOLVABLE_A, UNSOLVABLE_B, UNSOLVABLE_C, UNSOLVABLE_D
from .try_oracle import one_try_at_a_time

# Direction pairs of the demo plant at the requested modes, as exact rationals.
DEMO_V1 = np.array([0.0, -27 / 4, 20.0, -29.0, -3.0]) / 18.0
DEMO_W1 = np.array([-29.0, -9.0, -9.0, -9.0]) / 18.0
DEMO_V2 = np.array([0.0, 0.0, -9 / 2, 26 / 5, 1.0]) / 21.0
DEMO_W2 = np.array([13 / 5, 4.0, 0.0, 0.0]) / 21.0
DEMO_V3 = np.array([0.0, -27 / 4, 7.0, -55 / 4, -3 / 2]) / 18.0
DEMO_W3 = np.array([-55 / 4, -9 / 2, 0.0, -9.0]) / 18.0


def direction(sys, j, lam):
    """Output ``j``'s direction pair at ``lam``, as ``synthesize`` reads it from the factored pencil."""
    return _direction_from(sys, j, lam, factor_pencils(sys, (lam,))[0])


def lstsq_steady_state(sys, r):
    """The minimum-norm solution of P(tf) [x; u] = [0; r] by least squares at the default rank cut."""
    P = sysmodel.rosenbrock(sys, sys.domain.tracking_frequency)
    sol, *_ = np.linalg.lstsq(P, np.concatenate([np.zeros(sys.n), r]), rcond=10.0 * max(P.shape) * np.finfo(float).eps)
    return sol


LAPACK = ("svd", "eig", "eigvals", "solve", "lstsq", "qr", "inv", "pinv")


def fail_first_draw(monkeypatch) -> list:
    """Make the first V*g draw of ``synthesize`` raise; returns the seeds of every draw asked for."""
    true_draw, seeds = synthesis.draw, []

    def first_draw_fails(kernels, seed):
        seeds.append(seed)
        if len(seeds) == 1:
            raise mt.RankDeficientAfterRetries("forced draw failure")
        return true_draw(kernels, seed)

    monkeypatch.setattr(synthesis, "draw", first_draw_fails)
    return seeds


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

    @pytest.mark.parametrize("mode", [-np.inf, np.inf, np.nan])
    def test_rejects_a_mode_that_is_not_finite(self, demo_system, mode):
        # -inf is "stable" by its sign; it once made the pool's avoid radius
        # infinite and surfaced as a SaturationFailure.
        spec = mt.SynthesisSpec(lambdas=(mode, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        with pytest.raises(mt.UnstableLambda):
            mt.synthesize(demo_system, spec)

    @pytest.mark.parametrize("value", [-np.inf, np.nan])
    def test_rejects_a_pool_value_that_is_not_finite(self, demo_system, value):
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), free_pool=(value, -3.0, -4.0))
        with pytest.raises(ValueError, match="pool value"):
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

    def test_a_repeat_solve_reads_the_kept_factor(self, fresh_demo, monkeypatch):
        reference = (1.0, -0.5, 0.25)
        first = mt.steady_state(fresh_demo, reference)
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        again = mt.steady_state(fresh_demo, reference)
        assert calls == {"svd": 0}
        fresh = mt.steady_state(mt.LtiSystem.load(demo_system_path()), reference)
        for kept, other, new in zip(first, again, fresh):
            assert kept.tobytes() == other.tobytes() == new.tobytes()

    @pytest.mark.parametrize(
        "make, lambdas",
        [
            (lambda: mt.LtiSystem.load(demo_system_path()), (-1.0, -2.0, -1.0)),
            (lambda: mt.generate(mt.GeneratorSpec(6, 3, 2, mt.TimeDomain.DISCRETE, seed=0)), (0.5, 0.45)),
            (lambda: wide_plant(0, 0, 4), (-1.0, -1.25, -1.5, -1.75)),
        ],
        ids=["demo", "discrete", "strictly-proper"],
    )
    def test_a_fresh_design_leaves_its_solve_no_factorization(self, make, lambdas, monkeypatch):
        # A design factors the tracking pencil in the stacked SVD of its mode
        # pencils (the V*g discovery's first call), so neither its witnesses
        # nor its solve factor anything: the design factors what its V*g
        # discovery alone does. A solve right after it makes no LAPACK call;
        # alone on a fresh plant the solve makes one SVD, with the same bits.
        designed, alone, discovered = make(), make(), make()
        reference = np.linspace(1.0, -0.5, designed.p)
        factored = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: list(mus))
        mt.synthesize(designed, mt.SynthesisSpec(lambdas=lambdas, reference=reference))
        by_design = factored[:]
        factored.clear()
        tracking = discovered.domain.tracking_frequency
        subspaces.discover_vstar_g(discovered, zeros=mt.invariant_zeros(discovered), avoid=(*lambdas, tracking))
        assert by_design == factored and tracking in by_design[0]
        calls = count_calls(monkeypatch, *((np.linalg, name) for name in LAPACK))
        after_design = np.concatenate(mt.steady_state(designed, reference))
        assert calls == {name: 0 for name in LAPACK}
        by_itself = np.concatenate(mt.steady_state(alone, reference))
        assert calls == {name: int(name == "svd") for name in LAPACK}
        assert after_design.tobytes() == by_itself.tobytes()
        oracle = lstsq_steady_state(alone, reference)
        assert np.linalg.norm(after_design - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_an_unreachable_reference_raises_on_every_call(self):
        # G(s) = s / (s + 1) has a zero at the tracking frequency: no
        # equilibrium reaches a nonzero reference, while zero is reachable.
        sys = mt.LtiSystem([[-1.0]], [[1.0]], [[-1.0]], [[1.0]])
        for _ in range(2):
            with pytest.raises(mt.Unsolvable):
                mt.steady_state(sys, (1.0,))
        x_ss, u_ss = mt.steady_state(sys, (0.0,))
        assert x_ss.tolist() == [0.0] and u_ss.tolist() == [0.0]


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

    def test_plant_facts_do_not_depend_on_the_seed(self, monkeypatch):
        # The seed reaches only the drawn bases: every seed audits to the same
        # zeros, bit for bit, decides solvability on the same V*g span, bit
        # for bit, and reaches the same delta.
        reports, spans = [], []
        audit, solvable = synthesis.audit_assumptions, synthesis.check_solvable

        def capture(*args):
            reports.append(audit(*args))
            return reports[-1]

        def capture_span(sys, span, *args):
            spans.append(span.basis.tobytes())
            return solvable(sys, span, *args)

        monkeypatch.setattr(synthesis, "audit_assumptions", capture)
        monkeypatch.setattr(synthesis, "check_solvable", capture_span)
        deltas = set()
        for seed in range(10):
            spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), seed=seed)
            deltas.add(mt.synthesize(mt.LtiSystem.load(demo_system_path()), spec).delta)
        zeros = {np.array([z.value for z in report.zeros]).tobytes() for report in reports}
        assert len(reports) == 10 and len(zeros) == 1
        assert len(spans) == 10 and len(set(spans)) == 1
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

    @pytest.mark.parametrize("column", [0, 1])
    def test_a_replayed_basis_with_a_zero_column_raises_value_error(self, demo_system, demo_replay, column):
        # A zero column has no eigen-relation: its Rayleigh quotient would be 0/0.
        V = np.array(demo_replay.vg_state, dtype=float)
        V[:, column] = 0.0
        replay = mt.Replay(V, demo_replay.vg_input, demo_replay.directions)
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match=f"^replayed basis column {column} is zero$"):
            mt.synthesize(demo_system, spec, replay=replay)

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

    def test_unsolvable_plant_raises(self, monkeypatch):
        # The verdict is decided on the discovered V*g span, so nothing is drawn.
        calls = count_calls(monkeypatch, (synthesis, "draw"))
        sys = mt.LtiSystem(UNSOLVABLE_A, UNSOLVABLE_B, UNSOLVABLE_C, UNSOLVABLE_D)
        spec = mt.SynthesisSpec(lambdas=(-0.5, -0.9), reference=(1.0, 1.0))
        with pytest.raises(mt.NotSolvable) as err:
            mt.synthesize(sys, spec)
        assert err.value.verdict is not None
        assert not err.value.verdict.solvable
        assert calls == {"draw": 0}

    def test_assumption_failure_raises(self):
        A = np.diag([1.0, -2.0])
        B = np.array([[0.0], [1.0]])
        sys = mt.LtiSystem(A, B, np.array([[1.0, 1.0]]), np.array([[1.0]]))
        with pytest.raises(mt.AssumptionViolation):
            mt.synthesize(sys, mt.SynthesisSpec(lambdas=(-1.0,), reference=(1.0,)))

    def test_plant_facts_are_computed_once(self, fresh_demo, monkeypatch):
        # The audit reads the normal rank and the zeros off one reduction of
        # the plant; synthesis reuses both.
        calls = count_calls(monkeypatch, (sysmodel, "normal_rank"), (sysmodel, "_reduction"))
        mt.synthesize(fresh_demo, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert calls == {"normal_rank": 0, "_reduction": 1}

    def test_each_distinct_mode_pencil_is_factored_once(self, fresh_demo, monkeypatch):
        # Outputs 0 and 2 share the mode -1: their R_j kernels and directions
        # come from one factorization. The V*g discovery factors the distinct
        # modes and the tracking pencil P(0) with its zero -6 in one stacked
        # call, and the witnesses read them from the plant's store of factors.
        factored = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: list(mus))
        mt.synthesize(fresh_demo, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert factored == [pytest.approx([-6.0, -1.0, -2.0, 0.0], abs=1e-9)]

    def test_a_replay_factors_its_modes_and_the_tracking_pencil_in_one_call(self, fresh_demo, demo_replay, monkeypatch):
        # A replay discovers nothing: the witnesses factor the distinct modes
        # and P(0) together, and a second replay reads the kept P(0). A
        # replay keeps no mode factor, so the second one factors the modes again.
        factored = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: list(mus))
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        first = mt.synthesize(fresh_demo, spec, replay=demo_replay)
        again = mt.synthesize(fresh_demo, spec, replay=demo_replay)
        assert factored == [[-1.0, -2.0, 0.0], [-1.0, -2.0]]
        assert first.x_ss.tobytes() == again.x_ss.tobytes()

    def test_a_replay_rank_tests_its_basis_once(self, fresh_demo, demo_replay, monkeypatch):
        # PairedBasis.validate rank-tests V_g in an SVD of its own; the
        # solvability test reads h off its draw's stacked rank test, where
        # V_g rides zero-padded beside the prefixes [V_g, r_1 ... r_j].
        V = np.asarray(demo_replay.vg_state, dtype=float)
        operands = record_calls(monkeypatch, np.linalg, "svd", lambda a, *args: np.array(a, ndmin=3))

        def holds_vg(member):
            rows, cols = V.shape
            if member.shape[0] < rows or member.shape[1] < cols:
                return False
            return np.array_equal(member[:rows, :cols], V) and not member[rows:].any() and not member[:, cols:].any()

        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        mt.synthesize(fresh_demo, spec, replay=demo_replay)
        alone = [a for a in operands if len(a) == 1 and holds_vg(a[0])]
        stacked = [a for a in operands if len(a) > 1 and any(holds_vg(member) for member in a)]
        assert len(alone) == 1 and alone[0][0].shape == V.shape
        assert len(stacked) == 1 and len(stacked[0]) == 1 + fresh_demo.p

    def test_demo_design_svd_budget(self, fresh_demo, monkeypatch):
        # The audit: 1 SVD of D in the reduction, 1 stacked SVD at the zero
        # candidates, none for stabilizability (its one uncontrollable mode
        # is stable). V*g: 1 stacked SVD of P(-6), the 2 mode pencils and the
        # tracking pencil P(0), which the steady-state solve reads; the
        # kernel of P(-6) reaches n less the zeros 2, 3 and 5, so no pool
        # pencil is factored, and the draw makes no rank test. 1 solvability
        # rank test (h is the span's dimension), 1 rank test of V. A change
        # that brings back a recomputation or splits a stacked call fails here.
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        mt.synthesize(fresh_demo, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert calls == {"svd": 2 + 1 + 1 + 1}

    def test_a_failing_design_tries_in_two_batches(self, monkeypatch):
        # Every try of the (10,4,3) ladder rung fails. The first candidate is
        # tried alone, then the six others in one stacked pass: one rank test
        # of the V stack, one solve and one eigvals per batch. Verifying a try
        # after the first on its own would make 6 of each.
        plant = mt.generate(mt.GeneratorSpec(10, 4, 3, seed=0))
        spec = mt.SynthesisSpec(lambdas=(-1.0, -1.25, -1.5), reference=(1.0, 1.0, 1.0))
        with pytest.raises(mt.UnstableResult):
            mt.synthesize(plant, spec)
        # The plant keeps its audit, V*g and witnesses, so a repeat design makes only its tries' calls.
        shapes = {name: record_calls(monkeypatch, np.linalg, name, lambda a, *args: np.shape(a)) for name in ("svd", "solve", "eigvals")}
        with pytest.raises(mt.UnstableResult):
            mt.synthesize(plant, spec)
        assert shapes == {name: [(1, 10, 10), (6, 10, 10)] for name in ("svd", "solve", "eigvals")}

    def test_a_first_design_factors_its_pencils_in_one_call(self, monkeypatch):
        # The seeded zero -3, the modes -1 and -1.25, the tracking pencil P(0)
        # and the pool values the V*g discovery is predicted to visit share
        # one stacked full SVD; one call per pool value would make six.
        plant = mt.generate(mt.GeneratorSpec(6, 3, 2, planted_zero_values=(-3.0,), seed=0))
        shapes = record_calls(monkeypatch, np.linalg, "svd", lambda a, *args: np.shape(a))
        mt.synthesize(plant, mt.SynthesisSpec(lambdas=(-1.0, -1.25), reference=(1.0, 1.0)))
        assert [shape for shape in shapes if len(shape) == 3 and shape[1:] == (8, 9)] == [(8, 8, 9)]

    def test_spectrum_failure_prints_plain_numbers(self, fresh_demo, monkeypatch):
        # A spectrum that misses its modes is reported with Python floats, not NumPy reprs.
        monkeypatch.setattr(synthesis, "_SPECTRUM_TOL", 0.0)
        with pytest.raises(mt.UnstableResult) as info:
            mt.synthesize(fresh_demo, mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0)))
        assert str(info.value).startswith("closed-loop spectrum [")
        assert "np." not in str(info.value)

    def test_last_resort_directions_solve_the_pencil_equation(self, fresh_demo, monkeypatch):
        # Every verification fails, so the final redraw runs; its directions
        # are x_j plus a kernel vector and keep unit coupling.
        verified = []

        def failing_verification(sys, spec, vg, directions, delta, V, W, F, closed_loop):
            verified.append(directions)
            return "forced verification failure"

        monkeypatch.setattr(synthesis, "_verify_gain", failing_verification)
        monkeypatch.setattr(synthesis, "_REDRAWS", 2)
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        with pytest.raises(mt.UnstableResult):
            mt.synthesize(fresh_demo, spec)
        first, last = verified[0], verified[-1]
        for j, pair in last.items():
            pair.validate(fresh_demo)
            assert abs(pair.beta - 1.0) <= 1e-12
            assert np.linalg.norm(pair.v - first[j].v) > 1e-6

    def test_failed_verification_raises_unstable_result_after_every_retry(self, fresh_demo, monkeypatch):
        reason = "forced verification failure"
        verified = []

        def failing_verification(*args):
            verified.append(args)
            return reason

        monkeypatch.setattr(synthesis, "_verify_gain", failing_verification)
        calls = count_calls(monkeypatch, (synthesis, "discover_vstar_g"), (synthesis, "draw"))
        monkeypatch.setattr(synthesis, "_REDRAWS", 3)
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        with pytest.raises(mt.UnstableResult) as info:
            mt.synthesize(fresh_demo, spec)
        assert type(info.value) is mt.UnstableResult
        assert str(info.value) == reason
        # One verification for the first draw, one per reseeded V*g draw and
        # one after the final direction redraw; V*g itself is found once.
        assert len(verified) == synthesis._REDRAWS + 2
        assert calls == {"discover_vstar_g": 1, "draw": 1 + synthesis._REDRAWS}

    def test_a_failed_draw_is_a_failed_try(self, fresh_demo, monkeypatch):
        # The first V*g draw raises; the design comes from the draw at the next seed.
        seeds = fail_first_draw(monkeypatch)
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), seed=4)
        fb = mt.synthesize(fresh_demo, spec)
        assert seeds == [4, 5]
        monkeypatch.undo()
        next_seed = mt.synthesize(mt.LtiSystem.load(demo_system_path()), dataclasses.replace(spec, seed=5))
        assert fb.to_json_dict() == next_seed.to_json_dict()

    def test_a_rank_deficient_vstar_g_draw_fails_the_test_of_v(self, fresh_demo, monkeypatch):
        # draw() makes no rank test of its own. The first V*g draw repeats its
        # first column in its last; the rank test of V rejects that try before
        # any gain is verified, and the design comes from the draw at the next
        # seed. The second batch draws every remaining seed at once.
        true_draw, seeds = synthesis.draw, []

        def repeated_column(kernels, seed):
            seeds.append(seed)
            vg = true_draw(kernels, seed)
            if len(seeds) > 1:
                return vg
            V, W = vg.V.copy(), vg.W.copy()
            V[:, -1], W[:, -1] = V[:, 0], W[:, 0]
            return mt.PairedBasis(V=V, W=W, modes=vg.modes[:-1] + vg.modes[:1])

        monkeypatch.setattr(synthesis, "draw", repeated_column)
        verified = count_calls(monkeypatch, (synthesis, "_verify_gain"))
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), seed=4)
        fb = mt.synthesize(fresh_demo, spec)
        assert seeds == list(range(4, 5 + synthesis._REDRAWS))
        assert verified == {"_verify_gain": 1}
        monkeypatch.undo()
        next_seed = mt.synthesize(mt.LtiSystem.load(demo_system_path()), dataclasses.replace(spec, seed=5))
        assert fb.to_json_dict() == next_seed.to_json_dict()

    def test_a_failed_draw_leaves_no_reference_cycle(self, fresh_demo, monkeypatch):
        # A draw error kept in the candidate sequence would tie its frame to
        # the error's traceback, and the arrays on it would wait for the cycle
        # collector.
        seeds = fail_first_draw(monkeypatch)
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
        gc.collect()
        gc.disable()
        try:
            mt.synthesize(fresh_demo, spec)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(seeds) == 2

    def test_when_every_draw_fails_the_last_draw_error_is_raised(self, fresh_demo, monkeypatch):
        def failing_draw(kernels, seed):
            raise mt.RankDeficientAfterRetries(f"forced draw failure at seed {seed}")

        monkeypatch.setattr(synthesis, "draw", failing_draw)
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), seed=4)
        with pytest.raises(mt.RankDeficientAfterRetries) as info:
            mt.synthesize(fresh_demo, spec)
        assert str(info.value) == f"forced draw failure at seed {4 + synthesis._REDRAWS}"

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


class TestSynthesisSpec:
    """Specs compare and hash by value, the reference by its entries."""

    BASE = mt.SynthesisSpec(lambdas=(-1, -2), reference=(1, 2))

    def test_equal_values_are_equal_and_hash_alike(self):
        same = mt.SynthesisSpec(lambdas=[-1.0, -2.0], reference=np.array([1.0, 2.0]))
        assert same == self.BASE and hash(same) == hash(self.BASE) and len({same, self.BASE}) == 1
        pooled = dataclasses.replace(self.BASE, free_pool=[-3.0, -4.0])
        as_tuple = dataclasses.replace(self.BASE, free_pool=(-3.0, -4.0))
        assert pooled == as_tuple and hash(pooled) == hash(as_tuple)

    @pytest.mark.parametrize(
        "change",
        [{"lambdas": (-1, -3)}, {"reference": (1, 3)}, {"free_pool": (-3.0,)}, {"seed": 1}],
        ids=["lambdas", "reference", "pool", "seed"],
    )
    def test_one_field_apart_is_unequal(self, change):
        other = dataclasses.replace(self.BASE, **change)
        assert other != self.BASE and not other == self.BASE

    def test_a_spec_is_not_equal_to_its_fields(self):
        assert self.BASE != (self.BASE.lambdas, self.BASE.reference, None, self.BASE.seed)


class TestPlantMemo:
    """A plant object keeps the facts that depend on it alone, and the gain that passed at the latest seed.

    A repeat design at that seed, on the same modes, pool and policy, reads
    the gain and solves only its steady state; any other design is drawn and
    verified, and a design that fails is tried again on every call.
    """

    SPEC = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))

    def test_a_second_design_only_draws_verifies_and_solves(self, fresh_demo, monkeypatch):
        mt.synthesize(fresh_demo, self.SPEC)
        calls = count_calls(
            monkeypatch,
            (sysmodel, "_analyze"),
            (synthesis, "discover_vstar_g"),
            (subspaces, "factor_pencils"),
            (synthesis, "check_solvable"),
            (synthesis, "_verify_gain"),
            (np.linalg, "svd"),
        )
        spec = mt.SynthesisSpec(lambdas=self.SPEC.lambdas, reference=(1.0, -0.5, 0.25), seed=3)
        fb = mt.synthesize(fresh_demo, spec)
        # The rank test of V, the one rank test of a try; the steady-state factor is kept.
        assert calls == {
            "_analyze": 0, "discover_vstar_g": 0, "factor_pencils": 0, "check_solvable": 0, "_verify_gain": 1, "svd": 1,
        }
        assert fb.to_json_dict() == mt.synthesize(mt.LtiSystem.load(demo_system_path()), spec).to_json_dict()

    def test_a_repeat_design_of_the_same_gain_reads_its_kept_closed_loop(self, fresh_demo, monkeypatch):
        # The gain does not depend on the reference, so a new reference at the
        # same seed gives the same F, whose closed loop the plant keeps.
        first = mt.synthesize(fresh_demo, self.SPEC)
        calls = count_calls(monkeypatch, (np.linalg, "eigvals"))
        again = mt.synthesize(fresh_demo, dataclasses.replace(self.SPEC, reference=np.array([1.0, -0.5, 0.25])))
        assert calls == {"eigvals": 0}
        assert again.F.tobytes() == first.F.tobytes()

    def test_a_repeat_design_at_the_same_seed_only_solves_its_steady_state(self, fresh_demo, monkeypatch):
        mt.synthesize(fresh_demo, self.SPEC)
        calls = count_calls(
            monkeypatch,
            (synthesis, "_candidates"),
            (synthesis, "_try_candidates"),
            (synthesis, "_verify_gain"),
            *((np.linalg, name) for name in LAPACK),
        )
        spec = dataclasses.replace(self.SPEC, reference=np.array([1.0, -0.5, 0.25]))
        fb = mt.synthesize(fresh_demo, spec)
        assert calls == dict.fromkeys(calls, 0)
        assert fb.to_json_dict() == mt.synthesize(mt.LtiSystem.load(demo_system_path()), spec).to_json_dict()
        # (x_ss, u_ss) is the equilibrium of the new reference.
        state = fresh_demo.A @ fb.x_ss + fresh_demo.B @ fb.u_ss
        output = fresh_demo.C @ fb.x_ss + fresh_demo.D @ fb.u_ss
        assert np.allclose(state, 0.0, atol=1e-10) and np.allclose(output, spec.reference, atol=1e-10)

    def test_a_simulate_after_a_kept_design_computes_no_spectrum(self, fresh_demo, demo_replay, monkeypatch):
        # A replay in between puts its own gain's closed loop on the plant; the
        # repeat design puts back the closed loop of the gain it reads.
        mt.synthesize(fresh_demo, self.SPEC)
        mt.synthesize(fresh_demo, self.SPEC, replay=demo_replay)
        fb, x0 = mt.synthesize(fresh_demo, self.SPEC), np.linspace(-1.0, 1.0, fresh_demo.n)
        calls = count_calls(monkeypatch, (np.linalg, "eigvals"))
        trace = mt.simulate(fresh_demo, fb, x0)
        assert calls == {"eigvals": 0}
        assert trace.epsilon.tobytes() == mt.simulate(mt.LtiSystem.load(demo_system_path()), fb, x0).epsilon.tobytes()

    def test_writing_into_a_returned_design_does_not_reach_the_next(self, fresh_demo):
        first = mt.synthesize(fresh_demo, self.SPEC)
        want = first.to_json_dict()
        for array in (first.F, first.V, first.W):
            array[...] = 0.0
        first.assigned_modes.clear()
        assert mt.synthesize(fresh_demo, self.SPEC).to_json_dict() == want

    def test_a_design_that_raises_is_tried_again_on_every_call(self, monkeypatch):
        # The (10,4,3) ladder rung: its last candidate fails verification.
        plant = mt.generate(mt.GeneratorSpec(10, 4, 3, seed=0))
        spec = mt.SynthesisSpec(lambdas=(-1.0, -1.25, -1.5), reference=np.ones(3))
        tries = count_calls(monkeypatch, (synthesis, "_try_candidates"))
        raised = []
        for k in (1, 2):
            with pytest.raises(mt.UnstableResult) as err:
                mt.synthesize(plant, spec)
            assert tries == {"_try_candidates": k}
            raised.append(str(err.value))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize(
        "change, tol",
        [
            ({"seed": 3}, mt.DEFAULT_POLICY),
            ({"lambdas": (-0.5, -1.5, -2.5)}, mt.DEFAULT_POLICY),
            ({"free_pool": (-3.0, -4.0, -5.0)}, mt.DEFAULT_POLICY),
            ({}, mt.TolerancePolicy(relative_rank_tol=1e-10)),
        ],
        ids=["seed", "modes", "pool", "policy"],
    )
    def test_another_seed_modes_pool_or_policy_designs_afresh(self, fresh_demo, change, tol, monkeypatch):
        mt.synthesize(fresh_demo, self.SPEC)
        spec = dataclasses.replace(self.SPEC, **change)
        calls = count_calls(monkeypatch, (synthesis, "_candidates"), (synthesis, "_verify_gain"))
        fb = mt.synthesize(fresh_demo, spec, tol)
        assert calls["_candidates"] == 1 and calls["_verify_gain"] >= 1
        assert fb.to_json_dict() == mt.synthesize(mt.LtiSystem.load(demo_system_path()), spec, tol).to_json_dict()

    def test_only_the_latest_seed_is_kept(self, fresh_demo, monkeypatch):
        first = mt.synthesize(fresh_demo, self.SPEC)
        mt.synthesize(fresh_demo, dataclasses.replace(self.SPEC, seed=3))
        calls = count_calls(monkeypatch, (synthesis, "_candidates"))
        assert mt.synthesize(fresh_demo, self.SPEC).to_json_dict() == first.to_json_dict()
        assert calls == {"_candidates": 1}

    def test_designs_on_one_plant_equal_designs_on_fresh_plants(self, fresh_demo):
        # Modes A, then B, then A again: the slot of A is replaced and refilled.
        for k, lambdas in enumerate([(-1.0, -2.0, -1.0), (-0.5, -1.5, -2.5), (-1.0, -2.0, -1.0)]):
            spec = mt.SynthesisSpec(lambdas=lambdas, reference=(2.0, -1.0, 0.5), seed=k)
            fresh = mt.synthesize(mt.LtiSystem.load(demo_system_path()), spec)
            assert mt.synthesize(fresh_demo, spec).to_json_dict() == fresh.to_json_dict()

    def test_replay_and_drawn_designs_do_not_share_directions(self, fresh_demo, demo_replay):
        before = mt.synthesize(fresh_demo, self.SPEC, replay=demo_replay)
        drawn = mt.synthesize(fresh_demo, self.SPEC)
        after = mt.synthesize(fresh_demo, self.SPEC, replay=demo_replay)
        assert after.F.tobytes() == before.F.tobytes()
        assert np.max(np.abs(after.F - DEMO_GAIN)) <= 1e-9
        assert mt.synthesize(fresh_demo, self.SPEC).to_json_dict() == drawn.to_json_dict()
        assert drawn.to_json_dict() == mt.synthesize(mt.LtiSystem.load(demo_system_path()), self.SPEC).to_json_dict()

    def test_the_kept_facts_stay_one_per_kind_and_never_stale(self):
        # One plant object through 40 user pools, two tolerance policies, a
        # gain per design and two samplings per gain. It keeps the latest
        # value of each of its five kinds of fact, and every design and
        # trace equals that of a fresh plant.
        plant = mt.generate(mt.GeneratorSpec(6, 3, 2, seed=0))
        policies = (mt.DEFAULT_POLICY, mt.TolerancePolicy(relative_rank_tol=1e-10))
        x0 = np.linspace(-1.0, 1.0, plant.n)
        for k in range(40):
            pool = tuple(-0.7 - 0.01 * k - 0.9 * i for i in range(6))
            spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0), reference=(2.0, -1.0), free_pool=pool, seed=k)
            tol = policies[k % 2]
            fresh = mt.LtiSystem(plant.A, plant.B, plant.C, plant.D)
            fb = mt.synthesize(plant, spec, tol)
            assert fb.to_json_dict() == mt.synthesize(fresh, spec, tol).to_json_dict()
            assert len(plant._facts) <= 5
            for samples in (40, 64):
                trace = mt.simulate(plant, fb, x0, num_samples=samples)
                assert trace.epsilon.tobytes() == mt.simulate(fresh, fb, x0, num_samples=samples).epsilon.tobytes()
                assert len(plant._facts) <= 5
        assert len(plant._facts) == 5

    def test_the_pencil_store_holds_the_pool_the_tracking_frequency_and_the_latest_design_modes(self):
        # One user pool and six mode tuples: the V*g discovery factors each
        # design's modes into the plant's store of pencil factors and drops
        # the earlier ones; the tracking frequency stays.
        plant = mt.generate(mt.GeneratorSpec(6, 3, 2, seed=0))
        pool = (-1.5, -2.0, -2.5, -3.0, -3.5, -4.0, -4.5)
        for k in range(6):
            lambdas = (-1.1 - 0.1 * k, -1.35 - 0.1 * k)
            mt.synthesize(plant, mt.SynthesisSpec(lambdas=lambdas, reference=(1.0, 1.0), free_pool=pool))
            assert set(kept_pencils(plant)).difference(pool) == set(lambdas).difference(pool) | {0.0}

    def test_a_replay_after_a_design_at_the_same_modes_factors_nothing(self, fresh_demo, demo_replay, monkeypatch):
        # The design keeps the factors at its modes and at the tracking
        # frequency, which the replay reads: no SVD has a pencil's shape.
        designed = mt.synthesize(fresh_demo, self.SPEC)
        factored = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: list(mus))
        shapes = record_calls(monkeypatch, np.linalg, "svd", lambda a, *args: np.shape(a)[-2:])
        replayed = mt.synthesize(fresh_demo, self.SPEC, replay=demo_replay)
        assert factored == [] and (fresh_demo.n + fresh_demo.p, fresh_demo.n + fresh_demo.m) not in shapes
        assert replayed.x_ss.tobytes() == designed.x_ss.tobytes()
        alone = mt.synthesize(mt.LtiSystem.load(demo_system_path()), self.SPEC, replay=demo_replay)
        assert replayed.to_json_dict() == alone.to_json_dict()

    @pytest.mark.parametrize("replayed", [False, True], ids=["design", "replay"])
    def test_a_lone_solve_after_a_design_or_a_replay_makes_no_lapack_call(self, fresh_demo, demo_replay, replayed, monkeypatch):
        mt.synthesize(fresh_demo, self.SPEC, replay=demo_replay if replayed else None)
        calls = count_calls(monkeypatch, *((np.linalg, name) for name in LAPACK))
        x_ss, u_ss = mt.steady_state(fresh_demo, (1.0, -0.5, 0.25))
        assert calls == {name: 0 for name in LAPACK}
        want = mt.steady_state(mt.LtiSystem.load(demo_system_path()), (1.0, -0.5, 0.25))
        assert x_ss.tobytes() == want[0].tobytes() and u_ss.tobytes() == want[1].tobytes()

    def test_replays_at_many_mode_tuples_do_not_grow_the_store(self, fresh_demo, demo_replay):
        # A replay keeps only the tracking factor, whatever its modes.
        replay = mt.Replay(demo_replay.vg_state, demo_replay.vg_input)
        sizes = []
        for k in range(20):
            lambdas = (-1.0 - 0.05 * k, -2.0 - 0.05 * k, -1.0 - 0.05 * k)
            mt.synthesize(fresh_demo, mt.SynthesisSpec(lambdas=lambdas, reference=(2.0, 2.0, 2.0)), replay=replay)
            sizes.append(len(kept_pencils(fresh_demo)))
        assert max(sizes) <= sizes[0]

    def test_an_analysis_then_a_design_factor_no_value_twice(self, fresh_demo, monkeypatch):
        # R*, every R*_j and V*g over the default pool, then a design whose
        # V*g discovery seeds the same zero -6 over a mode-avoiding pool:
        # each value is factored once.
        factored = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: list(mus))
        zeros = mt.invariant_zeros(fresh_demo)
        mt.discover_rstar(fresh_demo, zeros=zeros)
        for j in range(fresh_demo.p):
            mt.discover_rstar(fresh_demo, j, zeros=zeros)
        mt.discover_vstar_g(fresh_demo, zeros=zeros)
        analyzed = len(factored)
        spec = mt.SynthesisSpec(lambdas=(-1.25, -3.0, -4.0), reference=(1.0, 1.0, 1.0))
        fb = mt.synthesize(fresh_demo, spec)
        values = [mu for mus in factored for mu in mus]
        assert len(factored) > analyzed and len(values) == len(set(values))
        assert fb.to_json_dict() == mt.synthesize(mt.LtiSystem.load(demo_system_path()), spec).to_json_dict()

    def test_a_not_solvable_plant_raises_afresh_on_every_call(self):
        sys = mt.LtiSystem(UNSOLVABLE_A, UNSOLVABLE_B, UNSOLVABLE_C, UNSOLVABLE_D)
        spec = mt.SynthesisSpec(lambdas=(-0.5, -0.9), reference=(1.0, 1.0))
        raised = []
        for _ in range(2):
            with pytest.raises(mt.NotSolvable) as err:
                mt.synthesize(sys, spec)
            raised.append(err.value)
        assert raised[0] is not raised[1]
        assert raised[0].verdict == raised[1].verdict and not raised[0].verdict.solvable


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


# -- Oracles: the per-target spectrum match and the per-output checks that
# _match_spectrum and _verify_gain replaced, kept as the reference for the
# array passes.
def oracle_match_spectrum(actual, expected, tolerance):
    if len(actual) != len(expected):
        return False
    remaining = list(actual)
    for target in expected:
        gaps = [abs(z - target) for z in remaining]
        best = int(np.argmin(gaps))
        if gaps[best] > tolerance * (1.0 + abs(target)):
            return False
        remaining.pop(best)
    return True


def oracle_verify_gain(sys, spec, vg, directions, delta, V, W):
    F = np.linalg.solve(V.T, W.T).T
    scale = max(1.0, float(np.linalg.norm(V)), float(np.linalg.norm(W)))
    if np.linalg.norm(F @ V - W) > RESIDUAL_TOL * scale * max(1.0, float(np.linalg.norm(F))):
        return "gain does not reproduce the requested directions"
    closed_loop = sys.A + sys.B @ F
    spectrum = np.linalg.eigvals(closed_loop)
    expected = [complex(spec.lambdas[j]) for j in delta] + [complex(m) for m in vg.modes]
    if not oracle_match_spectrum(spectrum, expected, synthesis._SPECTRUM_TOL):
        return (
            f"closed-loop spectrum {sorted(spectrum.tolist(), key=lambda z: (z.real, z.imag))} "
            "does not match the assigned modes"
        )
    if not all(sys.domain.is_stable(z) for z in spectrum):
        return "closed-loop spectrum is not contained in the stability region"
    out_map = sys.C + sys.D @ F
    out_scale = max(scale, float(np.linalg.norm(sys.C)) + float(np.linalg.norm(sys.D)) * float(np.linalg.norm(F)))
    for j in delta:
        target = np.zeros(sys.p)
        target[j] = directions[j].beta
        if np.linalg.norm(out_map @ directions[j].v - target) > RESIDUAL_TOL * out_scale * 10:
            return f"output coupling of direction {j} failed verification"
    if vg.dim and np.linalg.norm(out_map @ vg.V) > RESIDUAL_TOL * out_scale * 10:
        return "stabilisability basis is not output-nulling under the gain"
    for j in range(sys.p):
        if j not in delta and np.linalg.norm(out_map[j]) > RESIDUAL_TOL * out_scale * 10:
            return f"output {j} is tagged instantaneous but its error row does not vanish"
    return None


def captured_verifications(monkeypatch, designs):
    """The arguments of every ``_verify_gain`` call that the (plant, spec) ``designs`` make."""
    captured = []
    verify = synthesis._verify_gain

    def capture(*args):
        captured.append(args)
        return verify(*args)

    with monkeypatch.context() as patch:
        patch.setattr(synthesis, "_verify_gain", capture)
        for plant, spec in designs:
            try:
                mt.synthesize(plant, spec)
            except mt.MonotrackError:
                pass
    return captured


def solved(sys, V, W) -> tuple:
    """The gain F = W V^-1 and its closed loop ``(A + BF, eigvals(A + BF), C + DF)``, each from a 2-D call."""
    F = np.linalg.solve(V.T, W.T).T
    closed_loop = sys.A + sys.B @ F
    return F, (closed_loop, np.linalg.eigvals(closed_loop), sys.C + sys.D @ F)


def assert_same_verification(args):
    """The captured gain and closed loop have the bits and dtypes of 2-D calls, and the verdict is the oracle's."""
    sys, spec, vg, directions, delta, V, W, F, closed_loop = args
    want_F, want_loop = solved(sys, V, W)
    for got, want in zip((F, *closed_loop), (want_F, *want_loop)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert synthesis._verify_gain(*args) == oracle_verify_gain(*args[:7])


@st.composite
def spectra(draw):
    """(actual, expected, tolerance): a multiset, and its permutation moved by amounts near the tolerance.

    Values sit on a coarse grid around a few centres, so repeated modes,
    conjugate pairs and exact ties between two remaining values are common.
    """
    tolerance = draw(st.sampled_from((1e-6, 1e-3, 0.1)))
    centres = draw(st.lists(st.sampled_from((-1.0, -2.0, -0.5, 3.0)), min_size=1, max_size=3))
    expected = []
    for _ in range(draw(st.integers(1, 7))):
        centre = draw(st.sampled_from(centres))
        imag = draw(st.sampled_from((0.0, 0.0, 1.0, 2.5)))
        expected += [complex(centre, imag), complex(centre, -imag)] if imag else [complex(centre)]
    steps = st.sampled_from((0.0, 0.25, 0.5, 0.999999, 1.0, 1.5, 3.0))
    actual = []
    for z in draw(st.permutations(expected)):
        size = draw(steps) * tolerance * (1.0 + abs(z))
        direction = draw(st.sampled_from((1.0, -1.0, 1j, -1j)))
        actual.append(z + direction * size)
    if draw(st.booleans()):
        actual = actual[:-1]
    if all(z.imag == 0.0 for z in actual) and draw(st.booleans()):
        return np.array([z.real for z in actual]), expected, tolerance
    return np.array(actual, dtype=complex), expected, tolerance


class TestVerifyGainOracles:
    DEMO_SPEC = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))

    @given(spectra())
    def test_match_equals_the_per_target_loop(self, case):
        actual, expected, tolerance = case
        assert synthesis._match_spectrum(actual, expected, tolerance) == oracle_match_spectrum(actual, expected, tolerance)

    def test_a_tie_goes_to_the_first_remaining_value(self):
        # -1 is 2^-20 from both values; -1 + 2^-19 is within its bound of the
        # second only, so the match holds when -1 takes the first one.
        d = 2.0**-20
        expected = [complex(-1.0), complex(-1.0 + 2 * d)]
        for actual, matched in (([-1.0 - d, -1.0 + d], True), ([-1.0 + d, -1.0 - d], False)):
            actual = np.array(actual, dtype=complex)
            assert synthesis._match_spectrum(actual, expected, 1e-6) is matched
            assert oracle_match_spectrum(actual, expected, 1e-6) is matched

    def test_a_distance_on_the_bound_is_judged_as_the_scalar_abs_judges_it(self):
        # Every distance is at most the largest, which is the bound: NumPy's
        # vectorized complex abs can put that one an ulp past it.
        rng = np.random.default_rng(0)
        for _ in range(200):
            actual = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            tolerance = max(abs(z) for z in actual)
            assert synthesis._match_spectrum(actual, [0j] * 8, tolerance)
            assert oracle_match_spectrum(actual, [0j] * 8, tolerance)

    def test_the_demo_spectrum_matches_in_every_order(self, demo_feedback):
        # -1, -2, -1 and the V*g modes: a repeated mode, in three orders.
        spectrum = np.array(demo_feedback.closed_loop_spectrum)
        modes = [complex(m) for m in demo_feedback.column_modes]
        for expected in (modes, modes[::-1], modes[1:] + modes[:1]):
            assert synthesis._match_spectrum(spectrum, expected, synthesis._SPECTRUM_TOL)
        assert not synthesis._match_spectrum(spectrum, [complex(-1.0)] * len(modes), synthesis._SPECTRUM_TOL)

    def test_every_design_verifies_as_the_per_output_loops(self, monkeypatch):
        designs = [(mt.LtiSystem.load(demo_system_path()), dataclasses.replace(self.DEMO_SPEC, seed=s)) for s in range(4)]
        designs += [
            (wide_plant(0, k, p), mt.SynthesisSpec(lambdas=tuple(-1.0 - 0.25 * i for i in range(p)), reference=np.ones(p)))
            for p in (8, 12) for k in range(2)
        ]
        for n, m, p, planted in ((6, 3, 2, (2.0,)), (10, 4, 3, ()), (12, 5, 4, (-3.0,))):
            plant = mt.generate(mt.GeneratorSpec(n=n, m=m, p=p, planted_zero_values=planted, seed=0))
            designs.append((plant, mt.SynthesisSpec(lambdas=tuple(-1.0 - 0.25 * i for i in range(p)), reference=np.ones(p))))
        captured = captured_verifications(monkeypatch, designs)
        assert len(captured) >= len(designs)
        for args in captured:
            assert_same_verification(args)

    @pytest.mark.parametrize("corrupted", [(1,), (2,), (0, 2), (2, 1)])
    def test_a_forced_coupling_failure_names_the_oracles_output(self, fresh_demo, monkeypatch, corrupted):
        (sys, spec, vg, directions, delta, V, W, *gain), = captured_verifications(monkeypatch, [(fresh_demo, self.DEMO_SPEC)])
        directions = dict(directions)
        for j in corrupted:
            directions[j] = dataclasses.replace(directions[j], beta=2.0 * directions[j].beta)
        args = (sys, spec, vg, directions, delta, V, W, *gain)
        assert_same_verification(args)
        assert synthesis._verify_gain(*args) == f"output coupling of direction {min(corrupted)} failed verification"

    @pytest.mark.parametrize("tagged", [(2,), (0,), (0, 1), (1, 2)])
    def test_a_forced_instantaneous_row_failure_names_the_oracles_output(self, fresh_demo, monkeypatch, tagged):
        # The outputs in ``tagged`` leave delta, and their modes join V*g's, so
        # the spectrum and the couplings still pass and only their rows fail.
        (sys, spec, vg, directions, delta, V, W, *_), = captured_verifications(monkeypatch, [(fresh_demo, self.DEMO_SPEC)])
        kept = tuple(j for j in delta if j not in tagged)
        order = [delta.index(j) for j in kept + tagged] + list(range(len(delta), V.shape[1]))
        tagged_vg = SimpleNamespace(V=vg.V, dim=vg.dim, modes=tuple(spec.lambdas[j] for j in tagged) + tuple(vg.modes))
        V, W = V[:, order], W[:, order]
        args = (sys, spec, tagged_vg, directions, kept, V, W, *solved(sys, V, W))
        assert_same_verification(args)
        assert synthesis._verify_gain(*args) == f"output {min(tagged)} is tagged instantaneous but its error row does not vanish"


def swept(n, m, p, planted, seed, domain="continuous"):
    """A sweep plant and its design spec: synthesis seed equal to the generator seed, reference all ones."""
    plant = mt.generate(mt.GeneratorSpec(n, m, p, domain=domain, planted_zero_values=planted, seed=seed))
    modes = [0.5 - 0.05 * k for k in range(p)] if domain == "discrete" else [-1.0 - 0.25 * k for k in range(p)]
    return plant, mt.SynthesisSpec(lambdas=modes, reference=np.ones(p), seed=seed)


def outcome(plant, spec):
    """The design's JSON dict, or the class and text of its error."""
    try:
        return mt.synthesize(plant, spec).to_json_dict()
    except mt.MonotrackError as err:
        return type(err), str(err)


class TestTwoBatches:
    """The first try alone, then every other try in one stacked pass, decide as one try at a time does."""

    RETRIED = {
        # Designs on tries 2-7.
        "c-8-4-3-s2": (8, 4, 3, (), 2),
        "c-8-4-3-z-3-s1": (8, 4, 3, (-3.0,), 1),
        "c-10-4-3-s0": (10, 4, 3, (), 0),
        "c-10-4-3-z2-s2": (10, 4, 3, (2.0,), 2),
        "c-12-5-4-z-3-s4": (12, 5, 4, (-3.0,), 4),
        "d-12-5-4-z2-s1": (12, 5, 4, (2.0,), 1, "discrete"),
        "d-16-6-5-s4": (16, 6, 5, (), 4, "discrete"),
        # Every try fails: UnstableResult, and one whose last V is singular.
        "c-8-4-3-s0": (8, 4, 3, (), 0),
        "c-12-5-4-s0": (12, 5, 4, (), 0),
        "d-16-6-5-z2-s1": (16, 6, 5, (2.0,), 1, "discrete"),
        "d-16-6-5-s2": (16, 6, 5, (), 2, "discrete"),
    }
    # The ladder rungs that fail, at the ladder's generator seed and the default synthesis seed.
    LADDER = {"ladder-10-4-3": (10, 4, 3, ()), "ladder-12-5-4-z-3": (12, 5, 4, (-3.0,)), "ladder-24-8-6": (24, 8, 6, ())}

    def assert_as_one_try_at_a_time(self, make, monkeypatch):
        plant, spec = make()
        batches = count_calls(monkeypatch, (synthesis, "_try_batch"))
        got = outcome(plant, spec)
        assert batches == {"_try_batch": 2}
        monkeypatch.setattr(synthesis, "_try_candidates", one_try_at_a_time)
        assert got == outcome(make()[0], spec)
        return got

    @pytest.mark.parametrize("case", RETRIED.values(), ids=RETRIED.keys())
    def test_a_sweep_plant_that_retries(self, case, monkeypatch):
        self.assert_as_one_try_at_a_time(lambda: swept(*case), monkeypatch)

    @pytest.mark.parametrize("rung", LADDER.values(), ids=LADDER.keys())
    def test_a_failing_ladder_rung(self, rung, monkeypatch):
        n, m, p, planted = rung

        def make():
            plant = mt.generate(mt.GeneratorSpec(n, m, p, planted_zero_values=planted, seed=0))
            return plant, mt.SynthesisSpec(lambdas=[-1.0 - 0.25 * k for k in range(p)], reference=np.ones(p))

        error, _ = self.assert_as_one_try_at_a_time(make, monkeypatch)
        assert error is mt.UnstableResult

    def test_each_spectrum_has_the_dtype_of_a_2d_eigvals(self):
        # The second gain's closed loop has the pair -1 +- j, so a stacked
        # eigvals returns all three spectra complex.
        plant = mt.LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        gains = [np.diag([-1.0, -2.0]), np.array([[-1.0, 1.0], [-1.0, -1.0]]), np.diag([-3.0, -0.5])]
        loops = synthesis._closed_loops(plant, gains)
        assert [spectrum.dtype.kind for _, spectrum, _ in loops] == ["f", "c", "f"]
        for (_, spectrum, _), F in zip(loops, gains):
            want = np.linalg.eigvals(plant.A + plant.B @ F)
            assert spectrum.dtype == want.dtype and spectrum.tobytes() == want.tobytes()

    def test_a_batch_of_real_and_complex_spectra_reports_plain_floats(self, monkeypatch):
        # The second batch mixes real and complex spectra, and the last
        # candidate's is real: its error text prints plain floats.
        batches, closed_loops = [], synthesis._closed_loops

        def spy(plant, gains):
            loops = closed_loops(plant, gains)
            batches.append([spectrum.dtype.kind for _, spectrum, _ in loops])
            return loops

        monkeypatch.setattr(synthesis, "_closed_loops", spy)
        error, text = self.assert_as_one_try_at_a_time(lambda: swept(10, 4, 3, (-3.0,), 4), monkeypatch)
        assert error is mt.UnstableResult
        _, second = batches
        assert len(second) == 6 and set(second) == {"f", "c"} and second[-1] == "f"
        assert text.startswith("closed-loop spectrum [") and "j" not in text and "np." not in text
