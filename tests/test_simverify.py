import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import monotrack as mt
from monotrack import simverify, synthesis
from monotrack.fixtures import demo_system_path
from monotrack.numkernel import ABSOLUTE_FLOOR as FLOOR
from monotrack.simverify import _MONOTONE_TIE_TOL, _expm

from .conftest import count_calls, wide_plant

DEMO_X0_A = (0.1, -0.2, 0.1, 0.1, 0.0)
DEMO_X0_B = (0.6, 0.2, 0.2, -0.2, 1.0)

# Doubling fills 2^k samples per pass; these counts sit on, just past and
# between powers of two, and include the continuous and discrete defaults.
SAMPLE_COUNTS = (2, 3, 7, 8, 9, 200, 400, 401, 1000)


# -- Oracles: the one-step recursion and the per-output verdict loops that
# simulate and the checks replaced, kept as the reference for the fast paths.
def sequential_trace(sys, fb, trace):
    """``trace`` recomputed one transition per sample, as simulate once did.

    The transition is simulate's own ``_expm``, so a comparison with the
    doubled trace measures the doubling alone.
    """
    closed_loop = sys.A + sys.B @ fb.F
    if sys.domain is mt.TimeDomain.CONTINUOUS:
        step = _expm(closed_loop * (trace.times[1] - trace.times[0]))
    else:
        step = closed_loop
    xi = np.empty_like(trace.xi)
    xi[:, 0] = trace.xi[:, 0]
    for k in range(1, trace.num_samples):
        xi[:, k] = step @ xi[:, k - 1]
    out_map = sys.C + sys.D @ fb.F
    for j, mode in fb.assigned_modes.items():
        if mode == "instantaneous":
            out_map[j, :] = 0.0
    return mt.SimulationTrace(times=trace.times, xi=xi, epsilon=out_map @ xi, domain=trace.domain)


def oracle_check_monotonic(trace):
    verdicts = []
    for k in range(trace.num_outputs):
        eps = trace.epsilon[k]
        peak = float(np.max(np.abs(eps)))
        if peak <= FLOOR:
            verdicts.append("instantaneous")
            continue
        ties = _MONOTONE_TIE_TOL * peak
        diffs = np.diff(eps)
        signs = np.sign(diffs[np.abs(diffs) > ties])
        same_sign = signs.size == 0 or np.all(signs == signs[0])
        magnitudes = np.abs(eps)
        non_increasing = bool(np.all(magnitudes[1:] <= magnitudes[:-1] + ties))
        verdicts.append("monotone" if same_sign and non_increasing else "not_monotone")
    return verdicts


def oracle_check_rate(trace, rate):
    if trace.domain is mt.TimeDomain.CONTINUOUS:
        envelope = np.exp(rate.rho * trace.times)
    else:
        envelope = rate.rho ** trace.times
    verdicts = []
    for k in range(trace.num_outputs):
        eps = np.abs(trace.epsilon[k])
        if np.max(eps) <= FLOOR:
            verdicts.append(True)
            continue
        beta = eps[0] * (1.0 + _MONOTONE_TIE_TOL)
        verdicts.append(bool(np.all(eps <= beta * envelope + FLOOR)))
    return verdicts


def polyfit_single_mode(trace):
    if trace.num_samples < 8:
        raise mt.InsufficientData(f"{trace.num_samples} samples; at least 8 required")
    fits = []
    for k in range(trace.num_outputs):
        eps = trace.epsilon[k]
        peak = float(np.max(np.abs(eps)))
        if peak <= FLOOR or abs(eps[0]) <= FLOOR:
            fits.append(mt.ModeFit(k, None, None, 0.0, True))
            continue
        usable = np.abs(eps) > FLOOR
        if np.sum(usable) < 2:
            raise mt.InsufficientData(f"output {k} has fewer than two samples above the floor")
        t_use, e_use = trace.times[usable], eps[usable]
        sign_changes = np.any(np.sign(e_use[1:]) != np.sign(e_use[0]))
        slope, intercept = np.polyfit(t_use, np.log(np.abs(e_use)), 1)
        if trace.domain is mt.TimeDomain.CONTINUOUS:
            lam_hat = float(slope)
            model = np.exp(intercept + slope * trace.times)
        else:
            lam_hat = float(np.exp(slope))
            model = np.exp(intercept) * lam_hat ** trace.times
        gamma_hat = float(np.sign(e_use[0]) * np.exp(intercept))
        predicted = np.sign(e_use[0]) * model
        residual = float(np.sqrt(np.mean((eps - predicted) ** 2)) / peak)
        if sign_changes:
            residual = 1.0
        fits.append(mt.ModeFit(k, lam_hat, gamma_hat, residual, False))
    return fits


def row_selection_fit_single_mode(trace):
    """fit_single_mode as it was: the fit over a copy of the non-instantaneous
    rows, always, and a placeholder fit per output replaced for the fitted ones."""
    if trace.num_samples < 8:
        raise mt.InsufficientData(f"{trace.num_samples} samples; at least 8 required")
    eps = trace.epsilon
    magnitudes = np.abs(eps)
    peak = np.max(magnitudes, axis=1)
    floor = FLOOR
    usable = magnitudes > floor
    instantaneous = (peak <= floor) | (magnitudes[:, 0] <= floor)
    short = ~instantaneous & (np.sum(usable, axis=1) < 2)
    if np.any(short):
        raise mt.InsufficientData(f"output {int(np.argmax(short))} has fewer than two samples above the floor")
    rows = np.flatnonzero(~instantaneous)
    eps, use = eps[rows], usable[rows]
    weight = use.astype(float)
    count = np.sum(weight, axis=1)
    log_mag = np.log(np.where(use, magnitudes[rows], 1.0))
    t_mean = weight @ trace.times / count
    y_mean = np.sum(weight * log_mag, axis=1) / count
    t_dev = weight * (trace.times - t_mean[:, None])
    slope = np.sum(t_dev * (log_mag - y_mean[:, None]), axis=1) / np.sum(t_dev * t_dev, axis=1)
    intercept = y_mean - slope * t_mean
    sign = np.sign(eps[np.arange(rows.size), np.argmax(use, axis=1)])[:, None]
    sign_changes = np.any(use & (np.sign(eps) != sign), axis=1)
    if trace.domain is mt.TimeDomain.CONTINUOUS:
        lam_hat = slope
        model = np.exp(intercept[:, None] + slope[:, None] * trace.times)
    else:
        lam_hat = np.exp(slope)
        model = np.exp(intercept)[:, None] * lam_hat[:, None] ** trace.times
    gamma_hat = sign[:, 0] * np.exp(intercept)
    residual = np.sqrt(np.mean((eps - sign * model) ** 2, axis=1)) / peak[rows]
    residual[sign_changes] = 1.0
    fits = [mt.ModeFit(k, None, None, 0.0, True) for k in range(trace.num_outputs)]
    for i, k in enumerate(rows):
        fits[k] = mt.ModeFit(int(k), float(lam_hat[i]), float(gamma_hat[i]), float(residual[i]), False)
    return fits


# -- Traces for the verdict oracles.
ROW_KINDS = ("decay", "instantaneous", "below_floor", "tail_below_floor", "ties", "on_envelope", "sign_change", "growing", "nan")


def rate_for(domain):
    return mt.RateSpec(-0.5 if domain is mt.TimeDomain.CONTINUOUS else 0.6)


def rate_envelope(times, domain):
    rho = rate_for(domain).rho
    return np.exp(rho * times) if domain is mt.TimeDomain.CONTINUOUS else rho**times


def sample_times(domain, num_samples, horizon=6.0):
    if domain is mt.TimeDomain.CONTINUOUS:
        return np.linspace(0.0, horizon, num_samples)
    return np.arange(num_samples, dtype=float)


def trace_row(kind, times, domain, gamma=1.3, rate=0.7, position=0, tie_sign=1.0, past_tie=False):
    """One tracking-error row of the given kind; ``rate`` in (0, 1) sets the decay."""
    decay = np.exp(-rate * 3.0 * times) if domain is mt.TimeDomain.CONTINUOUS else rate**times
    row = gamma * decay
    if kind == "instantaneous":
        row = np.zeros_like(times)
    elif kind == "below_floor":
        row = row / abs(gamma) * FLOOR * rate
    elif kind == "tail_below_floor":
        row = gamma * np.exp(-40.0 * times / max(times[-1], 1.0) * np.log(10.0))
    elif kind == "ties":
        # [peak, 0, +-ties, 0, -+ties, 0, ...]: every step but the first is an
        # exact tie at _MONOTONE_TIE_TOL * peak (or one ulp past it), and |eps| never grows.
        ties = _MONOTONE_TIE_TOL * abs(gamma)
        step = np.nextafter(ties, np.inf) if past_tie else ties
        row = np.zeros_like(times)
        row[0] = gamma
        row[2::2] = tie_sign * step * (-1.0) ** np.arange(row[2::2].size)
    elif kind == "on_envelope":
        # |eps_k| equal to check_rate's bound beta * envelope + floor at every sample.
        row = abs(gamma) * (1.0 + _MONOTONE_TIE_TOL) * rate_envelope(times, domain) + FLOOR
        row[0] = abs(gamma)
    elif kind == "sign_change":
        row = gamma * (decay - 2.0 * decay**2)
    elif kind == "growing":
        row = gamma * (1.0 + times / max(times[-1], 1.0))
    elif kind == "nan":
        row[position % times.size] = np.nan
    return row


@st.composite
def traces(draw):
    num_samples = draw(st.sampled_from(SAMPLE_COUNTS))
    domain = draw(st.sampled_from((mt.TimeDomain.CONTINUOUS, mt.TimeDomain.DISCRETE)))
    times = sample_times(domain, num_samples, draw(st.floats(0.5, 10.0)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=5)):
        gamma = draw(st.floats(0.01, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
        rows.append(
            trace_row(
                kind, times, domain, gamma,
                rate=draw(st.floats(0.05, 0.95)),
                position=draw(st.integers(0, 999)),
                tie_sign=draw(st.sampled_from((-1.0, 1.0))),
                past_tie=draw(st.booleans()),
            )
        )
    return mt.SimulationTrace(times=times, xi=np.zeros((1, num_samples)), epsilon=np.array(rows), domain=domain)


def fit_outcome(fit, trace):
    try:
        return fit(trace)
    except mt.InsufficientData as exc:
        return str(exc)


def assert_fits_match_polyfit(trace):
    expected, actual = fit_outcome(polyfit_single_mode, trace), fit_outcome(mt.fit_single_mode, trace)
    if isinstance(expected, str):
        assert actual == expected
        return
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert (got.output_index, got.instantaneous) == (want.output_index, want.instantaneous)
        if want.instantaneous:
            assert got == want
            continue
        for name in ("lambda_hat", "gamma_hat", "relative_residual"):
            a, b = getattr(got, name), getattr(want, name)
            # relative_residual is already a ratio to the peak, so a floor of
            # one keeps "relative" meaningful for residuals near zero.
            assert (np.isnan(a) and np.isnan(b)) or abs(a - b) <= 1e-10 * max(1.0, abs(b)), (name, a, b)




def assert_fits_bit_equal(trace):
    """fit_single_mode gives the row-selection fit's outcome: every field's type and bits, or the same error."""
    expected, actual = fit_outcome(row_selection_fit_single_mode, trace), fit_outcome(mt.fit_single_mode, trace)
    # repr shows each field's type and every bit of a float (-0.0 and nan included).
    assert repr(actual) == repr(expected)


def diagonal_plant_and_gain():
    """Closed loop diag(-1, -2) with identity error output, via zero gain."""
    sys = mt.LtiSystem(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
    fb = mt.FeedbackResult(
        F=np.zeros((2, 2)),
        x_ss=np.zeros(2),
        u_ss=np.zeros(2),
        V=np.eye(2),
        W=np.zeros((2, 2)),
        closed_loop_spectrum=(complex(-2.0), complex(-1.0)),
        assigned_modes={0: -1.0, 1: -2.0},
        delta=(0, 1),
        column_modes=(-1.0, -2.0),
    )
    return sys, fb


class TestSimulate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_an_initial_state_that_is_not_finite_raises_value_error(self, demo_system, demo_feedback, bad):
        x0 = np.array(DEMO_X0_A, dtype=float)
        x0[2] = bad
        with pytest.raises(ValueError, match="initial state must be finite"):
            mt.simulate(demo_system, demo_feedback, x0)

    def test_zero_initial_error_stays_zero(self, demo_system, demo_feedback):
        trace = mt.simulate(demo_system, demo_feedback, demo_feedback.x_ss)
        assert np.max(np.abs(trace.epsilon)) <= 1e-12

    def test_demo_trace_is_single_mode_per_output(self, demo_system, demo_feedback):
        trace = mt.simulate(demo_system, demo_feedback, DEMO_X0_A)
        modes = (-1.0, -2.0, -1.0)
        for k in range(3):
            eps0 = trace.epsilon[k, 0]
            expected = eps0 * np.exp(modes[k] * trace.times)
            scale = max(np.abs(trace.epsilon[k]))
            assert np.max(np.abs(trace.epsilon[k] - expected)) <= 1e-6 * scale

    def test_diagonal_closed_form(self):
        sys, fb = diagonal_plant_and_gain()
        x0 = np.array([0.7, -0.4])
        trace = mt.simulate(sys, fb, x0, horizon=5.0, num_samples=100)
        for k, lam in enumerate((-1.0, -2.0)):
            expected = x0[k] * np.exp(lam * trace.times)
            assert np.max(np.abs(trace.epsilon[k] - expected)) <= 1e-10

    def test_discrete_iteration(self):
        sys = mt.LtiSystem([[0.5]], [[1.0]], [[1.0]], [[0.0]], mt.TimeDomain.DISCRETE)
        fb = mt.FeedbackResult(
            F=np.zeros((1, 1)),
            x_ss=np.zeros(1),
            u_ss=np.zeros(1),
            V=np.eye(1),
            W=np.zeros((1, 1)),
            closed_loop_spectrum=(complex(0.5),),
            assigned_modes={0: 0.5},
            delta=(0,),
            column_modes=(0.5,),
        )
        trace = mt.simulate(sys, fb, [1.0], num_samples=20)
        assert np.allclose(trace.epsilon[0], 0.5 ** trace.times)

    def test_unstable_closed_loop_rejected(self):
        sys = mt.LtiSystem([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        fb = mt.FeedbackResult(
            F=np.zeros((1, 1)),
            x_ss=np.zeros(1),
            u_ss=np.zeros(1),
            V=np.eye(1),
            W=np.zeros((1, 1)),
            closed_loop_spectrum=(complex(1.0),),
            assigned_modes={0: -1.0},
            delta=(0,),
            column_modes=(-1.0,),
        )
        with pytest.raises(mt.UnstableClosedLoop):
            mt.simulate(sys, fb, [1.0])

    def test_epsilon_consistent_with_output_map(self, demo_system, demo_feedback):
        trace = mt.simulate(demo_system, demo_feedback, DEMO_X0_B)
        out_map = demo_system.C + demo_system.D @ demo_feedback.F
        assert np.max(np.abs(trace.epsilon - out_map @ trace.xi)) <= 1e-12
        assert trace.times[0] == 0.0


def assert_same_trace(trace, other):
    for name in ("times", "xi", "epsilon"):
        assert getattr(trace, name).tobytes() == getattr(other, name).tobytes(), name
    assert trace.metadata == other.metadata


class TestKeptTransition:
    """The plant keeps the latest gain's transition; each x0 still gets its own fill, sweep and error."""

    def test_a_second_simulate_of_a_gain_computes_no_transition(self, fresh_demo, demo_feedback, monkeypatch):
        mt.simulate(fresh_demo, demo_feedback, DEMO_X0_A)
        calls = count_calls(monkeypatch, (np.linalg, "eigvals"), (simverify, "_expm"))
        trace = mt.simulate(fresh_demo, demo_feedback, DEMO_X0_B)
        assert calls == {"eigvals": 0, "_expm": 0}
        assert_same_trace(trace, mt.simulate(mt.LtiSystem.load(demo_system_path()), demo_feedback, DEMO_X0_B))

    @pytest.mark.parametrize("change", ["gain", "assigned_modes", "horizon", "num_samples"])
    def test_a_new_gain_or_sampling_computes_the_transition_again(self, fresh_demo, demo_feedback, monkeypatch, change):
        sampling = {"horizon": 6.0, "num_samples": 200}
        mt.simulate(fresh_demo, demo_feedback, DEMO_X0_A, **sampling)
        fb = demo_feedback
        if change == "gain":
            F = demo_feedback.F.copy()
            F[0, 0] = np.nextafter(F[0, 0], np.inf)
            fb = dataclasses.replace(demo_feedback, F=F)
        elif change == "assigned_modes":
            # An instantaneous output's row of C + DF is zeroed in the trace.
            fb = dataclasses.replace(demo_feedback, assigned_modes={**demo_feedback.assigned_modes, 1: "instantaneous"})
        else:
            sampling[change] = {"horizon": 5.0, "num_samples": 201}[change]
        calls = count_calls(monkeypatch, (np.linalg, "eigvals"), (simverify, "_expm"))
        trace = mt.simulate(fresh_demo, fb, DEMO_X0_A, **sampling)
        # The closed loop is a fact of the gain alone: only a new gain computes its spectrum.
        assert calls == {"eigvals": int(change == "gain"), "_expm": 1}
        assert_same_trace(trace, mt.simulate(mt.LtiSystem.load(demo_system_path()), fb, DEMO_X0_A, **sampling))

    def test_an_unstable_gain_raises_on_every_call(self):
        sys, stable = diagonal_plant_and_gain()
        mt.simulate(sys, stable, [1.0, 1.0])
        unstable = dataclasses.replace(stable, F=np.diag([3.0, 0.0]))
        for _ in range(2):
            with pytest.raises(mt.UnstableClosedLoop):
                mt.simulate(sys, unstable, [1.0, 1.0])
        # The failed calls left the stable gain's kept transition as it was.
        assert_same_trace(mt.simulate(sys, stable, [1.0, 1.0]), mt.simulate(diagonal_plant_and_gain()[0], stable, [1.0, 1.0]))

    @pytest.mark.parametrize("horizon", [-5.0, 0.0, float("nan"), float("inf"), -float("inf")])
    def test_a_horizon_that_is_not_positive_and_finite_raises_on_every_call(self, fresh_demo, demo_feedback, horizon):
        for _ in range(2):
            with pytest.raises(ValueError, match="horizon"):
                mt.simulate(fresh_demo, demo_feedback, DEMO_X0_A, horizon=horizon)
        # The rejected calls kept nothing: a good horizon simulates as on a new plant.
        assert_same_trace(
            mt.simulate(fresh_demo, demo_feedback, DEMO_X0_A, horizon=6.0),
            mt.simulate(mt.LtiSystem.load(demo_system_path()), demo_feedback, DEMO_X0_A, horizon=6.0),
        )

    def test_a_discrete_horizon_sets_the_steps(self):
        # A discrete horizon H means the steps 0 ... floor(H); before, every
        # horizon gave the default 200 steps.
        sys = mt.generate(mt.GeneratorSpec(4, 3, 2, domain="discrete", seed=3))
        fb = mt.synthesize(sys, mt.SynthesisSpec(lambdas=(0.5, 0.3), reference=(1.0, -1.0)))
        x0 = np.ones(4)
        full = mt.simulate(sys, fb, x0, num_samples=1001)
        for horizon, steps in ((1.0, 2), (5.0, 6), (5.7, 6), (1000.0, 1001)):
            for num_samples in (None, steps):
                trace = mt.simulate(sys, fb, x0, horizon=horizon, num_samples=num_samples)
                assert np.array_equal(trace.times, np.arange(steps, dtype=float))
                assert np.allclose(trace.xi, full.xi[:, :steps], rtol=1e-12, atol=1e-12)
        assert mt.simulate(sys, fb, x0).num_samples == 200

    @pytest.mark.parametrize("horizon, num_samples", [(5.0, 200), (5.0, 5), (5.9, 7)])
    def test_samples_that_disagree_with_a_discrete_horizon_raise_on_every_call(self, horizon, num_samples):
        sys = mt.generate(mt.GeneratorSpec(4, 3, 2, domain="discrete", seed=3))
        fb = mt.synthesize(sys, mt.SynthesisSpec(lambdas=(0.5, 0.3), reference=(1.0, -1.0)))
        for _ in range(2):
            with pytest.raises(ValueError, match="samples"):
                mt.simulate(sys, fb, np.ones(4), horizon=horizon, num_samples=num_samples)

    @pytest.mark.parametrize("horizon, num_samples", [(0.5, None), (0.5, 1), (0.999, 2)])
    def test_a_discrete_horizon_below_one_names_the_horizon(self, horizon, num_samples):
        # Before, the error named "at least two samples", which the caller never gave.
        sys = mt.generate(mt.GeneratorSpec(4, 3, 2, domain="discrete", seed=3))
        fb = mt.synthesize(sys, mt.SynthesisSpec(lambdas=(0.5, 0.3), reference=(1.0, -1.0)))
        with pytest.raises(ValueError, match=rf"discrete horizon must be at least 1, got {horizon}"):
            mt.simulate(sys, fb, np.ones(4), horizon=horizon, num_samples=num_samples)

    def test_writing_to_a_trace_does_not_reach_the_next(self, fresh_demo, demo_feedback):
        mt.simulate(fresh_demo, demo_feedback, DEMO_X0_A).times[:] = -1.0
        assert_same_trace(
            mt.simulate(fresh_demo, demo_feedback, DEMO_X0_A),
            mt.simulate(mt.LtiSystem.load(demo_system_path()), demo_feedback, DEMO_X0_A),
        )


class TestKeptClosedLoop:
    """Synthesis and simulation share the latest gain's closed loop A + BF, its spectrum and C + DF."""

    SPEC = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))

    def test_a_simulate_after_synthesize_computes_no_spectrum(self, fresh_demo, monkeypatch):
        fb = mt.synthesize(fresh_demo, self.SPEC)
        calls = count_calls(monkeypatch, (np.linalg, "eigvals"))
        trace = mt.simulate(fresh_demo, fb, DEMO_X0_A)
        assert calls == {"eigvals": 0}
        assert_same_trace(trace, mt.simulate(mt.LtiSystem.load(demo_system_path()), fb, DEMO_X0_A))

    def test_the_kept_arrays_are_read_only(self, fresh_demo):
        fb = mt.synthesize(fresh_demo, self.SPEC)
        kept = synthesis._closed_loop(fresh_demo, fb.F)
        assert len(kept) == 3
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # The transition zeroes instantaneous rows in its own copy of C + DF.
        instantaneous = dataclasses.replace(fb, assigned_modes={**fb.assigned_modes, 1: "instantaneous"})
        mt.simulate(fresh_demo, instantaneous, DEMO_X0_A)
        assert np.any(synthesis._closed_loop(fresh_demo, fb.F)[2][1] != 0.0)

    def test_an_unstable_gain_raises_on_every_call_from_its_kept_spectrum(self, monkeypatch):
        sys, stable = diagonal_plant_and_gain()
        unstable = dataclasses.replace(stable, F=np.diag([3.0, 0.0]))
        calls = count_calls(monkeypatch, (np.linalg, "eigvals"))
        for _ in range(3):
            with pytest.raises(mt.UnstableClosedLoop):
                mt.simulate(sys, unstable, [1.0, 1.0])
        assert calls == {"eigvals": 1}


class TestCheckMonotonic:
    def test_single_decay_is_monotone(self):
        sys, fb = diagonal_plant_and_gain()
        trace = mt.simulate(sys, fb, [1.0, 0.5], horizon=6.0, num_samples=200)
        assert mt.check_monotonic(trace) == ["monotone", "monotone"]

    def test_two_mode_sign_change_detected(self):
        # eps(t) = exp(-t) - 2 exp(-2t) crosses zero at t = ln 2.
        times = np.linspace(0.0, 5.0, 300)
        eps = np.exp(-times) - 2.0 * np.exp(-2.0 * times)
        trace = mt.SimulationTrace(
            times=times, xi=np.zeros((1, 300)), epsilon=eps.reshape(1, -1),
            domain=mt.TimeDomain.CONTINUOUS,
        )
        assert mt.check_monotonic(trace) == ["not_monotone"]

    def test_zero_output_reported_instantaneous(self):
        times = np.linspace(0.0, 1.0, 50)
        trace = mt.SimulationTrace(
            times=times, xi=np.zeros((1, 50)), epsilon=np.zeros((1, 50)),
            domain=mt.TimeDomain.CONTINUOUS,
        )
        assert mt.check_monotonic(trace) == ["instantaneous"]


class TestCheckRate:
    def test_faster_mode_passes(self):
        times = np.linspace(0.0, 8.0, 200)
        trace = mt.SimulationTrace(
            times=times, xi=np.zeros((1, 200)),
            epsilon=np.exp(-2.0 * times).reshape(1, -1),
            domain=mt.TimeDomain.CONTINUOUS,
        )
        assert mt.check_rate(trace, mt.RateSpec(-1.0)) == [True]

    def test_slower_mode_fails(self):
        times = np.linspace(0.0, 8.0, 200)
        trace = mt.SimulationTrace(
            times=times, xi=np.zeros((1, 200)),
            epsilon=np.exp(-0.5 * times).reshape(1, -1),
            domain=mt.TimeDomain.CONTINUOUS,
        )
        assert mt.check_rate(trace, mt.RateSpec(-1.0)) == [False]

    def test_demo_modes_meet_unit_rate(self, demo_system, demo_feedback):
        trace = mt.simulate(demo_system, demo_feedback, DEMO_X0_A)
        assert mt.check_rate(trace, mt.RateSpec(-1.0)) == [True, True, True]

    def test_rate_spec_domain_validation(self):
        with pytest.raises(ValueError):
            mt.RateSpec(0.5).validate(mt.TimeDomain.CONTINUOUS)
        with pytest.raises(ValueError):
            mt.RateSpec(-1.0).validate(mt.TimeDomain.DISCRETE)


class TestFitSingleMode:
    def test_demo_fits_assigned_modes(self, demo_system, demo_feedback):
        trace = mt.simulate(demo_system, demo_feedback, DEMO_X0_A)
        fits = mt.fit_single_mode(trace)
        expected = (-1.0, -2.0, -1.0)
        for fit, lam in zip(fits, expected):
            assert not fit.instantaneous
            assert abs(fit.lambda_hat - lam) <= 1e-6
            assert fit.relative_residual <= 1e-6

    def test_two_mode_output_rejected(self):
        times = np.linspace(0.0, 6.0, 200)
        eps = np.exp(-times) + np.exp(-3.0 * times)
        trace = mt.SimulationTrace(
            times=times, xi=np.zeros((1, 200)), epsilon=eps.reshape(1, -1),
            domain=mt.TimeDomain.CONTINUOUS,
        )
        fit = mt.fit_single_mode(trace)[0]
        assert fit.relative_residual > 1e-2

    def test_zero_output_skipped(self):
        times = np.linspace(0.0, 1.0, 20)
        trace = mt.SimulationTrace(
            times=times, xi=np.zeros((1, 20)), epsilon=np.zeros((1, 20)),
            domain=mt.TimeDomain.CONTINUOUS,
        )
        fit = mt.fit_single_mode(trace)[0]
        assert fit.instantaneous and fit.lambda_hat is None

    def test_too_few_samples_raises(self):
        times = np.linspace(0.0, 1.0, 4)
        trace = mt.SimulationTrace(
            times=times, xi=np.zeros((1, 4)), epsilon=np.ones((1, 4)),
            domain=mt.TimeDomain.CONTINUOUS,
        )
        with pytest.raises(mt.InsufficientData):
            mt.fit_single_mode(trace)

    def test_discrete_power_fit(self):
        times = np.arange(40, dtype=float)
        eps = 0.8 * 0.6 ** times
        trace = mt.SimulationTrace(
            times=times, xi=np.zeros((1, 40)), epsilon=eps.reshape(1, -1),
            domain=mt.TimeDomain.DISCRETE,
        )
        fit = mt.fit_single_mode(trace)[0]
        assert abs(fit.lambda_hat - 0.6) <= 1e-9
        assert abs(fit.gamma_hat - 0.8) <= 1e-9


class TestStructuralInvariants:
    def test_superposition(self, demo_system, demo_feedback):
        rng = np.random.default_rng(17)
        x1, x2 = rng.normal(size=5), rng.normal(size=5)
        a, b = 0.6, -1.3
        xss = demo_feedback.x_ss
        combined = mt.simulate(demo_system, demo_feedback, xss + a * x1 + b * x2, horizon=4.0, num_samples=100)
        first = mt.simulate(demo_system, demo_feedback, xss + x1, horizon=4.0, num_samples=100)
        second = mt.simulate(demo_system, demo_feedback, xss + x2, horizon=4.0, num_samples=100)
        recombined = a * first.epsilon + b * second.epsilon
        assert np.max(np.abs(combined.epsilon - recombined)) <= 1e-9

    def test_stabilisability_directions_invisible(self, demo_system, demo_zeros, demo_feedback):
        vg = mt.draw(mt.discover_vstar_g(demo_system, zeros=demo_zeros))
        for k in range(vg.dim):
            x0 = demo_feedback.x_ss + vg.V[:, k]
            trace = mt.simulate(demo_system, demo_feedback, x0, horizon=4.0, num_samples=100)
            assert np.max(np.abs(trace.epsilon)) <= 1e-9

    def test_monotone_and_single_mode_from_many_initial_states(self, demo_system, demo_feedback):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x0 = rng.normal(size=5)
            trace = mt.simulate(demo_system, demo_feedback, x0)
            verdicts = mt.check_monotonic(trace)
            assert all(v in ("monotone", "instantaneous") for v in verdicts)
            fits = mt.fit_single_mode(trace)
            for j, fit in enumerate(fits):
                if fit.instantaneous or abs(fit.gamma_hat) <= 1e-9:
                    continue
                assert fit.relative_residual <= 1e-6
                assert abs(fit.lambda_hat - demo_feedback.assigned_modes[j]) <= 1e-5


class TestExport:
    def test_csv_wide_format(self, tmp_path, demo_system, demo_feedback):
        trace = mt.simulate(demo_system, demo_feedback, DEMO_X0_A, horizon=1.0, num_samples=5)
        path = tmp_path / "trace.csv"
        mt.trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,eps_1,eps_2,eps_3,xi_1,xi_2,xi_3,xi_4,xi_5"
        assert len(lines) == 6


class TestOracles:
    @pytest.mark.parametrize("domain", [mt.TimeDomain.CONTINUOUS, mt.TimeDomain.DISCRETE])
    @pytest.mark.parametrize("num_samples", SAMPLE_COUNTS)
    def test_every_row_kind_matches_the_oracles(self, num_samples, domain):
        times = sample_times(domain, num_samples)
        rows = [trace_row(kind, times, domain, position=num_samples // 2) for kind in ROW_KINDS]
        rows += [trace_row("ties", times, domain, tie_sign=-1.0), trace_row("ties", times, domain, past_tie=True)]
        trace = mt.SimulationTrace(times=times, xi=np.zeros((1, num_samples)), epsilon=np.array(rows), domain=domain)
        verdicts = mt.check_monotonic(trace)
        assert verdicts == oracle_check_monotonic(trace)
        assert mt.check_rate(trace, rate_for(domain)) == oracle_check_rate(trace, rate_for(domain))
        assert_fits_match_polyfit(trace)
        kinds = dict(zip(ROW_KINDS, verdicts))
        assert kinds["instantaneous"] == kinds["below_floor"] == "instantaneous"
        if num_samples >= 3:
            # Exact ties are tolerated in both directions; one ulp past them is a sign change.
            assert [kinds["ties"], *verdicts[-2:]] == ["monotone", "monotone", "not_monotone"]

    @given(traces())
    def test_verdicts_match_the_per_output_loops(self, trace):
        assert mt.check_monotonic(trace) == oracle_check_monotonic(trace)
        rate = rate_for(trace.domain)
        assert mt.check_rate(trace, rate) == oracle_check_rate(trace, rate)

    @given(traces())
    def test_closed_form_fit_matches_polyfit(self, trace):
        assert_fits_match_polyfit(trace)


class TestFitConstruction:
    """fit_single_mode fits all outputs in one pass and builds each ModeFit once, with the old bits."""

    @pytest.mark.parametrize("domain", [mt.TimeDomain.CONTINUOUS, mt.TimeDomain.DISCRETE])
    @pytest.mark.parametrize(
        "kinds",
        [
            ("decay", "sign_change", "growing", "tail_below_floor"),
            ("decay", "instantaneous", "sign_change", "below_floor"),
            ("instantaneous", "decay"),
            ("instantaneous", "below_floor", "instantaneous"),
            ("instantaneous",),
        ],
    )
    def test_bit_equal_to_the_row_selection_fit(self, kinds, domain):
        times = sample_times(domain, 200)
        rows = np.array([trace_row(kind, times, domain, gamma=(-1.0) ** k * (0.5 + k)) for k, kind in enumerate(kinds)])
        for epsilon in (rows, np.asfortranarray(rows)):
            trace = mt.SimulationTrace(times=times, xi=np.zeros((1, 200)), epsilon=epsilon, domain=domain)
            assert_fits_bit_equal(trace)
        fits = mt.fit_single_mode(trace)
        assert [fit.instantaneous for fit in fits] == [kind in ("instantaneous", "below_floor") for kind in kinds]

    def test_a_first_sample_on_the_floor_is_instantaneous(self):
        times = sample_times(mt.TimeDomain.CONTINUOUS, 50)
        late = trace_row("decay", times, mt.TimeDomain.CONTINUOUS)
        late[0] = 0.0
        epsilon = np.array([trace_row("decay", times, mt.TimeDomain.CONTINUOUS), late])
        trace = mt.SimulationTrace(times=times, xi=np.zeros((1, 50)), epsilon=epsilon, domain=mt.TimeDomain.CONTINUOUS)
        assert_fits_bit_equal(trace)
        assert [fit.instantaneous for fit in mt.fit_single_mode(trace)] == [False, True]

    @pytest.mark.parametrize("instantaneous_first", [False, True])
    def test_insufficient_data_is_raised_where_it_was(self, instantaneous_first):
        times = sample_times(mt.TimeDomain.CONTINUOUS, 50)
        lone = np.zeros(50)
        lone[0] = 1.0
        rows = [trace_row("decay", times, mt.TimeDomain.CONTINUOUS), lone]
        if instantaneous_first:
            rows.insert(0, np.zeros(50))
        trace = mt.SimulationTrace(times=times, xi=np.zeros((1, 50)), epsilon=np.array(rows), domain=mt.TimeDomain.CONTINUOUS)
        with pytest.raises(mt.InsufficientData, match=f"output {len(rows) - 1} has fewer than two samples"):
            mt.fit_single_mode(trace)
        assert_fits_bit_equal(trace)
        short = mt.SimulationTrace(times=times[:7], xi=np.zeros((1, 7)), epsilon=np.array(rows)[:, :7], domain=trace.domain)
        with pytest.raises(mt.InsufficientData, match="7 samples; at least 8 required"):
            mt.fit_single_mode(short)
        assert_fits_bit_equal(short)

    @given(traces(), st.booleans())
    def test_every_trace_fits_as_the_row_selection_fit(self, trace, fortran):
        if fortran:
            trace = dataclasses.replace(trace, epsilon=np.asfortranarray(trace.epsilon))
        assert_fits_bit_equal(trace)


@pytest.fixture(scope="module")
def designs(demo_system, demo_feedback):
    """(plant, feedback, x0) over the demo and generated plants, continuous and discrete."""
    cases = [(demo_system, demo_feedback, np.asarray(DEMO_X0_A)), (demo_system, demo_feedback, np.asarray(DEMO_X0_B))]
    generated = [
        (mt.GeneratorSpec(n=6, m=3, p=2, planted_zero_values=(-3.0,), seed=0), (-1.0, -1.25)),
        (mt.GeneratorSpec(n=8, m=4, p=3, seed=1), (-1.0, -1.25, -1.5)),
        (mt.GeneratorSpec(n=6, m=3, p=2, domain=mt.TimeDomain.DISCRETE, seed=0), (0.3, 0.4)),
        (mt.GeneratorSpec(n=8, m=4, p=3, domain=mt.TimeDomain.DISCRETE, seed=1), (0.3, 0.4, 0.5)),
    ]
    for spec, modes in generated:
        plant = mt.generate(spec)
        fb = mt.synthesize(plant, mt.SynthesisSpec(lambdas=modes, reference=np.ones(plant.p)))
        cases.append((plant, fb, np.random.default_rng(spec.seed).uniform(-1.0, 1.0, plant.n)))
    # A closed loop with transient growth (cond V ~ 2e6) whose output 0, at
    # the slowest mode, sits within roundoff of the rate envelope.
    plant = wide_plant(1, 2, 12)
    rng = np.random.default_rng([1, 2, 12, 7])
    modes = tuple(-1.0 - 0.25 * k for k in range(12))
    fb = mt.synthesize(plant, mt.SynthesisSpec(lambdas=modes, reference=rng.uniform(-2.0, 2.0, 12)))
    cases.append((plant, fb, rng.uniform(-1.0, 1.0, plant.n)))
    return cases


class TestDoubling:
    @pytest.mark.parametrize("num_samples", SAMPLE_COUNTS)
    def test_as_accurate_as_the_one_step_recursion(self, designs, num_samples):
        for sys, fb, x0 in designs:
            trace = mt.simulate(sys, fb, x0, num_samples=num_samples)
            sequential = sequential_trace(sys, fb, trace)
            closed_loop = sys.A + sys.B @ fb.F
            xi0 = trace.xi[:, 0]
            if sys.domain is mt.TimeDomain.CONTINUOUS:
                exact = np.column_stack([scipy.linalg.expm(closed_loop * t) @ xi0 for t in trace.times])
            else:
                exact = np.column_stack([np.linalg.matrix_power(closed_loop, k) @ xi0 for k in range(num_samples)])
            peak = np.max(np.abs(exact))
            doubled_error = np.max(np.abs(trace.xi - exact))
            sequential_error = np.max(np.abs(sequential.xi - exact))
            assert doubled_error <= 4.0 * sequential_error + 1e-14 * peak

    def test_verdicts_match_the_one_step_recursion(self, designs):
        for sys, fb, x0 in designs:
            trace = mt.simulate(sys, fb, x0)
            sequential = sequential_trace(sys, fb, trace)
            numeric = [m for m in fb.assigned_modes.values() if m != "instantaneous"]
            rate = mt.RateSpec(max(numeric, default=-1.0) if sys.domain is mt.TimeDomain.CONTINUOUS else 0.9)
            assert mt.check_monotonic(trace) == mt.check_monotonic(sequential)
            assert mt.check_rate(trace, rate) == mt.check_rate(sequential, rate)


class TestExpm:
    """``_expm`` against ``scipy.linalg.expm``, the transition simulate once used, and exact values."""

    @staticmethod
    def relative_error(got, expected):
        return np.linalg.norm(got - expected) / np.linalg.norm(expected)

    @pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_matches_scipy_on_well_scaled_matrices(self, n, norm):
        # Below theta_13 neither squares; from 1-norm 3 up SciPy's own error
        # can exceed 1e-13 (1.8e-13 against a 60-digit reference at n = 2).
        rng = np.random.default_rng([n, int(norm * 1000)])
        for _ in range(5):
            M = rng.standard_normal((n, n))
            M *= norm / np.linalg.norm(M, 1)
            assert self.relative_error(_expm(M), scipy.linalg.expm(M)) <= 1e-13

    def test_as_accurate_as_scipy_after_squaring(self, designs):
        # With squarings each can lose digits the other keeps, so each is
        # judged against a 60-digit reference rather than the other.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        steps = [rng.standard_normal((n, n)) * scale for n in (2, 5, 8) for scale in (5.0, 20.0, 60.0)]
        steps += [(sys.A + sys.B @ fb.F) * 0.1 for sys, fb, _ in designs if sys.domain is mt.TimeDomain.CONTINUOUS]
        with mpmath.workdps(60):
            for M in steps:
                exact = np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)
                ours = self.relative_error(_expm(M), exact)
                assert ours <= max(2.0 * self.relative_error(scipy.linalg.expm(M), exact), 1e-13)

    def test_exact_cases(self):
        assert np.allclose(_expm(np.zeros((3, 3))), np.eye(3), rtol=0.0, atol=1e-15)
        diagonal = np.diag([-40.0, -1.0, 0.5, 3.0])
        assert np.allclose(_expm(diagonal), np.diag(np.exp(np.diag(diagonal))), rtol=1e-13, atol=0.0)
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(_expm(nilpotent), [[1.0, 1.0], [0.0, 1.0]], rtol=0.0, atol=1e-15)
