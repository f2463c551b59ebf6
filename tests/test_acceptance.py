"""Acceptance criteria for the release, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success). Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

import monotrack as mt
from monotrack.numkernel import containment_residual
from monotrack.sysmodel import rosenbrock

from .conftest import DEMO_GAIN, DEMO_USS, DEMO_XSS

X0_FIRST = np.array([0.1, -0.2, 0.1, 0.1, 0.0])
X0_SECOND = np.array([0.6, 0.2, 0.2, -0.2, 1.0])


def report(index: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {index:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({label}) failed"


def test_criterion_01_invariant_zeros(demo_system):
    start = time.perf_counter()
    zeros = mt.invariant_zeros(demo_system)
    elapsed = time.perf_counter() - start
    values = sorted(z.value.real for z in zeros)
    deviation = max(abs(v - e) for v, e in zip(values, (-6.0, 2.0, 3.0, 5.0)))
    pencil = rosenbrock(demo_system, -6.0)
    kernel_dim = pencil.shape[1] - mt.rank_of(pencil)
    ok = (
        len(zeros) == 4
        and deviation <= 1e-6
        and max(abs(z.value.imag) for z in zeros) <= 1e-6
        and kernel_dim == 2
        and elapsed < 1.0
    )
    report(1, "invariant zeros and stable-zero kernel", ok)


def test_criterion_02_subspace_dimensions(demo_system, demo_zeros, demo_replay):
    vg = mt.vstar_g(demo_system, zeros=demo_zeros)
    both_ways = max(
        containment_residual(vg.V, demo_replay.vg_state),
        containment_residual(demo_replay.vg_state, vg.V),
    )
    r_js = [mt.rstar(demo_system, excluded_output=j, zeros=demo_zeros) for j in range(3)]
    axes = {0: (1, 2, 3, 4), 1: (2, 3, 4), 2: (1, 2, 3, 4)}
    spans_ok = True
    for j, axis in axes.items():
        target = np.eye(5)[:, list(axis)]
        spans_ok &= r_js[j].dim == len(axis)
        spans_ok &= containment_residual(r_js[j].V, target) <= 1e-8
        spans_ok &= containment_residual(target, r_js[j].V) <= 1e-8
    ok = vg.dim == 2 and both_ways <= 1e-8 and bool(spans_ok)
    report(2, "stabilisability and per-output subspace spans", ok)


def test_criterion_03_subset_conditions(demo_system, demo_zeros):
    vg = mt.vstar_g(demo_system, zeros=demo_zeros)
    r_js = [mt.rstar(demo_system, excluded_output=j, zeros=demo_zeros) for j in range(3)]
    verdict = mt.check_solvable(demo_system, vg, r_js)
    dims = (
        mt.subspace_sum_dim([vg, r_js[0]]),
        mt.subspace_sum_dim([vg, r_js[1]]),
        mt.subspace_sum_dim([vg, r_js[1], r_js[2]]),
    )
    ok = verdict.solvable and dims == (5, 4, 5)
    report(3, "dimension conditions over output subsets", ok)


def test_criterion_04_replay_gain(demo_system, demo_replay):
    spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
    fb = mt.synthesize(demo_system, spec, replay=demo_replay)
    worst = float(np.max(np.abs(fb.F - DEMO_GAIN)))
    spots = (
        abs(fb.F[0, 0] - 68419 / 8250),
        abs(fb.F[1, 0] - -5351 / 2475),
        abs(fb.F[3, 0] - 4 / 9),
    )
    ok = worst <= 1e-9 and max(spots) <= 1e-9
    report(4, "replay synthesis reproduces the reference gain", ok)


def test_criterion_05_default_spectrum_across_seeds(demo_system):
    expected = np.array([-6.0, -6.0, -2.0, -1.0, -1.0])
    ok = True
    for seed in range(20):
        spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0), seed=seed)
        fb = mt.synthesize(demo_system, spec)
        got = np.sort([z.real for z in fb.closed_loop_spectrum])
        ok &= bool(np.max(np.abs(np.imag(fb.closed_loop_spectrum))) <= 1e-6)
        ok &= bool(np.max(np.abs(got - expected)) <= 1e-6)
    report(5, "randomized synthesis spectrum over 20 seeds", ok)


def test_criterion_06_steady_state(demo_system):
    ref = np.array([2.0, 2.0, 2.0])
    res_state = demo_system.A @ DEMO_XSS + demo_system.B @ DEMO_USS
    res_out = demo_system.C @ DEMO_XSS + demo_system.D @ DEMO_USS - ref
    reference_residual = max(np.max(np.abs(res_state)), np.max(np.abs(res_out)))
    x_ss, u_ss = mt.steady_state(demo_system, ref)
    ours_state = demo_system.A @ x_ss + demo_system.B @ u_ss
    ours_out = demo_system.C @ x_ss + demo_system.D @ u_ss - ref
    our_residual = max(np.max(np.abs(ours_state)), np.max(np.abs(ours_out)))
    ok = reference_residual <= 1e-12 and our_residual <= 1e-9
    report(6, "steady-state pair residuals", ok)


def test_criterion_07_simulation_properties(demo_system, demo_feedback):
    expected_modes = (-1.0, -2.0, -1.0)
    ok = True
    for x0 in (X0_FIRST, X0_SECOND):
        trace = mt.simulate(demo_system, demo_feedback, x0)
        ok &= mt.check_monotonic(trace) == ["monotone"] * 3
        ok &= mt.check_rate(trace, mt.RateSpec(-1.0)) == [True] * 3
        fits = mt.fit_single_mode(trace)
        for fit, lam in zip(fits, expected_modes):
            ok &= (not fit.instantaneous) and fit.relative_residual <= 1e-6
            ok &= abs(fit.lambda_hat - lam) <= 1e-5
    report(7, "monotone single-mode tracking from both initial states", ok)


def test_criterion_08_oracle_equivalence():
    matched = 0
    attempts = 0
    seed = 0
    while matched < 50 and seed < 400:
        rng = np.random.default_rng(seed)
        seed += 1
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, m + 1))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(p, n))
        D = rng.normal(size=(p, m)) if rng.random() > 0.4 else np.zeros((p, m))
        try:
            sys = mt.LtiSystem(A, B, C, D)
            zeros = mt.invariant_zeros(sys)
            stacked = mt.rstar(sys, zeros=zeros)
        except (mt.MonotrackError, ValueError):
            continue
        attempts += 1
        recursive = mt.rstar_recursive(sys)
        if stacked.dim != recursive.dim:
            break
        if stacked.dim:
            both = max(
                containment_residual(stacked.V, recursive.columns),
                containment_residual(recursive.columns, stacked.V),
            )
            if both > 1e-8:
                break
        matched += 1
    report(8, "reachability subspace oracle equivalence on 50 plants", matched >= 50)


def test_criterion_09_genericity(demo_system, demo_feedback):
    stats = mt.genericity_trial(demo_system, trials=100, seed=5)
    behavior_ok = True
    rng = np.random.default_rng(2024)
    for _ in range(20):
        x0 = rng.normal(size=5)
        trace = mt.simulate(demo_system, demo_feedback, x0)
        verdicts = mt.check_monotonic(trace)
        behavior_ok &= all(v in ("monotone", "instantaneous") for v in verdicts)
        for fit in mt.fit_single_mode(trace):
            if not fit.instantaneous and abs(fit.gamma_hat) > 1e-9:
                behavior_ok &= fit.relative_residual <= 1e-6
    ok = stats.failures == 0 and stats.trials == 100 and behavior_ok
    report(9, "genericity of randomized draws and mode structure", ok)


def test_criterion_10_superposition_and_invisibility(demo_system, demo_zeros, demo_feedback):
    rng = np.random.default_rng(99)
    xss = demo_feedback.x_ss
    x1, x2 = rng.normal(size=5), rng.normal(size=5)
    a, b = 1.7, -0.4
    combined = mt.simulate(demo_system, demo_feedback, xss + a * x1 + b * x2, horizon=6.0, num_samples=200)
    left = mt.simulate(demo_system, demo_feedback, xss + x1, horizon=6.0, num_samples=200)
    right = mt.simulate(demo_system, demo_feedback, xss + x2, horizon=6.0, num_samples=200)
    superposition = float(np.max(np.abs(combined.epsilon - a * left.epsilon - b * right.epsilon)))
    vg = mt.vstar_g(demo_system, zeros=demo_zeros)
    invisibility = 0.0
    for k in range(vg.dim):
        trace = mt.simulate(demo_system, demo_feedback, xss + vg.V[:, k], horizon=6.0, num_samples=200)
        invisibility = max(invisibility, float(np.max(np.abs(trace.epsilon))))
    ok = superposition <= 1e-9 and invisibility <= 1e-9
    report(10, "superposition and invisible-subspace invariants", ok)
