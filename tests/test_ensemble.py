import numpy as np
import pytest

import monotrack as mt
from monotrack import ensemble, subspaces, sysmodel

from .conftest import count_calls


class TestGeneratorSpec:
    def test_rejects_more_outputs_than_inputs(self):
        with pytest.raises(ValueError):
            mt.GeneratorSpec(n=3, m=1, p=2)

    def test_rejects_unpaired_complex_zero(self):
        with pytest.raises(ValueError):
            mt.GeneratorSpec(n=4, m=2, p=2, planted_zero_values=(complex(-1, 2),))

    def test_rejects_unstable_uncontrollable_mode(self):
        with pytest.raises(ValueError):
            mt.GeneratorSpec(n=3, m=2, p=2, planted_uncontrollable_modes=(1.0,))

    def test_rejects_zero_at_tracking_frequency(self):
        with pytest.raises(ValueError):
            mt.GeneratorSpec(n=3, m=2, p=2, planted_zero_values=(0.0,))

    def test_rejects_oversized_planted_structure(self):
        with pytest.raises(ValueError):
            mt.GeneratorSpec(n=2, m=2, p=2, planted_zero_values=(-1.0, -2.0), planted_uncontrollable_modes=(-3.0,))


class TestGenerate:
    def test_planted_zero_and_uncontrollable_mode(self):
        spec = mt.GeneratorSpec(n=5, m=3, p=2, planted_zero_values=(-6.0,), planted_uncontrollable_modes=(-6.0,), seed=3)
        sys = mt.generate(spec)
        assert mt.audit_assumptions(sys).all_pass
        values = [z.value for z in mt.invariant_zeros(sys)]
        assert any(abs(v + 6.0) <= 1e-6 for v in values)
        pbh = mt.rank_of(np.hstack([sys.A + 6.0 * np.eye(sys.n), sys.B]))
        assert pbh < sys.n

    def test_coincident_planted_zeros_exhaust_the_attempts(self):
        # Two planted zeros at -1 fail the distinct minimum-phase zero audit on every attempt.
        with pytest.raises(mt.GenerationFailed):
            mt.generate(mt.GeneratorSpec(n=2, m=2, p=2, planted_zero_values=(-1.0, -1.0)))

    def test_plant_facts_are_computed_once_per_attempt(self, monkeypatch):
        calls = count_calls(
            monkeypatch,
            (ensemble, "_verify_planted"),
            (sysmodel, "normal_rank"),
            (sysmodel, "_compression_candidates"),
        )
        mt.generate(mt.GeneratorSpec(n=8, m=4, p=3, planted_zero_values=(-3.0,), seed=0))
        attempts = calls["_verify_planted"]
        assert attempts >= 1
        # No zero sits at the tracking frequency, so every audit reads the
        # normal rank off its rank test there and samples nothing.
        assert calls == {
            "_verify_planted": attempts,
            "normal_rank": 0,
            "_compression_candidates": 2 * attempts,
        }

    def test_scalar_plant(self):
        sys = mt.generate(mt.GeneratorSpec(n=1, m=1, p=1, seed=5))
        assert (sys.n, sys.m, sys.p) == (1, 1, 1)
        assert mt.audit_assumptions(sys).all_pass

    def test_demo_fixture_loads_and_audits(self, demo_system, demo_zeros):
        assert mt.audit_assumptions(demo_system).all_pass
        values = sorted(z.value.real for z in demo_zeros)
        assert np.allclose(values, [-6.0, 2.0, 3.0, 5.0], atol=1e-6)

    def test_non_minimum_phase_zeros_do_not_block_solvability(self):
        # Plants carrying unstable zeros remain solvable when the dimension
        # conditions hold; the bundled demo is the canonical instance, and
        # generated plants with planted unstable zeros behave the same way.
        spec = mt.GeneratorSpec(n=4, m=3, p=2, planted_zero_values=(2.5,), seed=9)
        sys = mt.generate(spec)
        zeros = mt.invariant_zeros(sys)
        assert any(not z.is_minimum_phase for z in zeros)
        vg = mt.vstar_g(sys, zeros=zeros)
        lam = (-1.0, -1.5)
        r_at = [mt.rstar_at(sys, lam[j], j, zeros=zeros) for j in range(2)]
        verdict = mt.check_solvable(sys, vg, r_at)
        assert verdict.solvable
        fb = mt.synthesize(sys, mt.SynthesisSpec(lambdas=lam, reference=(1.0, -1.0)))
        trace = mt.simulate(sys, fb, np.ones(4))
        assert all(v in ("monotone", "instantaneous") for v in mt.check_monotonic(trace))

    def test_discrete_generation(self):
        spec = mt.GeneratorSpec(n=3, m=2, p=2, domain=mt.TimeDomain.DISCRETE, planted_uncontrollable_modes=(0.5,), seed=13)
        sys = mt.generate(spec)
        assert sys.domain is mt.TimeDomain.DISCRETE
        assert mt.audit_assumptions(sys).all_pass
        values = [z.value for z in mt.invariant_zeros(sys)]
        assert any(abs(v - 0.5) <= 1e-6 for v in values)

    def test_discrete_pipeline_end_to_end(self):
        spec = mt.GeneratorSpec(
            n=4, m=2, p=2, domain=mt.TimeDomain.DISCRETE, planted_zero_values=(1.5, 2.0), seed=29
        )
        sys = mt.generate(spec)
        zeros = mt.invariant_zeros(sys)
        assert sum(not z.is_minimum_phase for z in zeros) == 2
        vg = mt.vstar_g(sys, zeros=zeros)
        assert vg.dim == sys.n - sys.p
        fb = mt.synthesize(sys, mt.SynthesisSpec(lambdas=(0.5, 0.35), reference=(1.0, 1.0)))
        assert all(abs(z) < 1.0 for z in fb.closed_loop_spectrum)
        trace = mt.simulate(sys, fb, np.array([1.0, -0.5, 0.3, 0.8]))
        assert mt.check_monotonic(trace) == ["monotone", "monotone"]
        assert mt.check_rate(trace, mt.RateSpec(0.6)) == [True, True]
        fits = mt.fit_single_mode(trace)
        assert abs(fits[0].lambda_hat - 0.5) <= 1e-6
        assert abs(fits[1].lambda_hat - 0.35) <= 1e-6

    def test_instantaneous_outputs_simulate_exactly_zero(self):
        spec = mt.GeneratorSpec(
            n=4, m=3, p=2, domain=mt.TimeDomain.DISCRETE, planted_uncontrollable_modes=(0.4,), seed=17
        )
        sys = mt.generate(spec)
        fb = mt.synthesize(sys, mt.SynthesisSpec(lambdas=(0.5, 0.3), reference=(1.0, -0.5)))
        assert fb.instantaneous_outputs == (0, 1)
        trace = mt.simulate(sys, fb, np.ones(4))
        assert np.max(np.abs(trace.epsilon)) == 0.0
        assert mt.check_monotonic(trace) == ["instantaneous", "instantaneous"]


class TestGenericityTrial:
    def test_demo_plant_full_success(self, demo_system):
        stats = mt.genericity_trial(demo_system, trials=100, seed=2)
        assert stats.trials == 100
        assert stats.failures == 0
        assert stats.success_fraction == 1.0

    def test_adversarial_zero_mixing_exercises_retry(self, demo_system, demo_zeros, monkeypatch):
        from monotrack import subspaces

        calls = {"count": 0}
        true_mixing = subspaces.mixing_coefficients

        def sabotaged(rng, size, complex_valued=False):
            calls["count"] += 1
            if calls["count"] == 1:
                return np.zeros(size, dtype=complex if complex_valued else float)
            return true_mixing(rng, size, complex_valued)

        monkeypatch.setattr(subspaces, "mixing_coefficients", sabotaged)
        vg = mt.vstar_g(demo_system, zeros=demo_zeros, max_retries=5)
        assert vg.dim == 2
        assert calls["count"] > 1

    def test_adversarial_zero_mixing_without_retries_fails(self, demo_system, demo_zeros, monkeypatch):
        from monotrack import subspaces

        monkeypatch.setattr(
            subspaces, "mixing_coefficients",
            lambda rng, size, complex_valued=False: np.zeros(size, dtype=complex if complex_valued else float),
        )
        with pytest.raises(mt.RankDeficientAfterRetries):
            mt.vstar_g(demo_system, zeros=demo_zeros, max_retries=0)

    def test_direction_kernels_are_computed_once(self, demo_system, monkeypatch):
        direction = count_calls(monkeypatch, (ensemble, "_pencil_kernel"))
        discovery = count_calls(monkeypatch, (subspaces, "_pencil_kernel"))
        per_call = []
        for trials in (2, 20):
            before = direction["_pencil_kernel"] + discovery["_pencil_kernel"]
            stats = mt.genericity_trial(demo_system, trials=trials, seed=3)
            assert stats.failures == 0
            per_call.append(direction["_pencil_kernel"] + discovery["_pencil_kernel"] - before)
        assert direction["_pencil_kernel"] == 2 * demo_system.p
        # R* and V*g are discovered once per call; only their draws repeat per trial.
        assert per_call[0] == per_call[1]

    def test_kernel_failure_fails_every_trial(self, demo_system, monkeypatch):
        def failing_kernel(*args):
            raise mt.IllConditionedPencil("forced kernel failure")

        # A direction kernel fails, then a kernel of the subspace discovery.
        for owner in (ensemble, subspaces):
            with monkeypatch.context() as patch:
                patch.setattr(owner, "_pencil_kernel", failing_kernel)
                stats = mt.genericity_trial(demo_system, trials=4, seed=3)
            assert stats.failures == 4
            assert stats.failing_seeds == tuple(3 + 1000003 * (t + 1) for t in range(4))

    def test_batch_report_contains_hash(self, demo_system):
        stats = mt.genericity_trial(demo_system, trials=5, seed=1)
        report = ensemble.batch_report(demo_system, stats)
        assert len(report["fixture_hash"]) == 64
        assert report["trials"] == 5
