import dataclasses

import numpy as np
import pytest

import monotrack as mt
from monotrack import ensemble, subspaces, synthesis, sysmodel
from monotrack.fixtures import demo_system_path

from .conftest import count_calls, record_calls
from .subspace_checks import single_mode_basis
from .trial_oracle import loop_failing_seeds


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

    def test_rejects_a_domain_that_is_no_time_domain(self):
        # Planted zeros passed as the fourth positional field land in `domain`.
        with pytest.raises(ValueError, match="TimeDomain"):
            mt.GeneratorSpec(16, 6, 5, (2.0,), seed=0)

    def test_takes_a_domain_by_its_value(self):
        spec = mt.GeneratorSpec(n=3, m=2, p=2, domain="discrete", planted_uncontrollable_modes=(0.5,), seed=13)
        assert spec.domain is mt.TimeDomain.DISCRETE
        assert spec == mt.GeneratorSpec(n=3, m=2, p=2, domain=mt.TimeDomain.DISCRETE, planted_uncontrollable_modes=(0.5,), seed=13)


class TestGenerate:
    def test_planted_zero_and_uncontrollable_mode(self):
        spec = mt.GeneratorSpec(n=5, m=3, p=2, planted_zero_values=(-6.0,), planted_uncontrollable_modes=(-6.0,), seed=3)
        sys = mt.generate(spec)
        assert mt.audit_assumptions(sys).all_pass
        values = [z.value for z in mt.invariant_zeros(sys)]
        assert any(abs(v + 6.0) <= 1e-6 for v in values)
        pbh = mt.rank_of(np.hstack([sys.A + 6.0 * np.eye(sys.n), sys.B]))
        assert pbh < sys.n

    def test_planted_modes_are_rank_tested_in_one_stack(self, monkeypatch):
        # Every planted mode's [A - uI, B] in one ranks_of stack, judged as one
        # rank test per mode judges it; a mode that some input reaches fails the plant.
        spec = mt.GeneratorSpec(n=6, m=3, p=2, planted_uncontrollable_modes=(-2.0, -3.0), seed=1)
        sys = mt.generate(spec)
        stacks = record_calls(monkeypatch, ensemble, "ranks_of", lambda stack, *args: stack.shape)
        for modes, planted in (((-2.0, -3.0), True), ((-2.0, -7.0), False), ((-7.0, -3.0), False)):
            checked = dataclasses.replace(spec, planted_uncontrollable_modes=modes)
            assert ensemble._verify_planted(sys, checked, mt.DEFAULT_POLICY) is planted
            assert planted == all(mt.rank_of(np.hstack([sys.A - u * np.eye(sys.n), sys.B])) < sys.n for u in modes)
        assert stacks == [(2, sys.n, sys.n + sys.m)] * 3

    def test_coincident_planted_zeros_exhaust_the_attempts(self):
        # Two planted zeros at -1 fail the distinct minimum-phase zero audit on every attempt.
        with pytest.raises(mt.GenerationFailed):
            mt.generate(mt.GeneratorSpec(n=2, m=2, p=2, planted_zero_values=(-1.0, -1.0)))

    def test_plant_facts_are_computed_once_per_attempt(self, monkeypatch):
        calls = count_calls(
            monkeypatch,
            (ensemble, "_verify_planted"),
            (sysmodel, "normal_rank"),
            (sysmodel, "_reduction"),
        )
        mt.generate(mt.GeneratorSpec(n=8, m=4, p=3, planted_zero_values=(-3.0,), seed=0))
        attempts = calls["_verify_planted"]
        assert attempts >= 1
        # Every audit reads the normal rank and the zeros off one reduction.
        assert calls == {
            "_verify_planted": attempts,
            "normal_rank": 0,
            "_reduction": attempts,
        }

    def test_planted_zero_plants_are_pinned(self):
        # The extra input columns come from the pencil at each planted zero;
        # these hashes pin the generated plants bit for bit.
        specs = {
            "5ddbdd3689318ec024b178fe867f60479c7831ab793324092d1c1e62045fed81": mt.GeneratorSpec(
                n=8, m=4, p=3, planted_zero_values=(-3.0,), seed=0
            ),
            "7606eff30d94d93f528b441903ef4d10a97054866043319c377332682ee950f8": mt.GeneratorSpec(
                n=6, m=3, p=2, planted_zero_values=(2.0,), seed=0
            ),
            "6b459c06b833aa2b4b7a2b0ab2395c7631e05569790483302876753733b97787": mt.GeneratorSpec(
                n=12, m=5, p=4, planted_zero_values=(-1 + 2j, -1 - 2j), seed=1
            ),
        }
        for digest, spec in specs.items():
            assert ensemble.fixture_hash(mt.generate(spec)) == digest

    def test_the_planted_zero_kernels_take_one_svd(self, monkeypatch):
        svds = record_calls(monkeypatch, np.linalg, "svd", lambda M, *args: np.shape(M))
        inside = []
        original = ensemble._extra_input_columns

        def counted(*args):
            start = len(svds)
            result = original(*args)
            inside.append(svds[start:])
            return result

        monkeypatch.setattr(ensemble, "_extra_input_columns", counted)
        mt.generate(mt.GeneratorSpec(10, 5, 3, planted_zero_values=(-1 + 2j, -1 - 2j, -3.0), seed=0))
        # One attempt: one stacked SVD of the 13 x 13 pencils at the three
        # planted zeros, then one of the six constraint rows their left kernels give.
        assert inside == [[(3, 13, 13), (1, 6, 13)]]

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
        vg = mt.draw(mt.discover_vstar_g(sys, zeros=zeros))
        lam = (-1.0, -1.5)
        r_at = [single_mode_basis(sys, lam[j], j) for j in range(2)]
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
        assert mt.discover_vstar_g(sys, zeros=zeros).dim == sys.n - sys.p
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

    def test_a_negative_trial_count_raises_and_zero_trials_succeed(self, demo_system):
        with pytest.raises(ValueError, match="trials must be non-negative"):
            mt.genericity_trial(demo_system, trials=-3)
        stats = mt.genericity_trial(demo_system, trials=0)
        assert (stats.trials, stats.failures, stats.failing_seeds) == (0, 0, ())
        assert stats.success_fraction == 1.0

    def test_a_zero_mixing_loses_the_best_of_k_choice(self, demo_system, demo_zeros, monkeypatch):
        # The first in-kernel combination is zero (row 0 of the first slot's
        # stacked draw); the pass keeps the better second candidate of that
        # kernel slot, so one pass still succeeds.
        calls = {"count": 0}
        true_mixing = subspaces.mixing_coefficients

        def sabotaged(rng, size):
            calls["count"] += 1
            coeffs = true_mixing(rng, size)
            if calls["count"] == 1:
                coeffs[0] = 0.0
            return coeffs

        monkeypatch.setattr(subspaces, "mixing_coefficients", sabotaged)
        vg = mt.draw(mt.discover_vstar_g(demo_system, zeros=demo_zeros), seed=0)
        assert vg.dim == 2
        assert calls["count"] > 1

    def test_a_pass_that_falls_short_raises(self, demo_system, demo_zeros, monkeypatch):
        monkeypatch.setattr(subspaces, "mixing_coefficients", lambda rng, size: np.zeros(size))
        with pytest.raises(mt.RankDeficientAfterRetries):
            mt.draw(mt.discover_vstar_g(demo_system, zeros=demo_zeros), seed=0)

    def test_a_pass_may_revisit_each_pool_kernel(self):
        # At (24,8,6) a pass needs more columns than the visited pool kernels
        # give in one visit each. A pass that could not revisit them fell
        # short on every trial; with revisits, only some trials fail the rank
        # test of V.
        stats = mt.genericity_trial(mt.generate(mt.GeneratorSpec(24, 8, 6, seed=0)), trials=50, seed=5)
        assert stats.failures < stats.trials

    # At (24,8,6), seed 5, 6 of 50 trials fail, all on a draw that falls
    # short. On the demo at a relative rank tolerance of 1e-3, the rank test
    # of V fails 2 of 50 trials at seed 5, so the order of the stacked ranks matters.
    LOOSE = mt.TolerancePolicy(relative_rank_tol=1e-3)

    def test_stacked_rank_tests_give_the_failing_seeds_of_the_loop(self, demo_system):
        plant = mt.generate(mt.GeneratorSpec(24, 8, 6, seed=0))
        stats = mt.genericity_trial(plant, trials=50, seed=5)
        assert stats.failures == 6
        assert stats.failing_seeds == loop_failing_seeds(plant, 50, 5)
        assert mt.genericity_trial(demo_system, trials=30, seed=1).failing_seeds == loop_failing_seeds(demo_system, 30, 1) == ()
        loose = mt.genericity_trial(demo_system, trials=50, seed=5, tol=self.LOOSE)
        assert loose.failures == 2
        assert loose.failing_seeds == loop_failing_seeds(demo_system, 50, 5, self.LOOSE)

    def test_chunks_give_the_failing_seeds_of_the_loop(self, demo_system, monkeypatch):
        stacks = record_calls(monkeypatch, ensemble, "ranks_of", lambda stack, *args: (len(stack), stack.shape[1:]))
        monkeypatch.setattr(ensemble, "_TRIAL_CHUNK", 7)
        plant = mt.generate(mt.GeneratorSpec(24, 8, 6, seed=0))
        assert mt.genericity_trial(plant, trials=50, seed=5).failing_seeds == loop_failing_seeds(plant, 50, 5)
        # One stacked rank test per chunk of 7 trials, of the trials whose draw did not fall short.
        assert len(stacks) == 8
        assert all(1 <= k <= 7 and shape == (24, 24) for k, shape in stacks)
        stacks.clear()
        loose = mt.genericity_trial(demo_system, trials=50, seed=5, tol=self.LOOSE)
        assert loose.failing_seeds == loop_failing_seeds(demo_system, 50, 5, self.LOOSE)
        assert stacks == [(7, (5, 5))] * 7 + [(1, (5, 5))]

    def test_direction_kernels_are_computed_once(self, monkeypatch):
        # Every pencil factor goes through subspaces.factor_pencils, so a pool factor is seen too.
        factored = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: list(mus))
        calls = count_calls(monkeypatch, (synthesis, "check_solvable"))
        for trials in (2, 20):
            # A new plant object per call: a plant keeps its pool factors.
            stats = mt.genericity_trial(mt.LtiSystem.load(demo_system_path()), trials=trials, seed=3)
            assert stats.failures == 0
        # The trial modes are -1, -1.5 and -2. V*g is discovered once per call
        # (P(-6) alone reaches its bound) and factors no pool pencil, so
        # P(-1), P(-1.5) and P(-2) are factored for the directions, in one
        # stacked call per genericity call. Solvability is decided once on
        # the span; only the draws repeat per trial.
        assert factored == [pytest.approx([-6.0], abs=1e-9), [-1.0, -1.5, -2.0]] * 2
        assert calls["check_solvable"] == 2

    def test_a_trial_mode_the_discovery_visited_is_not_factored_again(self, monkeypatch):
        plant = mt.generate(mt.GeneratorSpec(6, 3, 2, seed=0))
        factored = record_calls(monkeypatch, subspaces, "factor_pencils", lambda sys, mus, *args: list(mus))
        stats = mt.genericity_trial(plant, trials=20)
        assert stats.trials == 20
        # The V*g discovery visits -1, -1.5, ..., -3.5, which holds the trial
        # modes -1 and -1.5; the directions read their factors from the
        # plant's store of pencil factors, so they factor nothing.
        assert [mu for mus in factored for mu in mus] == [-1.0 - 0.5 * k for k in range(6)]

    def test_a_generated_plant_reuses_the_zeros_of_its_audit(self, monkeypatch):
        # generate() audits the plant it returns, and the audit keeps its
        # confirmed zeros on the plant, so the trial reduces the plant no more.
        plant = mt.generate(mt.GeneratorSpec(6, 3, 2, planted_zero_values=(-3.0,), seed=0))
        calls = count_calls(monkeypatch, (sysmodel, "_reduction"))
        stats = mt.genericity_trial(plant, trials=20, seed=0)
        assert calls == {"_reduction": 0}
        assert stats.trials == 20

    def test_kernel_failure_fails_every_trial(self, monkeypatch):
        factor = subspaces.factor_pencils

        def failing_after(calls):
            made = []

            def failing_factor(*args):
                made.append(1)
                if len(made) > calls:
                    raise mt.IllConditionedPencil("forced kernel failure")
                return factor(*args)

            return failing_factor

        # The stacked direction pencils fail (the discovery's one call, at
        # the zero -6, passes), then a kernel of the subspace discovery. A new
        # plant object per case: a plant that holds the factor of every trial
        # mode factors no direction pencil.
        for calls in (1, 0):
            with monkeypatch.context() as patch:
                patch.setattr(subspaces, "factor_pencils", failing_after(calls))
                stats = mt.genericity_trial(mt.LtiSystem.load(demo_system_path()), trials=4, seed=3)
            assert stats.failures == 4
            assert stats.failing_seeds == tuple(3 + 1000003 * (t + 1) for t in range(4))

    @pytest.mark.parametrize("n, m, p, delta", [(10, 4, 3, (0,)), (12, 5, 4, (0, 1))])
    def test_a_larger_vstar_g_rank_tests_the_witness_directions(self, n, m, p, delta, monkeypatch):
        # dim V*g exceeds n - p, so delta comes from one solvability test and
        # every trial rank-tests its n x n matrix V.
        plant = mt.generate(mt.GeneratorSpec(n=n, m=m, p=p, seed=0))
        verdicts = []
        solvable = synthesis.check_solvable

        def capture(*args):
            verdicts.append(solvable(*args))
            return verdicts[-1]

        monkeypatch.setattr(synthesis, "check_solvable", capture)
        stats = mt.genericity_trial(plant, trials=5, seed=0)
        assert [v.delta for v in verdicts] == [delta]
        assert verdicts[0].h == n - len(delta) > n - p
        assert stats.failures == 0

    def test_every_trial_fails_when_the_rank_test_does(self, monkeypatch):
        plant = mt.generate(mt.GeneratorSpec(n=10, m=4, p=3, seed=0))
        ranks_of = ensemble.ranks_of
        monkeypatch.setattr(
            ensemble,
            "ranks_of",
            lambda stack, *args: [plant.n - 1] * len(stack) if stack.shape[1:] == (plant.n, plant.n) else ranks_of(stack, *args),
        )
        assert mt.genericity_trial(plant, trials=5, seed=0).failures == 5

    def test_a_not_solvable_verdict_fails_every_trial(self, demo_system, monkeypatch):
        # The generated plant has dim V*g = 9 > n - p, the demo dim V*g = 2 =
        # n - p: the verdict is asked for, and honoured, whatever h is.
        generated = mt.generate(mt.GeneratorSpec(n=10, m=4, p=3, seed=0))
        for plant, h in ((generated, 9), (demo_system, 2)):
            failing = (((0, 1, 2), h, plant.n),)
            verdict = mt.SolvabilityVerdict(solvable=False, failing_subsets=failing, h=h, delta=None)
            monkeypatch.setattr(synthesis, "check_solvable", lambda *args: verdict)
            stats = mt.genericity_trial(plant, trials=3, seed=0)
            assert stats.failures == 3
            assert stats.notes == {"solvability": verdict.to_json_dict()}

    def test_batch_report_contains_hash(self, demo_system):
        stats = mt.genericity_trial(demo_system, trials=5, seed=1)
        report = ensemble.batch_report(demo_system, stats)
        assert len(report["fixture_hash"]) == 64
        assert report["trials"] == 5
