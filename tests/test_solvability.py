import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import monotrack as mt
from monotrack import solvability, synthesis
from monotrack.numkernel import _as_matrix
from monotrack.seeding import DEFAULT_SEED
from monotrack.subspaces import KernelSpan, discover_rstar, discover_vstar_g, draw

from .conftest import count_calls
from .subset_oracle import _failing_subsets, _greedy_witness, dimensions_consistent
from .subspace_checks import single_mode_basis

# Plant with a structurally pinned per-output reachability subspace: deleting
# output 1 leaves kernel directions along e1 for every frequency, and e1 is
# also the direction of the unique stable zero, so the singleton {1} fails
# the dimension condition. Frozen from a seeded search, verified below by a
# brute-force rank count.
UNSOLVABLE_A = np.array(
    [
        [-0.4098423905158084, 1.5423596632391288, 1.6942396617755895],
        [1.9038482227596765, 1.1034686191216263, 1.5468215376404757],
        [0.0, -1.170198625249112, 2.7450040596258303],
    ]
)
UNSOLVABLE_B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
UNSOLVABLE_C = np.array(
    [
        [3.194882301271788, -1.1004632947469517, 2.28472811895812],
        [-1.6405810162014485, 0.3254130947633529, 1.0644906952435775],
    ]
)
UNSOLVABLE_D = np.array([[0.0, 1.6781181730131434], [0.5453842666053261, -1.0307773843373527]])

# Plant whose mode-free family passes while one specific stable mode tuple
# degenerates: at BAD_TUPLE the joint sum loses a dimension. Frozen from a
# seeded search over bi-proper 4-state plants with two stable zeros; the bad
# mode for output 0 is the bisected root of the joint-dimension determinant.
BADTUPLE_A = np.array(
    [
        [-0.4332441582960467, 1.6852340990956725, 1.1656335678744547, -0.04597782397338879],
        [-0.10459678979722709, -0.8565097036104294, 1.5021493356223674, -1.9594074258775551],
        [-0.5970741294779218, -0.319704963150905, 0.24098800196496173, -0.9338345578713731],
        [0.6681311608427145, 0.9319565610524903, 0.05763772177559101, -1.9082012187319584],
    ]
)
BADTUPLE_B = np.array(
    [
        [0.8551481275749304, 0.6349734154656765],
        [-0.9898320784802355, 0.7545167318965642],
        [-0.26852307752368465, 0.939635067065899],
        [-0.9875460556307585, 0.6358555503552126],
    ]
)
BADTUPLE_C = np.array(
    [
        [-0.4783393576210089, 0.5694108950584953, 0.5299997409960031, 0.3846721261510464],
        [0.8468612446479169, 0.03458454707032455, -0.15653163345969467, 0.4407125346418783],
    ]
)
BADTUPLE_D = np.array([[-2.04904249769873, -0.2085050993117108], [0.46976783226673247, -1.3034918252409684]])
BAD_TUPLE = (-2.870541207734827, -1.37)


@pytest.fixture(scope="module")
def unsolvable_plant():
    return mt.LtiSystem(UNSOLVABLE_A, UNSOLVABLE_B, UNSOLVABLE_C, UNSOLVABLE_D)


@pytest.fixture(scope="module")
def demo_bases(demo_system_module, demo_zeros_module):
    sys, zeros = demo_system_module, demo_zeros_module
    vg = draw(discover_vstar_g(sys, zeros=zeros))
    r_js = [draw(discover_rstar(sys, j, zeros=zeros)) for j in range(sys.p)]
    return vg, r_js


@pytest.fixture(scope="module")
def demo_system_module():
    from monotrack.fixtures import demo_system_path

    return mt.LtiSystem.load(demo_system_path())


@pytest.fixture(scope="module")
def demo_zeros_module(demo_system_module):
    return mt.invariant_zeros(demo_system_module)


def enumeration_oracle(sys, vg, bases, tol=mt.DEFAULT_POLICY):
    """The subset-dimension conditions by exhaustive enumeration: (solvable, delta).

    When h = dim V*g exceeds n - p, delta is the first set of n - h outputs
    (lexicographic order) whose restricted family passes with thresholds
    h + card(S), and the global family over all subsets larger than
    h - (n - p) must agree with the witness search.
    """
    n, p = sys.n, sys.p
    h = mt.subspace_sum_dim([vg], tol)

    def passes(indices, sizes, threshold):
        return all(
            mt.subspace_sum_dim([vg, *(bases[j] for j in subset)], tol) >= threshold + size
            for size in sizes
            for subset in itertools.combinations(indices, size)
        )

    if h <= n - p:
        ok = passes(range(p), range(p + 1), n - p)
        return ok, (tuple(range(p)) if ok else None)
    witness = next(
        (d for d in itertools.combinations(range(p), n - h) if passes(d, range(len(d) + 1), h)), None
    )
    assert (witness is not None) == passes(range(p), range(h - (n - p) + 1, p + 1), n - p)
    return witness is not None, witness


def brute_force_dim(*mats):
    stacked = np.hstack([np.atleast_2d(m) for m in mats if np.atleast_2d(m).shape[1]])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s > max(stacked.shape) * np.finfo(float).eps * s[0] * 10))


class TestLambdaFree:
    def test_demo_passes_with_expected_dims(self, demo_system_module, demo_bases):
        vg, r_js = demo_bases
        verdict = mt.check_solvable(demo_system_module, vg, r_js)
        assert verdict.solvable
        assert verdict.h == 2
        assert mt.subspace_sum_dim([vg, r_js[0]]) == 5
        assert mt.subspace_sum_dim([vg, r_js[1]]) == 4
        assert mt.subspace_sum_dim([vg, r_js[1], r_js[2]]) == 5

    def test_empty_subset_auto_satisfied(self, unsolvable_plant):
        # With h = n - p the empty set meets its inequality and is never
        # reported; with V*g dropped it fails, and it alone reaches the
        # largest deficiency, so it is the whole certificate.
        sys = unsolvable_plant
        zeros = mt.invariant_zeros(sys)
        vg = draw(discover_vstar_g(sys, zeros=zeros))
        r_js = [draw(discover_rstar(sys, j, zeros=zeros)) for j in range(2)]
        assert all(len(f[0]) > 0 for f in mt.check_solvable(sys, vg, r_js).failing_subsets)
        assert mt.check_solvable(sys, vg.V[:, :0], r_js).failing_subsets == (((), 0, 1),)

    def test_unsolvable_singleton(self, unsolvable_plant):
        sys = unsolvable_plant
        zeros = mt.invariant_zeros(sys)
        assert mt.audit_assumptions(sys).all_pass
        vg = draw(discover_vstar_g(sys, zeros=zeros))
        assert vg.dim == sys.n - sys.p == 1
        r_js = [draw(discover_rstar(sys, j, zeros=zeros)) for j in range(2)]
        verdict = mt.check_solvable(sys, vg, r_js)
        assert not verdict.solvable
        assert verdict.failing_subsets == (((1,), 1, 2),)
        # independent confirmation by brute-force dimension count
        assert brute_force_dim(vg.V, r_js[1].V) == 1 < sys.n - sys.p + 1

    def test_failing_subsets_ordered_by_cardinality(self):
        # h = 1 < n - p = 3, so the empty set fails by 2; outputs 0 and 1
        # share one direction, so {0, 1} fails by 3, the most of any subset,
        # and is reported after it. {0}, {1} and {0, 1, 2} fail by less and
        # are left out.
        n, p = 6, 3
        sys = mt.LtiSystem(-np.eye(n), np.eye(n, p), np.eye(p, n), np.zeros((p, p)))
        e = np.eye(n)
        bases = [e[:, 1:2], e[:, 1:2], e[:, 2:5]]
        verdict = mt.check_solvable(sys, e[:, :1], bases)
        assert verdict.failing_subsets == (((), 1, 3), ((0, 1), 2, 5))
        assert _failing_subsets(e[:, :1], bases, n, 1, mt.DEFAULT_POLICY) == (
            ((), 1, 3), ((0,), 2, 4), ((1,), 2, 4), ((0, 1), 2, 5), ((0, 1, 2), 5, 6)
        )

    def test_many_outputs_get_a_verdict_in_few_rank_tests(self, monkeypatch):
        # A 24-output strictly proper plant: enumeration would need 2^24 rank
        # tests; the transversal test decides with one stacked SVD per draw,
        # and here the first draw passes, in the design and frequency-free.
        p = 24
        n, m = p + 2, p + 1
        rng = np.random.default_rng([0, n, m, p])
        sys = mt.LtiSystem(
            rng.standard_normal((n, n)) / np.sqrt(n),
            rng.standard_normal((n, m)),
            rng.standard_normal((p, n)),
            np.zeros((p, m)),
        )
        svds = count_calls(monkeypatch, (np.linalg, "svd"))
        per_verdict = []

        def counting(*args, **kwargs):
            before = svds["svd"]
            verdict = mt.check_solvable(*args, **kwargs)
            per_verdict.append(svds["svd"] - before)
            return verdict

        monkeypatch.setattr(synthesis, "check_solvable", counting)
        spec = mt.SynthesisSpec(lambdas=tuple(-1.0 - 0.25 * k for k in range(p)), reference=np.ones(p))
        fb = mt.synthesize(sys, spec)
        assert fb.delta == tuple(range(p))
        assert per_verdict == [1]
        zeros = mt.invariant_zeros(sys)
        vg = draw(discover_vstar_g(sys, zeros=zeros))
        r_js = [draw(discover_rstar(sys, j, zeros=zeros)) for j in range(p)]
        assert counting(sys, vg, r_js).solvable
        assert per_verdict == [1, 1]

    @pytest.mark.parametrize("p", [12, 16])
    def test_not_solvable_in_p_plus_two_rank_tests(self, monkeypatch, p):
        # h = n - p - 1 and three generic columns per R_j: only the empty set
        # fails, so the enumeration visited all 2^p subsets. No draw can reach
        # rank n; one draw (which also ranks V*g alone) and the p stacked drop
        # tests decide (N is empty, so it needs no test of its own): two SVDs.
        n = 2 * p + 4
        rng = np.random.default_rng(p)
        sys = mt.LtiSystem(-np.eye(n), np.eye(n, p), np.eye(p, n), np.zeros((p, p)))
        vg = rng.standard_normal((n, n - p - 1))
        bases = [rng.standard_normal((n, 3)) for _ in range(p)]
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        verdict = mt.check_solvable(sys, vg, bases)
        assert verdict.failing_subsets == (((), n - p - 1, n - p),)
        assert calls == {"svd": 2}

    def test_failed_draws_on_a_passing_family_raise(self, monkeypatch, demo_system_module, demo_bases):
        # Zero draws can never complete V*g, while every subset passes: the
        # verdict would be wrong, so the call must raise instead.
        vg, r_js = demo_bases
        monkeypatch.setattr(solvability, "mixing_coefficients", lambda rng, size: np.zeros(size))
        assert enumeration_oracle(demo_system_module, vg, r_js)[0]
        with pytest.raises(mt.NumericalInconsistency):
            mt.check_solvable(demo_system_module, vg, r_js)


class TestLambdaTuple:
    def test_demo_tuple_passes(self, demo_system_module, demo_zeros_module, demo_bases):
        sys, zeros = demo_system_module, demo_zeros_module
        vg, _ = demo_bases
        lam = (-1.0, -2.0, -1.0)
        r_at = [single_mode_basis(sys, lam[j], j) for j in range(3)]
        verdict = mt.check_solvable(sys, vg, r_at)
        assert verdict.solvable
        assert verdict.delta == (0, 1, 2)

    def test_lambda_free_failure_implies_tuple_failure(self, unsolvable_plant):
        sys = unsolvable_plant
        zeros = mt.invariant_zeros(sys)
        vg = draw(discover_vstar_g(sys, zeros=zeros))
        rng = np.random.default_rng(61)
        for _ in range(20):
            lam = tuple(-rng.uniform(0.1, 4.0, size=2))
            if any(abs(l - z.value) < 1e-3 for l in lam for z in zeros):
                continue
            r_at = [single_mode_basis(sys, lam[j], j) for j in range(2)]
            assert not mt.check_solvable(sys, vg, r_at).solvable

    def test_unstable_lambda_rejected(self, demo_system_module, demo_zeros_module):
        for lambdas in ((1.0, -2.0, -1.0), (0.5, -2.0, -1.0), (-np.inf, -2.0, -1.0), (-1.0, np.nan, -1.0)):
            with pytest.raises(mt.UnstableLambda):
                mt.validate_modes(demo_system_module, lambdas, demo_zeros_module)
        # A discrete mode must lie in (0, 1): -0.3 is inside the unit disc but rejected.
        sys = mt.LtiSystem(np.diag([0.5, 0.2]), np.eye(2), np.eye(2), np.zeros((2, 2)), mt.TimeDomain.DISCRETE)
        for lambdas in ((-0.3, 0.5), (-np.inf, 0.5)):
            with pytest.raises(mt.UnstableLambda):
                mt.validate_modes(sys, lambdas, [])

    def test_lambda_at_zero_rejected(self, demo_system_module, demo_zeros_module):
        for lambdas in ((-6.0, -2.0, -1.0), (-1.0, -2.0, -6.0)):
            with pytest.raises(mt.LambdaAtZero):
                mt.validate_modes(demo_system_module, lambdas, demo_zeros_module)


@pytest.fixture(scope="module")
def plant():
    sys = mt.LtiSystem(BADTUPLE_A, BADTUPLE_B, BADTUPLE_C, BADTUPLE_D)
    zeros = mt.invariant_zeros(sys)
    vg = draw(discover_vstar_g(sys, zeros=zeros))
    return sys, zeros, vg


class TestBadTuple:
    def test_mode_free_family_passes(self, plant):
        sys, zeros, vg = plant
        r_js = [draw(discover_rstar(sys, j, zeros=zeros)) for j in range(2)]
        assert mt.check_solvable(sys, vg, r_js).solvable

    def test_specific_tuple_fails(self, plant):
        sys, zeros, vg = plant
        r_at = [single_mode_basis(sys, BAD_TUPLE[j], j) for j in range(2)]
        verdict = mt.check_solvable(sys, vg, r_at)
        assert not verdict.solvable
        assert verdict.failing_subsets == (((0, 1), 3, 4),)
        # independent confirmation: joint stack loses a dimension
        stacked = np.hstack([vg.V, r_at[0].V, r_at[1].V])
        s = np.linalg.svd(stacked, compute_uv=False)
        assert np.sum(s > max(stacked.shape) * np.finfo(float).eps * s[0] * 10) < sys.n


class TestGeneralized:
    def test_full_state_nulling_gives_empty_delta(self):
        # Square bi-proper plant with every zero stable: the whole state space
        # is output-nulling with stable dynamics, so no output needs a mode.
        rng = np.random.default_rng(0)
        M = np.array([[-1.0, 0.3], [0.0, -2.0]])
        B = rng.normal(size=(2, 2))
        C = rng.normal(size=(2, 2))
        sys = mt.LtiSystem(M + B @ C, B, C, np.eye(2))
        zeros = mt.invariant_zeros(sys)
        vg = draw(discover_vstar_g(sys, zeros=zeros))
        assert vg.dim == 2
        lam = (-0.5, -0.7)
        r_at = [single_mode_basis(sys, lam[j], j) for j in range(2)]
        verdict = mt.check_solvable(sys, vg, r_at)
        assert verdict.solvable and verdict.delta == ()

    def test_intermediate_h_witness_agrees_with_global_form(self):
        # Plants with dim V*g = n - p + 1: verdict and witness must match the
        # enumeration oracle, whose witness search and global subset
        # formulation must agree with each other.
        checked = 0
        for seed in range(160):
            rng = np.random.default_rng(1000 + seed)
            A = rng.normal(size=(3, 3))
            B = rng.normal(size=(3, 2))
            C = rng.normal(size=(2, 3))
            D = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
            try:
                sys = mt.LtiSystem(A, B, C, D)
                if not mt.audit_assumptions(sys).all_pass:
                    continue
                zeros = mt.invariant_zeros(sys)
                vg = draw(discover_vstar_g(sys, zeros=zeros))
                if vg.dim != sys.n - sys.p + 1:
                    continue
                lam = (-0.9, -1.7)
                r_at = [single_mode_basis(sys, lam[j], j) for j in range(2)]
                verdict = mt.check_solvable(sys, vg, r_at)
            except (mt.MonotrackError, ValueError):
                continue
            assert (verdict.solvable, verdict.delta) == enumeration_oracle(sys, vg, r_at)
            if verdict.solvable:
                assert len(verdict.delta) == sys.n - vg.dim
            checked += 1
            if checked >= 50:
                return
        raise AssertionError(f"only {checked} plants with intermediate stabilisability dimension")


class TestOneStackedRankTestPerDraw:
    # h = 1 > n - p = 0, and output 1 adds nothing to V*g + R_0: delta skips it.
    SYS = mt.LtiSystem(-np.eye(4), np.eye(4), np.eye(4), np.zeros((4, 4)))
    E = np.eye(4)
    VG, BASES = E[:, :1], [E[:, 1:2], E[:, 1:2], E[:, 2:3], E[:, 3:]]

    @pytest.mark.parametrize("known", [False, True], ids=["array", "kernel-span"])
    def test_a_passing_draw_and_its_delta_take_one_svd(self, monkeypatch, known):
        vg = KernelSpan((), (), self.VG, (), 4) if known else self.VG
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        verdict = mt.check_solvable(self.SYS, vg, self.BASES)
        assert (verdict.solvable, verdict.h, verdict.delta) == (True, 1, (0, 2, 3))
        assert calls == {"svd": 1}
        picks = solvability._picks(self.BASES, DEFAULT_SEED, 0)
        assert verdict.delta == _greedy_witness(self.VG, picks, 4, 1, mt.DEFAULT_POLICY)

    def test_each_failed_draw_takes_one_svd(self, monkeypatch):
        # The first three draws pick nothing and fail; the fourth passes with its delta.
        picks = solvability._picks

        def first_three_empty(bases, seed, attempt):
            return [0.0 * r for r in picks(bases, seed, attempt)] if attempt < 3 else picks(bases, seed, attempt)

        monkeypatch.setattr(solvability, "_picks", first_three_empty)
        calls = count_calls(monkeypatch, (np.linalg, "svd"))
        verdict = mt.check_solvable(self.SYS, self.VG, self.BASES)
        assert verdict.delta == (0, 2, 3)
        assert calls == {"svd": 4}

    @pytest.mark.parametrize(
        "prefix_ranks, expected",
        [
            ((3, 4, 4), (2, 4, (0, 1))),
            ((2, 3, 4), (2, 4, (1, 2))),
            ((3, 2, 4), (2, 4, (0, 2))),
            ((4, 4, 4), (2, 4, None)),
            ((2, 2, 4), (2, 4, None)),
            ((3, 4, 3), (2, 3, None)),
        ],
    )
    def test_delta_needs_n_minus_h_members(self, monkeypatch, prefix_ranks, expected):
        # n = 4, p = 3, h = 2: delta follows the running maximum of the prefix
        # ranks; a rise by two reaches n with a member too few, and a full
        # matrix below n fails, as rank decisions that are not monotone can.
        monkeypatch.setattr(solvability, "ranks_of", lambda members, tol: [2, *prefix_ranks])
        picks = [np.ones((4, 1))] * 3
        assert solvability._transversal(np.ones((4, 2)), picks, 4, None, mt.DEFAULT_POLICY) == expected


class TestTransversalMatchesEnumeration:
    @given(
        seed=st.integers(0, 2**20),
        p=st.integers(1, 8),
        extra_states=st.integers(0, 3),
        biproper=st.booleans(),
        at_modes=st.booleans(),
        shape=st.sampled_from(("plant", "below", "alias", "collapse")),
    )
    @settings(max_examples=100)
    # Seeds whose rank decisions were not monotone when the discovery drew other bases.
    @example(seed=223174, p=8, extra_states=1, biproper=False, at_modes=False, shape="collapse")
    @example(seed=185783, p=8, extra_states=1, biproper=False, at_modes=False, shape="below")
    @example(seed=406660, p=8, extra_states=1, biproper=False, at_modes=False, shape="below")
    @example(seed=98443, p=8, extra_states=1, biproper=False, at_modes=False, shape="alias")
    def test_verdict_and_delta_match_the_oracle(self, seed, p, extra_states, biproper, at_modes, shape):
        # h lands above n - p on bi-proper plants with stable zeros, at n - p
        # on most others, and below it when V*g is truncated; aliasing or
        # collapsing the per-output bases makes subsets fail.
        rng = np.random.default_rng(seed)
        n = p + extra_states
        m = p + int(rng.integers(0, 2))
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(p, n))
        D = rng.normal(size=(p, m)) + 1.5 * np.eye(p, m) if biproper else np.zeros((p, m))
        try:
            sys = mt.LtiSystem(A, B, C, D)
            zeros = mt.invariant_zeros(sys)
            vg = draw(discover_vstar_g(sys, zeros=zeros), seed).V
            if at_modes:
                modes = mt.validate_modes(sys, [-0.6 - 0.45 * k for k in range(p)], zeros)
                bases = [single_mode_basis(sys, modes[j], j) for j in range(p)]
            else:
                bases = [draw(discover_rstar(sys, j, zeros=zeros), seed) for j in range(p)]
        except (mt.MonotrackError, ValueError):
            assume(False)
        if shape == "below":
            vg = vg[:, : max(0, n - p - 1)]
        elif shape == "alias":
            bases[-1] = bases[0]
        elif shape == "collapse":
            bases = [bases[0]] * p
        expected = enumeration_oracle(sys, vg, bases)
        verdict = mt.check_solvable(sys, vg, bases)
        assert (verdict.solvable, verdict.delta) == expected
        assert verdict.solvable == (not verdict.failing_subsets)
        # check_solvable draws its picks from the default stream; the picks
        # themselves take a seed, so they still vary across examples.
        # The stacked test's h and delta equal a separate rank test's and the
        # greedy scan's, and knowing h beforehand changes neither.
        tol = mt.DEFAULT_POLICY
        vg_m, bases_m = _as_matrix(vg), [_as_matrix(b) for b in bases]
        picks = solvability._picks(bases_m, seed, 0)
        h, rank, delta = solvability._transversal(vg_m, picks, n, None, tol)
        assert (h, rank) == (mt.rank_of(vg_m), mt.subspace_sum_dim([vg_m, *picks]))
        assert delta == (_greedy_witness(vg_m, picks, n, h, tol) if rank == n else None)
        assert solvability._transversal(vg_m, picks, n, h, tol) == (h, rank, delta)
        assert (delta is not None, delta) == expected
        if verdict.solvable:
            return
        failing = _failing_subsets(vg_m, bases_m, n, h, tol, cap=None)
        assert set(verdict.failing_subsets) <= set(failing)
        if not dimensions_consistent(vg_m, bases_m, tol):
            return
        # On consistent rank decisions the certificate reaches the largest
        # deficiency, and its subset is the smallest subset that does.
        deficiency = max(required - achieved for _, achieved, required in failing)
        subset, achieved, required = verdict.failing_subsets[-1]
        assert required - achieved == deficiency
        maximizers = [s for s, a, r in failing if r - a == deficiency]
        assert subset == maximizers[0] and all(set(subset) <= set(s) for s in maximizers)
