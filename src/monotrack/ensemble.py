"""Random plant generation and statistical genericity harness.

Planted invariant zeros are realized by cascading first-order (or rank-one
second-order, for conjugate pairs) inner factors onto a zero-free square
base; planted uncontrollable modes are added by block-triangular state
augmentation, which for right-invertible plants automatically makes them
invariant zeros as well. The genericity trial samples the randomized
constructions many times and counts rank-deficiency events, which the
underlying theory predicts to be measure zero.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GenerationFailed, MonotrackError, NotSolvable, RankDeficientAfterRetries
from .numkernel import DEFAULT_POLICY, TolerancePolicy, nullspace, rank_of
from .seeding import DEFAULT_SEED, rng_for
from .subspaces import _draw_pass, default_frequency_pool, discover_vstar_g
from .synthesis import _random_direction, _witnesses
from .sysmodel import LtiSystem, TimeDomain, audit_assumptions, invariant_zeros, rosenbrock

_GENERATION_RETRIES = 20


@dataclass(frozen=True)
class GeneratorSpec:
    """Dimensions and planted structure for a random plant."""

    n: int
    m: int
    p: int
    domain: TimeDomain = TimeDomain.CONTINUOUS
    planted_zero_values: tuple = ()
    planted_uncontrollable_modes: tuple = ()
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "domain", TimeDomain(self.domain))
        if min(self.n, self.m, self.p) < 1:
            raise ValueError("dimensions must be positive")
        if self.m < self.p:
            raise ValueError("at least as many inputs as outputs required")
        zeros = tuple(complex(z) for z in self.planted_zero_values)
        object.__setattr__(self, "planted_zero_values", zeros)
        for z in zeros:
            if z.imag != 0.0 and not any(abs(other - z.conjugate()) < 1e-12 for other in zeros):
                raise ValueError("planted zero values must be conjugate-closed")
            if abs(z - self.domain.tracking_frequency) < 1e-9:
                raise ValueError("cannot plant a zero at the tracking frequency")
        modes = tuple(float(u) for u in self.planted_uncontrollable_modes)
        object.__setattr__(self, "planted_uncontrollable_modes", modes)
        for u in modes:
            if not self.domain.is_stable(u):
                raise ValueError(f"planted uncontrollable mode {u} must be stable")
        if self.zero_state_count + len(modes) > self.n:
            raise ValueError("planted structure requires more states than available")

    @property
    def zero_state_count(self) -> int:
        pairs = sum(1 for z in self.planted_zero_values if z.imag > 0.0)
        reals = sum(1 for z in self.planted_zero_values if z.imag == 0.0)
        return reals + 2 * pairs


def _series(first, second):
    """Series interconnection u -> first -> second -> y of square p x p quadruples."""
    A1, B1, C1, D1 = first
    A2, B2, C2, D2 = second
    n1, n2 = A1.shape[0], A2.shape[0]
    A = np.block([[A1, np.zeros((n1, n2))], [B2 @ C1, A2]])
    B = np.vstack([B1, B2 @ D1])
    C = np.hstack([D2 @ C1, C2])
    D = D2 @ D1
    return A, B, C, D


def _zero_factor(z: complex, channel: int, p: int, rng: np.random.Generator):
    """An inner factor whose only transmission zero is ``z`` (or the pair z, conj z)."""
    e_c = np.zeros((1, p))
    e_c[0, channel] = 1.0
    if z.imag == 0.0:
        gamma = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
        A = np.array([[z.real + gamma]])
        B = e_c.copy()
        C = gamma * e_c.T
        return A, B, C, np.eye(p)
    rotation = np.array([[z.real, -z.imag], [z.imag, z.real]])
    u = rng.uniform(-1.0, 1.0, 2)
    v = rng.uniform(-1.0, 1.0, 2)
    A = rotation + np.outer(u, v)
    B = np.outer(u, e_c[0])
    C = np.outer(e_c[0], v).reshape(p, 2)
    return A, B, C, np.eye(p)


def _extra_input_columns(A, B, C, D, planted: tuple, extra: int, rng: np.random.Generator, tol: TolerancePolicy):
    """Input columns that keep every planted zero a rank-drop point of the pencil.

    At a planted zero the square pencil has a nonzero left kernel; a new
    column preserves the rank drop iff it is orthogonal to that left kernel.
    """
    n = A.shape[0]
    constraints = []
    for z in {complex(z) for z in planted}:
        # Relaxed: the checked constructor would spend two rank tests per attempt.
        pencil = rosenbrock(LtiSystem.relaxed(A, B, C, D), z)
        left = nullspace(pencil.conj().T, tol)
        for k in range(left.shape[1]):
            # Complex SVD may rotate phases even at real zeros, so always
            # impose both real and imaginary constraint rows.
            constraints.append(left[:, k].conj().real)
            constraints.append(left[:, k].conj().imag)
    if constraints:
        admissible = nullspace(np.vstack(constraints), tol)
    else:
        admissible = np.eye(n + C.shape[0])
    if admissible.shape[1] == 0:
        raise GenerationFailed("no admissible extra input directions remain")
    cols = admissible @ rng.uniform(-1.0, 1.0, (admissible.shape[1], extra))
    return cols[:n, :], cols[n:, :]


def generate(spec: GeneratorSpec, tol: TolerancePolicy = DEFAULT_POLICY) -> LtiSystem:
    """Draw a plant that passes the assumption audit with the planted structure."""
    for attempt in range(_GENERATION_RETRIES):
        rng = rng_for(spec.seed, "generate", attempt)
        try:
            sys = _generate_once(spec, rng, tol)
        except (MonotrackError, ValueError, np.linalg.LinAlgError):
            continue
        if _verify_planted(sys, spec, tol):
            return sys
    raise GenerationFailed(f"no admissible plant found in {_GENERATION_RETRIES} attempts")


def _generate_once(spec: GeneratorSpec, rng: np.random.Generator, tol: TolerancePolicy) -> LtiSystem:
    p = spec.p
    n_core = spec.n - spec.zero_state_count - len(spec.planted_uncontrollable_modes)
    A = rng.uniform(-1.0, 1.0, (n_core, n_core))
    if spec.domain is TimeDomain.DISCRETE:
        A = 0.5 * A / max(1.0, np.max(np.abs(np.linalg.eigvals(A)))) if n_core else A
    B = rng.uniform(-1.0, 1.0, (n_core, p))
    C = np.zeros((p, n_core))
    D = np.eye(p)

    planted_order = [z for z in spec.planted_zero_values if z.imag > 0.0]
    planted_order += [z for z in spec.planted_zero_values if z.imag == 0.0]
    for idx, z in enumerate(planted_order):
        A, B, C, D = _series((A, B, C, D), _zero_factor(z, idx % p, p, rng))

    if spec.m > p:
        b_extra, d_extra = _extra_input_columns(A, B, C, D, spec.planted_zero_values, spec.m - p, rng, tol)
        B = np.hstack([B, b_extra])
        D = np.hstack([D, d_extra])

    for mode in spec.planted_uncontrollable_modes:
        size = A.shape[0]
        A = np.block([[np.array([[mode]]), np.zeros((1, size))], [rng.uniform(-1.0, 1.0, (size, 1)), A]])
        B = np.vstack([np.zeros((1, B.shape[1])), B])
        C = np.hstack([rng.uniform(-1.0, 1.0, (p, 1)), C])

    return LtiSystem(A, B, C, D, spec.domain)


def _verify_planted(sys: LtiSystem, spec: GeneratorSpec, tol: TolerancePolicy) -> bool:
    report = audit_assumptions(sys, tol)
    if not report.all_pass:
        return False
    computed = [z.value for z in report.zeros]
    for z in spec.planted_zero_values:
        if not any(abs(z - zc) <= 1e-6 * (1.0 + abs(z)) for zc in computed):
            return False
    for mode in spec.planted_uncontrollable_modes:
        pbh = rank_of(np.hstack([sys.A - mode * np.eye(sys.n), sys.B]), tol)
        if pbh == sys.n:
            return False
    return True


@dataclass(frozen=True)
class GenericityStats:
    """Aggregate outcome of repeated randomized-construction draws."""

    trials: int
    failures: int
    failing_seeds: tuple = ()
    notes: dict = field(default_factory=dict)

    @property
    def success_fraction(self) -> float:
        return 1.0 if self.trials == 0 else (self.trials - self.failures) / self.trials

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "failing_seeds": list(self.failing_seeds),
            "success_fraction": self.success_fraction,
            "notes": self.notes,
        }


def genericity_trial(
    sys: LtiSystem,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
    tol: TolerancePolicy = DEFAULT_POLICY,
) -> GenericityStats:
    """Make one design try at each of ``trials`` trial seeds and count the failures.

    The trial modes are the first p values of the frequency pool. Delta and
    the x_j come from the routine that :func:`synthesize` uses, decided once
    on the discovered V*g span; a not-solvable verdict fails every trial and
    is recorded in ``notes``. A trial draws only what a design draws: one V*g
    pass and, for each j in delta, x_j + k with k random in ker P(mu_j); it
    then rank-tests V = [those directions, V*g draw], its one rank test.
    Failures are never retried, so the fraction estimates the genericity of
    a single try. ``trials`` may be 0, not negative.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    zeros = invariant_zeros(sys, tol)
    pool = default_frequency_pool(sys, zeros, count=max(sys.n + 3, sys.p))
    trial_seeds = [seed + 1000003 * (t + 1) for t in range(trials)]
    every_trial_fails = GenericityStats(trials=trials, failures=trials, failing_seeds=tuple(trial_seeds))
    # The kernels, delta and the x_j do not depend on the trial; only their draws do.
    try:
        vg_kernels = discover_vstar_g(sys, tol=tol, zeros=zeros)
        delta, pairs, factors = _witnesses(sys, vg_kernels.basis, pool[: sys.p], tol)
    except NotSolvable as exc:
        return replace(every_trial_fails, notes={"solvability": exc.verdict.to_json_dict()})
    except MonotrackError:
        return every_trial_fails

    def fails(trial_seed: int) -> bool:
        # The draw skips draw()'s rank test of the n x h V*g block: the test of
        # the n x n V below implies it. Deleting the n - h direction columns
        # gives sigma_n(V) <= sigma_h(V*g) (interlacing), and V's threshold,
        # n eps sigma_1(V) 10 or the relative tolerance times sigma_1(V), is at
        # least V*g's, as sigma_1(V) >= sigma_1(V*g). So a rank-deficient V*g
        # draw fails the V test too, and no verdict changes. Only SVD roundoff
        # can break the inequality, by about 1% of the threshold, so only a
        # draw whose sigma_h sits in that band just below it could pass.
        try:
            vg = _draw_pass(vg_kernels, trial_seed)
        except RankDeficientAfterRetries:
            return True
        rng = rng_for(trial_seed, "trial-directions")
        cols = [_random_direction(sys, pairs[j], factors[pairs[j].mode].null_basis, rng).v for j in delta]
        return rank_of(np.column_stack(cols + [vg.V]), tol) != sys.n

    failing = tuple(trial_seed for trial_seed in trial_seeds if fails(trial_seed))
    return GenericityStats(trials=trials, failures=len(failing), failing_seeds=failing)


def fixture_hash(sys: LtiSystem) -> str:
    """Stable content hash of a plant, for batch reports."""
    canonical = json.dumps(sys.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def batch_report(sys: LtiSystem, stats: GenericityStats) -> dict:
    return {"fixture_hash": fixture_hash(sys), **stats.to_json_dict()}
