"""Gain and feedforward synthesis for globally monotonic tracking.

The per-output direction pair (v_j, w_j) solves the pencil equation with
right-hand side (0, e_j); collecting one pair per tracked output together
with a basis of the stabilisability output-nulling subspace gives a square
invertible matrix V, and the feedback gain is F = W V^{-1}. The steady-state
pair (x_ss, u_ss) turns the step-tracking problem into a regulation problem
in error coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolation,
    DegenerateDirection,
    NotSolvable,
    RankDeficientAfterRetries,
    UnstableResult,
    Unsolvable,
)
from .numkernel import ABSOLUTE_FLOOR, DEFAULT_POLICY, RESIDUAL_TOL, TolerancePolicy, ranks_of
from .seeding import DEFAULT_SEED, mixing_coefficients, rng_for
from .solvability import SolvabilityVerdict, check_solvable, validate_modes
from .subspaces import KernelSpan, PairedBasis, PencilFactor, _factor_into, _single_mode_basis, discover_vstar_g, draw
from .sysmodel import AssumptionReport, LtiSystem, _memo, _read_only, audit_assumptions

_SPECTRUM_TOL = 1e-6
# Reseeded V*g draws after the first one, before the last-resort directions.
_REDRAWS = 5


@dataclass(frozen=True)
class SynthesisSpec:
    """Requested closed-loop modes, step reference, V*g frequency pool and the seed of the drawn bases."""

    lambdas: tuple
    reference: np.ndarray
    free_pool: tuple | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        ref = np.asarray(self.reference, dtype=float).reshape(-1)
        if not np.all(np.isfinite(ref)):
            raise ValueError("reference must be finite")
        object.__setattr__(self, "reference", ref)

    def _values(self) -> tuple:
        """The fields by value: equality and the hash read these, as the generated ones fail on the ndarray ``reference``."""
        pool = None if self.free_pool is None else tuple(self.free_pool)
        return self.lambdas, tuple(self.reference.tolist()), pool, self.seed

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())


@dataclass(frozen=True, eq=False)
class DirectionPair:
    """A state/input pair steering one output with a single assigned mode."""

    v: np.ndarray
    w: np.ndarray
    beta: float
    output_index: int
    mode: float

    def validate(self, sys: LtiSystem) -> None:
        scale = max(1.0, float(np.linalg.norm(sys.A)))
        res_state = (sys.A - self.mode * np.eye(sys.n)) @ self.v + sys.B @ self.w
        e_j = np.zeros(sys.p)
        e_j[self.output_index] = self.beta
        res_out = sys.C @ self.v + sys.D @ self.w - e_j
        if np.linalg.norm(res_state) > RESIDUAL_TOL * scale or np.linalg.norm(res_out) > RESIDUAL_TOL * scale:
            raise ValueError("direction pair violates the pencil relation")
        if abs(self.beta) <= ABSOLUTE_FLOOR:
            raise ValueError("direction pair has vanishing output coupling")


@dataclass(frozen=True, eq=False)
class Replay:
    """User-supplied basis and direction pairs for exact reproduction runs."""

    vg_state: np.ndarray
    vg_input: np.ndarray
    directions: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class FeedbackResult:
    F: np.ndarray
    x_ss: np.ndarray
    u_ss: np.ndarray
    V: np.ndarray
    W: np.ndarray
    closed_loop_spectrum: tuple
    assigned_modes: dict
    delta: tuple
    column_modes: tuple

    @property
    def instantaneous_outputs(self) -> tuple:
        return tuple(j for j, mode in self.assigned_modes.items() if mode == "instantaneous")

    def to_json_dict(self) -> dict:
        return {
            "F": self.F.tolist(),
            "x_ss": self.x_ss.tolist(),
            "u_ss": self.u_ss.tolist(),
            "V": self.V.tolist(),
            "W": self.W.tolist(),
            "closed_loop_spectrum": [[z.real, z.imag] for z in self.closed_loop_spectrum],
            "assigned_modes": {str(j): m for j, m in self.assigned_modes.items()},
            "delta": list(self.delta),
            "column_modes": [m if isinstance(m, float) else [m.real, m.imag] for m in self.column_modes],
        }


def _direction_from(sys: LtiSystem, j: int, lam: float, factor: PencilFactor) -> DirectionPair:
    """Output ``j``'s direction pair at the mode ``lam``, read from ``factor``, the factor of P(lam).

    The right-hand side uses unit output coupling, so the minimum-norm
    solution x_j = P(lam)^+ e_{n+j} realizes beta = 1. The direction is a
    property of the plant and the mode, so nothing is drawn: when x_j does
    not exist, the output-deleted kernel is ker P(lam), whose every vector
    has beta = 0, and :class:`DegenerateDirection` is raised at once. The
    mode is not validated here.
    """
    sol = factor.solution(j)
    pair = None if sol is None else _stacked_pair(sys, j, lam, sol)
    if pair is None or abs(pair.beta) <= ABSOLUTE_FLOOR:
        raise DegenerateDirection(f"no direction with nonzero coupling into output {j} at mode {lam}")
    return pair


def _random_direction(sys: LtiSystem, pair: DirectionPair, null_basis: np.ndarray, rng) -> DirectionPair:
    """``pair`` plus a random vector of ker P(mode), given by its orthonormal ``null_basis``.

    Every solution of the pencil equation of ``pair`` has this form, so the
    result solves it too, with the same coupling.
    """
    k = null_basis @ mixing_coefficients(rng, null_basis.shape[1])
    return _stacked_pair(sys, pair.output_index, pair.mode, np.concatenate([pair.v, pair.w]) + k)


def _stacked_pair(sys: LtiSystem, j: int, lam: float, col: np.ndarray) -> DirectionPair:
    """The pair (v, w) stacked in ``col``, with its coupling beta into output ``j``."""
    v, w = col[: sys.n], col[sys.n :]
    return DirectionPair(v=v, w=w, beta=float(sys.C[j] @ v + sys.D[j] @ w), output_index=j, mode=lam)


def steady_state(sys: LtiSystem, r, tol: TolerancePolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm steady-state pair (x_ss, u_ss) for the step reference ``r``.

    The :class:`PencilFactor` of the tracking pencil P(0) (P(1) in discrete
    time) is kept in the plant's store (:func:`_factor_into`): a design or a
    replay factors it with its modes, a call alone in one SVD. Only the solve
    for ``r`` and its residual check run on every call, so an unreachable
    reference raises :class:`Unsolvable` every time.
    """
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.shape[0] != sys.p:
        raise ValueError(f"reference length {r.shape[0]} != outputs {sys.p}")
    tf = sys.domain.tracking_frequency
    sol = _factor_into(sys, (tf,), tol)[tf].solve(np.concatenate([np.zeros(sys.n), r]))
    if sol is None:
        raise Unsolvable(f"no equilibrium reaches the reference {r.tolist()}")
    return sol[: sys.n], sol[sys.n :]


def control_input(fb: FeedbackResult, x) -> np.ndarray:
    """Tracking control law u = F (x - x_ss) + u_ss."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return fb.F @ (x - fb.x_ss) + fb.u_ss


def _infer_column_modes(sys: LtiSystem, V: np.ndarray, W: np.ndarray) -> tuple:
    """Assign a generating frequency to each replayed basis column.

    Columns satisfying a scalar eigen-relation get that real frequency;
    otherwise adjacent columns are a realified complex pair. A zero column raises :class:`ValueError`.
    """
    zero = np.flatnonzero(~V.any(axis=0))
    if zero.size:
        raise ValueError(f"replayed basis column {zero[0]} is zero")
    modes = []
    k = 0
    scale = max(1.0, float(np.linalg.norm(sys.A)))
    while k < V.shape[1]:
        v, w = V[:, k], W[:, k]
        image = sys.A @ v + sys.B @ w
        mu = float(v @ image / (v @ v))
        if np.linalg.norm(image - mu * v) <= RESIDUAL_TOL * scale * max(1.0, np.linalg.norm(v)):
            modes.append(mu)
            k += 1
            continue
        if k + 1 >= V.shape[1]:
            raise ValueError("replayed basis column satisfies no eigen-relation")
        v2, w2 = V[:, k + 1], W[:, k + 1]
        image2 = sys.A @ v2 + sys.B @ w2
        pair = np.column_stack([v, v2])
        coeffs, *_ = np.linalg.lstsq(pair, np.column_stack([image, image2]), rcond=None)
        a, b = coeffs[0, 0], coeffs[1, 0]
        rot = np.array([[a, -b], [b, a]])
        if np.linalg.norm(np.column_stack([image, image2]) - pair @ rot) > RESIDUAL_TOL * scale * 10:
            raise ValueError("replayed basis columns form no valid realified pair")
        modes.extend([complex(a, b), complex(a, -b)])
        k += 2
    return tuple(modes)


def _closed_loop(sys: LtiSystem, F: np.ndarray, formed: tuple | None = None) -> tuple:
    """Read-only ``(A + BF, eigvals(A + BF), C + DF)``, kept on the plant for the latest gain.

    :func:`synthesize` keeps the closed loop that its try formed
    (``formed``) for the gain it returns, and ``simverify`` reads it for the
    gain it simulates, so a simulation of a gain that synthesis has just
    verified computes no spectrum again. Without ``formed``,
    :func:`_closed_loops` forms it.
    """
    return _memo(sys, "closed-loop", (F.shape, F.tobytes()), lambda: _read_only(formed or _closed_loops(sys, [F])[0]))


def _closed_loops(sys: LtiSystem, gains) -> list[tuple]:
    """``(A + BF, eigvals(A + BF), C + DF)`` for each gain F of ``gains``, the spectra from one stacked ``eigvals``.

    The products are formed one gain at a time, as 2-D products, since a
    batched ``matmul`` may round differently. A stacked ``eigvals`` returns
    every spectrum complex once one member has a complex eigenvalue; each
    spectrum here is real when all of its imaginary parts are zero, as a
    2-D ``eigvals`` returns it. LAPACK factors the members one at a time, so
    each member has the bits and the dtype of a separate call.
    """
    closed = [sys.A + sys.B @ F for F in gains]
    return [
        (a, s.real if np.iscomplexobj(s) and not s.imag.any() else s, sys.C + sys.D @ F)
        for F, a, s in zip(gains, closed, np.linalg.eigvals(np.array(closed)))
    ]


def _verify_gain(sys, spec, vg, directions, delta, V, W, F, closed_loop):
    """Check every closed-loop invariant of the gain F = W V^-1, with its ``closed_loop`` from :func:`_closed_loops`.

    Returns None when the gain passes, or the reason of the first check that
    fails; callers treat a failed verification like a bad random draw and
    try the next candidate, since ill-conditioned bases amplify the solve
    roundoff past the contract tolerances. The first ``len(delta)`` columns
    of V are the directions of ``delta``, in order: their couplings are
    checked as one product with C + DF, and the instantaneous outputs
    through the row norms of C + DF. A failure names the first failing
    output, in the order of ``delta`` and then of the outputs.
    """
    scale = max(1.0, float(np.linalg.norm(V)), float(np.linalg.norm(W)))
    if np.linalg.norm(F @ V - W) > RESIDUAL_TOL * scale * max(1.0, float(np.linalg.norm(F))):
        return "gain does not reproduce the requested directions"

    _, spectrum, out_map = closed_loop
    expected = [complex(spec.lambdas[j]) for j in delta] + [complex(m) for m in vg.modes]
    if not _match_spectrum(spectrum, expected, _SPECTRUM_TOL):
        return (
            f"closed-loop spectrum {sorted(spectrum.tolist(), key=lambda z: (z.real, z.imag))} "
            "does not match the assigned modes"
        )
    if not all(sys.domain.is_stable(z) for z in spectrum):
        return "closed-loop spectrum is not contained in the stability region"

    # Achievable accuracy of C + D F is bounded by the gain magnitude.
    out_scale = max(scale, float(np.linalg.norm(sys.C)) + float(np.linalg.norm(sys.D)) * float(np.linalg.norm(F)))
    bound = RESIDUAL_TOL * out_scale * 10
    coupling = out_map @ V[:, : len(delta)]
    coupling[list(delta), np.arange(len(delta))] -= [directions[j].beta for j in delta]
    failed = np.flatnonzero(np.linalg.norm(coupling, axis=0) > bound)
    if failed.size:
        return f"output coupling of direction {delta[failed[0]]} failed verification"
    if vg.dim and np.linalg.norm(out_map @ vg.V) > bound:
        return "stabilisability basis is not output-nulling under the gain"
    for j in np.flatnonzero(np.linalg.norm(out_map, axis=1) > bound).tolist():
        if j not in delta:
            return f"output {j} is tagged instantaneous but its error row does not vanish"
    return None


def _match_spectrum(actual: np.ndarray, expected: list, tolerance: float) -> bool:
    """Multiplicity-aware matching of two complex multisets.

    Each expected value in turn takes the nearest remaining actual value, the
    first one on a tie. All distances come from one array pass; they use
    ``hypot``, which gives the bits of the scalar ``abs`` of a complex
    difference, where NumPy's vectorized complex ``abs`` may not.
    """
    if len(actual) != len(expected):
        return False
    diff = np.asarray(actual)[None, :] - np.asarray(expected, dtype=complex)[:, None]
    gaps = np.hypot(diff.real, diff.imag).tolist()
    remaining = list(range(len(actual)))
    for target, row in zip(expected, gaps):
        best = min(remaining, key=row.__getitem__)
        if row[best] > tolerance * (1.0 + abs(target)):
            return False
        remaining.remove(best)
    return True


def _witnesses(sys: LtiSystem, vg_span, lambdas: tuple, tol: TolerancePolicy, tracking: tuple = ()):
    """The witness set delta, x_j for each j in it, and the factor of P(lam) at each distinct mode.

    The verdict depends on the plant and the modes only, so it is decided on
    the V*g span given (discovered, or a replay's validated basis) and
    raised as :class:`NotSolvable`. Each factor gives its outputs their R_j
    kernel and their x_j, or :class:`DegenerateDirection`. The factors at
    the modes and the ``tracking`` frequency come from one :func:`_factor_into`
    call; a replay keeps only the tracking factor, so replays do not grow the store.
    """
    keep = None if isinstance(vg_span, KernelSpan) else tracking
    factors = _factor_into(sys, (*lambdas, *tracking), tol, keep)
    rstar_bases = [_single_mode_basis(sys, factors[lam].kernel(j), lam) for j, lam in enumerate(lambdas)]
    verdict: SolvabilityVerdict = check_solvable(sys, vg_span, rstar_bases, tol)
    if not verdict.solvable:
        raise NotSolvable("dimension conditions reject the requested modes", verdict)
    directions = {j: _direction_from(sys, j, lambdas[j], factors[lambdas[j]]) for j in verdict.delta}
    return verdict.delta, directions, factors


def _candidates(sys: LtiSystem, vg_kernels, directions: dict, factors: dict, seed: int):
    """The (V*g basis, directions) pairs a synthesis tries, each drawn when it is asked for.

    The draws at ``seed`` ... ``seed + _REDRAWS`` with the x_j, skipping a
    draw whose pass falls short, then the last basis drawn with each x_j plus
    a random vector of ker P(lam_j) (still a solution). If no draw succeeds,
    the last raises. :func:`_try_candidates` asks for the first pair alone
    and, only if it fails, for all the others at once.
    """
    vg = None
    for k in range(_REDRAWS + 1):
        try:
            vg = draw(vg_kernels, seed + k)
        except RankDeficientAfterRetries:
            # Raised here, not kept: a kept error would tie this frame to its traceback in a cycle.
            if vg is None and k == _REDRAWS:
                raise
            continue
        yield vg, directions
    final = {
        j: _random_direction(sys, pair, factors[pair.mode].null_basis, rng_for(seed + 7919, "direction-final", j))
        for j, pair in directions.items()
    }
    yield vg, final


def _try_batch(sys: LtiSystem, spec: SynthesisSpec, delta, batch: list, tol: TolerancePolicy):
    """Try the (V*g basis, directions) candidates of ``batch`` in order, in one stacked pass.

    One :func:`ranks_of` tests every V, one stacked ``solve`` gives the gain
    of each full-rank member, and :func:`_closed_loops` their closed loops
    from one stacked ``eigvals``; only the LAPACK operands are stacked, and
    each member has the bits of a separate call. :func:`_verify_gain` then
    checks the members in order until one passes. Returns
    ``((vg, V, W, F, closed_loop), None)`` for the first passing member, or
    ``(None, failure)`` with the last member's own failure: the reason its
    gain failed verification, or None when its V is singular.
    """
    Vs = np.array([np.column_stack([dirs[j].v for j in delta] + ([vg.V] if vg.dim else [])) for vg, dirs in batch])
    Ws = np.array([np.column_stack([dirs[j].w for j in delta] + ([vg.W] if vg.dim else [])) for vg, dirs in batch])
    full = [i for i, rank in enumerate(ranks_of(Vs, tol)) if rank == sys.n]
    solved = {}
    if full:
        gains = list(np.linalg.solve(Vs[full].transpose(0, 2, 1), Ws[full].transpose(0, 2, 1)).transpose(0, 2, 1))
        solved = dict(zip(full, zip(gains, _closed_loops(sys, gains))))
    for i, (vg, directions) in enumerate(batch):
        failure = None
        if i in solved:
            F, closed_loop = solved[i]
            failure = _verify_gain(sys, spec, vg, directions, delta, Vs[i], Ws[i], F, closed_loop)
            if failure is None:
                return (vg, Vs[i], Ws[i], F, closed_loop), None
    return None, failure


def _try_candidates(sys: LtiSystem, spec: SynthesisSpec, delta, candidates, tol: TolerancePolicy):
    """The first of ``candidates`` with a full-rank V and a gain that passes, as ``(vg, V, W, F, closed_loop)``.

    Two :func:`_try_batch` passes: the first candidate alone, so a design
    that passes on its first try draws and factors nothing more, then, only
    if it fails, every remaining candidate, all drawn at once. When none
    passes, the last candidate's own failure is raised: :class:`UnstableResult`
    with its reason, or :class:`RankDeficientAfterRetries` when its V is singular.
    """
    candidates = iter(candidates)
    found, failure = _try_batch(sys, spec, delta, [next(candidates)], tol)
    rest = [] if found else list(candidates)
    if rest:
        found, failure = _try_batch(sys, spec, delta, rest, tol)
    if found:
        return found
    if failure is not None:
        raise UnstableResult(failure)
    raise RankDeficientAfterRetries("eigenvector matrix stayed singular after all retries")


def _design(sys: LtiSystem, spec: SynthesisSpec, delta, candidates, tol: TolerancePolicy) -> tuple:
    """The passing gain of :func:`_try_candidates`, as read-only ``(F, V, W, closed_loop)``, and what the result derives from it."""
    vg, V, W, F, closed_loop = _try_candidates(sys, spec, delta, candidates, tol)
    closed_loop = _closed_loop(sys, F, closed_loop)
    assigned = {j: float(spec.lambdas[j]) for j in delta} | {j: "instantaneous" for j in range(sys.p) if j not in delta}
    column_modes = tuple([float(spec.lambdas[j]) for j in delta] + list(vg.modes))
    spectrum = tuple(sorted((complex(z) for z in closed_loop[1]), key=lambda z: (z.real, z.imag)))
    return (*_read_only((F, V, W)), closed_loop, spectrum, assigned, column_modes)


def synthesize(
    sys: LtiSystem,
    spec: SynthesisSpec,
    tol: TolerancePolicy = DEFAULT_POLICY,
    replay: Replay | None = None,
) -> FeedbackResult:
    """Full synthesis pipeline: audit, solvability, direction assembly, gain.

    Solvability and delta are decided once, on the discovered span of V*g
    or the replayed basis, before any draw. Up to ``_REDRAWS + 2`` candidate
    bases (:func:`_candidates`, the one redraw loop) are then tried in two
    batches (:func:`_try_candidates`): the first alone, then, only if it
    fails, all the others in one stacked pass; the first candidate in order
    with a full-rank V and a gain that passes :func:`_verify_gain` wins. A
    replay is one candidate. The test of V is a try's only rank test (see
    :func:`genericity_trial`).
    Outside a replay, the V*g kernels, delta, the x_j and the mode factors are
    kept on the plant for the latest (modes, pool, policy), so a repeat
    design on the same plant only draws, verifies and solves; so is the
    gain that passed at the latest seed, read-only, so a repeat design at
    that seed only solves the steady state for its reference. A failure is
    not kept. Every design factors the tracking pencil with its modes
    unless the plant holds it.

    Raises
    ------
    AssumptionViolation
        If the plant fails the standing-assumption audit.
    NotSolvable
        If the dimension conditions reject the requested mode tuple (the
        verdict rides on the exception).
    RankDeficientAfterRetries
        If the last candidate's V was singular, or every V*g draw failed.
    UnstableResult
        If the last candidate's gain failed verification, with its reason.
    """
    report: AssumptionReport = audit_assumptions(sys, tol)
    if not report.all_pass:
        raise AssumptionViolation(f"standing assumptions fail: {report.details}", report)
    zeros = report.zeros
    validate_modes(sys, spec.lambdas, zeros)
    tracking = (sys.domain.tracking_frequency,)

    if replay is not None:
        vg_V = np.atleast_2d(np.asarray(replay.vg_state, dtype=float))
        vg_W = np.atleast_2d(np.asarray(replay.vg_input, dtype=float))
        vg = PairedBasis(V=vg_V, W=vg_W, modes=_infer_column_modes(sys, vg_V, vg_W))
        vg.validate(sys, tol)
        delta, directions, _ = _witnesses(sys, vg, spec.lambdas, tol, tracking)
        for j in delta:
            if j in replay.directions:
                v, w = (np.asarray(x, dtype=float).reshape(-1) for x in replay.directions[j])
                directions[j] = _stacked_pair(sys, j, spec.lambdas[j], np.concatenate([v, w]))
                directions[j].validate(sys)
        design = _design(sys, spec, delta, [(vg, directions)], tol)
    else:
        # V*g, delta and the x_j are facts of the plant and the modes; only the paired basis is drawn.
        def plant_facts():
            vg_kernels = discover_vstar_g(sys, spec.free_pool, tol, zeros=zeros, avoid=(*spec.lambdas, *tracking))
            return (vg_kernels, *_witnesses(sys, vg_kernels, spec.lambdas, tol, tracking), {})

        pool = None if spec.free_pool is None else tuple(float(mu) for mu in spec.free_pool)
        vg_kernels, delta, directions, factors, kept = _memo(sys, "witnesses", (spec.lambdas, pool, tol), plant_facts)
        # The gain depends on these facts and the seed alone: the latest seed's passing design is kept with them.
        design = kept.get(spec.seed)
        if design is None:
            design = _design(sys, spec, delta, _candidates(sys, vg_kernels, directions, factors, spec.seed), tol)
            kept.clear()
            kept[spec.seed] = design

    F, V, W, closed_loop, spectrum, assigned, column_modes = design
    _closed_loop(sys, F, closed_loop)
    x_ss, u_ss = steady_state(sys, spec.reference, tol)
    return FeedbackResult(
        F=np.copy(F),
        x_ss=x_ss,
        u_ss=u_ss,
        V=np.copy(V),
        W=np.copy(W),
        closed_loop_spectrum=spectrum,
        assigned_modes=dict(assigned),
        delta=tuple(delta),
        column_modes=column_modes,
    )

