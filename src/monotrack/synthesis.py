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
)
from .numkernel import DEFAULT_POLICY, TolerancePolicy, min_norm_solve, rank_of
from .seeding import DEFAULT_SEED, mixing_coefficients, rng_for
from .solvability import SolvabilityVerdict, check_solvable, validate_modes
from .subspaces import PairedBasis, PencilFactor, _single_mode_basis, discover_vstar_g, draw, factor_pencil
from .sysmodel import AssumptionReport, LtiSystem, audit_assumptions, rosenbrock

_SPECTRUM_TOL = 1e-6


@dataclass(frozen=True)
class SynthesisSpec:
    """Requested closed-loop modes, step reference and randomization policy."""

    lambdas: tuple
    reference: np.ndarray
    free_pool: tuple | None = None
    seed: int = DEFAULT_SEED
    max_retries: int = 5

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        ref = np.asarray(self.reference, dtype=float).reshape(-1)
        if not np.all(np.isfinite(ref)):
            raise ValueError("reference must be finite")
        object.__setattr__(self, "reference", ref)
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")


@dataclass(frozen=True)
class DirectionPair:
    """A state/input pair steering one output with a single assigned mode."""

    v: np.ndarray
    w: np.ndarray
    beta: float
    output_index: int
    mode: float

    def validate(self, sys: LtiSystem, tol: TolerancePolicy = DEFAULT_POLICY) -> None:
        scale = max(1.0, float(np.linalg.norm(sys.A)))
        res_state = (sys.A - self.mode * np.eye(sys.n)) @ self.v + sys.B @ self.w
        e_j = np.zeros(sys.p)
        e_j[self.output_index] = self.beta
        res_out = sys.C @ self.v + sys.D @ self.w - e_j
        if np.linalg.norm(res_state) > tol.residual_tol * scale or np.linalg.norm(res_out) > tol.residual_tol * scale:
            raise ValueError("direction pair violates the pencil relation")
        if abs(self.beta) <= tol.absolute_floor:
            raise ValueError("direction pair has vanishing output coupling")


@dataclass(frozen=True)
class Replay:
    """User-supplied basis and direction pairs for exact reproduction runs."""

    vg_state: np.ndarray
    vg_input: np.ndarray
    directions: dict = field(default_factory=dict)


@dataclass(frozen=True)
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


def _direction_from(sys: LtiSystem, j: int, lam: float, factor: PencilFactor, tol: TolerancePolicy) -> DirectionPair:
    """Output ``j``'s direction pair at the mode ``lam``, read from ``factor = factor_pencil(sys, lam)``.

    The right-hand side uses unit output coupling, so the minimum-norm
    solution x_j = P(lam)^+ e_{n+j} realizes beta = 1. The same factor gives
    R_j its output-deleted kernel at ``lam``. The direction is a property of
    the plant and the mode, so nothing is drawn: when x_j does not exist, the
    output-deleted kernel is ker P(lam), whose every vector has beta = 0, and
    :class:`DegenerateDirection` is raised at once. The mode is not
    validated here; ``synthesize`` runs :func:`validate_modes` first.
    """
    sol = factor.solution(j)
    pair = None if sol is None else _stacked_pair(sys, j, lam, sol)
    if pair is None or abs(pair.beta) <= tol.absolute_floor:
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
    """Minimum-norm steady-state pair (x_ss, u_ss) for the step reference ``r``."""
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.shape[0] != sys.p:
        raise ValueError(f"reference length {r.shape[0]} != outputs {sys.p}")
    M = rosenbrock(sys, sys.domain.tracking_frequency)
    sol = min_norm_solve(M, np.concatenate([np.zeros(sys.n), r]), tol)
    return sol[: sys.n], sol[sys.n :]


def control_input(fb: FeedbackResult, x) -> np.ndarray:
    """Tracking control law u = F (x - x_ss) + u_ss."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return fb.F @ (x - fb.x_ss) + fb.u_ss


def _infer_column_modes(sys: LtiSystem, V: np.ndarray, W: np.ndarray, tol: TolerancePolicy) -> tuple:
    """Assign a generating frequency to each replayed basis column.

    Columns satisfying a scalar eigen-relation get that real frequency;
    otherwise adjacent columns are interpreted as a realified complex pair.
    """
    modes = []
    k = 0
    scale = max(1.0, float(np.linalg.norm(sys.A)))
    while k < V.shape[1]:
        v, w = V[:, k], W[:, k]
        image = sys.A @ v + sys.B @ w
        mu = float(v @ image / (v @ v))
        if np.linalg.norm(image - mu * v) <= tol.residual_tol * scale * max(1.0, np.linalg.norm(v)):
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
        if np.linalg.norm(np.column_stack([image, image2]) - pair @ rot) > tol.residual_tol * scale * 10:
            raise ValueError("replayed basis columns form no valid realified pair")
        modes.extend([complex(a, b), complex(a, -b)])
        k += 2
    return tuple(modes)


def _verify_gain(sys, spec, tol, vg, directions, delta, V, W):
    """Compute F = W V^-1 and check every closed-loop invariant.

    Returns (F, spectrum, None) on success or (None, None, reason) when a
    check fails; callers treat a failed verification like a bad random draw
    and redraw, since ill-conditioned bases amplify the solve roundoff past
    the contract tolerances.
    """
    F = np.linalg.solve(V.T, W.T).T
    scale = max(1.0, float(np.linalg.norm(V)), float(np.linalg.norm(W)))
    if np.linalg.norm(F @ V - W) > tol.residual_tol * scale * max(1.0, float(np.linalg.norm(F))):
        return None, None, "gain does not reproduce the requested directions"

    closed_loop = sys.A + sys.B @ F
    spectrum = np.linalg.eigvals(closed_loop)
    expected = [complex(spec.lambdas[j]) for j in delta] + [complex(m) for m in vg.modes]
    if not _match_spectrum(spectrum, expected, _SPECTRUM_TOL):
        return None, None, (
            f"closed-loop spectrum {sorted(spectrum.tolist(), key=lambda z: (z.real, z.imag))} "
            "does not match the assigned modes"
        )
    if not all(sys.domain.is_stable(z) for z in spectrum):
        return None, None, "closed-loop spectrum is not contained in the stability region"

    out_map = sys.C + sys.D @ F
    # Achievable accuracy of C + D F is bounded by the gain magnitude.
    out_scale = max(scale, float(np.linalg.norm(sys.C)) + float(np.linalg.norm(sys.D)) * float(np.linalg.norm(F)))
    for j in delta:
        target = np.zeros(sys.p)
        target[j] = directions[j].beta
        if np.linalg.norm(out_map @ directions[j].v - target) > tol.residual_tol * out_scale * 10:
            return None, None, f"output coupling of direction {j} failed verification"
    if vg.dim and np.linalg.norm(out_map @ vg.V) > tol.residual_tol * out_scale * 10:
        return None, None, "stabilisability basis is not output-nulling under the gain"
    for j in range(sys.p):
        if j not in delta and np.linalg.norm(out_map[j]) > tol.residual_tol * out_scale * 10:
            return None, None, f"output {j} is tagged instantaneous but its error row does not vanish"
    return F, spectrum, None


def _match_spectrum(actual: np.ndarray, expected: list, tolerance: float) -> bool:
    """Multiplicity-aware matching of two complex multisets."""
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


def synthesize(
    sys: LtiSystem,
    spec: SynthesisSpec,
    tol: TolerancePolicy = DEFAULT_POLICY,
    replay: Replay | None = None,
) -> FeedbackResult:
    """Full synthesis pipeline: audit, solvability, direction assembly, gain.

    Raises
    ------
    AssumptionViolation
        If the plant fails the standing-assumption audit.
    NotSolvable
        If the dimension conditions reject the requested mode tuple (the
        verdict rides on the exception).
    RankDeficientAfterRetries
        If no full-rank V could be assembled within the retry budget.
    UnstableResult
        Internal guard: the verified closed-loop spectrum disagrees with the
        assigned modes.
    """
    report: AssumptionReport = audit_assumptions(sys, tol)
    if not report.all_pass:
        raise AssumptionViolation(f"standing assumptions fail: {report.details}", report)
    zeros = report.zeros
    validate_modes(sys, spec.lambdas, zeros, tol)

    if replay is not None:
        vg_V = np.atleast_2d(np.asarray(replay.vg_state, dtype=float))
        vg_W = np.atleast_2d(np.asarray(replay.vg_input, dtype=float))
        vg = PairedBasis(V=vg_V, W=vg_W, modes=_infer_column_modes(sys, vg_V, vg_W, tol))
        vg.validate(sys, tol)
    else:
        # V*g is a property of the plant; only its paired basis is redrawn.
        vg_kernels = discover_vstar_g(sys, spec.free_pool, tol, zeros=zeros, avoid=spec.lambdas)
        vg = draw(vg_kernels, spec.seed, spec.max_retries, tol)

    # One factorization per distinct mode gives every output at that mode its
    # R_j kernel, its direction and its last-resort redraw.
    factors = {lam: factor_pencil(sys, lam, tol) for lam in dict.fromkeys(spec.lambdas)}
    rstar_bases = [_single_mode_basis(sys, factors[lam].kernel(j), lam) for j, lam in enumerate(spec.lambdas)]
    verdict: SolvabilityVerdict = check_solvable(sys, vg, rstar_bases, tol)
    if not verdict.solvable:
        raise NotSolvable("dimension conditions reject the requested modes", verdict)
    delta = verdict.delta

    directions = {}
    for j in delta:
        if replay is not None and j in replay.directions:
            v, w = replay.directions[j]
            v, w = np.asarray(v, dtype=float).reshape(-1), np.asarray(w, dtype=float).reshape(-1)
            beta = float(sys.C[j] @ v + sys.D[j] @ w)
            pair = DirectionPair(v=v, w=w, beta=beta, output_index=j, mode=spec.lambdas[j])
            pair.validate(sys, tol)
        else:
            lam = spec.lambdas[j]
            pair = _direction_from(sys, j, lam, factors[lam], tol)
        directions[j] = pair

    failure = None
    for attempt in range(spec.max_retries + 2):
        V = np.column_stack([directions[j].v for j in delta] + ([vg.V] if vg.dim else []))
        W = np.column_stack([directions[j].w for j in delta] + ([vg.W] if vg.dim else []))
        if V.shape[1] != sys.n:
            raise RankDeficientAfterRetries(
                f"direction count {V.shape[1]} does not fill the state dimension {sys.n}"
            )
        failure = None
        if rank_of(V, tol) == sys.n:
            F, spectrum, failure = _verify_gain(sys, spec, tol, vg, directions, delta, V, W)
            if failure is None:
                break
        if attempt < spec.max_retries and replay is None:
            # A rank-deficient or badly conditioned draw: re-randomize the
            # stabilisability mixing and try again.
            vg = draw(vg_kernels, spec.seed + attempt + 1, spec.max_retries, tol)
        elif attempt == spec.max_retries:
            # Last resort: every solution of P(lam_j) x = e_{n+j} is x_j plus a
            # vector of ker P(lam_j); add a random one to each direction.
            directions = {
                j: _random_direction(
                    sys, pair, factors[pair.mode].null_basis, rng_for(spec.seed + 7919, "direction-final", j)
                )
                for j, pair in directions.items()
            }
        else:
            if failure is not None:
                raise UnstableResult(failure)
            raise RankDeficientAfterRetries("eigenvector matrix stayed singular after all retries")
    if failure is not None:
        raise UnstableResult(failure)

    x_ss, u_ss = steady_state(sys, spec.reference, tol)
    assigned = {j: float(spec.lambdas[j]) for j in delta}
    for j in range(sys.p):
        if j not in assigned:
            assigned[j] = "instantaneous"
    column_modes = tuple([float(spec.lambdas[j]) for j in delta] + list(vg.modes))
    spectrum_sorted = tuple(sorted((complex(z) for z in spectrum), key=lambda z: (z.real, z.imag)))
    return FeedbackResult(
        F=F,
        x_ss=x_ss,
        u_ss=u_ss,
        V=V,
        W=W,
        closed_loop_spectrum=spectrum_sorted,
        assigned_modes=assigned,
        delta=tuple(delta),
        column_modes=column_modes,
    )
