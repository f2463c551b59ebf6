"""Closed-loop simulation and verification of the monotonicity claims.

The closed loop in error coordinates is autonomous, so continuous-time
trajectories come from the exact one-step transition matrix (a single
scaling-and-squaring matrix exponential with the degree-13 Padé
approximant, computed here in NumPy) rather than an adaptive integrator;
integrator ripple would otherwise produce false monotonicity verdicts. The
samples are filled by doubling: the block of samples known so far is
advanced by the transition matrix's power that spans it, and that power is
squared, so N samples take about log2(N) matrix products, plus as many for
one correction sweep. The sweep keeps the one-step recursion's accuracy on
the continuous plant sets, but not on ill-conditioned discrete closed loops
(the FOUND line on discrete accuracy in CHANGES.md). The work
that does not depend on the initial state (the stability check, the output
map, the transition and its powers) runs once per gain, which the plant
keeps; the fill, the sweep and the tracking error run per initial state.
The closed loop A + BF, its spectrum and C + DF come from the plant's kept
closed loop of the latest gain, which synthesis formed when it verified
that gain, so a simulation right after a synthesis computes no spectrum.
Verification covers three properties per output, each judged for all
outputs at once, in a few passes over the p x N tracking error: monotone
decay, an exponential rate envelope, and single-mode structure of the
tracking error. Each verdict has the bits of its per-output loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, UnstableClosedLoop
from .numkernel import ABSOLUTE_FLOOR
from .synthesis import FeedbackResult, _closed_loop
from .sysmodel import LtiSystem, TimeDomain, _memo, _read_only

_DEFAULT_SAMPLES_CONTINUOUS = 400
_DEFAULT_STEPS_DISCRETE = 200
_MONOTONE_TIE_TOL = 1e-9

# Degree-13 Padé approximant of exp and the 1-norm up to which it is accurate
# to double precision without scaling (Higham 2005, SIAM J. Matrix Anal. Appl.
# 26(4)).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled error-state and tracking-error trajectories."""

    times: np.ndarray
    xi: np.ndarray
    epsilon: np.ndarray
    domain: TimeDomain
    metadata: dict = field(default_factory=dict)

    @property
    def num_outputs(self) -> int:
        return self.epsilon.shape[0]

    @property
    def num_samples(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class RateSpec:
    """Decay-rate bound: negative for continuous time, in (0, 1) for discrete."""

    rho: float

    def validate(self, domain: TimeDomain) -> None:
        if domain is TimeDomain.CONTINUOUS and not self.rho < 0.0:
            raise ValueError("continuous-time rate bound must be negative")
        if domain is TimeDomain.DISCRETE and not 0.0 < self.rho < 1.0:
            raise ValueError("discrete-time rate bound must lie in (0, 1)")


@dataclass(frozen=True)
class ModeFit:
    """Single-mode fit of one tracking-error component."""

    output_index: int
    lambda_hat: float | None
    gamma_hat: float | None
    relative_residual: float
    instantaneous: bool


def _slowest_assigned_rate(fb: FeedbackResult, domain: TimeDomain) -> float:
    numeric = [m for m in fb.assigned_modes.values() if not isinstance(m, str)]
    if not numeric:
        return -1.0 if domain is TimeDomain.CONTINUOUS else 0.5
    return max(numeric)


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Padé approximant.

    M is scaled by 2^-s so that its 1-norm is at most theta_13, the
    approximant r13 = (V - U)^-1 (V + U) is formed from the even powers
    M^2, M^4 and M^6 with one solve, and the result is squared s times.
    """
    norm = np.linalg.norm(M, 1)
    s = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    A = M / 2.0**s
    b = _PADE_13
    ident = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _transition(sys: LtiSystem, fb: FeedbackResult, horizon: float | None, num_samples: int | None):
    """The part of :func:`simulate` that does not depend on x0, kept on the plant for the latest gain.

    Returns read-only ``(times, out_map, *powers)``: the sample times, the
    output map C + DF with its instantaneous rows zeroed, and the one-step
    transition followed by its squared powers, one per doubling pass. They
    are built from the gain's kept closed loop (``synthesis._closed_loop``).
    The stability gate runs with them; an unstable gain raises
    :class:`UnstableClosedLoop`, which is never kept, on every call.
    """
    F = np.asarray(fb.F, dtype=float)
    key = (F.shape, F.tobytes(), tuple(fb.assigned_modes.items()), horizon, num_samples)
    return _memo(sys, "transition", key, lambda: _read_only(_compute_transition(sys, F, fb, horizon, num_samples)))


def _compute_transition(sys: LtiSystem, F: np.ndarray, fb: FeedbackResult, horizon, num_samples) -> tuple:
    """The tuple of :func:`_transition`, from the gain's closed loop that the plant keeps.

    The stability gate judges the kept spectrum; the instantaneous rows are
    zeroed in a copy of the kept C + DF.
    """
    closed_loop, spectrum, out_map = _closed_loop(sys, F)
    if not all(sys.domain.is_stable(z) for z in spectrum):
        raise UnstableClosedLoop("closed-loop spectrum is outside the stability region")
    out_map = out_map.copy()
    # Rows certified instantaneous vanish identically in exact arithmetic
    # (verified at synthesis time); suppress the gain-solve roundoff they
    # would otherwise inject into the trace.
    for j, mode in fb.assigned_modes.items():
        if mode == "instantaneous":
            out_map[j, :] = 0.0

    if sys.domain is TimeDomain.CONTINUOUS:
        if horizon is None:
            horizon = 8.0 / abs(_slowest_assigned_rate(fb, sys.domain))
        num_samples = num_samples if num_samples is not None else _DEFAULT_SAMPLES_CONTINUOUS
        if num_samples < 2:
            raise ValueError("at least two samples required")
        times = np.linspace(0.0, float(horizon), num_samples)
        step = _expm(closed_loop * (times[1] - times[0]))
    else:
        num_samples = num_samples if num_samples is not None else _DEFAULT_STEPS_DISCRETE
        if num_samples < 2:
            raise ValueError("at least two samples required")
        times = np.arange(num_samples, dtype=float)
        step = closed_loop

    # One power per doubling pass of simulate's fill: step^1, ^2, ^4, ...
    powers, filled = [step], 2
    while filled < num_samples:
        powers.append(powers[-1] @ powers[-1])
        filled = min(2 * filled, num_samples)
    return (times, out_map, *powers)


def simulate(
    sys: LtiSystem,
    fb: FeedbackResult,
    x0,
    horizon: float | None = None,
    num_samples: int | None = None,
) -> SimulationTrace:
    """Propagate the closed loop from initial state ``x0``.

    Continuous time samples uniformly, with the matrix exponential of one
    sampling step as the transition; discrete time uses the closed-loop map
    itself. Sample k is transition^k applied to the initial error, filled by
    doubling: with samples 0..c-1 known and P = transition^c, samples
    c..2c-1 are P times samples 0..c-1, then P is squared. One correction
    sweep over the same powers then brings the samples to the accuracy of
    the one-step recursion, as shown on the continuous plant sets; on
    ill-conditioned discrete closed loops it does not (the FOUND line on
    discrete accuracy in CHANGES.md). About 2 log2(N) matrix products
    replace N - 1 matrix-vector products. The default horizon covers
    roughly eight time constants of the slowest assigned mode; a given
    horizon must be positive and finite, and ``x0`` finite, or
    :class:`ValueError` is raised. In discrete time a horizon H of at least
    1 means the steps 0 ... floor(H), and a ``num_samples`` other than
    floor(H) + 1 raises :class:`ValueError`.

    The stability gate, C + DF, the sample times and the transition's powers
    run once per gain and sampling, and the plant keeps them for the latest
    one (:func:`_transition`). The fill, the sweep and the tracking error run
    per x0, and every trace gets its own copy of the times.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.n:
        raise ValueError(f"initial state length {x0.shape[0]} != states {sys.n}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"initial state must be finite, got {x0.tolist()}")
    if horizon is not None and not 0.0 < float(horizon) < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if horizon is not None and sys.domain is TimeDomain.DISCRETE:
        if float(horizon) < 1.0:
            raise ValueError(f"a discrete horizon must be at least 1, got {horizon}")
        steps = math.floor(float(horizon)) + 1
        if num_samples not in (None, steps):
            raise ValueError(f"{num_samples} samples disagree with the discrete horizon {horizon}, which gives {steps}")
        horizon, num_samples = None, steps
    times, out_map, *powers = _transition(sys, fb, horizon, num_samples)
    num_samples, step = times.shape[0], powers[0]

    xi = np.empty((sys.n, num_samples))
    xi[:, 0] = x0 - fb.x_ss
    filled = 1
    for power in powers:
        width = min(filled, num_samples - filled)
        xi[:, filled : filled + width] = power @ xi[:, :width]
        filled += width
    # Squaring a transition with transient growth leaves rounding in the
    # powers that the one-step recursion would have damped along each
    # output's left eigenvector. One correction sweep restores it: the
    # one-step defects of the doubled samples obey e[k+1] = step e[k] + d[k],
    # which a prefix scan over the same powers sums in log2(N) products.
    defect = np.zeros_like(xi)
    defect[:, 1:] = xi[:, 1:] - step @ xi[:, :-1]
    span = 1
    for power in powers:
        defect[:, span:] += power @ defect[:, :-span]
        span *= 2
    xi -= defect
    epsilon = out_map @ xi
    reference = sys.C @ fb.x_ss + sys.D @ fb.u_ss
    metadata = {
        "x0": x0.tolist(),
        "reference": reference.tolist(),
        "assigned_modes": {str(j): m for j, m in fb.assigned_modes.items()},
    }
    return SimulationTrace(times=times.copy(), xi=xi, epsilon=epsilon, domain=sys.domain, metadata=metadata)


def check_monotonic(trace: SimulationTrace) -> list[str]:
    """Per-output verdict: "monotone", "not_monotone" or "instantaneous".

    Differences within ``_MONOTONE_TIE_TOL * max|eps_k|`` count as ties so that
    floating-point plateaus near zero do not fail the check; beyond ties the
    successive differences must keep one sign and the magnitude must never
    grow. The verdicts are those of the per-output loop, bit for bit: a
    difference beyond the ties on both sides is found from the row's largest
    and smallest difference, which skip NaN as the elementwise tests do.
    """
    eps = trace.epsilon
    magnitudes = np.abs(eps)
    peak = magnitudes.max(axis=1)
    ties = _MONOTONE_TIE_TOL * peak
    diffs = eps[:, 1:] - eps[:, :-1]
    mixed_signs = (np.fmax.reduce(diffs, axis=1, initial=-np.inf) > ties) & (
        np.fmin.reduce(diffs, axis=1, initial=np.inf) < -ties
    )
    non_increasing = (magnitudes[:, 1:] <= magnitudes[:, :-1] + ties[:, None]).all(axis=1)
    return [
        "instantaneous" if flat else "monotone" if ok else "not_monotone"
        for flat, ok in zip(peak <= ABSOLUTE_FLOOR, ~mixed_signs & non_increasing)
    ]


def check_rate(trace: SimulationTrace, rate: RateSpec) -> list[bool]:
    """Envelope test |eps_k(t)| <= beta_k * exp(rho t) (or rho^t) per output.

    The verdicts are those of the per-output loop, bit for bit.
    """
    rate.validate(trace.domain)
    if trace.domain is TimeDomain.CONTINUOUS:
        envelope = np.exp(rate.rho * trace.times)
    else:
        envelope = rate.rho ** trace.times
    magnitudes = np.abs(trace.epsilon)
    flat = magnitudes.max(axis=1) <= ABSOLUTE_FLOOR
    bound = magnitudes[:, :1] * (1.0 + _MONOTONE_TIE_TOL) * envelope
    bound += ABSOLUTE_FLOOR
    return (flat | (magnitudes <= bound).all(axis=1)).tolist()


def fit_single_mode(trace: SimulationTrace) -> list[ModeFit]:
    """Least-squares single-mode fit of each tracking-error component.

    The fit regresses log |eps_k| on time over the samples above the absolute
    floor, by the closed-form least-squares line. A sign change in the
    component forces the relative residual to one (a single real mode cannot
    change sign); outputs that never rise above the floor are tagged
    instantaneous and skipped. All outputs are fitted in one array pass,
    over a copy of the non-instantaneous rows only when some output is
    instantaneous, and each output's :class:`ModeFit` is built once. Every
    field has the bits of the per-output fit over the selected rows: the
    temporaries are reused in place, but each row sum adds the same values
    in the same order.
    """
    if trace.num_samples < 8:
        raise InsufficientData(f"{trace.num_samples} samples; at least 8 required")
    # C order, as the row selection of the instantaneous case gives: the row
    # sums below then take the same bits with or without one.
    eps = np.ascontiguousarray(trace.epsilon)
    magnitudes = np.abs(eps)
    peak = magnitudes.max(axis=1)
    usable = magnitudes > ABSOLUTE_FLOOR
    count = usable.sum(axis=1)
    instantaneous = (peak <= ABSOLUTE_FLOOR) | (magnitudes[:, 0] <= ABSOLUTE_FLOOR)
    short = ~instantaneous & (count < 2)
    if short.any():
        raise InsufficientData(f"output {int(np.argmax(short))} has fewer than two samples above the floor")

    if instantaneous.any():
        rows = np.flatnonzero(~instantaneous)
        eps, usable, magnitudes, peak, count = eps[rows], usable[rows], magnitudes[rows], peak[rows], count[rows]
    weight = usable.astype(float)
    # log|eps| is exactly 0.0 where the weight is 0, so its sum needs no weighting.
    log_mag = np.where(usable, magnitudes, 1.0)
    np.log(log_mag, out=log_mag)
    t_mean = weight @ trace.times / count
    y_mean = log_mag.sum(axis=1) / count
    t_dev = trace.times - t_mean[:, None]
    t_dev *= weight
    log_mag -= y_mean[:, None]
    log_mag *= t_dev
    t_dev *= t_dev
    slope = log_mag.sum(axis=1) / t_dev.sum(axis=1)
    intercept = y_mean - slope * t_mean

    sign = np.sign(eps[np.arange(eps.shape[0]), np.argmax(usable, axis=1)])
    # Times its row's sign, a usable sample of the other sign is below -floor.
    signed = eps * sign[:, None]
    sign_changes = np.fmin.reduce(signed, axis=1) < -ABSOLUTE_FLOOR
    scale = np.exp(intercept)
    if trace.domain is TimeDomain.CONTINUOUS:
        lam_hat = slope
        model = slope[:, None] * trace.times
        model += intercept[:, None]
        np.exp(model, out=model)
    else:
        lam_hat = np.exp(slope)
        model = lam_hat[:, None] ** trace.times
        model *= scale[:, None]
    gamma_hat = sign * scale
    # The sign is +-1, so (sign eps - model)^2 has the bits of (eps - sign model)^2.
    np.subtract(signed, model, out=model)
    model *= model
    residual = np.sqrt(model.mean(axis=1)) / peak
    residual[sign_changes] = 1.0

    fitted = zip(lam_hat.tolist(), gamma_hat.tolist(), residual.tolist())
    return [
        ModeFit(k, None, None, 0.0, True) if flat else ModeFit(k, *next(fitted), False)
        for k, flat in enumerate(instantaneous.tolist())
    ]


def trace_to_csv(trace: SimulationTrace, path) -> None:
    """Write a trace as wide CSV: one row per sample, columns t, eps_k, xi_k."""
    p, n = trace.epsilon.shape[0], trace.xi.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        header = ["t"] + [f"eps_{k + 1}" for k in range(p)] + [f"xi_{k + 1}" for k in range(n)]
        fh.write(",".join(header) + "\n")
        for idx, t in enumerate(trace.times):
            row = [f"{t:.15g}"]
            row += [f"{trace.epsilon[k, idx]:.15g}" for k in range(p)]
            row += [f"{trace.xi[k, idx]:.15g}" for k in range(n)]
            fh.write(",".join(row) + "\n")
