"""Closed-loop simulation and verification of the monotonicity claims.

The closed loop in error coordinates is autonomous, so continuous-time
trajectories are propagated with the exact one-step transition matrix (a
single scaling-and-squaring matrix exponential) rather than an adaptive
integrator; integrator ripple would otherwise produce false monotonicity
verdicts. Verification covers three properties per output: monotone decay,
an exponential rate envelope, and single-mode structure of the tracking
error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import InsufficientData, UnstableClosedLoop
from .numkernel import DEFAULT_POLICY, TolerancePolicy
from .synthesis import FeedbackResult
from .sysmodel import LtiSystem, TimeDomain

_DEFAULT_SAMPLES_CONTINUOUS = 400
_DEFAULT_STEPS_DISCRETE = 200
_MONOTONE_TIE_TOL = 1e-9


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


def simulate(
    sys: LtiSystem,
    fb: FeedbackResult,
    x0,
    horizon: float | None = None,
    num_samples: int | None = None,
    tol: TolerancePolicy = DEFAULT_POLICY,
) -> SimulationTrace:
    """Propagate the closed loop from initial state ``x0``.

    Continuous time uses uniform sampling with the matrix exponential of one
    step; discrete time iterates the closed-loop map directly. The default
    horizon covers roughly eight time constants of the slowest assigned mode.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.n:
        raise ValueError(f"initial state length {x0.shape[0]} != states {sys.n}")
    closed_loop = sys.A + sys.B @ fb.F
    if not all(sys.domain.is_stable(z) for z in np.linalg.eigvals(closed_loop)):
        raise UnstableClosedLoop("closed-loop spectrum is outside the stability region")
    out_map = sys.C + sys.D @ fb.F
    # Rows certified instantaneous vanish identically in exact arithmetic
    # (verified at synthesis time); suppress the gain-solve roundoff they
    # would otherwise inject into the trace.
    for j, mode in fb.assigned_modes.items():
        if mode == "instantaneous":
            out_map[j, :] = 0.0
    xi0 = x0 - fb.x_ss

    if sys.domain is TimeDomain.CONTINUOUS:
        if horizon is None:
            horizon = 8.0 / abs(_slowest_assigned_rate(fb, sys.domain))
        num_samples = num_samples if num_samples is not None else _DEFAULT_SAMPLES_CONTINUOUS
        if num_samples < 2:
            raise ValueError("at least two samples required")
        times = np.linspace(0.0, float(horizon), num_samples)
        step = scipy.linalg.expm(closed_loop * (times[1] - times[0]))
    else:
        num_samples = num_samples if num_samples is not None else _DEFAULT_STEPS_DISCRETE
        if num_samples < 2:
            raise ValueError("at least two samples required")
        times = np.arange(num_samples, dtype=float)
        step = closed_loop

    xi = np.empty((sys.n, num_samples))
    xi[:, 0] = xi0
    for k in range(1, num_samples):
        xi[:, k] = step @ xi[:, k - 1]
    epsilon = out_map @ xi
    reference = sys.C @ fb.x_ss + sys.D @ fb.u_ss
    metadata = {
        "x0": x0.tolist(),
        "reference": reference.tolist(),
        "assigned_modes": {str(j): m for j, m in fb.assigned_modes.items()},
    }
    return SimulationTrace(times=times, xi=xi, epsilon=epsilon, domain=sys.domain, metadata=metadata)


def check_monotonic(trace: SimulationTrace, tie_tol: float = _MONOTONE_TIE_TOL, tol: TolerancePolicy = DEFAULT_POLICY) -> list[str]:
    """Per-output verdict: "monotone", "not_monotone" or "instantaneous".

    Differences within ``tie_tol * max|eps_k|`` count as ties so that
    floating-point plateaus near zero do not fail the check; beyond ties the
    successive differences must keep one sign and the magnitude must never
    grow.
    """
    verdicts = []
    for k in range(trace.num_outputs):
        eps = trace.epsilon[k]
        peak = float(np.max(np.abs(eps)))
        if peak <= tol.absolute_floor:
            verdicts.append("instantaneous")
            continue
        ties = tie_tol * peak
        diffs = np.diff(eps)
        signs = np.sign(diffs[np.abs(diffs) > ties])
        same_sign = signs.size == 0 or np.all(signs == signs[0])
        magnitudes = np.abs(eps)
        non_increasing = bool(np.all(magnitudes[1:] <= magnitudes[:-1] + ties))
        verdicts.append("monotone" if same_sign and non_increasing else "not_monotone")
    return verdicts


def check_rate(
    trace: SimulationTrace,
    rate: RateSpec,
    tie_tol: float = _MONOTONE_TIE_TOL,
    tol: TolerancePolicy = DEFAULT_POLICY,
) -> list[bool]:
    """Envelope test |eps_k(t)| <= beta_k * exp(rho t) (or rho^t) per output."""
    rate.validate(trace.domain)
    if trace.domain is TimeDomain.CONTINUOUS:
        envelope = np.exp(rate.rho * trace.times)
    else:
        envelope = rate.rho ** trace.times
    verdicts = []
    for k in range(trace.num_outputs):
        eps = np.abs(trace.epsilon[k])
        if np.max(eps) <= tol.absolute_floor:
            verdicts.append(True)
            continue
        beta = eps[0] * (1.0 + tie_tol)
        verdicts.append(bool(np.all(eps <= beta * envelope + tol.absolute_floor)))
    return verdicts


def fit_single_mode(trace: SimulationTrace, tol: TolerancePolicy = DEFAULT_POLICY) -> list[ModeFit]:
    """Least-squares single-mode fit of each tracking-error component.

    The fit regresses log |eps_k| on time over the samples above the absolute
    floor. A sign change in the component forces the relative residual to one
    (a single real mode cannot change sign); outputs that never rise above
    the floor are tagged instantaneous and skipped.
    """
    if trace.num_samples < 8:
        raise InsufficientData(f"{trace.num_samples} samples; at least 8 required")
    fits = []
    for k in range(trace.num_outputs):
        eps = trace.epsilon[k]
        peak = float(np.max(np.abs(eps)))
        if peak <= tol.absolute_floor or abs(eps[0]) <= tol.absolute_floor:
            fits.append(ModeFit(k, None, None, 0.0, True))
            continue
        usable = np.abs(eps) > tol.absolute_floor
        if np.sum(usable) < 2:
            raise InsufficientData(f"output {k} has fewer than two samples above the floor")
        t_use, e_use = trace.times[usable], eps[usable]
        sign_changes = np.any(np.sign(e_use[1:]) != np.sign(e_use[0]))
        slope, intercept = np.polyfit(t_use, np.log(np.abs(e_use)), 1)
        if trace.domain is TimeDomain.CONTINUOUS:
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
        fits.append(ModeFit(k, lam_hat, gamma_hat, residual, False))
    return fits


def trace_to_csv(trace: SimulationTrace, path, long_format: bool = False) -> None:
    """Write a trace as CSV; wide format by default, (t, series, value) when long."""
    path = Path(path)
    p, n = trace.epsilon.shape[0], trace.xi.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        if long_format:
            fh.write("t,series,value\n")
            for idx, t in enumerate(trace.times):
                for k in range(p):
                    fh.write(f"{t:.15g},eps_{k + 1},{trace.epsilon[k, idx]:.15g}\n")
                for k in range(n):
                    fh.write(f"{t:.15g},xi_{k + 1},{trace.xi[k, idx]:.15g}\n")
        else:
            header = ["t"] + [f"eps_{k + 1}" for k in range(p)] + [f"xi_{k + 1}" for k in range(n)]
            fh.write(",".join(header) + "\n")
            for idx, t in enumerate(trace.times):
                row = [f"{t:.15g}"]
                row += [f"{trace.epsilon[k, idx]:.15g}" for k in range(p)]
                row += [f"{trace.xi[k, idx]:.15g}" for k in range(n)]
                fh.write(",".join(row) + "\n")


def trace_to_json(trace: SimulationTrace) -> str:
    payload = {
        "times": trace.times.tolist(),
        "epsilon": trace.epsilon.tolist(),
        "xi": trace.xi.tolist(),
        "domain": trace.domain.value,
        "metadata": trace.metadata,
    }
    return json.dumps(payload, sort_keys=True)
