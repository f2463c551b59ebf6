"""Correctness checks made apart from the program.

Each check recomputes a property the method must deliver from the plant and
the returned gain with plain ``numpy`` / ``scipy``; none compares against a
stored copy of the program's output. A failed check raises ``CheckFailed``,
which stops the benchmark with a nonzero exit: a wrong result is never
counted as a failed operation.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Relative residual allowed for the single-mode (left eigenvector), output
# nulling and steady-state identities. Designs of the workloads reach 1e-12
# or better; a gain perturbed by 1e-6 of its norm already misses it.
IDENTITY_RTOL = 1e-8
# Sample-to-sample changes below this share of a component's peak count as ties.
MONOTONE_TIE_RTOL = 1e-9
SIM_SAMPLES = 120
# Exact rationals of the demo plant's replay gain (the same values the test
# suite holds in tests/conftest.py as DEMO_GAIN).
DEMO_GAIN = np.array(
    [
        [68419 / 8250, 802 / 125, -1121 / 125, -6, -1639 / 250],
        [-5351 / 2475, -16 / 75, 6 / 25, 0, 127 / 25],
        [5537 / 4950, -12 / 225, -36 / 25, 0, -162 / 25],
        [4 / 9, 4 / 3, 0, 0, 0],
    ]
)
DEMO_ZEROS = (-6.0, 2.0, 3.0, 5.0)


class CheckFailed(AssertionError):
    """A program output violates a property the method must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _loop_scale(A, B, F) -> float:
    """Scale of A+BF for relative tolerances: 1 or ||A|| + ||B|| ||F||."""
    return max(1.0, np.linalg.norm(A) + np.linalg.norm(B) * np.linalg.norm(F))


def eigen_residual_bound(scale: float, lam: float, row) -> float:
    """Largest left-eigenvector residual ||c (A+BF) - lambda c|| a design may have."""
    return IDENTITY_RTOL * (scale + abs(lam)) * float(np.linalg.norm(row))


def check_design(A, B, C, D, F, x_ss, u_ss, r, modes: dict) -> None:
    """Check a continuous-time design ``u = F (x - x_ss) + u_ss``.

    ``modes`` maps each output to its requested mode, or to
    ``"instantaneous"`` for an output whose error must vanish at once.
    """
    A, B, C, D, F = (np.asarray(M, dtype=float) for M in (A, B, C, D, F))
    n, p = A.shape[0], C.shape[0]
    closed = A + B @ F
    out = C + D @ F
    spectrum = np.linalg.eigvals(closed)
    require(bool(np.all(spectrum.real < 0.0)), f"A+BF is not stable: max real part {spectrum.real.max():.3e}")
    scale = _loop_scale(A, B, F)
    out_scale = max(1.0, np.linalg.norm(C) + np.linalg.norm(D) * np.linalg.norm(F))
    for j in range(p):
        mode = modes[j]
        row = out[j]
        if mode == "instantaneous":
            require(
                np.linalg.norm(row) <= IDENTITY_RTOL * out_scale,
                f"output {j} is tracked instantaneously but row {j} of C+DF has norm {np.linalg.norm(row):.3e}",
            )
            continue
        lam = float(mode)
        residual = np.linalg.norm(row @ closed - lam * row)
        require(np.linalg.norm(row) > IDENTITY_RTOL * out_scale, f"row {j} of C+DF vanishes but mode {lam} was assigned")
        require(
            residual <= eigen_residual_bound(scale, lam, row),
            f"row {j} of C+DF is no left eigenvector of A+BF at {lam}: residual {residual:.3e}",
        )
    x_ss, u_ss, r = (np.asarray(v, dtype=float).reshape(-1) for v in (x_ss, u_ss, r))
    stacked = np.block([[A, B], [C, D]])
    lhs = stacked @ np.concatenate([x_ss, u_ss])
    rhs = np.concatenate([np.zeros(n), r])
    bound = IDENTITY_RTOL * max(1.0, np.linalg.norm(stacked) * np.linalg.norm(np.concatenate([x_ss, u_ss])) + np.linalg.norm(r))
    require(np.linalg.norm(lhs - rhs) <= bound, f"steady state misses [A B; C D][x; u] = [0; r] by {np.linalg.norm(lhs - rhs):.3e}")


def closed_loop_states(A, B, F, x_ss, x0, horizon: float, samples: int = SIM_SAMPLES) -> np.ndarray:
    """Error states xi_k = expm((A+BF) t_k) (x0 - x_ss) on a uniform grid, one column per sample."""
    A, B, F = (np.asarray(M, dtype=float) for M in (A, B, F))
    step = scipy.linalg.expm((A + B @ F) * (horizon / (samples - 1)))
    states = np.empty((A.shape[0], samples))
    states[:, 0] = np.asarray(x0, dtype=float) - np.asarray(x_ss, dtype=float)
    for k in range(1, samples):
        states[:, k] = step @ states[:, k - 1]
    return states


def check_monotone(errors: np.ndarray, noise=0.0) -> None:
    """Every error component keeps one sign and never grows in magnitude.

    Changes below ``MONOTONE_TIE_RTOL`` of a component's peak, or below its
    ``noise`` level (absolute, one value or one per component), count as ties.
    """
    errors = np.atleast_2d(errors)
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (errors.shape[0],))
    for j, e in enumerate(errors):
        peak = float(np.max(np.abs(e)))
        ties = MONOTONE_TIE_RTOL * peak + noise[j]
        if peak <= ties:
            continue
        signs = np.sign(e[np.abs(e) > ties])
        require(signs.size == 0 or bool(np.all(signs == signs[0])), f"error component {j} changes sign")
        mags = np.abs(e)
        require(bool(np.all(mags[1:] <= mags[:-1] + ties)), f"error component {j} grows in magnitude")


def check_simulation(A, B, C, D, F, x_ss, x0s, modes: dict) -> None:
    """Simulate from each initial state with the benchmark's own expm and check monotonicity.

    Outputs tracked instantaneously are left out: ``check_design`` has shown
    their rows of C+DF vanish, so their simulated error is roundoff only.
    For an assigned output, d/dt e_j = lambda_j e_j + r_j xi with r_j the
    left-eigenvector residual of row j, so e_j differs from a single
    exponential by at most 2 |r_j| max|xi| / |lambda_j|. The noise level
    puts the largest residual ``check_design`` allows in place of |r_j|; it
    does not depend on how close the gain under test comes, so a gain whose
    residual exceeds that bound can fail here.
    """
    A, B, C, D, F = (np.asarray(M, dtype=float) for M in (A, B, C, D, F))
    assigned = [j for j, m in sorted(modes.items()) if m != "instantaneous"]
    if not assigned:
        return
    out = C + D @ F
    lams = np.array([float(modes[j]) for j in assigned])
    scale = _loop_scale(A, B, F)
    bounds = np.array([eigen_residual_bound(scale, lam, out[j]) for j, lam in zip(assigned, lams)])
    horizon = 8.0 / float(np.min(np.abs(lams)))
    for x0 in x0s:
        states = closed_loop_states(A, B, F, x_ss, x0, horizon)
        noise = 2.0 * bounds * float(np.max(np.linalg.norm(states, axis=0))) / np.abs(lams)
        check_monotone(out[assigned] @ states, noise)


def pencil_rank_drop(A, B, C, D, z: complex, rtol: float = 1e-8) -> bool:
    """True when the system pencil at ``z`` has rank below its row count.

    The demo pencil is (n+p) x (n+m) with full row rank away from its zeros,
    so a zero shows as a singular value under ``rtol`` of the largest.
    """
    A, B, C, D = (np.asarray(M, dtype=float) for M in (A, B, C, D))
    n = A.shape[0]
    pencil = np.block([[A - z * np.eye(n), B], [C, D]]).astype(complex)
    s = np.linalg.svd(pencil, compute_uv=False)
    return bool(s[min(pencil.shape) - 1] <= rtol * s[0])


def check_demo_zeros(A, B, C, D, zeros: list[complex]) -> None:
    """Exactly four real reported zeros, near -6, 2, 3 and 5, each dropping the pencil rank."""
    require(len(zeros) == 4, f"expected 4 zeros, got {len(zeros)}")
    for z in zeros:
        require(abs(z.imag) <= 1e-9, f"zero {z} is not real")
        require(pencil_rank_drop(A, B, C, D, z), f"reported zero {z} does not drop the pencil rank")
    got = sorted(z.real for z in zeros)
    require(max(abs(g - e) for g, e in zip(got, DEMO_ZEROS)) <= 1e-6, f"zeros {got} are not near {DEMO_ZEROS}")


def check_replay_gain(F) -> None:
    gap = float(np.max(np.abs(np.asarray(F, dtype=float) - DEMO_GAIN)))
    require(gap <= 1e-9, f"replay gain differs from the exact rationals by {gap:.3e}")
