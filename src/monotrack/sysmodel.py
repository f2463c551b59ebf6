"""Plant representation, pencil evaluation and invariant-zero analysis.

The central object is the quadruple (A, B, C, D) together with its time
domain. Invariant zeros are the frequencies where the system pencil

    [[A - lambda*I, B],
     [C,            D]]

loses rank relative to its normal rank. They are computed by compressing the
rectangular pencil to a square one of the normal-rank size, shifting it to
an imaginary frequency where it is invertible and solving the resulting
standard eigenproblem; every candidate is then confirmed with an explicit
rank test.

Stabilizability is read off the orthogonal controllability staircase of
:func:`monotrack.numkernel.controllable_staircase`: about n / rank B shrinking
real SVDs split the state space into the controllable subspace and its
orthogonal complement Z, and the uncontrollable modes are the eigenvalues of
Z^T A Z. Where the staircase cannot be sure of a rank decision (long
single-input chains), each unstable eigenvalue of A is tested on the pencil
[A - lam I, B] instead. Only NumPy's LAPACK routines are used.
"""

from __future__ import annotations

import enum
import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .errors import IllConditionedPencil
from .numkernel import DEFAULT_POLICY, ZERO_EXCLUSION, TolerancePolicy, controllable_staircase, rank_of
from .seeding import DEFAULT_SEED, rng_for

_NORMAL_RANK_SAMPLES = 7
_CLUSTER_RTOL = 1e-6
_GRAY_ZONE = 10.0
_POLISH_STEPS = 2


class TimeDomain(enum.Enum):
    """Continuous (derivative operator) or discrete (unit shift) dynamics."""

    CONTINUOUS = "continuous"
    DISCRETE = "discrete"

    def is_stable(self, value: complex) -> bool:
        """Membership in the open stability region (left half-plane / unit disc)."""
        if self is TimeDomain.CONTINUOUS:
            return value.real < 0.0
        return abs(value) < 1.0

    def is_interior_stable(self, value: complex) -> bool:
        """Strict membership with a ``ZERO_EXCLUSION`` safety belt; boundary points count as unstable."""
        if self is TimeDomain.CONTINUOUS:
            return value.real < -ZERO_EXCLUSION * (1.0 + abs(value))
        return abs(value) < 1.0 - ZERO_EXCLUSION

    @property
    def tracking_frequency(self) -> float:
        """Frequency at which steady-state tracking of a step is evaluated."""
        return 0.0 if self is TimeDomain.CONTINUOUS else 1.0


@dataclass(frozen=True)
class LtiSystem:
    """State-space plant with n states, m inputs and p outputs.

    The constructor enforces the standing structural conventions: the stacked
    input matrix [B; D] has full column rank and the concatenated output
    matrix [C D] has full row rank. Use :meth:`relaxed` to bypass these checks
    when deliberately building degenerate test systems.

    The plant holds read-only copies of its matrices and keeps the facts
    that depend on it alone in its private memo ``_facts`` (see :func:`_memo`).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    domain: TimeDomain = TimeDomain.CONTINUOUS
    _check_ranks: InitVar[bool] = True
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, _check_ranks: bool):
        A, B, C, D = (np.array(M, dtype=float, ndmin=2) for M in (self.A, self.B, self.C, self.D))
        for name, M in zip("ABCD", (A, B, C, D)):
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        n, m, p = A.shape[0], B.shape[1], C.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape != (n, m) or C.shape != (p, n) or D.shape != (p, m):
            raise ValueError("inconsistent state-space dimensions")
        if not all(np.all(np.isfinite(M)) for M in (A, B, C, D)):
            raise ValueError("matrices must be finite")
        if not _check_ranks:
            return
        if rank_of(np.vstack([B, D])) != m:
            raise ValueError("[B; D] must have full column rank")
        if rank_of(np.hstack([C, D])) != p:
            raise ValueError("[C D] must have full row rank")

    @classmethod
    def relaxed(cls, A, B, C, D, domain: TimeDomain = TimeDomain.CONTINUOUS) -> "LtiSystem":
        """Build without the column/row rank checks (degenerate fixtures only)."""
        return cls(A, B, C, D, domain, False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "time_domain": self.domain.value,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LtiSystem":
        domain = TimeDomain(payload["time_domain"])
        return cls(payload["A"], payload["B"], payload["C"], payload["D"], domain)

    @classmethod
    def load(cls, path) -> "LtiSystem":
        with open(Path(path), "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path) -> None:
        with open(Path(path), "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _memo(sys: LtiSystem, key: tuple, compute, slot: str | None = None):
    """``compute()``, kept on the plant under ``key``, or under ``slot`` for the latest key alone.

    An exception is not kept: the next call computes again and raises afresh.
    """
    held = sys._facts.get(slot or key)
    if held is None or held[0] != key:
        held = sys._facts[slot or key] = (key, compute())
    return held[1]


def _held(sys: LtiSystem, key: tuple):
    """The fact :func:`_memo` keeps on the plant under ``key`` (not a slot), or None."""
    held = sys._facts.get(key)
    return None if held is None else held[1]


def _read_only(arrays: tuple) -> tuple:
    """``arrays``, each made read-only in place, so a fact kept by :func:`_memo` cannot be written through."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class InvariantZero:
    value: complex
    geometric_multiplicity: int
    is_minimum_phase: bool


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the standing-assumption audit, with the plant facts it computed.

    ``normal_rank`` is the generic rank of the system pencil; ``zeros`` holds
    the invariant zeros confirmed at that rank, or None when their
    computation raised :class:`IllConditionedPencil` (the reason is then in
    ``details["distinct_min_phase_zeros"]``). Every field depends on the
    plant and the tolerance policy only, never on a caller's seed, and the
    ``details`` texts print plain Python numbers.
    """

    right_invertible: bool
    stabilizable: bool
    no_zero_at_tracking_frequency: bool
    distinct_min_phase_zeros: bool
    details: dict
    normal_rank: int
    zeros: list[InvariantZero] | None

    @property
    def all_pass(self) -> bool:
        return (
            self.right_invertible
            and self.stabilizable
            and self.no_zero_at_tracking_frequency
            and self.distinct_min_phase_zeros
        )


def rosenbrock(sys: LtiSystem, lam: complex) -> np.ndarray:
    """System pencil [[A - lam*I, B], [C, D]] of shape (n+p) x (n+m).

    The A block is formed as ``A - lam * I`` rather than by subtracting lam
    on the diagonal alone: off the diagonal that subtracts ``lam * 0``, which
    turns a -0.0 entry of A into +0.0 when lam is negative, and generated
    plants carry such entries.
    """
    n = sys.n
    pencil = np.empty((n + sys.p, n + sys.m), dtype=np.result_type(sys.A, lam))
    np.subtract(sys.A, lam * np.eye(n), out=pencil[:n, :n])
    pencil[:n, n:] = sys.B
    pencil[n:, :n] = sys.C
    pencil[n:, n:] = sys.D
    return pencil


def normal_rank(sys: LtiSystem, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Generic rank of the pencil, sampled at complex frequencies from a fixed stream.

    Samples are drawn away from the real axis, where all finite zeros of a
    real pencil would have to lie in conjugate pairs; the maximum over seven
    samples equals the true normal rank with probability one. Sampling stops
    early once a sample reaches min(n+p, n+m), which no rank can exceed. The
    samples come from the ``DEFAULT_SEED`` stream, so the rank is a function
    of the plant alone.
    """
    rng = rng_for(DEFAULT_SEED, "normal-rank")
    full = sys.n + min(sys.m, sys.p)
    best = 0
    for _ in range(_NORMAL_RANK_SAMPLES):
        lam = complex(rng.normal(scale=2.0), (0.5 + abs(rng.normal(scale=2.0))) * rng.choice([-1.0, 1.0]))
        best = max(best, rank_of(rosenbrock(sys, lam), tol))
        if best == full:
            break
    return best


def _compression_candidates(sys: LtiSystem, index: int, nr: int, sigma: complex) -> np.ndarray:
    """Finite zeros of the random nr x nr compression L P(lambda) R number ``index`` of the ``DEFAULT_SEED`` stream.

    With E the identity on the state block, the compressed pencil is
    M - (lambda - sigma) L1 R1 for M = L P(sigma) R, L1 = L[:, :n] and
    R1 = R[:n]. The shift sigma (see :func:`_confirmed_zeros`) is imaginary
    and of the pencil's scale, so M is invertible almost surely, and by
    Sylvester's determinant identity the finite eigenvalues are sigma + 1/mu
    over the nonzero eigenvalues mu of the n x n matrix R1 M^-1 L1.
    """
    n = sys.n
    rng = rng_for(DEFAULT_SEED, "zero-compression", index)
    L = rng.standard_normal((nr, n + sys.p))
    R = rng.standard_normal((n + sys.m, nr))
    M = L @ rosenbrock(sys, sigma) @ R
    mu = np.linalg.eigvals(R[:n] @ np.linalg.solve(M, L[:, :n]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = sigma + 1.0 / mu
    finite = ev[np.isfinite(ev)]
    return finite[np.abs(finite) < 1.0 / np.sqrt(np.finfo(float).eps)]


def _polish_candidate(sys: LtiSystem, z: complex, tol: TolerancePolicy):
    """Newton refinement of a candidate zero via the smallest singular pair.

    With u, v the left/right singular vectors of the smallest singular value
    of P(z), the correction solves u* P(z + dz) v = 0 to first order, where
    dP/dz is minus the identity on the state block. Refinement stops once
    that singular value is at the rank threshold: the pencil is singular to
    working precision there, and its singular vectors are noise. A candidate
    that is not actually a zero moves far away and is left untouched.

    The singular values alone decide whether a step is needed, from the real
    pencil at a real value. A step takes the full SVD at the value it starts
    from, and that of the value it reaches also decides whether to go on, so
    a candidate that needs k steps costs k + 2 SVDs with its confirmation.
    Returns the value and the singular values of P at it, so the caller can
    confirm the candidate without factoring the same pencil again.
    """
    P = _pencil_at(sys, z)
    s = start = np.linalg.svd(P, compute_uv=False)
    refined, u = z, None
    k = min(P.shape) - 1
    for _ in range(_POLISH_STEPS):
        if s[k] <= tol.rank_threshold(P.shape, float(s[0])):
            break
        if u is None:
            # At z only the singular values were taken.
            u, _, vh = np.linalg.svd(P)
        u_min, v_min = u[:, k], vh[k, :].conj()
        slope = -(u_min.conj() @ np.concatenate([v_min[: sys.n], np.zeros(P.shape[0] - sys.n)]))
        if abs(slope) < 1e-3:
            break
        refined = refined - (u_min.conj() @ (P @ v_min)) / slope
        P = _pencil_at(sys, refined)
        u, s, vh = np.linalg.svd(P)
    if abs(refined - z) > _CLUSTER_RTOL * (1.0 + abs(z)):
        return complex(z), start
    # A Python complex, so that the phase flag derived from it is a Python
    # bool: json cannot write NumPy's bool.
    return complex(refined), s


def _pencil_at(sys: LtiSystem, z: complex) -> np.ndarray:
    """P(z), real at a real value."""
    return rosenbrock(sys, z.real if z.imag == 0.0 else z)


def _cluster(values: np.ndarray) -> list[complex]:
    """Merge values within the relative clustering radius; snap near-real to real."""
    reps: list[complex] = []
    for z in sorted(values, key=lambda v: (v.real, v.imag)):
        tol = _CLUSTER_RTOL * (1.0 + abs(z))
        for i, r in enumerate(reps):
            if abs(z - r) <= tol:
                reps[i] = (r + z) / 2.0
                break
        else:
            reps.append(complex(z))
    return [complex(r.real, 0.0) if abs(r.imag) <= _CLUSTER_RTOL * (1.0 + abs(r)) else r for r in reps]


def invariant_zeros(sys: LtiSystem, tol: TolerancePolicy = DEFAULT_POLICY) -> list[InvariantZero]:
    """All finite invariant zeros with geometric multiplicities.

    Two independent random compressions of the pencil to its normal rank
    are solved; a true zero appears in both spectra, while the
    spurious eigenvalues introduced by each compression differ almost surely.
    The intersection of the two candidate sets is then confirmed value by
    value through a rank test on the original rectangular pencil. The
    compressions come from the ``DEFAULT_SEED`` streams, so the zeros are a
    function of the plant alone and equal those of :func:`audit_assumptions`
    bit for bit. Both keep them on the plant under ``("zeros", tol)``, and
    whichever runs first computes them; the list returned is the caller's own.

    Raises
    ------
    IllConditionedPencil
        If a candidate sits in the gray zone where the rank test can neither
        confirm nor reject it.
    """
    return list(_memo(sys, ("zeros", tol), lambda: _confirmed_zeros(sys, normal_rank(sys, tol), tol)))


def _confirmed_zeros(sys: LtiSystem, nr: int, tol: TolerancePolicy) -> list[InvariantZero]:
    """The zeros of :func:`invariant_zeros`, confirmed against the given normal rank ``nr``.

    Both compressions share one shift sigma = i (1 + ||P(0)||_1).
    """
    sigma = 1j * (1.0 + np.linalg.norm(rosenbrock(sys, 0.0), 1))
    first = _compression_candidates(sys, 0, nr, sigma)
    second = _compression_candidates(sys, 1, nr, sigma)
    matched = [
        z for z in first if second.size and np.min(np.abs(second - z)) <= _CLUSTER_RTOL * (1.0 + abs(z))
    ]
    zeros: list[InvariantZero] = []
    for z in _cluster(np.asarray(matched)):
        z, s = _polish_candidate(sys, z, tol)
        if z.imag != 0.0 and abs(z.imag) <= _CLUSTER_RTOL * (1.0 + abs(z)):
            z, s = complex(z.real, 0.0), None
        P = _pencil_at(sys, z)
        if s is None:
            s = np.linalg.svd(P, compute_uv=False)
        threshold = tol.rank_threshold(P.shape, float(s[0]))
        rank = int(np.sum(s > threshold))
        if rank < nr:
            zeros.append(
                InvariantZero(
                    value=z,
                    geometric_multiplicity=nr - rank,
                    is_minimum_phase=sys.domain.is_interior_stable(z),
                )
            )
        elif s[nr - 1] < _GRAY_ZONE * threshold:
            raise IllConditionedPencil(
                f"candidate {z} has marginal singular value {s[nr - 1]:.3e} near threshold {threshold:.3e}"
            )
    # A real pencil has conjugate-symmetric zeros; restore partners lost to
    # numerics. A partner is found by distance, not by rounding both values to
    # a grid, so one straddling a grid line is not restored a second time.
    for z in list(zeros):
        partner = z.value.conjugate()
        if z.value.imag != 0.0 and not any(
            abs(w.value - partner) <= _CLUSTER_RTOL * (1.0 + abs(partner)) for w in zeros
        ):
            zeros.append(InvariantZero(partner, z.geometric_multiplicity, z.is_minimum_phase))
    return sorted(zeros, key=lambda z: (z.value.real, z.value.imag))


def _min_phase_violation(zeros: list[InvariantZero]) -> str | None:
    """Why the minimum-phase zeros are not simple and pairwise distinct, or None when they are."""
    minimum = [z for z in zeros if z.is_minimum_phase]
    for z in minimum:
        if z.geometric_multiplicity != 1:
            return f"minimum-phase zero {z.value} has multiplicity {z.geometric_multiplicity}"
    for i, zi in enumerate(minimum):
        for zj in minimum[i + 1 :]:
            if abs(zi.value - zj.value) <= ZERO_EXCLUSION * (1.0 + abs(zi.value)):
                return f"coincident minimum-phase zeros near {zi.value}"
    return None


def audit_assumptions(sys: LtiSystem, tol: TolerancePolicy = DEFAULT_POLICY) -> AssumptionReport:
    """Check the four standing assumptions required by the tracking setup.

    The normal rank and the invariant zeros are computed here once and
    carried on the report for the caller to reuse. Like every answer about
    the plant they take no seed: the random samples and compressions come
    from the ``DEFAULT_SEED`` streams, so the report is a function of the
    plant alone. The rank test at the tracking frequency comes first: no
    rank exceeds n + min(m, p), so when it reaches that value it is the
    normal rank, and :func:`normal_rank` is not sampled.

    Stabilizability comes from the controllability staircase: its steps
    make about n / rank B real SVDs, and the uncontrollable modes are the
    eigenvalues of Z^T A Z over the orthonormal complement Z of the
    controllable subspace, computed only when Z is not empty. The plant is
    stabilizable when none of them is unstable; ``details["stabilizable"]``
    lists the unstable ones, both members of a pair. The staircase gives up
    at the first step whose kept singular value a perturbation at the rank
    threshold, compounded along the staircase, could account for: it then
    cannot rule out a nearly uncontrollable mode among the directions it
    keeps, which happens on long single-input chains. Then each unstable
    eigenvalue of A is tested on the pencil [A - lam I, B] instead.

    The report is kept on the plant under ``("audit", tol)`` and returned
    as is by later calls (treat it as read-only); its zeros serve :func:`invariant_zeros`.
    """
    return _memo(sys, ("audit", tol), lambda: _audit(sys, tol))


def _audit(sys: LtiSystem, tol: TolerancePolicy) -> AssumptionReport:
    """The report of :func:`audit_assumptions`, computed."""
    details: dict[str, str] = {}
    freq = sys.domain.tracking_frequency
    at_freq = rank_of(rosenbrock(sys, freq), tol)
    nr = at_freq if at_freq == sys.n + min(sys.m, sys.p) else normal_rank(sys, tol)
    right_invertible = nr == sys.n + sys.p
    details["right_invertible"] = f"normal rank {nr} (full row rank is {sys.n + sys.p})"

    split = controllable_staircase(sys.A, sys.B, tol)
    if split is not None:
        Z = split[1]
        uncontrollable = np.linalg.eigvals(Z.T @ sys.A @ Z).tolist() if Z.shape[1] else []
        bad_modes = [lam for lam in uncontrollable if not sys.domain.is_stable(lam)]
    else:
        # The staircase cannot tell a nearly uncontrollable mode from a
        # controllable one: test each unstable mode of A on the pencil
        # [A - lam I, B]. [A - conj(lam) I, B] is its conjugate and has the
        # same rank: one test per conjugate pair, made at its upper member.
        bad_modes = []
        for lam in np.linalg.eigvals(sys.A).tolist():
            if lam.imag < 0.0 or sys.domain.is_stable(lam):
                continue
            if rank_of(np.hstack([sys.A - lam * np.eye(sys.n), sys.B.astype(complex)]), tol) < sys.n:
                bad_modes.extend([lam, lam.conjugate()] if lam.imag > 0.0 else [lam])
    stabilizable = not bad_modes
    details["stabilizable"] = (
        "all unstable modes controllable" if stabilizable else f"uncontrollable unstable modes {bad_modes}"
    )

    no_zero_at_freq = at_freq == sys.n + sys.p
    details["no_zero_at_tracking_frequency"] = f"pencil rank {at_freq} at frequency {freq}"

    try:
        zeros = _memo(sys, ("zeros", tol), lambda: _confirmed_zeros(sys, nr, tol))
    except IllConditionedPencil as exc:
        zeros = None
        distinct = False
        details["distinct_min_phase_zeros"] = f"zero computation ill-conditioned: {exc}"
    else:
        reason = _min_phase_violation(zeros)
        distinct = reason is None
        minimum = [z.value for z in zeros if z.is_minimum_phase]
        details["distinct_min_phase_zeros"] = reason or f"minimum-phase zeros {minimum}"

    return AssumptionReport(
        right_invertible=right_invertible,
        stabilizable=stabilizable,
        no_zero_at_tracking_frequency=no_zero_at_freq,
        distinct_min_phase_zeros=distinct,
        details=details,
        normal_rank=nr,
        zeros=zeros,
    )


def exclusion_violation(value: float, zeros: list[InvariantZero]) -> bool:
    """True when ``value`` lies inside the exclusion radius of some invariant zero."""
    return any(abs(value - z.value) <= ZERO_EXCLUSION * (1.0 + abs(z.value)) for z in zeros)
