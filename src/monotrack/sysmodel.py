"""Plant representation, pencil evaluation and invariant-zero analysis.

The central object is the quadruple (A, B, C, D) together with its time
domain. Invariant zeros are the frequencies where the system pencil

    [[A - lambda*I, B],
     [C,            D]]

loses rank relative to its normal rank. One orthogonal reduction of the
plant (Emami-Naeini & Van Dooren 1982) gives the normal rank and the plant on
V*, the largest subspace a feedback can hold at zero output. The zeros are
the modes there that no such feedback moves (Morse 1973); each candidate is
confirmed with an explicit rank test of the pencil.

Stabilizability is the same question asked of the pair (A, B): its
uncontrollable modes are its fixed modes too, and one routine finds the
candidates of both pairs in one stacked eigenvalue problem per shape (the
eigenvalues that recur when the input's Gram matrix shifts the state
matrix) and one confirms them by a rank test. Only NumPy's LAPACK routines
are used.
"""

from __future__ import annotations

import enum
import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .errors import IllConditionedPencil
from .numkernel import (
    DEFAULT_POLICY,
    ZERO_EXCLUSION,
    TolerancePolicy,
    _per_dtype,
    _rank,
    full_svd,
    rank_of,
    ranks_of,
)

_CLUSTER_RTOL = 1e-6
_GRAY_ZONE = 10.0


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


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """State-space plant with n states, m inputs and p outputs.

    The constructor enforces the standing structural conventions: the stacked
    input matrix [B; D] has full column rank and the concatenated output
    matrix [C D] has full row rank. Use :meth:`relaxed` to bypass these checks
    when deliberately building degenerate test systems.

    The plant holds read-only copies of its matrices and keeps the facts that
    depend on it alone in its private memo ``_facts``, one per kind (see :func:`_memo`).
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
        rank_bd, rank_cd = ranks_of([np.vstack([B, D]), np.hstack([C, D]).T])  # both tall, so little padding
        if rank_bd != m:
            raise ValueError("[B; D] must have full column rank")
        if rank_cd != p:
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
        """The plant of a :meth:`to_json_dict` payload; ValueError if it is not an object or a matrix is not numeric."""
        if not isinstance(payload, dict):
            raise ValueError(f"a system must be an object, got {payload!r}")
        try:
            matrices = [np.array(payload[key], dtype=float) for key in "ABCD"]
        except TypeError as exc:
            raise ValueError(f"system matrices must be numeric: {exc}") from None
        return cls(*matrices, TimeDomain(payload["time_domain"]))

    @classmethod
    def load(cls, path) -> "LtiSystem":
        """The plant of the system file at ``path``, read by :meth:`from_json_dict`."""
        with open(Path(path), "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path) -> None:
        with open(Path(path), "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _memo(sys: LtiSystem, kind: str, key, compute=None):
    """``compute()``, kept on the plant as its fact of ``kind`` for the latest ``key`` alone: one fact per kind.

    An exception is not kept: the next call computes again and raises afresh. With no ``compute``, a read: the
    fact held for ``key``, or None.
    """
    held = sys._facts.get(kind)
    if held is None or held[0] != key:
        if compute is None:
            return None
        held = sys._facts[kind] = (key, compute())
    return held[1]


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
    confirmation raised :class:`IllConditionedPencil` (the reason is then in
    ``details["distinct_min_phase_zeros"]``). Every field depends on the
    plant and the tolerance policy only, and the ``details`` texts print
    plain Python numbers.
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
    """Generic rank of the pencil: n + p less the output rows :func:`_reduction` finds dependent, from the ``structure``."""
    return _structure(sys, tol).report.normal_rank


def _reduction(sys: LtiSystem, tol: TolerancePolicy) -> tuple:
    """``(T, A_f, B_f, F0, N, normal rank, threshold)``: the plant on V* from one orthogonal reduction.

    Each step compresses the rows of D by an SVD. The rows C_2 of C left
    without feedthrough must stay zero, so the state is restricted to ker C_2
    and C_2 [A B] is appended to the outputs (Emami-Naeini & Van Dooren 1982).
    The steps end when D has full row rank or no state is left; the state left
    is V*, with the product T of the steps' restrictions as its orthonormal
    basis. There F0 = -D^+ C is a friend, N = ker D holds the free inputs,
    A_f = A + B F0 and B_f = B N: A T + B F0 = T A_f, C T + D F0 = 0 and
    B N = T B_f. A dependent row of C_2 is a zero row of the pencil at every
    frequency, and the normal rank is n + p less their count. Every rank
    decision is made at ``threshold``, the policy's for P's shape and
    ``||P(0)||_F``; a matrix whose Frobenius norm is below it has rank 0 and
    is not factored.
    """
    n, m, p = sys.n, sys.m, sys.p
    threshold = tol.rank_threshold((n + p, n + m), float(np.linalg.norm(rosenbrock(sys, 0.0))))
    A, B, C, D, T, dependent = sys.A, sys.B, sys.C, sys.D, np.eye(n), 0
    while True:
        if np.linalg.norm(D) <= threshold:
            U, s, Wh, r = np.eye(D.shape[0]), np.empty(0), np.eye(m), 0
        else:
            U, s, Wh, _ = full_svd(D, tol)
            r = int(np.sum(s > threshold))
        C, D = U.T @ C, U.T @ D
        C2, C, D = C[r:], C[:r], D[:r]
        q = 0
        if np.linalg.norm(C2) > threshold:
            _, s2, Vh, _ = full_svd(C2, tol)
            q = int(np.sum(s2 > threshold))
        dependent += C2.shape[0] - q
        if q == 0:
            break
        R, K = Vh[:q].T, Vh[q:].T
        C, D = np.vstack([C @ K, R.T @ A @ K]), np.vstack([D, R.T @ B])
        A, B, T = K.T @ A @ K, K.T @ B, T @ K
    F0, N = -Wh[:r].T @ (C / s[:r, None]), Wh[r:].T
    return T, A + B @ F0, B @ N, F0, N, n + p - dependent, threshold


def _cluster(values, rtol: float = _CLUSTER_RTOL) -> list[tuple[complex, int]]:
    """``(representative, size)`` of each group of values merged within the relative radius ``rtol``.

    A representative is the running mean of its members, snapped to real when it lies that near the real axis.
    """
    clusters: list[list] = []
    for z in sorted(values, key=lambda v: (v.real, v.imag)):
        tol = rtol * (1.0 + abs(z))
        for cluster in clusters:
            if abs(z - cluster[0]) <= tol:
                cluster[0] = (cluster[0] + z) / 2.0
                cluster[1] += 1
                break
        else:
            clusters.append([complex(z), 1])
    return [(complex(r.real, 0.0) if abs(r.imag) <= rtol * (1.0 + abs(r)) else r, k) for r, k in clusters]


def invariant_zeros(sys: LtiSystem, tol: TolerancePolicy = DEFAULT_POLICY) -> list[InvariantZero]:
    """All finite invariant zeros with geometric multiplicities.

    The zeros are the modes of A + BF on V* that no friend F moves (Morse
    1973): the uncontrollable modes of the pair (A_f, B_f) of
    :func:`_reduction`, found by :func:`_fixed_mode_candidates` and each
    confirmed by a rank test on P(z) (:func:`_confirm`). No random number is
    drawn. The zeros are read from the plant's ``structure`` fact for ``tol``
    (see :func:`_analyze`), which :func:`audit_assumptions` shares; the list
    returned is the caller's own.

    Raises
    ------
    IllConditionedPencil
        If a candidate sits in the gray zone where the rank test can neither
        confirm nor reject it, also after one Newton step (see :func:`_confirm`).
    """
    zeros = _structure(sys, tol).zeros
    if isinstance(zeros, IllConditionedPencil):
        raise zeros.with_traceback(None)
    return list(zeros)


def _fixed_mode_candidates(pairs: list[tuple]) -> list[list[tuple]]:
    """Per ``(A, B, threshold)`` of ``pairs``, ``(value, shifted value, size)`` of each candidate uncontrollable mode of (A, B).

    The uncontrollable modes are the eigenvalues common to A and A - s B B^T, s = ||A||_F / ||B||_F^2; a B at
    or below ``threshold`` has no columns. One stacked eigenvalue problem per shape gives every spectrum, all
    complex once one is; a real spectrum read as complex gives the same candidates, bit for bit. A candidate is
    a cluster of eig(A) in the closed upper half-plane (its conjugate stands for itself) with the nearest
    eigenvalue of the shifted matrix within the clustering radius; ``size`` counts its eigenvalues of A.
    """
    stacks = []
    for A, B, threshold in pairs:
        norm_b = float(np.linalg.norm(B))
        stacks.append([] if not A.size else [A] if norm_b <= threshold else [A, A - np.linalg.norm(A) / norm_b**2 * (B @ B.T)])
    spectra = iter(_per_dtype([M for stack in stacks for M in stack], np.linalg.eigvals))
    found = []
    for stack in stacks:
        own, candidates = [next(spectra) for _ in stack], []
        for z, size in _cluster(own[0]) if own else []:
            w = complex(own[-1][np.argmin(np.abs(own[-1] - z))])
            if z.imag >= 0.0 and abs(w - z) <= _CLUSTER_RTOL * (1.0 + abs(z)):
                candidates.append((z, w if z.imag else complex(w.real, 0.0), size))
        found.append(candidates)
    return found


def _confirm(pencil, n: int, candidates: list, probe: list, target: int, tol: TolerancePolicy):
    """Per candidate, ``(value, rank lost)`` where ``pencil`` drops below rank ``target``, or None; and its rank at ``probe``.

    ``pencil(v)`` is a pencil whose derivative in v is -diag(I_n, 0), as P(v) and [A - vI, B] are. One
    singular-value SVD per dtype factors it at the candidates' two values and at ``probe``, real at a real
    value. A candidate is decided at the value of its two where the pencil is nearer singular, since a
    controllable mode near it perturbs one of them. A candidate rejected there, as roundoff in its value can
    make it, is decided again after one :func:`_newton_step` that stays within ``_CLUSTER_RTOL``.
    """
    values = [v for candidate in candidates for v in candidate[:2]] + probe
    pencils = [pencil(z.real if z.imag == 0.0 else z) for z in values]
    spectra = _per_dtype(pencils, lambda stack: np.linalg.svd(stack, compute_uv=False))
    confirmed = []
    for i in range(0, 2 * len(candidates), 2):
        j = min((i, i + 1), key=lambda j: spectra[j][target - 1] / (spectra[j][0] or 1.0))
        z, P, s = values[j], pencils[j], spectra[j]
        if s[target - 1] > tol.rank_threshold(P.shape, float(s[0])):
            step = _newton_step(P, n, target)
            if step is not None and abs(step) <= _CLUSTER_RTOL * (1.0 + abs(z)):
                z += step
                s = np.linalg.svd(pencil(z.real if z.imag == 0.0 else z), compute_uv=False)
        threshold = tol.rank_threshold(P.shape, float(s[0]))
        rank = int(np.sum(s > threshold))
        if rank >= target and s[target - 1] < _GRAY_ZONE * threshold:
            raise IllConditionedPencil(
                f"candidate {z} has marginal singular value {s[target - 1]:.3e} near threshold {threshold:.3e}"
            )
        confirmed.append((z, target - rank) if rank < target else None)
    ranks = [_rank(s, P.shape, tol) for P, s in zip(pencils[2 * len(candidates) :], spectra[2 * len(candidates) :])]
    return confirmed, ranks


def _newton_step(P: np.ndarray, n: int, target: int) -> complex | None:
    """Newton's step dz toward a zero of the ``target``-th singular value of ``P`` = P(z), dP/dz = -diag(I_n, 0); None if flat."""
    u, s, vh = np.linalg.svd(P)
    slope = u[:n, target - 1].conj() @ vh[target - 1, :n].conj()
    return complex(s[target - 1] / slope) if slope else None


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

    The report is read from the plant's ``structure`` fact for ``tol``, which
    :func:`invariant_zeros` and :func:`normal_rank` share, and returned as is
    by later calls (treat it as read-only). One orthogonal reduction gives the
    normal rank, one stacked eigenvalue problem per shape and one stacked
    confirmation give the invariant zeros and the rank of the pencil at the
    tracking frequency (see :func:`_analyze`). They are carried on the report
    for the caller to reuse, and no random number is drawn.

    Stabilizability is the same fixed-mode test applied to the pair (A, B)
    (see :func:`_unstable_fixed_modes`): its candidates come from the zeros'
    eigenvalue call, in the same stack when A_f has A's shape (D of full row
    rank), and one stacked SVD per dtype confirms the unstable ones on
    [A - vI, B]. The plant is stabilizable when none is confirmed;
    ``details["stabilizable"]`` lists the confirmed modes, both members of a
    pair, once per eigenvalue of A. An unstable candidate that the rank test
    can neither confirm nor reject fails the assumption, with the reason in
    the details.
    """
    return _structure(sys, tol).report


def _unstable_fixed_modes(sys: LtiSystem, candidates: list, tol: TolerancePolicy) -> list[complex]:
    """The unstable uncontrollable modes of (A, B), both members of a pair.

    ``candidates`` are (A, B)'s from :func:`_fixed_mode_candidates`, found at the threshold of [A B], and the
    unstable ones are confirmed by :func:`_confirm` on [A - vI, B] at rank n,
    which may raise :class:`IllConditionedPencil`.
    The eigenvalues of A in the confirmed clusters, and their conjugates, are listed at the means of the
    groups they form within the square root of the clustering radius, once per eigenvalue: roundoff splits
    a defective mode by about its square root, also beyond the clustering radius, and the mean stays.
    """
    A, B, n = sys.A, sys.B, sys.n
    unstable = [c for c in candidates if not sys.domain.is_stable(c[0])]
    if not unstable:
        return []
    confirmed, _ = _confirm(lambda v: np.hstack([A - v * np.eye(n), B]), n, unstable, [], n, tol)
    modes = [
        mode
        for (z, _, size), hit in zip(unstable, confirmed) if hit
        for mode in [z] * size + ([z.conjugate()] * size if z.imag else [])
    ]
    return [complex(z) for z, size in _cluster(modes, _CLUSTER_RTOL**0.5) for _ in range(size)]


@dataclass(frozen=True, eq=False)
class _Structure:
    """A plant's ``structure`` fact for one tolerance policy: its reduction onto V*, its zeros and its audit.

    T (an orthonormal basis of V*), A_f, B_f, F0 (a friend) and N (the free inputs) are :func:`_reduction`'s, read-only;
    ``zeros`` is the sorted zero list or the :class:`IllConditionedPencil` of its confirmation.
    """

    T: np.ndarray
    A_f: np.ndarray
    B_f: np.ndarray
    F0: np.ndarray
    N: np.ndarray
    zeros: list[InvariantZero] | IllConditionedPencil
    report: AssumptionReport


def _structure(sys: LtiSystem, tol: TolerancePolicy) -> _Structure:
    """The plant's ``structure`` fact for ``tol``: :func:`_analyze`, computed once."""
    return _memo(sys, "structure", tol, lambda: _analyze(sys, tol))


def _analyze(sys: LtiSystem, tol: TolerancePolicy) -> _Structure:
    """The ``structure`` fact, computed: the reduction, the zeros, then the audit that reads them.

    One :func:`_fixed_mode_candidates` call finds the zeros' candidates, (A_f, B_f)'s at the reduction's threshold,
    and (A, B)'s at that of [A B] for :func:`_unstable_fixed_modes`. P at the tracking frequency tf is factored only
    when a candidate lies within the clustering radius of tf, and no candidate is moved onto tf.
    """
    T, A_f, B_f, F0, N, nr, threshold = _reduction(sys, tol)
    AB_threshold = tol.rank_threshold((sys.n, sys.n + sys.m), float(np.linalg.norm(np.hstack([sys.A, sys.B]))))
    candidates, uncontrollable = _fixed_mode_candidates([(A_f, B_f, threshold), (sys.A, sys.B, AB_threshold)])
    tf = sys.domain.tracking_frequency
    probe = [tf] if any(abs(z - tf) <= _CLUSTER_RTOL * (1.0 + tf) for z, _, _ in candidates) else []
    try:
        confirmed, ranks = _confirm(lambda v: rosenbrock(sys, v), sys.n, candidates, probe, nr, tol)
        zeros = sorted(
            (
                InvariantZero(w, lost, sys.domain.is_interior_stable(z))
                for z, lost in filter(None, confirmed)
                for w in ([z, z.conjugate()] if z.imag else [z])
            ),
            key=lambda z: (z.value.real, z.value.imag),
        )
    except IllConditionedPencil as exc:
        zeros, ranks = exc, [rank_of(rosenbrock(sys, tf), tol) for _ in probe]
    at_freq = ranks[0] if probe else nr

    details: dict[str, str] = {}
    right_invertible = nr == sys.n + sys.p
    details["right_invertible"] = f"normal rank {nr} (full row rank is {sys.n + sys.p})"

    try:
        bad_modes = _unstable_fixed_modes(sys, uncontrollable, tol)
        reason = f"uncontrollable unstable modes {bad_modes}" if bad_modes else None
    except IllConditionedPencil as exc:
        reason = f"stabilizability test ill-conditioned: {exc}"
    stabilizable = reason is None
    details["stabilizable"] = reason or "all unstable modes controllable"

    no_zero_at_freq = at_freq == sys.n + sys.p
    details["no_zero_at_tracking_frequency"] = f"pencil rank {at_freq} at frequency {tf}"

    if isinstance(zeros, IllConditionedPencil):
        details["distinct_min_phase_zeros"] = f"zero computation ill-conditioned: {zeros}"
        reported, distinct = None, False
    else:
        reason = _min_phase_violation(zeros)
        distinct = reason is None
        minimum = [z.value for z in zeros if z.is_minimum_phase]
        details["distinct_min_phase_zeros"] = reason or f"minimum-phase zeros {minimum}"
        reported = zeros

    report = AssumptionReport(
        right_invertible=right_invertible,
        stabilizable=stabilizable,
        no_zero_at_tracking_frequency=no_zero_at_freq,
        distinct_min_phase_zeros=distinct,
        details=details,
        normal_rank=nr,
        zeros=reported,
    )
    return _Structure(*_read_only((T, A_f, B_f, F0, N)), zeros, report)


def exclusion_violation(value: float, zeros: list[InvariantZero]) -> bool:
    """True when ``value`` lies inside the exclusion radius of some invariant zero."""
    return any(abs(value - z.value) <= ZERO_EXCLUSION * (1.0 + abs(z.value)) for z in zeros)
