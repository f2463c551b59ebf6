"""Output-nulling subspace constructions from pencil kernels.

Three families of subspaces drive the solvability theory and the synthesis:

* R_j at a real mode - the state directions reachable with that single
  assigned mode with output j deleted, read from one :func:`factor_pencil`
  by :func:`_single_mode_basis`;
* R* - the saturated sum of such kernels over a pool of distinct stable
  frequencies, the output-nulling reachability subspace, for the full plant
  or with one output row deleted;
* V*g - the largest output-nulling subspace with stable inner dynamics,
  assembled from the kernels at the minimum-phase invariant zeros plus
  reachability directions.

The last two are built in two steps. A deterministic discovery
(``discover_rstar`` / ``discover_vstar_g``) computes the pencil kernels once
and returns them as a ``KernelSpan`` with an orthonormal basis; ``draw`` then
mixes a paired basis out of those kernels in one seeded pass, which raises if
it fails; another try is a draw at another seed. Spans need no draw.

A classical fixed-point recursion (``vstar_recursive`` / ``rstar_recursive``)
is provided as an independent oracle for cross-checking the kernel-stacking
path; the two routes must agree and the test suite enforces that they do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolation,
    FrequencyIsZero,
    RankDeficientAfterRetries,
    SaturationFailure,
)
from .numkernel import (
    DEFAULT_POLICY,
    RESIDUAL_TOL,
    ZERO_EXCLUSION,
    TolerancePolicy,
    full_svd,
    nullspace,
    orthonormalize,
    rank_of,
    residual_violation,
)
from .seeding import DEFAULT_SEED, mixing_coefficients, rng_for
from .sysmodel import (
    InvariantZero,
    LtiSystem,
    TimeDomain,
    _held,
    _memo,
    _min_phase_violation,
    exclusion_violation,
    rosenbrock,
)

# Relative residual above which a candidate column counts as extending a span.
_EXTEND_RTOL = 1e-8
# How many times one pass of :func:`draw` may visit each pool kernel.
_POOL_VISITS = 6


@dataclass(frozen=True)
class PairedBasis:
    """State directions with their paired input directions.

    Each column ``i`` of ``V`` (state part) is matched by column ``i`` of
    ``W`` (input part) so that the pencil relation holds at the generating
    frequency ``modes[i]``. Realified complex pairs occupy adjacent slots
    ``(z, conj(z))`` and satisfy the 2x2 rotation-block relation instead of a
    scalar eigen-relation.
    """

    V: np.ndarray
    W: np.ndarray
    modes: tuple

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.V, dtype=float))
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        if V.shape[1] != W.shape[1] or len(self.modes) != V.shape[1]:
            raise ValueError("V, W and modes must agree in column count")

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    def validate(self, sys: LtiSystem, tol: TolerancePolicy = DEFAULT_POLICY, excluded_output: int | None = None) -> None:
        """Check the pencil residual invariants and full column rank of V."""
        C = sys.C if excluded_output is None else np.delete(sys.C, excluded_output, axis=0)
        D = sys.D if excluded_output is None else np.delete(sys.D, excluded_output, axis=0)
        scale = max(1.0, float(np.linalg.norm(sys.A)), float(np.linalg.norm(sys.B)))
        i = 0
        while i < self.dim:
            mode = self.modes[i]
            if isinstance(mode, complex) and mode.imag != 0.0:
                v_pair, w_pair = self.V[:, i : i + 2], self.W[:, i : i + 2]
                rot = np.array([[mode.real, -mode.imag], [mode.imag, mode.real]])
                res_state = sys.A @ v_pair + sys.B @ w_pair - v_pair @ rot
                res_out = C @ v_pair + D @ w_pair
                i += 2
            else:
                mu = float(np.real(mode))
                v, w = self.V[:, i], self.W[:, i]
                res_state = (sys.A - mu * np.eye(sys.n)) @ v + sys.B @ w
                res_out = C @ v + D @ w
                i += 1
            if np.linalg.norm(res_state) > RESIDUAL_TOL * scale or np.linalg.norm(res_out) > RESIDUAL_TOL * scale:
                raise ValueError(f"pencil residual invariant violated at column {i - 1}")
        if self.dim and rank_of(self.V, tol) != self.dim:
            raise ValueError("state directions are rank deficient")


@dataclass(frozen=True)
class PencilFactor:
    """One full SVD ``u diag(s) vh`` of the system pencil P(mu) and its rank decision.

    Every kernel of P(mu), whole or with output row j deleted, and every
    direction solving P(mu) x = e_{n+j} is read from these factors. The
    row-deleted kernel is {x : P x in span(e_{n+j})}: ker P plus the
    minimum-norm solution x_j = P^+ e_{n+j} when e_{n+j} lies in the range
    of P, and ker P otherwise. x_j lies in the row space of P, so it extends
    ker P orthogonally.
    """

    pencil: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int
    n: int

    def solution(self, j: int) -> np.ndarray | None:
        """x_j = P^+ e_{n+j}, or None when :func:`residual_violation` rejects it."""
        r = self.rank
        x = self.vh[:r].conj().T @ (self.u[self.n + j, :r].conj() / self.s[:r])
        rhs = np.zeros(self.pencil.shape[0])
        rhs[self.n + j] = 1.0
        return None if residual_violation(self.pencil, x, rhs, float(self.s[0])) else x

    @property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis of ker P."""
        return self.vh[self.rank :].conj().T

    def kernel(self, excluded_output: int | None = None) -> np.ndarray:
        """Orthonormal kernel of P, or of P without output row ``excluded_output``."""
        x = None if excluded_output is None else self.solution(excluded_output)
        return self.null_basis if x is None else np.column_stack([x / np.linalg.norm(x), self.null_basis])


def factor_pencil(sys: LtiSystem, mu: complex, tol: TolerancePolicy = DEFAULT_POLICY) -> PencilFactor:
    """Factor the system pencil at ``mu`` once (one SVD)."""
    pencil = rosenbrock(sys, mu)
    return PencilFactor(pencil, *full_svd(pencil, tol), sys.n)


class _SpanTracker:
    """Incrementally orthonormalized span with an extension test.

    Orthogonalization is applied twice per candidate; a single pass loses
    orthogonality when consecutive kernel directions are nearly parallel
    (neighboring pool frequencies produce nearly parallel resolvent
    directions) and would let the tracked dimension inflate past truth.
    """

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.Q = np.zeros((ambient, 0))

    @property
    def dim(self) -> int:
        return self.Q.shape[1]

    def extension(self, block: np.ndarray):
        """(orthonormal columns, worst normalized residual, extends) of ``block`` against the span.

        ``extends``: every residual exceeds ``_EXTEND_RTOL`` of its column's
        norm. A block that does not fit or leaves a zero residual gives
        ``(None, 0.0, False)``.
        """
        if self.dim + block.shape[1] > self.ambient:
            return None, 0.0, False
        added, worst, extends = [], np.inf, True
        for col in block.T:
            nrm, res = np.linalg.norm(col), col
            for _ in range(2):
                if self.dim:
                    res = res - self.Q @ (self.Q.T @ res)
                for q in added:
                    res = res - q * (q @ res)
            res_nrm = np.linalg.norm(res)
            if nrm == 0.0 or res_nrm == 0.0:
                return None, 0.0, False
            worst = min(worst, float(res_nrm / nrm))
            extends = extends and res_nrm > _EXTEND_RTOL * nrm
            added.append(res / res_nrm)
        return added, worst, extends

    def add(self, extension) -> bool:
        """Append the columns of an :meth:`extension` if every one extends the span."""
        added, _, extends = extension
        if extends:
            self.Q = np.hstack([self.Q] + [a.reshape(-1, 1) for a in added])
        return extends

    def try_add(self, block: np.ndarray) -> bool:
        """Add ``block`` only if it enlarges the span by its full column count."""
        return self.add(self.extension(block))


# Default pool values this close (relative) to a requested mode are skipped,
# so assigned and invisible modes never produce a nearly defective closed loop.
_POOL_AVOID_RTOL = 5e-3


def default_frequency_pool(
    sys: LtiSystem,
    zeros: list[InvariantZero],
    count: int | None = None,
    avoid: tuple = (),
) -> tuple[float, ...]:
    """Distinct stable real frequencies avoiding the invariant zeros.

    Continuous systems use -1, -1.5, -2, ...; discrete systems take the
    dyadic spread 1/2, 1/4, 3/4, 1/8, 5/8, ... so that any prefix keeps the
    values well separated inside the unit interval (tightly packed values
    give nearly parallel resolvent directions and a badly conditioned
    eigenvector basis). Values inside the exclusion radius of a zero or near
    an ``avoid`` entry (e.g. the requested closed-loop modes) are skipped.
    """
    count = count if count is not None else sys.n + 3
    if sys.domain is TimeDomain.CONTINUOUS:
        candidates = (-1.0 - 0.5 * k for k in range(4 * count + 16))
    else:
        dyadic = [
            num / (1 << level)
            for level in range(1, 10)
            for num in range(1, 1 << level, 2)
        ]
        candidates = (x for x in dyadic if 0.02 < x < 0.98)
    pool = []
    for mu in candidates:
        if exclusion_violation(mu, zeros):
            continue
        if any(abs(mu - q) <= ZERO_EXCLUSION for q in pool):
            continue
        if any(abs(mu - a) <= _POOL_AVOID_RTOL * (1.0 + abs(a)) for a in avoid):
            continue
        pool.append(mu)
        if len(pool) == count:
            return tuple(pool)
    raise SaturationFailure(f"could not assemble a pool of {count} admissible frequencies")


def _single_mode_basis(sys: LtiSystem, kernel: np.ndarray, mu: float) -> PairedBasis:
    """Directions with the single assignable real mode ``mu``, from a kernel of P(mu).

    Given ``factor_pencil(sys, mu).kernel(j)``, the state parts span R_j at
    ``mu`` (the kernel-projected subspace of the plant with output ``j``
    deleted). Kernel columns whose state parts depend linearly on earlier
    ones are dropped, so V always has full column rank; the paired input
    columns stay aligned.
    """
    tracker = _SpanTracker(sys.n)
    keep = [k for k in range(kernel.shape[1]) if tracker.try_add(kernel[: sys.n, k : k + 1])]
    V = kernel[: sys.n, keep] if keep else np.zeros((sys.n, 0))
    W = kernel[sys.n :, keep] if keep else np.zeros((sys.m, 0))
    return PairedBasis(V=V, W=W, modes=(mu,) * len(keep))


def _validated_pool(sys: LtiSystem, free_pool, zeros: list[InvariantZero], avoid: tuple = ()) -> tuple[float, ...]:
    """The user's ``free_pool``, checked, or the default pool when it is None."""
    if free_pool is None:
        return default_frequency_pool(sys, zeros, avoid=avoid)
    pool = tuple(float(mu) for mu in free_pool)
    if len(set(pool)) != len(pool):
        raise ValueError("pool values must be pairwise distinct")
    for mu in pool:
        if not sys.domain.is_stable(mu):
            raise ValueError(f"pool value {mu} is not stable for the {sys.domain.value} domain")
        if exclusion_violation(mu, zeros):
            raise FrequencyIsZero(f"pool value {mu} is within the exclusion radius of an invariant zero")
    return pool


def _real_columns(vec: np.ndarray, mode) -> list[np.ndarray]:
    """One real column, or the realified pair of columns at a complex ``mode``."""
    if isinstance(mode, complex):
        return [vec.real, np.conj(vec).imag]
    return [vec.real]


@dataclass(frozen=True)
class KernelSpan:
    """The pencil kernels spanning one kernel-stacked subspace; nothing in it is random.

    ``seeded``: (mode, kernel) pairs taken in full; ``visited``: pool pairs up
    to saturation; ``basis``: orthonormal; ``tag``: the mixing stream of
    :func:`draw`; ``inputs``: m.
    """

    seeded: tuple
    visited: tuple
    basis: np.ndarray
    tag: tuple
    inputs: int

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _held_factor(sys: LtiSystem, mu: float, tol: TolerancePolicy) -> PencilFactor | None:
    """The factor of P(mu) that a default-pool discovery keeps on the plant, or None."""
    return _held(sys, ("pencil", mu, tol))


def _pool_factor(sys: LtiSystem, mu: float, tol: TolerancePolicy, keep: bool) -> PencilFactor:
    """The factor of P(mu) that the plant holds, else a new one, kept on the plant when ``keep``."""
    if keep:
        return _memo(sys, ("pencil", mu, tol), lambda: factor_pencil(sys, mu, tol))
    return _held_factor(sys, mu, tol) or factor_pencil(sys, mu, tol)


def _discover(
    sys: LtiSystem, seeded: list, pool, excluded_output: int | None, tol: TolerancePolicy, tag: tuple, keep: bool = True
):
    """Span of the ``seeded`` kernels, then of pool kernels in order until one adds nothing.

    With ``keep`` (a default pool), each pool frequency's factor is kept on the plant under
    ``("pencil", mu, tol)``, so the discoveries on one plant share one SVD per frequency of
    the fixed pool ladder. A user pool reads those factors but adds none, so the kept
    factors stay bounded however many user pools a plant sees.
    """
    tracker = _SpanTracker(sys.n)
    for mode, kernel in seeded:
        for k in range(kernel.shape[1]):
            for col in _real_columns(kernel[: sys.n, k], mode):
                tracker.try_add(col.reshape(-1, 1))
    visited = []
    for mu in pool:
        kernel = _pool_factor(sys, mu, tol, keep).kernel(excluded_output)
        before = tracker.dim
        for k in range(kernel.shape[1]):
            tracker.try_add(kernel[: sys.n, k : k + 1])
        visited.append((mu, kernel))
        if tracker.dim == before:
            break
    else:
        if tracker.dim > 0 and visited:
            raise SaturationFailure("subspace dimension still growing at pool exhaustion")
    return KernelSpan(tuple(seeded), tuple(visited), tracker.Q, tag, sys.m)


def _best_block(span: _SpanTracker, kernel: np.ndarray, mode, n: int, rng):
    """Best of ``kernel-dim`` random in-kernel combinations, by extension quality.

    Returns the (state, input, extension) blocks of the best draw, one column
    at a real mode and a realified pair at a complex one, or None. Drawing
    several candidates and keeping the best-conditioned one bounds the skew
    of the assembled basis, which the gain solve would otherwise amplify. The
    draw count is fixed by the kernel dimension, so results stay deterministic.
    """
    best, best_quality = None, 0.0
    for _ in range(kernel.shape[1]):
        col = kernel @ mixing_coefficients(rng, kernel.shape[1], complex_valued=isinstance(mode, complex))
        block_v = np.column_stack(_real_columns(col[:n], mode))
        extension = span.extension(block_v)
        if extension[1] > best_quality:
            best, best_quality = (block_v, np.column_stack(_real_columns(col[n:], mode)), extension), extension[1]
    return best


def draw(kernels: KernelSpan, seed: int = DEFAULT_SEED, tol: TolerancePolicy = DEFAULT_POLICY) -> PairedBasis:
    """Minimal paired basis of dimension ``kernels.dim`` drawn from the kernels in one pass.

    Each seeded kernel gets one draw per kernel column; the visited pool
    kernels are then cycled, one draw per visit and ``_POOL_VISITS`` visits
    each, until ``kernels.dim`` columns extend the span, from the stream keyed
    by ``seed`` and ``kernels.tag``. A pass that falls short or is rank
    deficient raises :class:`RankDeficientAfterRetries`.
    """
    n, target = kernels.basis.shape[0], kernels.dim
    rng = rng_for(seed, *kernels.tag)
    seeded_slots = [(mode, kernel) for mode, kernel in kernels.seeded for _slot in range(kernel.shape[1])]
    pool_slots = [(mu, kernel) for mu, kernel in kernels.visited if kernel.shape[1]] * _POOL_VISITS
    span = _SpanTracker(n)
    cols_v, cols_w, modes = [], [], []
    for slot, (mode, kernel) in enumerate(seeded_slots + pool_slots):
        if slot >= len(seeded_slots) and len(modes) == target:
            break
        block = _best_block(span, kernel, mode, n, rng)
        if block is not None and span.add(block[2]):
            cols_v.extend(block[0].T)
            cols_w.extend(block[1].T)
            modes.extend([mode, mode.conjugate()] if isinstance(mode, complex) else [mode])
    V = np.column_stack(cols_v) if cols_v else np.zeros((n, 0))
    W = np.column_stack(cols_w) if cols_w else np.zeros((kernels.inputs, 0))
    if len(modes) == target and (target == 0 or rank_of(V, tol) == target):
        return PairedBasis(V=V, W=W, modes=tuple(modes))
    raise RankDeficientAfterRetries(f"could not assemble a rank-{target} paired basis in one pass at seed {seed}")


def discover_rstar(
    sys: LtiSystem, excluded_output: int | None = None, tol: TolerancePolicy = DEFAULT_POLICY,
    *, zeros: list[InvariantZero],
) -> KernelSpan:
    """Kernels over :func:`default_frequency_pool` spanning the output-nulling reachability subspace."""
    pool = default_frequency_pool(sys, zeros)
    tag = ("rstar-mixing", 0 if excluded_output is None else excluded_output + 1)
    return _discover(sys, [], pool, excluded_output, tol, tag)


def _conformable_min_phase(zeros: list[InvariantZero]) -> list[InvariantZero]:
    """Minimum-phase zeros with conjugate pairs first (one representative each), reals last."""
    minimum = [z for z in zeros if z.is_minimum_phase]
    pairs = sorted((z for z in minimum if z.value.imag > 0.0), key=lambda z: (z.value.real, z.value.imag))
    reals = sorted((z for z in minimum if z.value.imag == 0.0), key=lambda z: z.value.real)
    return pairs + reals


def discover_vstar_g(
    sys: LtiSystem, free_pool=None, tol: TolerancePolicy = DEFAULT_POLICY, *, zeros: list[InvariantZero], avoid: tuple = ()
) -> KernelSpan:
    """The kernels that span the stabilisability output-nulling subspace.

    The kernels at the minimum-phase invariant zeros are seeded first (they
    carry the inner modes that are fixed anyway, and may cover reachability
    directions as well, in which case those closed-loop modes land on the
    zeros); free-pool kernels follow. A complex zero gives realified pairs.
    """
    reason = _min_phase_violation(zeros)
    if reason is not None:
        raise AssumptionViolation(reason)
    pool = _validated_pool(sys, free_pool, zeros, avoid)
    # A conjugate pair is seeded at its upper representative; real zeros keep
    # a real pencil so the kernel carries no complex phase.
    modes = [complex(z.value) if z.value.imag > 0.0 else float(z.value.real) for z in _conformable_min_phase(zeros)]
    seeded = [(mode, factor_pencil(sys, mode, tol).kernel()) for mode in modes]
    return _discover(sys, seeded, pool, None, tol, ("vstar-g-mixing", 0), keep=free_pool is None)


# ---------------------------------------------------------------------------
# Classical fixed-point recursions (independent oracle path)
# ---------------------------------------------------------------------------


def _complement(V: np.ndarray, n: int, tol: TolerancePolicy) -> np.ndarray:
    if V.shape[1] == 0:
        return np.eye(n)
    return nullspace(V.T, tol)


def _isa(A, B, C, D, tol: TolerancePolicy) -> np.ndarray:
    """Largest output-nulling subspace by the standard shrinking recursion."""
    n = A.shape[0]
    Vk = np.eye(n)
    for _ in range(n + 1):
        N = _complement(Vk, n, tol)
        M = np.vstack([np.hstack([N.T @ A, N.T @ B]), np.hstack([C, D])])
        kernel = nullspace(M, tol)
        Vnew = orthonormalize(kernel[:n, :], tol)
        if Vnew.shape[1] == Vk.shape[1]:
            return Vnew
        Vk = Vnew
    return Vk


def vstar_recursive(sys: LtiSystem, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of the fixed point of V0 = X, V(k+1) = {x | exists u: Ax+Bu in Vk, Cx+Du = 0}."""
    return _isa(sys.A, sys.B, sys.C, sys.D, tol)


def _intersect(X: np.ndarray, Y: np.ndarray, n: int, tol: TolerancePolicy) -> np.ndarray:
    NX, NY = _complement(X, n, tol), _complement(Y, n, tol)
    stacked = np.vstack([NX.T, NY.T])
    if stacked.shape[0] == 0:
        return np.eye(n)
    return nullspace(stacked, tol)


def rstar_recursive(sys: LtiSystem, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Oracle basis of the output-nulling reachability subspace.

    Intersects the largest output-nulling subspace with the strongly
    reachable subspace, the latter obtained by duality as the orthogonal
    complement of the largest output-nulling subspace of the transposed
    quadruple.
    """
    V = _isa(sys.A, sys.B, sys.C, sys.D, tol)
    V_dual = _isa(sys.A.T, sys.C.T, sys.B.T, sys.D.T, tol)
    S = _complement(V_dual, sys.n, tol)
    return _intersect(V, S, sys.n, tol)

