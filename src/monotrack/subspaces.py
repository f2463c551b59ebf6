"""Output-nulling subspace constructions from pencil kernels.

Three families of subspaces drive the solvability theory and the synthesis:

* R_j at a real mode - the state directions reachable with that single
  assigned mode with output j deleted, read from one :func:`factor_pencils`
  factor by :func:`_single_mode_basis`;
* R* - the saturated sum of such kernels over a pool of distinct stable
  frequencies, the output-nulling reachability subspace, for the full plant
  or with one output row deleted;
* V*g - the largest output-nulling subspace with stable inner dynamics,
  assembled from the kernels at the minimum-phase invariant zeros plus
  reachability directions.

The last two are built in two steps. A deterministic discovery
(``discover_rstar`` / ``discover_vstar_g``) computes the pencil kernels once
and returns them as a ``KernelSpan`` with an orthonormal basis. It visits
pool frequencies until one adds nothing or, for V*g and the full plant's R*,
until the span reaches the dimension the invariant zeros leave (dim V* less
their geometric multiplicities: all of them for R*, the non-minimum-phase
ones for V*g), so a span that reaches it costs no confirming factor; its
pencils are factored in few stacked calls, sized from the kept normal rank.
``draw`` then mixes a paired basis out of those kernels in one seeded pass,
which raises only if it falls short; another try is a draw at another seed.
A draw makes no rank test: the test of a design try's n x n V implies it.
Spans need no draw. Both steps test candidates against a span with the one
stacked test of ``_SpanTracker``.

A classical fixed-point recursion (``vstar_recursive`` / ``rstar_recursive``)
is provided as an independent oracle for cross-checking the kernel-stacking
path; the two routes must agree and the test suite enforces that they do.
"""

from __future__ import annotations

import math
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
    _per_dtype,
    full_svds,
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
    _memo,
    _min_phase_violation,
    _read_only,
    _structure,
    exclusion_violation,
    rosenbrock,
)

# Relative residual above which a candidate column counts as extending a span.
_EXTEND_RTOL = 1e-8
# How many times one pass of :func:`draw` may visit each pool kernel.
_POOL_VISITS = 6


@dataclass(frozen=True, eq=False)
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
            # A real mode is a 1x1 block; a realified pair obeys the 2x2 rotation block.
            mode = complex(self.modes[i])
            width = 2 if mode.imag != 0.0 else 1
            rot = np.array([[mode.real, -mode.imag], [mode.imag, mode.real]])[:width, :width]
            v, w = self.V[:, i : i + width], self.W[:, i : i + width]
            i += width
            res_state, res_out = sys.A @ v + sys.B @ w - v @ rot, C @ v + D @ w
            if np.linalg.norm(res_state) > RESIDUAL_TOL * scale or np.linalg.norm(res_out) > RESIDUAL_TOL * scale:
                raise ValueError(f"pencil residual invariant violated at column {i - 1}")
        if self.dim and rank_of(self.V, tol) != self.dim:
            raise ValueError("state directions are rank deficient")


@dataclass(frozen=True, eq=False)
class PencilFactor:
    """One full SVD ``u diag(s) vh`` of the system pencil P(mu) and its rank decision.

    Every kernel of P(mu), whole or with output row j deleted, and every
    minimum-norm solution of P(mu) x = b (:meth:`solve`) is read from these
    factors. The row-deleted kernel is {x : P x in span(e_{n+j})}: ker P plus the
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

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """The minimum-norm solution x = P^+ rhs of P x = rhs, or None when :func:`residual_violation` rejects it."""
        r = self.rank
        x = self.vh[:r].conj().T @ ((self.u[:, :r].conj().T @ rhs) / self.s[:r])
        return None if residual_violation(self.pencil, x, rhs, float(self.s[0])) else x

    def solution(self, j: int) -> np.ndarray | None:
        """x_j = P^+ e_{n+j}: :meth:`solve` of e_{n+j}, whose product with u is an exact read of its row n + j."""
        return self.solve(np.eye(self.pencil.shape[0])[self.n + j])

    @property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis of ker P."""
        return self.vh[self.rank :].conj().T

    def kernel(self, excluded_output: int | None = None) -> np.ndarray:
        """Orthonormal kernel of P, or of P without output row ``excluded_output``."""
        x = None if excluded_output is None else self.solution(excluded_output)
        return self.null_basis if x is None else np.column_stack([x / np.linalg.norm(x), self.null_basis])


def factor_pencils(sys: LtiSystem, mus, tol: TolerancePolicy = DEFAULT_POLICY) -> list[PencilFactor]:
    """Factor the system pencil at each of ``mus``, in order, with one stacked SVD per dtype; the factors are read-only.

    The pencils at real values are real and those at complex values complex,
    so they make at most two stacks; an empty ``mus`` makes no call. Each
    factor equals that of a separate SVD bit for bit.
    """
    pencils = [rosenbrock(sys, mu) for mu in mus]
    factors = _per_dtype(pencils, lambda stack: full_svds(stack, tol))
    return [PencilFactor(*_read_only((P, u, s, vh)), rank, sys.n) for P, (u, s, vh, rank) in zip(pencils, factors)]


class _SpanTracker:
    """Incrementally orthonormalized span with one stacked extension test.

    :meth:`scores` tests a (k, n, c) stack of k candidate blocks against the
    span, and :meth:`add` appends one candidate's orthonormalized columns.
    Each column is orthogonalized twice: one pass loses orthogonality on the
    nearly parallel directions of neighboring pool frequencies and lets the
    tracked dimension inflate. Each candidate runs the BLAS calls of a
    one-column loop (a gemv per projection on its possibly strided column,
    norms as unit-stride dots, as ``np.linalg.norm`` takes them), so it
    scores the same to the bit whatever the stack holds beside it. ``Q``
    is the C-contiguous (ambient, dim) head of a preallocated buffer, so
    ``Q.T @ r`` runs one BLAS kernel whatever the span's size.
    """

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._buffer = np.empty(ambient * ambient)
        self.Q = self._buffer[:0].reshape(ambient, 0)
        self.dim = 0

    def scores(self, stack: np.ndarray):
        """(quality, extends, residuals) of each (n, c) block of a (k, n, c) ``stack``.

        Per candidate, the worst ratio of residual to column norm and whether every ratio exceeds
        ``_EXTEND_RTOL``; a block that does not fit or leaves a zero residual scores (0.0, False).
        """
        k, _, c = stack.shape
        if self.dim + c > self.ambient:
            return [0.0] * k, [False] * k, []
        quality, extends, residuals, done = [math.inf] * k, [True] * k, [], []
        for j in range(c):
            res = col = stack[:, :, j : j + 1] if c > 1 else stack
            for _ in range(2):
                if self.dim:
                    res = res - self.Q @ (self.Q.T @ res)
                for q in done:
                    res = res - q * (q.transpose(0, 2, 1) @ res)
            nrms = _stacked_norms(col)
            res_nrms = nrms if res is col else _stacked_norms(res)
            for i, (nrm, res_nrm) in enumerate(zip(nrms, res_nrms)):
                alive = nrm != 0.0 and res_nrm != 0.0 and quality[i] != 0.0
                quality[i] = min(quality[i], res_nrm / nrm) if alive else 0.0
                extends[i] = alive and extends[i] and res_nrm > _EXTEND_RTOL * nrm
            residuals.append((res, res_nrms))
            if j + 1 < c:
                # A zero residual has disqualified its candidate; dividing by 1 keeps the stack finite.
                done.append(res / np.array([r or 1.0 for r in res_nrms])[:, None, None])
        return quality, extends, residuals

    def add(self, residuals, i: int) -> None:
        """Append the orthonormalized columns of candidate ``i`` of the :meth:`scores` that gave ``residuals``."""
        dim, grown = self.dim, self.dim + len(residuals)
        Q = self._buffer[: self.ambient * grown].reshape(self.ambient, grown)
        # The old head overlaps its new rows; NumPy copies it through a temporary.
        Q[:, :dim] = self.Q
        for column, (res, res_nrms) in enumerate(residuals, start=dim):
            Q[:, column] = res[i, :, 0] / res_nrms[i]
        self.Q, self.dim = Q, grown

    def try_add(self, block: np.ndarray) -> bool:
        """Add the (n, c) ``block`` only if it enlarges the span by its full column count."""
        _, extends, residuals = self.scores(block[None])
        if extends[0]:
            self.add(residuals, 0)
        return extends[0]


def _stacked_norms(stack: np.ndarray) -> list[float]:
    """2-norms of the (n, 1) entries of a (k, n, 1) stack, each the root of one BLAS dot with unit strides."""
    if stack.strides[1] != stack.itemsize:
        stack = np.ascontiguousarray(stack)
    return list(map(math.sqrt, (stack.transpose(0, 2, 1) @ stack).ravel().tolist()))


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

    Given ``factor_pencils(sys, [mu])[0].kernel(j)``, the state parts span R_j at
    ``mu`` (the kernel-projected subspace of the plant with output ``j``
    deleted). Kernel columns whose state parts depend linearly on earlier
    ones are dropped, so V always has full column rank; the paired input
    columns stay aligned.
    """
    tracker = _SpanTracker(sys.n)
    keep = [k for k in range(kernel.shape[1]) if tracker.try_add(kernel[: sys.n, k : k + 1])]
    return PairedBasis(V=kernel[: sys.n, keep], W=kernel[sys.n :, keep], modes=(mu,) * len(keep))


def _validated_pool(sys: LtiSystem, free_pool, zeros: list[InvariantZero], avoid: tuple = ()) -> tuple[float, ...]:
    """The user's ``free_pool``, checked, or the default pool when it is None."""
    if free_pool is None:
        return default_frequency_pool(sys, zeros, avoid=avoid)
    pool = tuple(float(mu) for mu in free_pool)
    if len(set(pool)) != len(pool):
        raise ValueError("pool values must be pairwise distinct")
    for mu in pool:
        if not math.isfinite(mu):
            raise ValueError(f"pool value {mu} is not finite")
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


@dataclass(frozen=True, eq=False)
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


def _fixed_dims(zeros: list[InvariantZero], every: bool) -> int:
    """The sum of the geometric multiplicities of ``every`` zero, or of the non-minimum-phase ones."""
    return sum(z.geometric_multiplicity for z in zeros if every or not z.is_minimum_phase)


def _discover(
    sys: LtiSystem, seeded: list, pool: tuple, excluded_output: int | None, tol: TolerancePolicy, tag: tuple,
    fixed: int | None = None, extra: tuple = (),
):
    """Span of the kernels at the ``seeded`` modes, then of pool kernels in order until one adds nothing.

    ``fixed`` is the number of dimensions the invariant zeros keep off the
    span: the zeros are the fixed modes of A + BF on V*/R* (Morse 1973), so a
    zero of geometric multiplicity g takes at least g dimensions of V*. The
    span stops growing at dim V* less ``fixed``; reaching it at the last pool
    value is saturation. None sets no bound. A pool exhausted below the
    bound, an empty one too, raises :class:`SaturationFailure`. The normal
    rank nr and dim V*, the column count of the reduction's basis T, are read
    from the plant's ``structure`` fact, computed if the plant lacks it.

    The factors come from the plant's store (:func:`_factor_into`), first rid
    of every value that is not on the pool, seeded, ``extra`` or the tracking
    frequency, so it stays bounded. One :func:`_factor_into` call factors the
    seeded modes, the ``extra`` values and the pool values the walk is
    predicted to visit, and one more each value the walk reaches unfactored
    and those predicted to follow it: ceil((bound - dim) / w), where a kernel
    off the zeros has w = n + m - nr columns (one more, x_j, with an output
    row deleted) and a seeded one, at a simple zero, w + 1, twice for a pair;
    an unbounded walk predicts up to n.
    """
    factors = _memo(sys, "pencils", tol, dict)
    for mu in set(factors).difference(pool, seeded, extra, (sys.domain.tracking_frequency,)):
        del factors[mu]
    structure = _structure(sys, tol)
    width = sys.n + sys.m - structure.report.normal_rank + (excluded_output is not None)
    bound = math.inf if fixed is None else structure.T.shape[1] - fixed
    limit = sys.n if fixed is None else bound

    def stop(i: int, dim: int) -> int:  # the index past the values predicted from pool[i] at dimension dim
        return i + (max(1, -(-(limit - dim) // width)) if width else 1)

    seeded_dim = sum((width + 1) * (1 + isinstance(mode, complex)) for mode in seeded)
    ahead = pool[: stop(0, seeded_dim)] if seeded_dim < bound else ()
    _factor_into(sys, [*seeded, *extra, *ahead], tol)
    seeded = [(mode, factors[mode].kernel()) for mode in seeded]
    tracker = _SpanTracker(sys.n)
    for mode, kernel in seeded:
        for k in range(kernel.shape[1]):
            for col in _real_columns(kernel[: sys.n, k], mode):
                tracker.try_add(col.reshape(-1, 1))
    visited = []
    for i, mu in enumerate(pool):
        if tracker.dim >= bound:
            break
        if mu not in factors:
            _factor_into(sys, pool[i : stop(i, tracker.dim)], tol)
        kernel = factors[mu].kernel(excluded_output)
        before = tracker.dim
        for k in range(kernel.shape[1]):
            tracker.try_add(kernel[: sys.n, k : k + 1])
        visited.append((mu, kernel))
        if tracker.dim == before or tracker.dim >= bound:
            break
    else:
        if visited or tracker.dim < limit:
            raise SaturationFailure("subspace dimension still growing at pool exhaustion")
    return KernelSpan(tuple(seeded), tuple(visited), tracker.Q.copy(), tag, sys.m)


def _factor_into(sys: LtiSystem, values, tol: TolerancePolicy, keep: tuple | None = None) -> dict:
    """The factor of P(mu) at each of ``values``, from the plant's ``pencils`` fact, its one store per policy.

    The values it lacks are factored in one :func:`factor_pencils` call, none
    when it lacks none, and kept: all of them, or those in ``keep`` alone.
    """
    held = _memo(sys, "pencils", tol, dict)
    missing = [mu for mu in dict.fromkeys(values) if mu not in held]
    new = dict(zip(missing, factor_pencils(sys, missing, tol))) if missing else {}
    held.update(new if keep is None else {mu: new[mu] for mu in keep if mu in new})
    return {mu: new[mu] if mu in new else held[mu] for mu in values}


def _best_block(span: _SpanTracker, kernel: np.ndarray, mode, n: int, rng):
    """Best of ``kernel-dim`` random in-kernel combinations, by extension quality.

    Returns ``(state, input, quality, extends, chosen)`` of the first best
    candidate, one column at a real mode and a realified pair at a complex
    one, or None; ``span.add(*chosen)`` appends it. Keeping the best of
    several bounds the skew of the assembled basis, which the gain solve
    would amplify. The k candidates take one draw of coefficients, (k, 1, k)
    or (k, 2, k) with each candidate's real then imaginary parts (the stream
    of k draws in turn), one batched product with the kernel, and one
    :meth:`_SpanTracker.scores` of their (k, n, c) state blocks.
    """
    k, pair = kernel.shape[1], isinstance(mode, complex)
    coeffs = mixing_coefficients(rng, (k, 1 + pair, k))
    mixed = coeffs[:, 0] + 1j * coeffs[:, 1] if pair else coeffs[:, 0]
    cols = kernel @ mixed[:, :, None]
    blocks = np.concatenate(_real_columns(cols, mode), axis=2) if pair else cols
    quality, extends, residuals = span.scores(blocks[:, :n])
    best = max(range(k), key=quality.__getitem__)
    if quality[best] == 0.0:
        return None
    return blocks[best, :n], blocks[best, n:], quality[best], extends[best], (residuals, best)


def draw(kernels: KernelSpan, seed: int = DEFAULT_SEED) -> PairedBasis:
    """Minimal paired basis of dimension ``kernels.dim`` drawn from the kernels in one pass.

    Each seeded kernel gets one draw slot per kernel column; the visited pool
    kernels are then cycled, one slot per visit and ``_POOL_VISITS`` visits
    each, until ``kernels.dim`` columns extend the span, from the stream keyed
    by ``seed`` and ``kernels.tag``. A pass that falls short raises
    :class:`RankDeficientAfterRetries`. No rank test is made: a design try's
    test of its n x n V implies it.
    """
    n, target = kernels.basis.shape[0], kernels.dim
    rng = rng_for(seed, *kernels.tag)
    seeded_slots = [(mode, kernel) for mode, kernel in kernels.seeded for _slot in range(kernel.shape[1])]
    pool_slots = [(mu, kernel) for mu, kernel in kernels.visited if kernel.shape[1]] * _POOL_VISITS
    span = _SpanTracker(n)
    blocks_v, blocks_w, modes = [], [], []
    for slot, (mode, kernel) in enumerate(seeded_slots + pool_slots):
        if slot >= len(seeded_slots) and len(modes) == target:
            break
        block = _best_block(span, kernel, mode, n, rng)
        if block is not None and block[3]:
            span.add(*block[4])
            blocks_v.append(block[0])
            blocks_w.append(block[1])
            modes.extend([mode, mode.conjugate()] if isinstance(mode, complex) else [mode])
    if len(modes) != target:
        raise RankDeficientAfterRetries(f"could not assemble a rank-{target} paired basis in one pass at seed {seed}")
    V = np.concatenate(blocks_v, axis=1) if blocks_v else np.zeros((n, 0))
    W = np.concatenate(blocks_w, axis=1) if blocks_w else np.zeros((kernels.inputs, 0))
    return PairedBasis(V=V, W=W, modes=tuple(modes))


def discover_rstar(
    sys: LtiSystem, excluded_output: int | None = None, tol: TolerancePolicy = DEFAULT_POLICY,
    *, zeros: list[InvariantZero],
) -> KernelSpan:
    """Kernels over :func:`default_frequency_pool` spanning the output-nulling reachability subspace.

    For the full plant the discovery stops once the span reaches dim V* less
    the geometric multiplicities of all the zeros (see :func:`_discover`). A
    plant with output ``excluded_output`` deleted has zeros of its own, which
    are not known, so its discovery stops only when a pool kernel adds nothing.
    """
    pool = default_frequency_pool(sys, zeros)
    if excluded_output is None:
        return _discover(sys, [], pool, None, tol, ("rstar-mixing", 0), fixed=_fixed_dims(zeros, every=True))
    return _discover(sys, [], pool, excluded_output, tol, ("rstar-mixing", excluded_output + 1))


def _conformable_min_phase(zeros: list[InvariantZero]) -> list[InvariantZero]:
    """Minimum-phase zeros with conjugate pairs first (one representative each), reals last."""
    minimum = [z for z in zeros if z.is_minimum_phase]
    pairs = sorted((z for z in minimum if z.value.imag > 0.0), key=lambda z: (z.value.real, z.value.imag))
    reals = sorted((z for z in minimum if z.value.imag == 0.0), key=lambda z: z.value.real)
    return pairs + reals


def discover_vstar_g(
    sys: LtiSystem, free_pool=None, tol: TolerancePolicy = DEFAULT_POLICY, *, zeros: list[InvariantZero],
    avoid: tuple = (),
) -> KernelSpan:
    """The kernels that span the stabilisability output-nulling subspace.

    The kernels at the minimum-phase invariant zeros are seeded first (they
    carry the inner modes that are fixed anyway, and may cover reachability
    directions as well, in which case those closed-loop modes land on the
    zeros); free-pool kernels follow. A complex zero gives realified pairs.
    The discovery stops once the span reaches dim V* less the geometric
    multiplicities of the zeros that are not minimum phase (see
    :func:`_discover`); the seeded kernels alone may reach it, and then no
    pool frequency is visited. The first :func:`_factor_into` call also
    factors the ``avoid`` values: a design's modes and tracking frequency.
    """
    reason = _min_phase_violation(zeros)
    if reason is not None:
        raise AssumptionViolation(reason)
    pool = _validated_pool(sys, free_pool, zeros, avoid)
    # A conjugate pair is seeded at its upper representative; real zeros keep
    # a real pencil so the kernel carries no complex phase.
    seeded = [complex(z.value) if z.value.imag > 0.0 else float(z.value.real) for z in _conformable_min_phase(zeros)]
    fixed = _fixed_dims(zeros, every=False)
    return _discover(sys, seeded, pool, None, tol, ("vstar-g-mixing", 0), fixed=fixed, extra=avoid)


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

