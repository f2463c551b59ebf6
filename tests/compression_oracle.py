"""The random-compression zero path that ``sysmodel`` once computed the zeros with, as an oracle for its reduction.

Two seeded random compressions of the pencil to its normal rank, a match of
their spectra, Newton polishing of each match and a rank test of P at the
polished value; the normal rank is the largest rank of P at seven sampled
complex frequencies. Nothing here shares code with the reduction but the
pencil, the clustering and the confirmation threshold.
"""

import numpy as np

from monotrack.errors import IllConditionedPencil
from monotrack.numkernel import DEFAULT_POLICY, _per_dtype, rank_of
from monotrack.seeding import DEFAULT_SEED, rng_for
from monotrack.sysmodel import _CLUSTER_RTOL, _GRAY_ZONE, InvariantZero, _cluster, rosenbrock

NORMAL_RANK_SAMPLES = 7
POLISH_STEPS = 2


def sampled_normal_rank(sys, tol=DEFAULT_POLICY) -> int:
    """The largest rank of P at up to seven complex frequencies off the real axis, from the ``DEFAULT_SEED`` stream."""
    rng = rng_for(DEFAULT_SEED, "normal-rank")
    full = sys.n + min(sys.m, sys.p)
    best = 0
    for _ in range(NORMAL_RANK_SAMPLES):
        lam = complex(rng.normal(scale=2.0), (0.5 + abs(rng.normal(scale=2.0))) * rng.choice([-1.0, 1.0]))
        best = max(best, rank_of(rosenbrock(sys, lam), tol))
        if best == full:
            break
    return best


def compression_candidates(sys, nr: int, sigma: complex):
    """Finite zeros of the random nr x nr compressions L P(lambda) R number 0 and 1 of the ``DEFAULT_SEED`` stream.

    A compressed pencil is M - (lambda - sigma) L1 R1 for M = L P(sigma) R,
    L1 = L[:, :n] and R1 = R[:n]; by Sylvester's determinant identity its
    finite eigenvalues are sigma + 1/mu over the nonzero eigenvalues mu of
    R1 M^-1 L1.
    """
    n = sys.n
    P = rosenbrock(sys, sigma)
    Ls, Rs = [], []
    for index in (0, 1):
        rng = rng_for(DEFAULT_SEED, "zero-compression", index)
        Ls.append(rng.standard_normal((nr, n + sys.p)))
        Rs.append(rng.standard_normal((n + sys.m, nr)))
    X = np.linalg.solve(np.stack([L @ P @ R for L, R in zip(Ls, Rs)]), np.stack([L[:, :n] for L in Ls]))
    mu = np.linalg.eigvals(np.stack([R[:n] @ x for R, x in zip(Rs, X)]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = sigma + 1.0 / mu
        keep = np.isfinite(ev) & (np.abs(ev) < 1.0 / np.sqrt(np.finfo(float).eps))
    return ev[0][keep[0]], ev[1][keep[1]]


def _pencil_at(sys, z: complex) -> np.ndarray:
    return rosenbrock(sys, z.real if z.imag == 0.0 else z)


def polish_candidate(sys, z: complex, P: np.ndarray, start: np.ndarray, tol=DEFAULT_POLICY):
    """Newton refinement of a candidate zero via the smallest singular pair of P(z); returns the value and P's singular values there."""
    s = start
    refined, u = z, None
    k = min(P.shape) - 1
    for _ in range(POLISH_STEPS):
        if s[k] <= tol.rank_threshold(P.shape, float(s[0])):
            break
        if u is None:
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
    return complex(refined), s


def oracle_zeros(sys, tol=DEFAULT_POLICY, candidates=compression_candidates) -> tuple[list, int]:
    """``(zeros, sampled normal rank)``: the matches of the two ``candidates`` sets, clustered, polished and confirmed.

    ``candidates(sys, nr, sigma)`` returns the two candidate sets; the
    default is :func:`compression_candidates`. A confirmed complex zero whose
    conjugate was lost to numerics gets it back.
    """
    nr = sampled_normal_rank(sys, tol)
    sigma = 1j * (1.0 + np.linalg.norm(rosenbrock(sys, 0.0), 1))
    first, second = candidates(sys, nr, sigma)
    matched = [z for z in first if second.size and np.min(np.abs(second - z)) <= _CLUSTER_RTOL * (1.0 + abs(z))]
    values = [z for z, _ in _cluster(np.asarray(matched))]
    pencils = [_pencil_at(sys, z) for z in values]
    starts = _per_dtype(pencils, lambda stack: np.linalg.svd(stack, compute_uv=False))
    zeros = []
    for z, P, start in zip(values, pencils, starts):
        z, s = polish_candidate(sys, z, P, start, tol)
        if z.imag != 0.0 and abs(z.imag) <= _CLUSTER_RTOL * (1.0 + abs(z)):
            z, s = complex(z.real, 0.0), np.linalg.svd(_pencil_at(sys, complex(z.real, 0.0)), compute_uv=False)
        threshold = tol.rank_threshold(P.shape, float(s[0]))
        rank = int(np.sum(s > threshold))
        if rank < nr:
            zeros.append(InvariantZero(z, nr - rank, sys.domain.is_interior_stable(z)))
        elif s[nr - 1] < _GRAY_ZONE * threshold:
            raise IllConditionedPencil(f"candidate {z} has marginal singular value {s[nr - 1]:.3e}")
    for z in list(zeros):
        partner = z.value.conjugate()
        if z.value.imag != 0.0 and not any(abs(w.value - partner) <= _CLUSTER_RTOL * (1.0 + abs(partner)) for w in zeros):
            zeros.append(InvariantZero(partner, z.geometric_multiplicity, z.is_minimum_phase))
    return sorted(zeros, key=lambda z: (z.value.real, z.value.imag)), nr
