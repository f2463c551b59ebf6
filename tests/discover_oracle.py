"""Pool discovery that stops only at a pool kernel that adds nothing, as an oracle for the bounded discovery.

Every pencil is factored here, none is read from or kept on the plant.
"""

from monotrack.errors import SaturationFailure
from monotrack.numkernel import DEFAULT_POLICY
from monotrack.subspaces import (
    KernelSpan,
    _conformable_min_phase,
    _real_columns,
    _SpanTracker,
    _validated_pool,
    default_frequency_pool,
    factor_pencils,
)


def probe_discover(sys, seeded: list, pool, excluded_output, tol, tag) -> KernelSpan:
    """Span of the ``seeded`` kernels, then of pool kernels in order until one, the probe, adds nothing."""
    tracker = _SpanTracker(sys.n)
    for mode, kernel in seeded:
        for k in range(kernel.shape[1]):
            for col in _real_columns(kernel[: sys.n, k], mode):
                tracker.try_add(col.reshape(-1, 1))
    visited = []
    for mu in pool:
        kernel = factor_pencils(sys, (mu,), tol)[0].kernel(excluded_output)
        before = tracker.dim
        for k in range(kernel.shape[1]):
            tracker.try_add(kernel[: sys.n, k : k + 1])
        visited.append((mu, kernel))
        if tracker.dim == before:
            break
    else:
        if tracker.dim > 0 and visited:
            raise SaturationFailure("subspace dimension still growing at pool exhaustion")
    return KernelSpan(tuple(seeded), tuple(visited), tracker.Q.copy(), tag, sys.m)


def probe_rstar(sys, zeros, excluded_output=None, tol=DEFAULT_POLICY) -> KernelSpan:
    """R* of the plant, or of the plant with output ``excluded_output`` deleted, by :func:`probe_discover`."""
    tag = ("rstar-mixing", 0 if excluded_output is None else excluded_output + 1)
    return probe_discover(sys, [], default_frequency_pool(sys, zeros), excluded_output, tol, tag)


def probe_vstar_g(sys, zeros, free_pool=None, avoid=(), tol=DEFAULT_POLICY) -> KernelSpan:
    """V*g by :func:`probe_discover`, seeded with the kernels at the minimum-phase zeros."""
    pool = _validated_pool(sys, free_pool, zeros, avoid)
    modes = [complex(z.value) if z.value.imag > 0.0 else float(z.value.real) for z in _conformable_min_phase(zeros)]
    seeded = [(mode, factor_pencils(sys, (mode,), tol)[0].kernel()) for mode in modes]
    return probe_discover(sys, seeded, pool, None, tol, ("vstar-g-mixing", 0))
