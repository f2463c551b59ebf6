"""The per-column span tracker and best-of-k block, one candidate at a time, as an oracle for the stacked draw."""

import numpy as np

from monotrack.seeding import mixing_coefficients, rng_for
from monotrack.subspaces import _EXTEND_RTOL, _real_columns


class LoopSpanTracker:
    """Incrementally orthonormalized span: two Gram-Schmidt passes per column, the basis grown by ``hstack``."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.Q = np.zeros((ambient, 0))

    @property
    def dim(self) -> int:
        return self.Q.shape[1]

    def extension(self, block: np.ndarray):
        """(orthonormal columns, worst normalized residual, extends) of ``block`` against the span."""
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
        added, _, extends = extension
        if extends:
            self.Q = np.hstack([self.Q] + [a.reshape(-1, 1) for a in added])
        return extends

    def try_add(self, block: np.ndarray) -> bool:
        return self.add(self.extension(block))


def loop_best_block(span: LoopSpanTracker, kernel: np.ndarray, mode, n: int, rng):
    """Best of ``kernel-dim`` random in-kernel combinations, each drawn and scored on its own."""
    best, best_quality = None, 0.0
    for _ in range(kernel.shape[1]):
        col = kernel @ mixing_coefficients(rng, kernel.shape[1], complex_valued=isinstance(mode, complex))
        block_v = np.column_stack(_real_columns(col[:n], mode))
        extension = span.extension(block_v)
        if extension[1] > best_quality:
            best, best_quality = (block_v, np.column_stack(_real_columns(col[n:], mode)), extension), extension[1]
    return best


def loop_draw(kernels, seed: int, n_visits: int):
    """(V, W, modes) of one draw pass, each slot scored by :func:`loop_best_block`, or None when the pass falls short."""
    n, target = kernels.basis.shape[0], kernels.dim
    rng = rng_for(seed, *kernels.tag)
    seeded_slots = [(mode, kernel) for mode, kernel in kernels.seeded for _slot in range(kernel.shape[1])]
    pool_slots = [(mu, kernel) for mu, kernel in kernels.visited if kernel.shape[1]] * n_visits
    span = LoopSpanTracker(n)
    cols_v, cols_w, modes = [], [], []
    for slot, (mode, kernel) in enumerate(seeded_slots + pool_slots):
        if slot >= len(seeded_slots) and len(modes) == target:
            break
        block = loop_best_block(span, kernel, mode, n, rng)
        if block is not None and span.add(block[2]):
            cols_v.extend(block[0].T)
            cols_w.extend(block[1].T)
            modes.extend([mode, mode.conjugate()] if isinstance(mode, complex) else [mode])
    if len(modes) != target:
        return None
    V = np.column_stack(cols_v) if cols_v else np.zeros((n, 0))
    W = np.column_stack(cols_w) if cols_w else np.zeros((kernels.inputs, 0))
    return V, W, tuple(modes)
