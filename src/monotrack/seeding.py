"""Deterministic PRNG streams.

Every randomized operation owns a stream derived from (seed, operation tag),
so concurrent calls are reproducible and independent of scheduling.
"""

from __future__ import annotations

import zlib

import numpy as np

DEFAULT_SEED = 1729


def rng_for(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return a generator keyed by (seed, tag, index)."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(tag.encode()), index])


def mixing_coefficients(rng: np.random.Generator, size):
    """Mixing coefficients uniform on [-1, 1]; ``size`` is a count or a shape, filled in stream order."""
    return rng.uniform(-1.0, 1.0, size)
