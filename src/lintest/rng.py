"""Seeded randomness: counter-based PRNG plus inverse-CDF normal draws.

Everything random in the package flows through this module so that a
(seed, call sequence) pair reproduces bit-identical streams on any
platform.  Philox is counter-based; normals (and chi variates) come from
the inverse CDF applied to 53-bit uniforms, avoiding the evaluation-order
sensitivity of Box-Muller style generators.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtri, ndtri

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche mix."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent child seed from a master seed and indices.

    Used for per-trial / per-component streams: seed XOR index pushed
    through the mixing hash, folded left to right.
    """
    h = mix64(seed & _MASK64)
    for i in indices:
        h = mix64(h ^ mix64(i & _MASK64))
    return h


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def uniform_open(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniforms strictly inside (0, 1), safe to feed to the inverse CDF."""
    bits = rng.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (bits.astype(np.float64) + 0.5) / float(1 << 53)


def standard_normal(rng: np.random.Generator, size=None) -> np.ndarray:
    """Deterministic N(0,1) draws via the inverse-CDF method."""
    return ndtri(uniform_open(rng, size=size))


def chi(rng: np.random.Generator, df) -> np.ndarray:
    """Deterministic chi(df) draws, one per entry of df, via the inverse chi-square CDF."""
    return np.sqrt(chdtri(df, uniform_open(rng, size=np.shape(df))))
