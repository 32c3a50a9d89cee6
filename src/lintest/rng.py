"""Seeded randomness: SFC64 streams and keyed hashes.

A (seed, call sequence) pair reproduces bit-identical streams.  Normals
come from the generator's ziggurat and chi variates from its chi-square
sampler (Marsaglia & Tsang, 2000 both), each consumed in draw order, so a
draw split into consecutive blocks equals the same draw made at once.
numpy does not promise these streams across its versions (NEP 19): reports
are reproducible per seed, lintest version and numpy version, and record
both versions.  Values that must be functions of a point, not of a stream
(NoisyLinear's noise), go through `hash_rows`, `open_unit` and the inverse
normal CDF instead.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(x):
    """SplitMix64 finalizer: a 64-bit avalanche mix of an int or of a uint64 array.

    A bijection on 64-bit words; uint64 arrays wrap modulo 2**64 on their own.
    """
    x = x & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, the golden ratio in 64 bits


def hash_rows(words: np.ndarray, key: int) -> np.ndarray:
    """Keyed 64-bit hash of each row of a uint64 matrix, in three mix64 calls at any width.

    h = mix64(sum_k mix64(word_k ^ c_k) + GAMMA) mod 2**64 with c_k = mix64(key + k GAMMA):
    rows that differ in one word differ in one summand, by a bijection, so never collide.
    Counter-based hashing as in Salmon et al., "Parallel random numbers: as easy as
    1, 2, 3" (SC'11).
    """
    keys = mix64(np.arange(words.shape[1], dtype=np.uint64) * np.uint64(_GAMMA)
                 + np.uint64(key & _MASK64))
    return mix64(mix64(words ^ keys).sum(axis=1, dtype=np.uint64) + np.uint64(_GAMMA))


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
    """SFC64 generator seeded from a 64-bit seed through numpy's SeedSequence.

    Of numpy's bit generators, SFC64 (Doty-Humphrey's small fast chaotic
    generator) feeds the ziggurat fastest: about 12.7 ns a normal against
    Philox's 17.0 on a 2-core Xeon, numpy 2.4.  Nothing here jumps or
    advances a stream, so a counter-based generator buys nothing.
    """
    return np.random.Generator(np.random.SFC64(seed & _MASK64))


_BELOW_ONE = np.nextafter(1.0, 0.0)


def open_unit(bits) -> np.ndarray:
    """Map 53-bit integers to (bits + 0.5) / 2**53, strictly inside (0, 1).

    The top value's midpoint rounds up to exactly 1.0 in float64; it alone
    is mapped to the largest double below 1.
    """
    u = np.array(bits, dtype=np.float64)  # a fresh copy, so that the steps below go in place
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


def standard_normal(rng: np.random.Generator, size=None, out=None) -> np.ndarray:
    """N(0,1) draws from the generator's ziggurat sampler, into `out` when given."""
    return rng.standard_normal(size, out=out)


def chi(rng: np.random.Generator, df) -> np.ndarray:
    """chi(df) draws, one per entry of df, in order: square roots of chi-square draws."""
    return np.sqrt(rng.chisquare(df))
