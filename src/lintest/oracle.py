"""Queryable function families f: R^n -> R with exact query accounting.

Every oracle is a fixed function: querying the same point twice returns
bit-identical values, including the noisy family, whose per-point noise is
keyed by a hash of the point's bits rather than drawn fresh.  The query
counter increments by exactly one per evaluated point, batch or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .rng import hash_rows, make_rng, open_unit, standard_normal

_MAX = np.finfo(float).max
_VALUE_BOUND = _MAX / 4  # the largest |value| an oracle may return
_TINY = np.finfo(float).tiny  # the smallest normal double


class OracleError(ValueError):
    """Bad oracle input or output: dimension mismatch, non-finite point, or a value out of range."""


class EqPolicy:
    """Relative equality standing in for exact-real comparison.

    a == b iff |a - b| <= REL_TOL * min(max(|a|, |b|, mag), float max) + tiny, symmetric.  `mag`
    is the magnitude of the operands a and b were summed from: rounding error
    scales with the operands, not the result.  REL_TOL leaves ~6 orders of
    magnitude above double rounding error.  tiny (the smallest normal double)
    covers subnormal rounding and vanishes in the band's own rounding once the
    operands pass ~1e-282: from there a power-of-two scale of f changes no check.
    """

    REL_TOL = 1e-9

    def eq(self, a: float, b: float) -> bool:
        return bool(self.eq_arr(a, b))

    def eq_arr(self, a, b, mag=0.0) -> np.ndarray:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        scale = np.minimum(np.maximum(np.maximum(abs(a), abs(b)), mag), _MAX)  # inf equals nothing
        return np.abs(a - b) <= self.REL_TOL * scale + _TINY


def scaled_norms(xs):
    """(y, ||y||, e) per row x (the last axis), y = x / 2^e, 2^e near max |x_k|: no square
    overflows, and ||x|| = ldexp(||y||, e), as np.linalg.norm(x) where no x_k^2 leaves range."""
    xs = np.asarray(xs, dtype=float)
    flat = np.empty(xs.size + 1)  # |x| row after row, then a 0 that closes the last row
    flat[-1] = 0.0  # and is the whole of an empty one
    np.abs(xs.ravel(), out=flat[:-1])
    starts = np.arange(math.prod(xs.shape[:-1])) * xs.shape[-1]  # all 0 for an empty row
    e = np.frexp(np.maximum.reduceat(flat, starts).reshape(xs.shape[:-1]))[1]
    y = np.ldexp(xs, -e[..., None])
    return y, np.linalg.norm(y, axis=-1), e


def _unit(direction) -> np.ndarray:
    u, norm, _ = scaled_norms(direction)  # u / norm, even where ||direction|| passes float max
    if not 0 < norm < np.inf:  # NaN fails too
        raise ValueError(f"corruption direction must be finite and nonzero, got {direction!r}")
    return u / norm


@dataclass(frozen=True)
class CorruptionRegion:
    """Halfspace u.x > threshold carrying a prescribed standard-Gaussian mass."""

    direction: np.ndarray
    threshold: float
    target_mass: float

    @staticmethod
    def from_mass(direction, mass: float) -> "CorruptionRegion":
        if not 0.0 < mass < 1.0:
            raise ValueError(f"corruption mass must lie in (0,1), got {mass}")
        return CorruptionRegion(_unit(direction), float(ndtri(1.0 - mass)), mass)

    @staticmethod
    def from_threshold(direction, threshold: float) -> "CorruptionRegion":
        return CorruptionRegion(_unit(direction), float(threshold),
                                float(1.0 - ndtr(threshold)))


class FunctionOracle:
    """Base class: dimension, query counter, single and batched evaluation.

    `_values` must be row-wise: a row's value may not depend on the other rows
    of its batch, so callers may stack point sets into one call.  Its last bits
    may depend on the row's position, so OddOracle queries x and -x apart.
    A value that is NaN or beyond float max / 4 is refused: the testers' sums stay finite.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise OracleError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.query_count = 0

    def _points(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise OracleError(f"expected points of dimension {self.dim}, got shape {xs.shape}")
        return xs

    def _check(self, xs) -> np.ndarray:
        xs = self._points(xs)
        if not np.all(np.isfinite(xs)):
            raise OracleError("query point has non-finite entries")
        return xs

    def query(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise OracleError(f"query expects a single point, got shape {x.shape}")
        return float(self.query_batch(x[None, :])[0])

    def query_batch(self, xs) -> np.ndarray:
        xs = self._check(xs)
        with np.errstate(over="ignore", invalid="ignore"):  # the bound check is the one signal
            values = self._values(xs)
        # two reductions and no temporary; a NaN fails the first comparison
        if not -_VALUE_BOUND <= values.min(initial=0.0) <= values.max(initial=0.0) <= _VALUE_BOUND:
            raise OracleError(f"oracle value is NaN or beyond +-{_VALUE_BOUND:.4g} (float max / 4)")
        self.query_count += xs.shape[0]  # a batch that raises costs no query
        return values

    def _values(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearOracle(FunctionOracle):
    """f(x) = w.x"""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)
        super().__init__(self.w.size)

    def _values(self, xs):
        return xs @ self.w


class ConstantShiftLinear(FunctionOracle):
    """f(x) = w.x + c (additive everywhere off by the constant c)."""

    def __init__(self, w, c: float):
        self.w = np.asarray(w, dtype=float)
        self.c = float(c)
        super().__init__(self.w.size)

    def _values(self, xs):
        return xs @ self.w + self.c


class CorruptedLinear(FunctionOracle):
    """w.x plus an absolute payload on a halfspace of prescribed mass.

    With odd_symmetric=True the payload is applied antisymmetrically on the
    two opposite tails (mass/2 each), so f(-x) = -f(x) still holds while the
    total corrupted mass under N(0,I) stays at target mass.
    """

    def __init__(self, w, region: CorruptionRegion, payload: float = 1.0,
                 odd_symmetric: bool = False):
        self.w = np.asarray(w, dtype=float)
        self.region = region
        self.payload = float(payload)
        self.odd_symmetric = bool(odd_symmetric)
        super().__init__(self.w.size)
        if self.region.direction.size != self.dim:
            raise OracleError("corruption direction dimension mismatch")
        if odd_symmetric and region.threshold <= 0:
            raise OracleError("odd-symmetric corruption needs a positive threshold")

    @staticmethod
    def with_mass(w, mass: float, payload: float = 1.0, direction=None,
                  odd_symmetric: bool = False) -> "CorruptedLinear":
        w = np.asarray(w, dtype=float)
        if direction is None:
            direction = np.eye(1, w.size)[0]
        m = mass / 2.0 if odd_symmetric else mass
        region = CorruptionRegion.from_mass(direction, m)
        return CorruptedLinear(w, region, payload, odd_symmetric)

    def _values(self, xs):
        proj = xs @ self.region.direction
        hit = (proj > self.region.threshold).astype(float)
        if self.odd_symmetric:
            hit = hit - (-proj > self.region.threshold).astype(float)
        return xs @ self.w + self.payload * hit


class NoisyLinear(FunctionOracle):
    """w.x + eta(x) with eta(x) ~ N(0, delta_noise) keyed by the bits of x.

    The noise is a function of the point, not of the query: the canonical
    little-endian float64 words of x (-0.0 read as 0.0) go through `hash_rows`
    keyed by noise_seed, at a per-call cost that does not grow with n, and its
    top 53 bits feed one inverse-CDF normal deviate.  Repeat queries agree exactly.
    """

    def __init__(self, w, delta_noise: float, noise_seed: int = 0):
        self.w = np.asarray(w, dtype=float)
        if delta_noise < 0:
            raise OracleError("noise variance must be nonnegative")
        self.delta_noise = float(delta_noise)
        self.noise_seed = int(noise_seed)
        super().__init__(self.w.size)

    def _values(self, xs):
        words = np.ascontiguousarray(xs + 0.0, dtype="<f8").view("<u8")
        h = hash_rows(words, self.noise_seed)
        return xs @ self.w + np.sqrt(self.delta_noise) * ndtri(open_unit(h >> 11))


class NormOracle(FunctionOracle):
    """f(x) = ||x||_2 (even, so certain to fail negativity checks)."""

    def _values(self, xs):
        return np.ldexp(*scaled_norms(xs)[1:])


class CustomOracle(FunctionOracle):
    """Wrap an arbitrary batch-evaluable fn(xs: (m,n)) -> (m,)."""

    def __init__(self, dim: int, fn):
        super().__init__(dim)
        self._fn = fn

    def _values(self, xs):
        return np.asarray(self._fn(xs), dtype=float)


def random_linear(dim: int, w_seed: int) -> LinearOracle:
    """Linear oracle with w ~ N(0, I) drawn deterministically from w_seed."""
    return LinearOracle(standard_normal(make_rng(w_seed), dim))
