"""Queryable function families f: R^n -> R with exact query accounting.

Every oracle is a fixed function: querying the same point twice returns
bit-identical values, including the noisy family, whose per-point noise is
keyed by a hash of the point's bits rather than drawn fresh.  The query
counter increments by exactly one per evaluated point, batch or not.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .rng import make_rng, standard_normal


class OracleError(ValueError):
    """Bad oracle input: dimension mismatch or non-finite point."""


@dataclass(frozen=True)
class EqPolicy:
    """Approximate equality standing in for exact-real comparison.

    a == b iff |a - b| <= abs_tol + rel_tol * max(|a|, |b|); symmetric by
    construction.  Defaults leave ~6 orders of magnitude between double
    rounding error and the smallest violation payloads we test.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be nonnegative")

    def eq(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.abs_tol + self.rel_tol * max(abs(a), abs(b))

    def eq_arr(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return np.abs(a - b) <= self.abs_tol + self.rel_tol * np.maximum(np.abs(a), np.abs(b))


def approx_eq(policy: EqPolicy, a: float, b: float) -> bool:
    return policy.eq(a, b)


def _unit(direction) -> np.ndarray:
    u = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(u)
    if norm == 0:
        raise ValueError("corruption direction must be nonzero")
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
        from scipy.special import ndtr

        return CorruptionRegion(_unit(direction), float(threshold),
                                float(1.0 - ndtr(threshold)))


class FunctionOracle:
    """Base class: dimension, query counter, single and batched evaluation."""

    def __init__(self, dim: int):
        if dim < 1:
            raise OracleError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.query_count = 0

    def _check(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise OracleError(f"expected points of dimension {self.dim}, got shape {xs.shape}")
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
        self.query_count += xs.shape[0]
        return self._values(xs)

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
            direction = np.eye(w.size)[0]
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
    little-endian float64 bytes of x go through a keyed 64-bit hash, and the
    hash feeds one inverse-CDF normal deviate.  Repeat queries agree exactly.
    """

    def __init__(self, w, delta_noise: float, noise_seed: int = 0):
        self.w = np.asarray(w, dtype=float)
        if delta_noise < 0:
            raise OracleError("noise variance must be nonnegative")
        self.delta_noise = float(delta_noise)
        self.noise_seed = int(noise_seed)
        self._key = (self.noise_seed & (1 << 64) - 1).to_bytes(8, "little")
        super().__init__(self.w.size)

    def _noise_one(self, row: np.ndarray) -> float:
        h = hashlib.blake2b(row.astype("<f8").tobytes(), digest_size=8, key=self._key)
        u = (int.from_bytes(h.digest(), "little") + 0.5) / float(1 << 64)
        return float(ndtri(u))

    def _values(self, xs):
        dev = np.fromiter((self._noise_one(r) for r in xs), dtype=float, count=xs.shape[0])
        return xs @ self.w + np.sqrt(self.delta_noise) * dev


class NormOracle(FunctionOracle):
    """f(x) = ||x||_2 (even, so certain to fail negativity checks)."""

    def __init__(self, dim: int):
        super().__init__(dim)

    def _values(self, xs):
        return np.linalg.norm(xs, axis=1)


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


@dataclass(frozen=True)
class DistanceEstimate:
    """Empirical disagreement fraction with a Hoeffding 95% half-width."""

    fraction: float
    halfwidth: float
    indeterminate_fraction: float = 0.0


def estimate_distance(f: FunctionOracle, g, dist, m: int, policy: EqPolicy) -> DistanceEstimate:
    """Fraction of m draws x ~ dist with f(x) != g(x) under the policy.

    `g` is either another oracle or a probe callable p -> float | None;
    probe failures (None) land in a separately reported indeterminate
    bucket and do not count as disagreements.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    xs = dist.draw_many(m)
    fv = f.query_batch(xs)
    halfwidth = float(np.sqrt(np.log(2.0 / 0.05) / (2.0 * m)))
    if isinstance(g, FunctionOracle):
        gv = g.query_batch(xs)
        frac = float(np.mean(~policy.eq_arr(fv, gv)))
        return DistanceEstimate(frac, halfwidth)
    neq = 0
    indet = 0
    for i in range(m):
        gv = g(xs[i])
        if gv is None:
            indet += 1
        elif not policy.eq(float(fv[i]), float(gv)):
            neq += 1
    return DistanceEstimate(neq / m, halfwidth, indet / m)
