"""Multivariate Gaussian sampling and divergence/distance bounds.

Closed-form KL between Gaussians, the Pinsker total-variation bound, the
shared-covariance TV bound, and a bounded Monte Carlo TV estimator.  All
spectral work goes through LAPACK's symmetric eigensolver (numpy.linalg.eigh),
which returns the identity exactly for an identity covariance, and all
densities are evaluated in log-space so nothing underflows at n >= 50.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .rng import make_rng, standard_normal

# Relative asymmetry below this is silently symmetrized; above it is an error.
_SYM_TOL = 1e-9
# Eigenvalues below this (relative to the largest) count as zero.
_PSD_TOL = 1e-12


class GaussianError(ValueError):
    """Invalid Gaussian input: asymmetry, indefiniteness, or dimension mismatch."""


def _as_mean(mean) -> np.ndarray:
    mu = np.array(mean, dtype=float, ndmin=1)  # a copy: never the caller's array
    if mu.ndim != 1 or mu.size < 1:
        raise GaussianError(f"mean must be a vector of length >= 1, got shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise GaussianError("mean has non-finite entries")
    return mu


def _as_cov(cov, n: int) -> np.ndarray:
    c = np.atleast_2d(np.asarray(cov, dtype=float))
    if c.shape != (n, n):
        raise GaussianError(f"covariance shape {c.shape} does not match dimension {n}")
    if not np.all(np.isfinite(c)):
        raise GaussianError("covariance has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(c))))
    if np.max(np.abs(c - c.T)) > _SYM_TOL * scale:
        raise GaussianError("covariance is asymmetric beyond tolerance")
    return 0.5 * (c + c.T)


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """N(mean, cov), validated and held as read-only copies, so instances can be shared."""

    mean: np.ndarray
    cov: np.ndarray
    w: np.ndarray  # cov's ascending eigenvalues, from the one eigh at construction
    v: np.ndarray  # their eigenvectors: cov == v diag(w) v^T

    def __init__(self, mean, cov):
        mu = _as_mean(mean)
        c = _as_cov(cov, mu.size)
        w, v = np.linalg.eigh(c)
        for name, arr in (("mean", mu), ("cov", c), ("w", w), ("v", v)):
            arr.flags.writeable = False  # w and v stay what cov implies
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.mean.size

    @staticmethod
    @functools.cache
    def standard(n: int) -> "GaussianDist":
        return GaussianDist(np.zeros(n), np.eye(n))


def _require(dist: GaussianDist, definite: bool):
    """Raise unless cov is PSD, or PD when `definite`; only the operations that need it check."""
    w0, floor = dist.w[0], _PSD_TOL * max(1.0, float(dist.w[-1]))
    if definite and w0 <= floor:
        raise GaussianError(f"covariance is singular (min eigenvalue {w0:g}); inversion needed")
    if w0 < -floor:
        raise GaussianError(f"covariance is not positive semidefinite (min eigenvalue {w0:g})")


def _factor(dist: GaussianDist) -> np.ndarray:
    """L with L @ L.T == cov (eigenvector square root; PSD allowed)."""
    _require(dist, definite=False)
    return dist.v * np.sqrt(np.clip(dist.w, 0.0, None))


def sample_gaussian(dist: GaussianDist, seed, size: int | None = None) -> np.ndarray:
    """Draw from N(mean, cov), deterministically in (dist, seed).

    `seed` is an int or an already-constructed Generator; passing the same
    Generator across calls continues its stream.  Returns a point (size
    None) or a (size, n) array.
    """
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(int(seed))
    L = _factor(dist)
    m = 1 if size is None else int(size)
    z = standard_normal(rng, (m, dist.dim))
    x = z @ L.T
    x += dist.mean  # in place: addition commutes, so this is mean + z @ L.T bit for bit
    return x[0] if size is None else x


def log_density(dist: GaussianDist, x) -> np.ndarray:
    """Log pdf of N(mean, cov) at one point or a batch of rows."""
    _require(dist, definite=True)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    y = (pts - dist.mean) @ dist.v
    quad = np.sum(y * y / dist.w, axis=1)
    logdet = float(np.sum(np.log(dist.w)))
    out = -0.5 * (dist.dim * np.log(2.0 * np.pi) + logdet + quad)
    return out[0] if np.asarray(x).ndim == 1 else out


def kl_gaussians(d1: GaussianDist, d2: GaussianDist) -> float:
    """KL(d1 || d2) for positive-definite Gaussians, in nats.

    0.5 * (log det(S2)/det(S1) + tr(S2^-1 S1) - n + (m2-m1)^T S2^-1 (m2-m1))
    """
    if d1.dim != d2.dim:
        raise GaussianError(f"dimension mismatch: {d1.dim} vs {d2.dim}")
    _require(d1, definite=True)
    _require(d2, definite=True)
    inv2 = (d2.v / d2.w) @ d2.v.T
    if np.array_equal(d1.cov, d2.cov):
        # Shared covariance: the log-det ratio is 0 and the trace is n exactly.
        logdet_ratio, tr = 0.0, float(d1.dim)
    else:
        logdet_ratio = float(np.sum(np.log(d2.w)) - np.sum(np.log(d1.w)))
        tr = float(np.sum(inv2 * d1.cov))
    dm = d2.mean - d1.mean
    quad = float(dm @ inv2 @ dm)
    kl = 0.5 * (logdet_ratio + tr - d1.dim + quad)
    if kl < -1e-12:
        raise GaussianError(f"KL came out negative beyond slack: {kl}")
    return max(kl, 0.0)


def pinsker_tv_bound(kl: float) -> float:
    """TV upper bound sqrt(kl / 2)."""
    if kl < 0:
        raise ValueError(f"KL divergence must be nonnegative, got {kl}")
    return float(np.sqrt(0.5 * kl))


def shared_cov_tv_bound(mu1, mu2, cov) -> float:
    """TV upper bound for N(mu1, S) vs N(mu2, S): 0.5 ||mu1-mu2|| sqrt(||S^-1||_2).

    Only the inequality is implemented; the proof-level equality for this
    quantity is not the true TV and is deliberately not exposed.
    """
    m1 = _as_mean(mu1)
    m2 = _as_mean(mu2)
    if m1.size != m2.size:
        raise GaussianError("mean dimension mismatch")
    d = GaussianDist(m1, cov)
    _require(d, definite=True)
    # ||S^-1||_2 == 1 / lambda_min(S)
    return float(0.5 * np.linalg.norm(m1 - m2) / np.sqrt(d.w[0]))


def empirical_tv(d1: GaussianDist, d2: GaussianDist, m: int, seed) -> tuple[float, float]:
    """Monte Carlo TV estimate from m draws of d1, with its standard error.

    Uses the bounded positive-part form TV = E_{x~d1}[max(0, 1 - d2(x)/d1(x))],
    evaluated in log-space; each sample contributes a value in [0, 1], so the
    estimate never blows up for well-separated pairs.  Clipped to [0, 1].
    """
    if m < 1000:
        raise ValueError(f"need m >= 1000 samples, got {m}")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(int(seed))
    x = sample_gaussian(d1, rng, size=m)
    delta = log_density(d2, x) - log_density(d1, x)
    vals = np.clip(-np.expm1(np.clip(delta, None, 0.0)), 0.0, 1.0)
    est = float(np.clip(np.mean(vals), 0.0, 1.0))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(m))
    return est, stderr
