"""Multivariate Gaussian sampling and divergence/distance bounds.

Closed-form KL between Gaussians, the Pinsker total-variation bound, the
shared-covariance TV bound, and a bounded Monte Carlo TV estimator.  A
covariance is factored once by LAPACK's symmetric eigensolver, and all
densities are evaluated in log-space so nothing underflows at n >= 50.
"""

from __future__ import annotations

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


def sample_gaussian(dist: GaussianDist, seed, size: int) -> np.ndarray:
    """Draw `size` rows from N(mean, cov) as a (size, n) array, deterministically in (dist, seed).

    `seed` is an int or an already-constructed Generator; passing the same
    Generator across calls continues its stream.
    """
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(int(seed))
    L = _factor(dist)
    x = standard_normal(rng, (int(size), dist.dim)) @ L.T
    x += dist.mean  # in place: addition commutes, so this is mean + z @ L.T bit for bit
    return x


def log_density(dist: GaussianDist, x) -> np.ndarray:
    """Log pdf of N(mean, cov) at one point or a batch of rows."""
    _require(dist, definite=True)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    y = (pts - dist.mean) @ dist.v
    quad = np.sum(y * y / dist.w, axis=1)
    logdet = float(np.sum(np.log(dist.w)))
    out = -0.5 * (dist.dim * np.log(2.0 * np.pi) + logdet + quad)
    return out[0] if np.asarray(x).ndim == 1 else out


def divergence_terms(nu) -> np.ndarray:
    """nu - log1p(nu) per entry, each >= 0, for nu in (-1, inf); under |nu| = 1e-3, where it
    would lose its digits to cancellation, the Taylor series nu^2/2 - nu^3/3 + ... - nu^7/7."""
    nu = np.asarray(nu, dtype=float)
    s = np.clip(nu, -1e-3, 1e-3)  # capped where the series goes unused, so it cannot overflow
    series = s * s * (1 / 2 - s * (1 / 3 - s * (1 / 4 - s * (1 / 5 - s * (1 / 6 - s / 7)))))
    return np.where(np.abs(nu) < 1e-3, series, nu - np.log1p(nu))


def kl_gaussians(d1: GaussianDist, d2: GaussianDist) -> float:
    """KL(d1 || d2) for positive-definite Gaussians, in nats.

    0.5 * (sum_i divergence_terms(nu_i) + (m2-m1)^T S2^-1 (m2-m1)), with nu the generalized
    eigenvalues of (S1 - S2, S2): the eigenvalues of S2^-1 S1, less 1, found with no cancellation.
    """
    if d1.dim != d2.dim:
        raise GaussianError(f"dimension mismatch: {d1.dim} vs {d2.dim}")
    _require(d1, definite=True)
    _require(d2, definite=True)
    from scipy.linalg import eigh  # imported here, so `import lintest` leaves it unloaded

    same = np.array_equal(d1.cov, d2.cov)  # then S2^-1 S1 = I, and nu = 0 exactly
    nu = 0.0 if same else eigh(d1.cov - d2.cov, d2.cov, eigvals_only=True)
    if np.min(nu) <= -1.0:
        raise GaussianError(f"S2^-1 S1 has a nonpositive eigenvalue ({1.0 + np.min(nu):g})")
    y = (d2.mean - d1.mean) @ d2.v / np.sqrt(d2.w)  # S2^-1 = v diag(1/w) v^T
    return 0.5 * (float(np.sum(divergence_terms(nu))) + float(y @ y))


def pinsker_tv_bound(kl: float) -> float:
    """TV upper bound sqrt(kl / 2)."""
    if not kl >= 0:  # NaN fails too
        raise ValueError(f"KL divergence must be nonnegative, got {kl}")
    return float(np.sqrt(0.5 * kl))


def shared_cov_tv_bound(mu1, mu2, cov) -> float:
    """TV upper bound for N(mu1, S) vs N(mu2, S): 0.5 ||mu1-mu2|| sqrt(||S^-1||_2).

    Only the inequality is implemented; the proof-level equality for this
    quantity is not the true TV and is deliberately not exposed.
    """
    d = GaussianDist(mu1, cov)  # checks mu1, as _as_mean checks mu2
    m2 = _as_mean(mu2)
    if d.dim != m2.size:
        raise GaussianError("mean dimension mismatch")
    _require(d, definite=True)
    # ||S^-1||_2 == 1 / lambda_min(S)
    return float(0.5 * np.linalg.norm(d.mean - m2) / np.sqrt(d.w[0]))


def empirical_tv(d1: GaussianDist, d2: GaussianDist, m: int, seed) -> tuple[float, float]:
    """Monte Carlo TV estimate from m draws of d1, with its standard error.

    Uses the bounded positive-part form TV = E_{x~d1}[max(0, 1 - d2(x)/d1(x))],
    evaluated in log-space; each sample contributes a value in [0, 1], so the
    estimate never blows up for well-separated pairs.  Clipped to [0, 1].
    """
    if m < 1000:
        raise ValueError(f"need m >= 1000 samples, got {m}")
    x = sample_gaussian(d1, seed, size=m)
    delta = log_density(d2, x) - log_density(d1, x)
    vals = np.clip(-np.expm1(np.clip(delta, None, 0.0)), 0.0, 1.0)
    est = float(np.clip(np.mean(vals), 0.0, 1.0))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(m))
    return est, stderr
