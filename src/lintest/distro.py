"""Pluggable seeded samplers playing the role of the unknown distribution D."""

from __future__ import annotations

import copy
import functools
import warnings

import numpy as np

from .gauss_core import GaussianDist, sample_gaussian
from .rng import derive_seed, make_rng


class DistributionError(ValueError):
    pass


class SampleDistribution:
    """A seeded sampler over R^n.  Each instance owns its own stream, made at its first draw."""

    def __init__(self, dim: int, seed: int):
        self.dim = int(dim)
        self.seed = int(seed)

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        return make_rng(self.seed)

    def restarted(self, seed: int) -> "SampleDistribution":
        """A copy whose stream starts afresh from `seed`."""
        new = copy.copy(self)
        new.seed = int(seed)
        vars(new).pop("_rng", None)
        return new

    def draw(self) -> np.ndarray:
        return self.draw_many(1)[0]

    def draw_many(self, m: int) -> np.ndarray:
        raise NotImplementedError


class _Gaussian(SampleDistribution):
    """Draws from `self._dist`, the GaussianDist each subclass's constructor sets."""

    def draw_many(self, m: int) -> np.ndarray:
        return sample_gaussian(self._dist, self._rng, size=m)


class StandardGaussian(_Gaussian):
    """N(0, I), sharing one cached GaussianDist per dimension."""

    def __init__(self, dim: int, seed: int = 0):
        super().__init__(dim, seed)
        self._dist = GaussianDist.standard(self.dim)


class ShiftedGaussian(_Gaussian):
    """N(mean, cov); cov defaults to the identity."""

    def __init__(self, mean, cov=None, seed: int = 0):
        mean = np.asarray(mean, dtype=float)
        if cov is None:
            cov = np.eye(mean.size)
        self._dist = GaussianDist(mean, cov)
        super().__init__(mean.size, seed)


class Mixture(SampleDistribution):
    """Weighted mixture of component samplers."""

    def __init__(self, weights, components, seed: int = 0):
        weights = np.asarray(weights, dtype=float)
        if len(components) == 0 or weights.size != len(components):
            raise DistributionError("weights and components must be nonempty and matched")
        if not np.all(weights >= 0):  # before the sum check, which a NaN weight passes
            raise DistributionError("mixture weights must be nonnegative")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise DistributionError(f"mixture weights must sum to 1, got {np.sum(weights)}")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise DistributionError("mixture components must share a dimension")
        self.weights = weights
        self.components = list(components)
        self._cum = np.cumsum(weights)
        super().__init__(dims.pop(), seed)

    def restarted(self, seed: int) -> "Mixture":
        """The copy's component i restarts from derive_seed(seed, i)."""
        new = super().restarted(seed)
        new.components = [c.restarted(derive_seed(seed, i)) for i, c in enumerate(self.components)]
        return new

    def draw_many(self, m: int) -> np.ndarray:
        u = self._rng.random(m)
        idx = np.searchsorted(self._cum, u, side="right")
        idx = np.minimum(idx, len(self.components) - 1)
        # One grouped draw per component, scattered back in row order, so each
        # component's stream is consumed exactly as by one draw() per row.
        out = np.empty((m, self.dim))
        for k, component in enumerate(self.components):
            rows = idx == k
            count = int(np.count_nonzero(rows))
            if count:
                out[rows] = component.draw_many(count)
        return out


class Empirical(SampleDistribution):
    """Uniform-with-replacement draws from a fixed dataset of rows."""

    def __init__(self, data, seed: int = 0):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1:
            raise DistributionError("empirical dataset must be a nonempty 2-D array")
        bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
        if bad.size:
            raise DistributionError(f"empirical data row {bad[0] + 1} has non-finite entries")
        self.data = data
        super().__init__(data.shape[1], seed)

    def draw_many(self, m: int) -> np.ndarray:
        idx = self._rng.integers(0, self.data.shape[0], size=m)
        return self.data[idx]


def load_empirical(path, seed: int = 0) -> Empirical:
    """Read a headerless CSV of floats, one point per line; blank lines are skipped."""
    try:
        # Opened here, not by loadtxt, which would also fetch URLs and try path.gz and the like.
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is refused below
            data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        return Empirical(data, seed=seed)
    except ValueError as exc:  # DistributionError is a ValueError
        raise DistributionError(f"{path}: {exc}") from None
