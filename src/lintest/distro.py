"""Pluggable seeded samplers playing the role of the unknown distribution D."""

from __future__ import annotations

import numpy as np

from .gauss_core import GaussianDist, sample_gaussian
from .rng import make_rng


class DistributionError(ValueError):
    pass


class SampleDistribution:
    """A seeded sampler over R^n.  Each instance owns its own stream."""

    def __init__(self, dim: int, seed: int):
        self.dim = int(dim)
        self.seed = int(seed)
        self._rng = make_rng(self.seed)

    def draw(self) -> np.ndarray:
        return self.draw_many(1)[0]

    def draw_many(self, m: int) -> np.ndarray:
        raise NotImplementedError


class StandardGaussian(SampleDistribution):
    def __init__(self, dim: int, seed: int = 0):
        super().__init__(dim, seed)
        self._dist = GaussianDist.standard(dim)

    def draw_many(self, m: int) -> np.ndarray:
        return sample_gaussian(self._dist, self._rng, size=m)


class ShiftedGaussian(SampleDistribution):
    """N(mean, cov); cov defaults to the identity."""

    def __init__(self, mean, cov=None, seed: int = 0):
        mean = np.asarray(mean, dtype=float)
        if cov is None:
            cov = np.eye(mean.size)
        self._dist = GaussianDist(mean, cov)
        super().__init__(mean.size, seed)

    def draw_many(self, m: int) -> np.ndarray:
        return sample_gaussian(self._dist, self._rng, size=m)


class Mixture(SampleDistribution):
    """Weighted mixture of component samplers.

    A single-component mixture delegates without consuming selection
    randomness, so it is sample-for-sample identical to its component.
    """

    def __init__(self, weights, components, seed: int = 0):
        weights = np.asarray(weights, dtype=float)
        if len(components) == 0 or weights.size != len(components):
            raise DistributionError("weights and components must be nonempty and matched")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise DistributionError(f"mixture weights must sum to 1, got {np.sum(weights)}")
        if np.any(weights < 0):
            raise DistributionError("mixture weights must be nonnegative")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise DistributionError("mixture components must share a dimension")
        self.weights = weights
        self.components = list(components)
        self._cum = np.cumsum(weights)
        super().__init__(dims.pop(), seed)

    def draw_many(self, m: int) -> np.ndarray:
        if len(self.components) == 1:
            return self.components[0].draw_many(m)
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
        self.data = data
        super().__init__(data.shape[1], seed)

    def draw_many(self, m: int) -> np.ndarray:
        idx = self._rng.integers(0, self.data.shape[0], size=m)
        return self.data[idx]


def load_empirical(path, seed: int = 0) -> Empirical:
    """Read a headerless CSV of floats, one point per line."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise DistributionError(f"{path}:{lineno}: cannot parse floats: {exc}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DistributionError(
                    f"{path}:{lineno}: row width {len(row)} differs from {width}"
                )
            rows.append(row)
    if not rows:
        raise DistributionError(f"{path}: empty dataset")
    return Empirical(np.asarray(rows, dtype=float), seed=seed)
