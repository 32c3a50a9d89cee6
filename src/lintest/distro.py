"""Pluggable seeded samplers playing the role of the unknown distribution D."""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

from .gauss_core import GaussianDist, _as_mean, _require, sample_gaussian
from .rng import derive_seed, make_rng


class DistributionError(ValueError):
    pass


class SampleDistribution:
    """A seeded sampler over R^n.  Each instance owns its own stream, made at its first draw."""

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise DistributionError(f"dimension must be >= 1, got {dim}")
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


_N01 = GaussianDist.standard(1)


class StandardGaussian(SampleDistribution):
    """N(0, I): each row is `dim` draws of the shared N(0, 1), in row order, so no n x n factor."""

    def draw_many(self, m: int) -> np.ndarray:
        return sample_gaussian(_N01, self._rng, m * self.dim).reshape(m, self.dim)


class ShiftedGaussian(StandardGaussian):
    """N(mean, cov), cov PSD and checked here, before any draw; with no cov, mean + N(0, I)."""

    def __init__(self, mean, cov=None, seed: int = 0):
        self.mean = _as_mean(mean)
        self._dist = None if cov is None else GaussianDist(self.mean, cov)
        if self._dist is not None:
            _require(self._dist, definite=False)
        super().__init__(self.mean.size, seed)

    def draw_many(self, m: int) -> np.ndarray:
        if self._dist is None:
            return self.mean + super().draw_many(m)
        return sample_gaussian(self._dist, self._rng, size=m)


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
        super().__init__(dims.pop(), seed)

    def restarted(self, seed: int) -> "Mixture":
        """The copy's component i restarts from derive_seed(seed, i)."""
        new = super().restarted(seed)
        new.components = [c.restarted(derive_seed(seed, i)) for i, c in enumerate(self.components)]
        return new

    def draw_many(self, m: int) -> np.ndarray:
        idx = self._rng.choice(len(self.components), size=m, p=self.weights)
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
    """Read a headerless CSV of floats, one point per line; blank lines are skipped.
    A refusal names the file and its 1-based line."""
    rows, where = [], ""
    try:
        with open(path, encoding="utf-8") as fh:  # the named file only: no URL, no path.gz
            for k, line in enumerate(fh, 1):
                where = f"line {k}: "
                if line != "\n":  # a line of spaces is one field that is no float
                    rows.append(row := [float(field) for field in line.rstrip("\n").split(",")])
                    if len(row) != len(rows[0]):
                        raise ValueError(f"{len(row)} fields, not {len(rows[0])}")
                    if not all(map(math.isfinite, row)):
                        raise ValueError("a non-finite entry")
                where = ""  # a bad byte met while reading ahead names no line
        return Empirical(rows, seed=seed)
    except ValueError as exc:  # DistributionError is a ValueError
        raise DistributionError(f"{path}: {where}{exc}") from None
