"""Sample-based lower-bound experiment: the linear-vs-noisy distinguishing game.

A yes-instance reveals (w.x_1, ..., w.x_n) ~ N(0, XX^T); a no-instance adds
an independent N(0, delta) deviate per coordinate, giving N(0, XX^T + dI).
With delta = C * lambda_min(X)^2 / n^2 the two observation laws are within
TV <= sqrt(C)/2, so even the optimal likelihood-ratio distinguisher stays
near coin-flipping: no sample-based tester learns anything from n samples.

A trial touches only the Gram spectrum.  It is drawn exactly, with no X,
from the beta = 1 Laguerre bidiagonal model (Dumitriu & Edelman, "Matrix
models for beta ensembles", J. Math. Phys. 2002) by one O(n^2) tridiagonal
eigenvalue solve; the observation is drawn directly in the Gram eigenbasis,
the only coordinates the likelihood-ratio rule reads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import bdtrc

from .gauss_core import divergence_terms
from .rng import chi, derive_seed, make_rng, standard_normal

_DEGENERACY_FLOOR = 1e-10
# Draws keep lambda > _DEGENERACY_FLOOR, so a delta up to this cap keeps delta/lambda,
# its square, lambda(lambda + delta) and delta y^2 = delta (lambda + delta) z^2 finite.
_MAX_RATIO = math.sqrt(np.finfo(float).max)  # largest delta/lambda whose square is finite
_MAX_DELTA = _DEGENERACY_FLOOR * _MAX_RATIO  # ~1.3e144
_MAX_RESAMPLES = 10
_WILSON_Z = 1.959963984540054  # the standard normal's 97.5% quantile
# A correct cell fails its bound check with probability at most this, so a sweep of thousands
# of cells rarely shows one false failure; at 20 trials and TV ~ 0, 19 wins still fail.
_LEVEL = 1e-4


class LowerBoundError(ValueError):
    pass


@dataclass(frozen=True)
class LowerBoundConfig:
    n: int
    C: float = 0.01
    trials: int = 1000
    seed: int = 0
    delta_override: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise LowerBoundError(f"need dimension n >= 2, got {self.n}")
        if not 0.0 < self.C < (2.0 / 3.0) ** 2:
            raise LowerBoundError(f"C must lie in (0, (2/3)^2), got {self.C}")
        if self.trials < 1:
            raise LowerBoundError("need at least one trial")
        if self.delta_override is not None and not 0 <= self.delta_override <= _MAX_DELTA:
            raise LowerBoundError(f"delta_override must lie in [0, {_MAX_DELTA:.3g}]")


def build_instance(cfg: LowerBoundConfig, rng=None) -> tuple[np.ndarray, float, int]:
    """Draw the Gram spectrum of an n x n X ~ N(0, I) and delta = C lambda_min(X)^2 / n^2.

    XX^T has the spectrum of T = BB^T, with B lower bidiagonal: diagonal
    a = (chi_n, ..., chi_1), subdiagonal b = (chi_{n-1}, ..., chi_1).  T is
    tridiagonal (diagonal a_i^2 + b_{i-1}^2, off-diagonal a_i b_i), so a draw
    costs 2n - 1 chi variates and one eigenvalue-only tridiagonal solve.

    Numerically degenerate draws (Gram min eigenvalue <= 1e-10) are
    resampled, up to a hard cap; the resample count is returned so reports
    can surface it.  Degeneracy has measure zero, so the cap never binds in
    practice.
    """
    # Imported here: only the game pays for scipy.linalg.  dsterf is the
    # routine eigvalsh_tridiagonal ends in, without its per-call checks.
    from scipy.linalg.lapack import dsterf

    rng = rng if rng is not None else make_rng(cfg.seed)
    n = cfg.n
    dfs = np.concatenate([np.arange(n, 0, -1), np.arange(n - 1, 0, -1)])
    resamples = 0
    while True:
        c = chi(rng, dfs)
        a, b = c[:n], c[n:]
        diag = a * a
        diag[1:] += b * b
        eigvals, info = dsterf(diag, a[:-1] * b)
        if info != 0:
            raise LowerBoundError(f"tridiagonal eigenvalue solve failed (dsterf info {info})")
        if eigvals[0] > _DEGENERACY_FLOOR:
            break
        resamples += 1
        if resamples > _MAX_RESAMPLES:
            raise LowerBoundError("persistent degenerate sample matrix")
    override = cfg.delta_override
    delta = derive_delta(eigvals, cfg.C) if override is None else float(override)
    return eigvals, delta, resamples


def derive_delta(eigvals: np.ndarray, C: float) -> float:
    """delta = C * lambda_min(X)^2 / n^2, with lambda_min(X)^2 the smallest Gram eigenvalue."""
    return float(C) * float(np.min(eigvals)) / float(eigvals.size**2)


def tv_bound(eigvals: np.ndarray, delta: float) -> float:
    """Closed-form TV bound between N(0, XX^T) and N(0, XX^T + delta I).

    Pinsker on their KL: sqrt( sum_i divergence_terms(delta / lambda_i) / 4 ), each
    term nonnegative (see `gauss_core.divergence_terms`).
    """
    lam = np.asarray(eigvals, dtype=float)
    lam_min = float(np.min(lam))  # in any entry order
    if not 0 < lam_min < math.inf:
        raise LowerBoundError(f"Gram matrix is singular or not finite (min {lam_min:g})")
    if not 0 <= delta <= lam_min * _MAX_RATIO:  # in Python floats: cannot overflow
        raise LowerBoundError("delta must lie in [0, min Gram eigenvalue * sqrt(float max)]")
    return float(math.sqrt(float(np.sum(divergence_terms(delta / lam))) / 4.0))


@dataclass
class GameReport:
    successes: int
    success_rate: float
    wilson_interval: tuple[float, float]
    mean_tv_bound: float
    max_tv_bound: float
    delta_stats: dict
    resamples: int
    bound_respected: bool

    def to_json(self) -> dict:
        return {**asdict(self), "wilson_interval": list(self.wilson_interval)}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = _WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))


def play_trial(cfg: LowerBoundConfig, t: int) -> tuple[bool, float, float, int]:
    """Play trial t of the yes/no game with the likelihood-ratio rule.

    The trial has its own stream, make_rng(derive_seed(cfg.seed, t)), so its
    outcome is pure in (cfg, t): trials may run in any order and any process.
    Draw the Gram spectrum lambda, flip a fair coin, and draw the observation
    v = Xw (yes) or v = Xw + eps, eps ~ N(0, delta I) (no), as its
    coordinates y = U^T v in the Gram eigenbasis: given lambda, y is
    N(0, diag(lambda)) or N(0, diag(lambda + delta)).  Classify y by the sign
    of the log-likelihood ratio of no over yes (twice it is
    sum(delta y^2 / (lambda (lambda + delta)) - log1p(delta / lambda)));
    a ratio of exactly 0, as at delta = 0, goes to a coin flip.

    Returns (success, TV bound, delta, resamples).
    """
    rng = make_rng(derive_seed(cfg.seed, t))
    lam, delta, resamples = build_instance(cfg, rng)
    truth_yes = bool(rng.random() < 0.5)
    y2 = (lam if truth_yes else lam + delta) * standard_normal(rng, cfg.n) ** 2
    llr = float(np.sum(delta * y2 / (lam * (lam + delta)) - np.log1p(delta / lam)))
    guess_yes = bool(rng.random() < 0.5) if llr == 0.0 else llr < 0.0
    return guess_yes == truth_yes, tv_bound(lam, delta), delta, resamples


def game_report(cfg: LowerBoundConfig, outcomes) -> GameReport:
    """Aggregate a cell's `play_trial` outcomes, in trial order, into its report.

    The LR rule is the TV-optimal distinguisher: trial t wins with probability
    1/2 + TV_t/2 <= p_t = 1/2 + (its TV bound)/2.  Independent trials spread above their
    mean no more than a binomial at the mean p of the p_t (Hoeffding, Ann. Math. Stat.
    1956), so the bound is respected unless P(Bin(trials, min(1, p)) >= successes) < _LEVEL.
    """
    wins, tvs, deltas, resamples = zip(*outcomes)
    successes = sum(wins)
    mean_tv = sum(tvs) / cfg.trials
    p = min(1.0, 0.5 + 0.5 * mean_tv)
    return GameReport(
        successes=successes,
        success_rate=successes / cfg.trials,
        wilson_interval=wilson_interval(successes, cfg.trials),
        mean_tv_bound=mean_tv,
        max_tv_bound=max(tvs),
        delta_stats={"min": min(deltas), "mean": float(np.mean(deltas)), "max": max(deltas)},
        resamples=sum(resamples),
        bound_respected=bool(bdtrc(successes - 1, cfg.trials, p) >= _LEVEL),
    )


def run_distinguish_game(cfg: LowerBoundConfig) -> GameReport:
    """Play the cell's trials in order, in-process, and aggregate them."""
    return game_report(cfg, [play_trial(cfg, t) for t in range(cfg.trials)])
