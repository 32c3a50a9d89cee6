"""Sample-based lower-bound experiment: the linear-vs-noisy distinguishing game.

A yes-instance reveals (w.x_1, ..., w.x_n) ~ N(0, XX^T); a no-instance adds
an independent N(0, delta) deviate per coordinate, giving N(0, XX^T + dI).
With delta = C * lambda_min(X)^2 / n^2 the two observation laws are within
TV <= sqrt(C)/2, so even the optimal likelihood-ratio distinguisher stays
near coin-flipping: no sample-based tester learns anything from n samples.

A trial computes no spectrum.  XX^T is drawn, with no X, as T = BB^T from the
beta = 1 Laguerre bidiagonal model (Dumitriu & Edelman, "Matrix models for beta
ensembles", J. Math. Phys. 2002), and bisected for lambda_min alone.  The observation
is v = Bz (+ sqrt(delta) z').  The LDL^T pivots of T and T + delta I give the TV bound
and, with two tridiagonal solves, the likelihood ratio, each in O(n) time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import bdtrc

from .gauss_core import divergence_terms
from .rng import chi, derive_seed, make_rng, standard_normal

_DEGENERACY_FLOOR = 1e-10
# Draws keep every pivot p_i >= lambda_min > _DEGENERACY_FLOOR, so a delta up to this cap
# keeps g/p, h/p, delta (T^-1 v).((T + delta I)^-1 v) and their sums finite.
_MAX_DELTA = _DEGENERACY_FLOOR * math.sqrt(np.finfo(float).max)  # ~1.3e144
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
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise LowerBoundError(f"need an integer dimension n >= 2, got {self.n!r}")
        if not 0.0 < self.C < (2.0 / 3.0) ** 2:
            raise LowerBoundError(f"C must lie in (0, (2/3)^2), got {self.C}")
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise LowerBoundError(f"need an integer number of trials >= 1, got {self.trials!r}")
        if self.delta_override is not None and not 0 <= self.delta_override <= _MAX_DELTA:
            raise LowerBoundError(f"delta_override must lie in [0, {_MAX_DELTA:.3g}]")


def build_instance(cfg: LowerBoundConfig, rng=None) -> tuple[tuple, float, int]:
    """Draw ((a, b), delta, resamples): a bidiagonal B whose T = BB^T has the spectrum law of
    XX^T for X ~ N(0, I_n), with diagonal a = (chi_n, ..., chi_1) and subdiagonal
    b = (chi_{n-1}, ..., chi_1), b[i-1] coupling rows i-1 and i; delta = C lambda_min(T) / n^2
    unless the config overrides it.  T is tridiagonal (diagonal a_i^2 + b_{i-1}^2,
    off-diagonal a_i b_i), and `dstebz` bisects it for lambda_min alone to full relative
    accuracy (its tol = 0 stops at an absolute eps * ||T||).  Degenerate draws
    (lambda_min <= 1e-10, of measure zero) are resampled up to a cap, and counted.
    """
    from scipy.linalg.lapack import dstebz  # imported here: only the game pays for it

    rng = rng if rng is not None else make_rng(cfg.seed)
    n = cfg.n
    dfs = np.concatenate([np.arange(n, 0, -1), np.arange(n - 1, 0, -1)])
    resamples = 0
    while True:
        c = chi(rng, dfs)
        a, b = c[:n], c[n:]
        diag = a * a
        diag[1:] += b * b
        _, w, _, _, info = dstebz(diag, a[:-1] * b, 2, 0.0, 0.0, 1, 1, 1e-300, "E")
        if info != 0:
            raise LowerBoundError(f"tridiagonal eigenvalue solve failed (dstebz info {info})")
        if w[0] > _DEGENERACY_FLOOR:
            break
        resamples += 1
        if resamples > _MAX_RESAMPLES:
            raise LowerBoundError("persistent degenerate sample matrix")
    delta = cfg.C * float(w[0]) / n**2 if cfg.delta_override is None else cfg.delta_override
    return (a, b), float(delta), resamples


def pivots(a: np.ndarray, b: np.ndarray, delta: float):
    """p = a^2, the LDL^T pivots of T, and g = q - p and h, with q those of T + delta I.

    Two positive recurrences, so nothing cancels: g_0 = delta, g_i = delta + b_{i-1}^2
    g_{i-1} / q_{i-1}; h_0 = 0, h_i = (b_{i-1}^2 / p_{i-1}) (h_{i-1} + g_{i-1}^2 / q_{i-1}).
    Then sum log1p(g/p) = log det(I + delta T^-1) and sum (g + h)/p = delta tr T^-1.
    """
    p = a * a
    if not (0.0 <= delta <= _MAX_DELTA and np.min(p) > 0.0):  # T = BB^T nonsingular
        raise LowerBoundError(f"need delta in [0, {_MAX_DELTA:.3g}] and no a_i = 0, got {delta:g}")
    gi, hi = delta, 0.0
    g, h = [gi], [hi]
    for pi, bi2 in zip(p.tolist(), (b * b).tolist()):
        r = gi / (pi + gi)
        hi, gi = bi2 / pi * (hi + gi * r), delta + bi2 * r
        g.append(gi)
        h.append(hi)
    return p, np.array(g), np.array(h)


def tv_bound(p: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """Pinsker's TV bound between N(0, T) and N(0, T + delta I), from `pivots`: with
    r = delta / lambda, 2 KL = sum (r - log1p r) = sum [h/p + divergence_terms(g/p)],
    every term nonnegative (see `gauss_core.divergence_terms`)."""
    total = float(np.sum(h / p + divergence_terms(g / p)))
    if not 0.0 <= total < math.inf:
        raise LowerBoundError(f"TV sum is not finite and nonnegative ({total:g})")
    return math.sqrt(total / 4.0)


def lr_statistic(v, a, b, p, g, delta: float) -> float:
    """Twice the log-likelihood ratio of N(0, T + delta I) over N(0, T) at v:
    delta (T^-1 v).((T + delta I)^-1 v) - sum log1p(g/p), by two solves on the known
    LDL^T factors, (p, b / a) of T and (q, a b / q) of T + delta I, with q = p + g."""
    from scipy.linalg.lapack import dpttrs

    q = p + g
    s, _ = dpttrs(p, b / a[:-1], v)
    u, _ = dpttrs(q, a[:-1] * b / q[:-1], v)
    return delta * float(np.sum(s * u)) - float(np.sum(np.log1p(g / p)))


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
    Draw B, flip a fair coin, draw z, z' ~ N(0, I) as one (2, n) block, and observe
    v = Bz ~ N(0, T) (yes) or v = Bz + sqrt(delta) z' ~ N(0, T + delta I) (no).
    Classify v by the sign of `lr_statistic`; exactly 0, as at delta = 0, is a coin flip.
    Returns (success, TV bound, delta, resamples).
    """
    rng = make_rng(derive_seed(cfg.seed, t))
    (a, b), delta, resamples = build_instance(cfg, rng)
    truth_yes = bool(rng.random() < 0.5)
    z = standard_normal(rng, (2, cfg.n))
    v = a * z[0] + (0.0 if truth_yes else math.sqrt(delta)) * z[1]
    v[1:] += b * z[0, :-1]
    p, g, h = pivots(a, b, delta)
    stat = lr_statistic(v, a, b, p, g, delta)
    guess_yes = bool(rng.random() < 0.5) if stat == 0.0 else stat < 0.0
    return guess_yes == truth_yes, tv_bound(p, g, h), delta, resamples


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
