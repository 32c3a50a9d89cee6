"""Additivity and linearity testers with one-sided error.

The pipeline: a constant-round battery of additivity identities over
N(0,I) (negation, difference, three-point split), a self-corrected probe
that recovers the value of the implied additive function g at any point,
and a main loop that compares f against g on points from either N(0,I) or
an unknown distribution D.  A negativity-forcing wrapper upgrades the
additivity tester to a linearity tester for continuous inputs.

Exactly additive/linear inputs are accepted with probability 1: the
identities hold to floating-point rounding and the equality policy's
tolerance absorbs that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distro import SampleDistribution
from .oracle import EqPolicy, FunctionOracle
from .rng import derive_seed, make_rng, standard_normal

# Rounds of the identity battery are batched in chunks; a chunk is evaluated
# in a handful of vectorized oracle calls and rejection reports the first
# failing round inside it.  Each round draws its x, y, z as one row of the
# stream, so the chunk size changes neither the stream nor any verdict, and
# accept-path query counts are unaffected.
_CHUNK = 256

# Queries per round of the identity battery: negation (2) + difference (3)
# + three-point split (3), each check querying its operands independently.
QUERIES_PER_ADDITIVITY_ROUND = 8


def default_n_testadd() -> int:
    """Smallest N with (99/100)^N < 1/10."""
    n = 1
    while 0.99**n >= 0.1:
        n += 1
    return n


_N_TESTADD = default_n_testadd()  # == 230


def default_n_queryg(epsilon: float) -> int:
    """Smallest N with 2^-N <= epsilon/2."""
    return max(1, math.ceil(math.log2(2.0 / epsilon)))


def default_n_main(epsilon: float) -> int:
    """N = ceil(2 ln(10) / epsilon), forcing (1 - eps/2)^N < 1/10."""
    return math.ceil(2.0 * math.log(10.0) / epsilon)


def default_n_forceneg(epsilon: float) -> int:
    """N = ceil(ln(10) / epsilon), forcing (1 - eps)^N <= 1/10."""
    return math.ceil(math.log(10.0) / epsilon)


@dataclass(frozen=True)
class TesterConfig:
    """Tester parameters; repetition counts default to the derived schedule."""

    epsilon: float
    r: int = 50
    n_testadd: int | None = None
    n_queryg: int | None = None
    n_main: int | None = None
    n_forceneg: int | None = None
    policy: EqPolicy = field(default_factory=EqPolicy)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        for name in ("n_testadd", "n_queryg", "n_main", "n_forceneg"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def rounds_testadd(self) -> int:
        return self.n_testadd if self.n_testadd is not None else _N_TESTADD

    @property
    def rounds_queryg(self) -> int:
        return self.n_queryg if self.n_queryg is not None else default_n_queryg(self.epsilon)

    @property
    def rounds_main(self) -> int:
        return self.n_main if self.n_main is not None else default_n_main(self.epsilon)

    @property
    def rounds_forceneg(self) -> int:
        return self.n_forceneg if self.n_forceneg is not None else default_n_forceneg(self.epsilon)

    def accept_path_queries(self) -> int:
        """Oracle evaluations consumed by the Gaussian tester when it accepts."""
        return (QUERIES_PER_ADDITIVITY_ROUND * self.rounds_testadd
                + self.rounds_main * (1 + 2 * self.rounds_queryg))

    def main_stage_queries(self) -> int:
        """The epsilon-dependent part of the accept-path count."""
        return self.rounds_main * (1 + 2 * self.rounds_queryg)


@dataclass
class Verdict:
    outcome: str  # "accept" | "reject"
    reject_site: str | None
    queries_used: int
    epsilon: float
    seed: int
    transcript: list = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.outcome == "accept"

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "reject_site": self.reject_site,
            "queries_used": self.queries_used,
            "epsilon": self.epsilon,
            "seed": self.seed,
        }


def _verdict(f: FunctionOracle, start: int, cfg: TesterConfig, site: str | None = None,
             transcript: list | None = None) -> Verdict:
    """The verdict of a run that began at query count `start`, as cfg's caller sees it."""
    return Verdict("accept" if site is None else "reject", site, f.query_count - start,
                   cfg.epsilon, cfg.seed, transcript or [])


def scaling_index(points, r: int = 50) -> np.ndarray:
    """k_p per point (rows on the last axis): 1 inside the radius-1/r ball, else ceil(r * ||p||).

    The indices are integral floats, so p / k_p is the same division for
    every caller.
    """
    norms = np.linalg.norm(np.asarray(points, dtype=float), axis=-1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("point has non-finite norm")
    return np.where(norms <= 1.0 / r, 1.0, np.ceil(r * norms))


def test_additivity(f: FunctionOracle, cfg: TesterConfig, rng=None) -> Verdict:
    """The constant-round identity battery over N(0,I).

    Per round, on fresh x, y, z ~ N(0,I): reject unless f(-x) = -f(x),
    f(x-y) = f(x) - f(y), and f((x-y)/2) = f((x-z)/2) + f((z-y)/2).
    """
    rng = rng if rng is not None else make_rng(cfg.seed)
    start = f.query_count
    eq = cfg.policy.eq_arr
    n = f.dim
    remaining = cfg.rounds_testadd
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        x, y, z = standard_normal(rng, (m, 3, n)).transpose(1, 0, 2)  # one row per round

        f_negx = f.query_batch(-x)
        f_x1 = f.query_batch(x)
        neg_ok = eq(f_negx, -f_x1)

        f_xy = f.query_batch(x - y)
        f_x2 = f.query_batch(x)
        f_y = f.query_batch(y)
        diff_ok = eq(f_xy, f_x2 - f_y, np.abs(f_x2) + np.abs(f_y))

        h1 = f.query_batch((x - y) / 2.0)
        h2 = f.query_batch((x - z) / 2.0)
        h3 = f.query_batch((z - y) / 2.0)
        three_ok = eq(h1, h2 + h3, np.abs(h2) + np.abs(h3))

        bad = ~(neg_ok & diff_ok & three_ok)
        if np.any(bad):
            i = int(np.argmax(bad))
            if not neg_ok[i]:
                site = "negation"
            elif not diff_ok[i]:
                site = "difference"
            else:
                site = "three-point"
            return _verdict(f, start, cfg, site,
                            [(site, x[i].tolist(), y[i].tolist(), z[i].tolist())])
    return _verdict(f, start, cfg)


# the algorithm name collides with test-collection heuristics
test_additivity.__test__ = False
TesterConfig.__test__ = False


@dataclass
class QueryGResult:
    """Self-corrected probe outcome: either a value for g(p) or a rejection."""

    rejected: bool
    value: float | None
    k: int
    base_value: float | None  # value / k, the agreed per-ball level
    queries_used: int


def probe_g(f: FunctionOracle, points, cfg: TesterConfig, rng):
    """Probe the self-corrected function g at each row of `points`.

    Maps p into the 1/r ball via k_p, samples x_1..x_N ~ N(0,I), and
    demands that all v_i = f(p/k_p - x_i) + f(x_i) agree with v_1, each
    comparison tolerant to the rounding of the operands it was summed
    from.  Rows take their x_i from the stream in order, so a batch draws
    exactly what one probe per row would.

    Returns per row: k_p, whether all v_i agree, v_1 = g(p) / k_p, and
    |f(p/k_p - x_1)| + |f(x_1)|, the magnitude of the operands of v_1.
    """
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    nq = cfg.rounds_queryg
    ks = scaling_index(points, cfg.r)
    xs = standard_normal(rng, (m, nq, n))
    shifted = points[:, None, :] / ks[:, None, None] - xs
    va = f.query_batch(shifted.reshape(-1, n)).reshape(m, nq)
    vb = f.query_batch(xs.reshape(-1, n)).reshape(m, nq)
    v = va + vb
    mag = np.abs(va) + np.abs(vb)
    agree = np.all(cfg.policy.eq_arr(v[:, 1:], v[:, :1], mag[:, 1:] + mag[:, :1]), axis=1)
    return ks, agree, v[:, 0], mag[:, 0]


def query_g(f: FunctionOracle, p, cfg: TesterConfig, rng=None) -> QueryGResult:
    """Probe g at the single point p; returns k_p * v_1 on agreement."""
    rng = rng if rng is not None else make_rng(cfg.seed)
    start = f.query_count
    ks, agree, v1, _ = probe_g(f, np.asarray(p, dtype=float)[None, :], cfg, rng)
    k, base = int(ks[0]), float(v1[0])
    if not agree[0]:
        return QueryGResult(True, None, k, None, f.query_count - start)
    return QueryGResult(False, k * base, k, base, f.query_count - start)


def _additivity(f: FunctionOracle, cfg: TesterConfig, d: SampleDistribution | None) -> Verdict:
    """The identity battery, then the main loop comparing f(p) with the g-probe at p.

    The main-loop points come from d, or from N(0,I) on the tester's own
    stream when d is None.  Rejection reports the first failing round.
    """
    rng = make_rng(cfg.seed)
    start = f.query_count
    battery = test_additivity(f, cfg, rng)
    if not battery.accepted:
        return battery
    if d is None:
        points = standard_normal(rng, (cfg.rounds_main, f.dim))
    else:
        points = d.draw_many(cfg.rounds_main)
    fp = f.query_batch(points)
    ks, agree, v1, mag1 = probe_g(f, points, cfg, rng)
    # Compare at the per-ball scale (f(p)/k vs v_1) rather than after
    # multiplying by k; identical test, better conditioned when f(p) ~ 0.
    bad = ~(agree & cfg.policy.eq_arr(fp / ks, v1, mag1))
    if not np.any(bad):
        return _verdict(f, start, cfg)
    i = int(np.argmax(bad))
    if not agree[i]:
        return _verdict(f, start, cfg, "query-g-disagreement", [("query-g", points[i].tolist())])
    return _verdict(f, start, cfg, "f!=g",
                    [("f!=g", points[i].tolist(), float(fp[i]), float(ks[i] * v1[i]))])


def run_gaussian_additivity(f: FunctionOracle, cfg: TesterConfig) -> Verdict:
    """Additivity tester with distance measured over N(0,I)."""
    return _additivity(f, cfg, None)


def run_df_additivity(f: FunctionOracle, d: SampleDistribution, cfg: TesterConfig) -> Verdict:
    """Distribution-free additivity tester: distance points come from d.

    The identity battery and the g-probe still sample from N(0,I); only the
    step-3 comparison points are drawn from the unknown distribution.
    """
    if d.dim != f.dim:
        raise ValueError(f"distribution dimension {d.dim} != oracle dimension {f.dim}")
    return _additivity(f, cfg, d)


class OddOracle(FunctionOracle):
    """The negativity-forced wrapper f'(x) = (f(x) - f(-x)) / 2.

    Each wrapper evaluation costs two queries of the underlying oracle.
    """

    def __init__(self, base: FunctionOracle):
        super().__init__(base.dim)
        self.base = base

    def _values(self, xs):
        return 0.5 * (self.base.query_batch(xs) - self.base.query_batch(-xs))


def force_negativity(f: FunctionOracle, d: SampleDistribution,
                     cfg: TesterConfig) -> tuple[OddOracle | None, Verdict]:
    """Check f(-x) = -f(x) on draws from d; on success return the odd wrapper."""
    start = f.query_count
    remaining = cfg.rounds_forceneg
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        xs = d.draw_many(m)
        a = f.query_batch(xs)
        b = f.query_batch(-xs)
        bad = ~cfg.policy.eq_arr(b, -a)
        if np.any(bad):
            i = int(np.argmax(bad))
            return None, _verdict(f, start, cfg, "force-negativity",
                                  [("force-negativity", xs[i].tolist(), float(a[i]), float(b[i]))])
    return OddOracle(f), _verdict(f, start, cfg)


def run_df_linearity(f: FunctionOracle, d: SampleDistribution, cfg: TesterConfig) -> Verdict:
    """Distribution-free linearity tester for continuous f.

    Force negativity first, then run the distribution-free additivity test
    on the odd wrapper at epsilon/2 (if f is epsilon-far from linear, the
    wrapper is still epsilon/2-far from the additive self-correction).
    Continuity of f is the caller's guarantee and is not checked.
    """
    start = f.query_count
    wrapped, verdict = force_negativity(f, d, cfg)
    if wrapped is not None:
        inner = replace(cfg, epsilon=cfg.epsilon / 2.0, seed=derive_seed(cfg.seed, 1))
        verdict = run_df_additivity(wrapped, d, inner)
    return _verdict(f, start, cfg, verdict.reject_site, verdict.transcript)
