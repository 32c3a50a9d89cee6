"""Additivity and linearity testers with one-sided error.

The pipeline: a constant-round battery of additivity identities over
N(0,I) (negation, difference, three-point split), a self-corrected probe
that recovers the value of the implied additive function g at any point,
and a main loop that compares f against g on points from a distribution D,
N(0,I) on a seed of its own for the Gaussian tester.  A negativity-forcing
wrapper upgrades the additivity tester to a linearity tester for continuous inputs.

Exactly additive/linear inputs are accepted with probability 1: the
identities hold to floating-point rounding, which EqPolicy's relative
tolerance absorbs; no check on operands above ~1e-282 depends on f's scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .distro import SampleDistribution, StandardGaussian
from .oracle import EqPolicy, FunctionOracle, scaled_norms
from .rng import derive_seed, make_rng, standard_normal

# A stage is checked at least every _CHUNK rounds, so that a reject evaluates
# at most _CHUNK - 1 rounds past its first failure however long its stage is;
# the main loop also checks its first _HEAD rounds alone, however wide a block is.
_CHUNK, _HEAD = 256, 8

# Every oracle call of a tester step holds at most this many doubles of points
# (or one row; rows are never split), so that a batch and the odd wrapper's
# negated copy stay well below the size at which glibc's malloc trims the freed
# heap top back to the kernel, whose pages the next batch would fault in again.
# Rows draw in stream order and a step checks after all its blocks: no count moves.
_BATCH_DOUBLES = 2**15

# Queries per round of the identity battery: negation (2) + difference (3)
# + three-point split (3), each check querying its operands independently.
QUERIES_PER_ADDITIVITY_ROUND = 8


@dataclass(frozen=True)
class TesterConfig:
    """Tester parameters; every repetition count is derived from epsilon alone."""

    epsilon: float
    r: int = 50
    seed: int = 0
    policy: ClassVar[EqPolicy] = EqPolicy()

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 1 <= self.r <= float(np.finfo(float).max):  # so that math.frexp takes r
            raise ValueError("r must be a positive integer at most float max")

    @property
    def rounds_testadd(self) -> int:
        """Smallest N with (99/100)^N < 1/10."""
        return math.ceil(math.log(0.1) / math.log(0.99))

    @property
    def rounds_queryg(self) -> int:
        """Smallest N with 2^-N <= epsilon/2."""
        return max(1, math.ceil(math.log2(2.0 / self.epsilon)))

    @property
    def rounds_main(self) -> int:
        """N = ceil(2 ln(10) / epsilon), forcing (1 - eps/2)^N < 1/10."""
        return math.ceil(2.0 * math.log(10.0) / self.epsilon)

    @property
    def rounds_forceneg(self) -> int:
        """N = ceil(ln(10) / epsilon), forcing (1 - eps)^N <= 1/10."""
        return math.ceil(math.log(10.0) / self.epsilon)

    def accept_path_queries(self) -> int:
        """Oracle evaluations consumed by the Gaussian tester when it accepts."""
        return self.battery_queries() + self.main_stage_queries()

    def battery_queries(self) -> int:
        """The identity battery's part of the accept-path count."""
        return QUERIES_PER_ADDITIVITY_ROUND * self.rounds_testadd

    def main_stage_queries(self) -> int:
        """The epsilon-dependent part of the accept-path count."""
        return self.rounds_main * (1 + 2 * self.rounds_queryg)


@dataclass
class Verdict:
    outcome: str  # "accept" | "reject"
    reject_site: str | None
    queries_used: int
    transcript: list = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.outcome == "accept"

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "transcript"}


def _stage(f: FunctionOracle, start: int, rounds: int, draw, per_round: int, step,
           head: int = 0) -> Verdict:
    """Run a stage's rounds in chunks, each on draw(m), its m rounds' rows drawn just before it.

    A chunk ends at the stage's end, round `head`, the next multiple of `_CHUNK` rounds or the
    next edge of doubling chunks that start at one oracle block of the stage's widest call
    (`per_round` points a round), whichever comes first: a reject at round r has drawn and
    evaluated no later chunk, and at most 2r rounds and one block.  step(rows) returns a dict
    from each reject site, in the order a round runs its checks, to the rounds that passed it,
    and per-round values; a witness is (site, the round's point(s) as lists, its entry of each).
    """
    first = max(1, _BATCH_DOUBLES // (per_round * f.dim))
    site, transcript, done, edge = None, [], 0, first
    while site is None and done < rounds:
        end = min(rounds, edge, done - done % _CHUNK + _CHUNK, head if done < head else rounds)
        checks, values = step(rows := draw(end - done))
        passed = functools.reduce(np.logical_and, checks.values())
        i = int(np.argmin(passed))
        if not passed[i]:
            site = next(s for s, ok in checks.items() if not ok[i])
            points = rows[i].reshape(-1, f.dim).tolist()
            transcript = [(site, *points, *(v[i].item() for v in values))]
        done, edge = end, 2 * edge + first if end == edge else edge
    return Verdict("accept" if site is None else "reject", site, f.query_count - start, transcript)


def _query_blocks(f: FunctionOracle, m: int, per_row: int, build) -> np.ndarray:
    """f at m rows that build(lo, hi) lays out on axis 1, one oracle call per block of rows."""
    rows = max(1, _BATCH_DOUBLES // (per_row * f.dim))
    blocks = (build(lo, min(lo + rows, m)) for lo in range(0, m, rows))
    vals = [f.query_batch(p.reshape(-1, p.shape[-1])).reshape(p.shape[:-1]) for p in blocks]
    return vals[0] if len(vals) == 1 else np.concatenate(vals, axis=1)


def scaling_index(points, r: int) -> np.ndarray:
    """The exponent e of k_p = 2^e per row p (the last axis): r * ||p|| in [2^(e-1), 2^e).

    So p / k_p = ldexp(p, -e) lies on the shell [1/(2r), 1/r) at every scale of p; e = 0 at
    p = 0.  r = m * 2^e_r and ||p|| = ||y|| * 2^e_y apart, so that m * ||y|| never overflows.
    """
    _, norms, e = scaled_norms(points)
    m, e_r = math.frexp(r)
    return np.frexp(m * norms)[1] + np.where(norms > 0, e + e_r, 0)


def test_additivity(f: FunctionOracle, cfg: TesterConfig, rng=None) -> Verdict:
    """The constant-round identity battery over N(0,I).

    Per round, on fresh x, y, z ~ N(0,I): reject unless f(-x) = -f(x),
    f(x-y) = f(x) - f(y), and f((x-y)/2) = f((x-z)/2) + f((z-y)/2).  Each
    chunk draws its rounds' x, y, z in one call just before it runs.
    """
    rng = rng if rng is not None else make_rng(cfg.seed)
    eq = cfg.policy.eq_arr
    n = f.dim

    def step(chunk):
        def build(lo, hi):
            pts = np.empty((8, hi - lo, n))  # -x, x | x-y, x, y | (x-y)/2, (x-z)/2, (z-y)/2
            pts[1], pts[4], pts[7] = chunk[lo:hi].transpose(1, 0, 2)  # strided, read once
            x, y, z = pts[1], pts[4], pts[7]
            np.negative(x, out=pts[0])
            pts[3] = x
            pts[5] = np.subtract(x, y, out=pts[2])
            np.subtract(x, z, out=pts[6])
            z -= y  # pts[7] becomes z - y after z's last read
            pts[5:] *= 0.5
            return pts
        f_negx, f_x1, f_xy, f_x2, f_y, h1, h2, h3 = _query_blocks(f, len(chunk), 8, build)
        return {"negation": eq(f_negx, -f_x1),
                "difference": eq(f_xy, f_x2 - f_y, np.abs(f_x2) + np.abs(f_y)),
                "three-point": eq(h1, h2 + h3, np.abs(h2) + np.abs(h3))}, ()

    return _stage(f, f.query_count, cfg.rounds_testadd, lambda m: standard_normal(rng, (m, 3, n)),
                  QUERIES_PER_ADDITIVITY_ROUND, step)


# the algorithm name collides with test-collection heuristics
test_additivity.__test__ = False
TesterConfig.__test__ = False


@dataclass
class QueryGResult:
    """Self-corrected probe outcome: either a value for g(p) or a rejection."""

    rejected: bool
    value: float | None
    e: int  # k_p = 2^e
    base_value: float | None  # v_1 = value / 2^e, the agreed per-ball level
    queries_used: int


def probe_g(f: FunctionOracle, points, cfg: TesterConfig, rng):
    """Probe the self-corrected function g at each row of `points`.

    Maps p onto the shell of the 1/r ball as p/k_p = ldexp(p, -e), exact unless
    subnormal, samples x_1..x_N ~ N(0,I), and demands that all v_i = f(p/k_p - x_i)
    + f(x_i) agree with v_1, each comparison tolerant to the rounding of the operands
    it was summed from.  Rows take their x_i from the stream in order, in blocks of
    one oracle call each, so a batch draws what one probe per row would.

    Returns per row: e, whether all v_i agree, v_1 = g(p) / 2^e, and
    |f(p/k_p - x_1)| + |f(x_1)|, the magnitude of the operands of v_1.
    """
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    nq = cfg.rounds_queryg
    es = scaling_index(points, cfg.r)

    def build(lo, hi):
        pts = np.empty((2, hi - lo, nq, n))  # p/k_p - x_i, then x_i: one oracle call for both
        xs = standard_normal(rng, out=pts[1])
        np.subtract(np.ldexp(points[lo:hi, None], -es[lo:hi, None, None]), xs, out=pts[0])
        return pts
    va, vb = _query_blocks(f, m, 2 * nq, build)
    v = va + vb
    mag = np.abs(va) + np.abs(vb)
    agree = np.all(cfg.policy.eq_arr(v[:, 1:], v[:, :1], mag[:, 1:] + mag[:, :1]), axis=1)
    return es, agree, v[:, 0], mag[:, 0]


def query_g(f: FunctionOracle, p, cfg: TesterConfig, rng=None) -> QueryGResult:
    """Probe g at the single point p; its value is ldexp(v_1, e) = g(p), inf past float max."""
    rng = rng if rng is not None else make_rng(cfg.seed)
    start = f.query_count
    es, agree, v1, _ = probe_g(f, np.asarray(p, dtype=float)[None, :], cfg, rng)
    with np.errstate(over="ignore"):
        value, base = (float(np.ldexp(v1[0], es[0])), float(v1[0])) if agree[0] else (None, None)
    return QueryGResult(not agree[0], value, int(es[0]), base, f.query_count - start)


def _additivity(f: FunctionOracle, cfg: TesterConfig, d: SampleDistribution) -> Verdict:
    """The identity battery, then the main loop comparing f(p) with the g-probe at p.

    Each chunk draws its points from d just before it runs; the tester's own stream feeds
    only the battery and the probes' x_i, so no chunk edge moves a draw.  The first chunk
    ends by round _HEAD.  Both sites' witnesses are (site, p, f(p), e, v_1).
    """
    rng = make_rng(cfg.seed)
    start = f.query_count
    battery = test_additivity(f, cfg, rng)
    if not battery.accepted:
        return battery

    def step(points):
        fp = _query_blocks(f, len(points), 1, lambda lo, hi: points[None, lo:hi])[0]
        es, agree, v1, mag1 = probe_g(f, points, cfg, rng)
        # f(p)/k_p against v_1 = g(p)/k_p, each only scaled down: neither passes float max
        # (k_p * v_1 may), and the band's floor stays at f(p)'s own scale where k_p < 1.
        lo = np.minimum(es, 0)
        f_ne_g = cfg.policy.eq_arr(*np.ldexp([fp, v1, mag1], [lo - es, lo, lo]))
        return {"query-g-disagreement": agree, "f!=g": f_ne_g}, (fp, es, v1)

    return _stage(f, start, cfg.rounds_main, d.draw_many, 2 * cfg.rounds_queryg, step, _HEAD)


def run_gaussian_additivity(f: FunctionOracle, cfg: TesterConfig) -> Verdict:
    """run_df_additivity on D = N(0, I) from derive_seed(cfg.seed, 2), as calibrate seeds any D."""
    return _additivity(f, cfg, StandardGaussian(f.dim, derive_seed(cfg.seed, 2)))


def run_df_additivity(f: FunctionOracle, d: SampleDistribution, cfg: TesterConfig) -> Verdict:
    """Distribution-free additivity tester: the identity battery and the g-probe sample
    N(0,I) on the tester's stream, and only the main loop's points come from d."""
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

    # the shape only: the base checks every point, and -xs is finite exactly when xs is
    _check = FunctionOracle._points

    def _values(self, xs):
        return 0.5 * (self.base.query_batch(xs) - self.base.query_batch(-xs))


def force_negativity(f: FunctionOracle, d: SampleDistribution,
                     cfg: TesterConfig) -> tuple[OddOracle | None, Verdict]:
    """Check f(-x) = -f(x) on draws from d, each chunk's made just before it runs; a witness
    is (site, x, f(x), f(-x)).  On success return the odd wrapper."""
    if d.dim != f.dim:
        raise ValueError(f"distribution dimension {d.dim} != oracle dimension {f.dim}")

    def step(xs):
        a, b = _query_blocks(f, len(xs), 2, lambda lo, hi: np.array([xs[lo:hi], -xs[lo:hi]]))
        return {"force-negativity": cfg.policy.eq_arr(b, -a)}, (a, b)

    verdict = _stage(f, f.query_count, cfg.rounds_forceneg, d.draw_many, 2, step)
    return (OddOracle(f) if verdict.accepted else None), verdict


def run_df_linearity(f: FunctionOracle, d: SampleDistribution, cfg: TesterConfig) -> Verdict:
    """Distribution-free linearity tester for continuous f.

    Force negativity first, then run the distribution-free additivity test
    on the odd wrapper at epsilon/2 (if f is epsilon-far from linear, the
    wrapper is still epsilon/2-far from the additive self-correction).
    Continuity of f is the caller's guarantee and is not checked.
    """
    start = f.query_count
    wrapped, verdict = force_negativity(f, d, cfg)
    if wrapped is None:
        return verdict
    inner = replace(cfg, epsilon=cfg.epsilon / 2.0, seed=derive_seed(cfg.seed, 1))
    verdict = run_df_additivity(wrapped, d, inner)
    return replace(verdict, queries_used=f.query_count - start)
