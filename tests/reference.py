"""A literal sequential transcription of the testers in lintest.tester, for tests only.

Each stage runs its rounds one at a time, makes one scalar `query` call per evaluation
in the order the paper's algorithms read them, and stops at the first failed check.
So a verdict's query count is what the sequential algorithm spends: on accept the
closed form, on reject the rounds before the failing one plus that round's queries up
to its failing check.

Draws come from the library's streams in an order that no chunk schedule enters: each
battery round's x, y, z and then each main-loop round's probe points x_1..x_N from
make_rng(cfg.seed), round after round, and each main-loop or force-negativity point
from D, one round at a time.  This is one valid order of the paper's independent
draws, and it is the library's, because a stream split into consecutive draws gives
what one draw of them all gives.

Only public names are used.  A witness is the library's (site, point(s), values),
except that a query-g-disagreement has not evaluated f(p) and names None for it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from lintest.distro import StandardGaussian
from lintest.rng import derive_seed, make_rng, standard_normal
from lintest.tester import TesterConfig, Verdict, scaling_index


def _battery(query, n, cfg, rng):
    """Per round, on fresh x, y, z ~ N(0,I): f(-x) = -f(x), f(x-y) = f(x) - f(y), and
    f((x-y)/2) = f((x-z)/2) + f((z-y)/2); the first identity that fails names the site."""
    eq = cfg.policy.eq_arr
    for _ in range(cfg.rounds_testadd):
        x, y, z = standard_normal(rng, (3, n))
        witness = (x.tolist(), y.tolist(), z.tolist())
        if not eq(query(-x), -query(x)):
            return ("negation", *witness)
        f_xy, f_x, f_y = query(x - y), query(x), query(y)
        if not eq(f_xy, f_x - f_y, abs(f_x) + abs(f_y)):
            return ("difference", *witness)
        h1, h2, h3 = query((x - y) * 0.5), query((x - z) * 0.5), query((z - y) * 0.5)
        if not eq(h1, h2 + h3, abs(h2) + abs(h3)):
            return ("three-point", *witness)
    return None


def _probe(query, p, cfg, rng):
    """The self-corrected probe of g at p: (agreed, e, v_1, |operands of v_1|).

    p / k_p = p / 2^e lies on the shell of the 1/r ball; v_i = f(p/k_p - x_i) + f(x_i) on
    fresh x_i ~ N(0,I), and the probe stops at the first v_i that disagrees with v_1.
    """
    e = int(scaling_index(p, cfg.r))
    shell = np.ldexp(p, -e)
    for i in range(cfg.rounds_queryg):
        x = standard_normal(rng, p.size)
        a, b = query(shell - x), query(x)
        v, mag = a + b, abs(a) + abs(b)
        if i == 0:
            v1, mag1 = v, mag
        elif not cfg.policy.eq_arr(v, v1, mag + mag1):
            return False, e, v1, mag1
    return True, e, v1, mag1


def _main_loop(query, d, cfg, rng):
    """Per round, on p ~ d: probe g(p), then compare f(p) with g(p) = 2^e v_1, both divided
    by 2^max(e, 0) so that neither passes float max."""
    for _ in range(cfg.rounds_main):
        p = d.draw()
        agreed, e, v1, mag1 = _probe(query, p, cfg, rng)
        if not agreed:
            return ("query-g-disagreement", p.tolist(), None, e, v1)
        fp = query(p)
        lo = min(e, 0)
        if not cfg.policy.eq_arr(math.ldexp(fp, lo - e), math.ldexp(v1, lo), math.ldexp(mag1, lo)):
            return ("f!=g", p.tolist(), fp, e, v1)
    return None


def _additivity(f, query, d, cfg):
    start = f.query_count
    rng = make_rng(cfg.seed)
    witness = _battery(query, f.dim, cfg, rng) or _main_loop(query, d, cfg, rng)
    if witness is None:
        return Verdict("accept", None, f.query_count - start)
    return Verdict("reject", witness[0], f.query_count - start, [witness])


def gaussian_additivity(f, cfg: TesterConfig) -> Verdict:
    """The distribution-free additivity tester with D = N(0,I) on its own seed."""
    return _additivity(f, f.query, StandardGaussian(f.dim, derive_seed(cfg.seed, 2)), cfg)


def df_additivity(f, d, cfg: TesterConfig) -> Verdict:
    """The identity battery and the probe over N(0,I); the main loop's points from d."""
    return _additivity(f, f.query, d, cfg)


def df_linearity(f, d, cfg: TesterConfig) -> Verdict:
    """Force negativity on d, then additivity at epsilon / 2 on f'(x) = (f(x) - f(-x)) / 2,
    each of whose evaluations is two queries of f."""
    start = f.query_count
    for _ in range(cfg.rounds_forceneg):
        x = d.draw()
        a, b = f.query(x), f.query(-x)
        if not cfg.policy.eq_arr(b, -a):
            return Verdict("reject", "force-negativity", f.query_count - start,
                           [("force-negativity", x.tolist(), a, b)])
    inner = replace(cfg, epsilon=cfg.epsilon / 2.0, seed=derive_seed(cfg.seed, 1))
    verdict = _additivity(f, lambda x: 0.5 * (f.query(x) - f.query(-x)), d, inner)
    return replace(verdict, queries_used=f.query_count - start)
