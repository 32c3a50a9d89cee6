"""The vectorized testers against the sequential reference transcription in reference.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import reference
from lintest.distro import ShiftedGaussian, StandardGaussian
from lintest.oracle import (
    ConstantShiftLinear,
    CorruptedLinear,
    CorruptionRegion,
    CustomOracle,
    NoisyLinear,
    NormOracle,
    random_linear,
)
from lintest.tester import (
    TesterConfig,
    run_df_additivity,
    run_df_linearity,
    run_gaussian_additivity,
)

_RUNS = {
    "gaussian-additivity": (lambda f, d, cfg: run_gaussian_additivity(f, cfg),
                            lambda f, d, cfg: reference.gaussian_additivity(f, cfg)),
    "df-additivity": (run_df_additivity, reference.df_additivity),
    "df-linearity": (run_df_linearity, reference.df_linearity),
}


def _family(name, n, mass):
    """An oracle of the named family at dimension n.  `mass` is a corruption's N(0,I)-mass;
    from 1e-3 down the battery often lets it through to the main loop."""
    w = random_linear(n, w_seed=8).w
    u = np.eye(n)[0]
    return {
        "linear": lambda: random_linear(n, w_seed=8),
        "constant-shift": lambda: ConstantShiftLinear(w, 1.0),
        "norm": lambda: NormOracle(n),
        "noisy": lambda: NoisyLinear(w, 0.1, noise_seed=5),
        "corrupted": lambda: CorruptedLinear.with_mass(w, mass),
        "corrupted-odd": lambda: CorruptedLinear.with_mass(w, mass, odd_symmetric=True),
        # u.x > 5: N(0,I)-mass ~3e-7, and D below puts `mass` on it
        "hidden": lambda: CorruptedLinear(w, CorruptionRegion.from_threshold(u, 5.0)),
    }[name]()


def _times(f, scale):
    """2^k f as an oracle of its own, so that every check runs at f's scale times 2^k.

    It evaluates f one row per call: a BLAS product's last bits move with a row's
    position in its batch, and the probe's v_1 = f(p/k_p - x_1) + f(x_1) cancels from
    the scale of f(x_1) down to that of g on the 1/r ball, so one moved bit of f would
    be many of v_1.
    """
    return CustomOracle(f.dim, lambda xs: scale * np.concatenate(
        [f.query_batch(xs[i:i + 1]) for i in range(len(xs))]))


def _close(a, b):
    """a and b at most a few units in the last place apart."""
    return abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b)))


def _compare(algorithm, family, mass, epsilon, n, k, seed):
    """Run the library and the reference on the same seed, check that they agree, and
    return the library's verdict.

    Same seed, same streams: the reference draws round by round, the library chunk by
    chunk, so both meet the same first failing check on the same point.  The library
    evaluates whole chunks, so it spends at least the reference's sequential count, and
    exactly the closed form on accept.  D is uncorrelated: N(0, I), or N(s u, I) with
    `mass` on the hidden halfspace.
    """
    u = np.eye(n)[0]

    def d():
        if family == "hidden":
            return ShiftedGaussian((5.0 - ndtri(1.0 - mass)) * u, seed=seed + 1)
        return StandardGaussian(n, seed=seed + 1)
    cfg = TesterConfig(epsilon=epsilon, seed=seed)
    run, ref_run = _RUNS[algorithm]
    f, g = (_times(_family(family, n, mass), 2.0**k) for _ in range(2))
    verdict, ref = run(f, d(), cfg), ref_run(g, d(), cfg)
    assert (verdict.outcome, verdict.reject_site) == (ref.outcome, ref.reject_site)
    assert ref.queries_used == g.query_count <= verdict.queries_used == f.query_count
    if verdict.accepted:
        inner = TesterConfig(epsilon=epsilon / 2)
        closed = (cfg.accept_path_queries() if algorithm != "df-linearity" else
                  2 * cfg.rounds_forceneg + 2 * inner.accept_path_queries())
        assert ref.queries_used == verdict.queries_used == closed
        assert ref.transcript == verdict.transcript == []
        return verdict
    (witness,), (ref_witness,) = verdict.transcript, ref.transcript
    points = 1 + sum(isinstance(v, list) for v in witness)
    assert ref_witness[:points] == witness[:points]  # the site and the point(s)
    for mine, theirs in zip(witness[points:], ref_witness[points:], strict=True):
        if isinstance(mine, int):  # the probe's scaling index e
            assert mine == theirs
        elif theirs is not None:  # a query-g-disagreement has not evaluated f(p)
            assert _close(mine, theirs), (mine, theirs)
    return verdict


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_RUNS)),
       st.sampled_from(["linear", "constant-shift", "norm", "noisy", "corrupted",
                        "corrupted-odd", "hidden"]),
       st.sampled_from([0.3, 0.02, 1e-3, 1e-4]), st.sampled_from([0.05, 0.1, 0.2]),
       st.integers(2, 6), st.integers(-30, 30), st.integers(0, 2**32 - 1))
def test_the_vectorized_testers_reach_the_sequential_reference_verdict(
        algorithm, family, mass, epsilon, n, k, seed):
    _compare(algorithm, family, mass, epsilon, n, k, seed)


@pytest.mark.parametrize("algorithm, family, mass, epsilon, n, k, seed, site", [
    ("gaussian-additivity", "corrupted", 1e-3, 0.05, 4, 5, 11, "query-g-disagreement"),
    ("gaussian-additivity", "corrupted", 1e-4, 0.1, 4, -3, 28, "f!=g"),
    ("df-additivity", "corrupted", 1e-4, 0.05, 3, 0, 0, "query-g-disagreement"),
    ("df-additivity", "hidden", 0.3, 0.05, 3, 7, 0, "f!=g"),
    ("df-linearity", "hidden", 0.3, 0.2, 3, -7, 2, "f!=g"),
])
def test_main_loop_rejects_reach_the_sequential_reference_verdict(
        algorithm, family, mass, epsilon, n, k, seed, site):
    # random draws above seldom pass the battery and then fail in the main loop
    assert _compare(algorithm, family, mass, epsilon, n, k, seed).reject_site == site
