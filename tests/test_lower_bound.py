import json
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from lintest.harness import run_lower_bound
from lintest.lower_bound import (
    _MAX_DELTA,
    LowerBoundConfig,
    LowerBoundError,
    build_instance,
    game_report,
    lr_statistic,
    pivots,
    play_trial,
    run_distinguish_game,
    tv_bound,
    wilson_interval,
)
from lintest.rng import chi, derive_seed, make_rng, standard_normal


def _bidiagonal(a, b):
    return np.diag(a) + np.diag(b, -1)


def _spectrum(a, b):
    """The eigenvalues of T = BB^T, ascending, as B's squared singular values.

    A dense reference, and a sharper one than eigvalsh(B B^T): on a draw at n = 30 with
    lambda_min ~ 1e-7, eigvalsh(B B^T) was 8e-9 off a 40-digit value, the SVD 1.3e-14.
    """
    return np.linalg.svd(_bidiagonal(a, b), compute_uv=False)[::-1] ** 2


def test_config_validation():
    with pytest.raises(LowerBoundError):
        LowerBoundConfig(n=1)
    with pytest.raises(LowerBoundError):
        LowerBoundConfig(n=5, C=0.0)
    with pytest.raises(LowerBoundError):
        LowerBoundConfig(n=5, C=(2.0 / 3.0) ** 2)
    with pytest.raises(LowerBoundError):
        LowerBoundConfig(n=5, trials=0)
    with pytest.raises(LowerBoundError):
        LowerBoundConfig(n=5, delta_override=-1.0)
    with pytest.raises(LowerBoundError):
        LowerBoundConfig(n=5, delta_override=float("nan"))


def test_identity_fixture():
    # B = I_2, so T = I: p = (1, 1), g = delta, h = 0, and at delta = 1 the closed form
    # is sqrt((2 - 2 ln 2) / 4); the statistic is |v|^2 / 2 - 2 ln 2
    a, b = np.ones(2), np.zeros(1)
    p, g, h = pivots(a, b, 1.0)
    assert p.tolist() == g.tolist() == [1.0, 1.0] and h.tolist() == [0.0, 0.0]
    assert tv_bound(p, g, h) == pytest.approx(math.sqrt((2.0 - 2.0 * math.log(2.0)) / 4.0),
                                              abs=1e-12)
    v = np.array([0.3, -2.0])
    assert lr_statistic(v, a, b, p, g, 1.0) == pytest.approx(4.09 / 2 - 2 * math.log(2.0),
                                                             rel=1e-15)
    assert tv_bound(*pivots(a, b, 0.0)) == 0.0
    assert lr_statistic(v, a, b, *pivots(a, b, 0.0)[:2], 0.0) == 0.0
    for bad in (-0.1, float("nan"), 1e300):
        with pytest.raises(LowerBoundError, match="need delta in"):
            pivots(a, b, bad)


def test_build_instance_full_rank_and_delta_formula():
    cfg = LowerBoundConfig(n=30, C=0.01, trials=1, seed=0)
    rng = make_rng(1)
    for _ in range(100):
        (a, b), delta, resamples = build_instance(cfg, rng)
        assert a.shape == (30,) and b.shape == (29,)
        assert resamples == 0
        assert delta > 0.0
        assert delta == pytest.approx(0.01 * _spectrum(a, b)[0] / 30**2, rel=1e-9)


def test_tv_bound_never_exceeds_half_sqrt_c():
    rng = make_rng(2)
    for n in (5, 20):
        for c in (0.01, 0.1, 0.4):
            cfg = LowerBoundConfig(n=n, C=c, trials=1, seed=0)
            for _ in range(25):
                (a, b), delta, _ = build_instance(cfg, rng)
                assert tv_bound(*pivots(a, b, delta)) <= 0.5 * math.sqrt(c) + 1e-12


def test_wilson_interval_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038315, abs=1e-6)
    assert hi == pytest.approx(0.5961685, abs=1e-6)
    lo0, hi0 = wilson_interval(0, 10)
    assert lo0 == 0.0 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_game_with_zero_delta_is_pure_coin_flipping():
    report = run_distinguish_game(LowerBoundConfig(n=5, trials=2000, seed=3,
                                                   delta_override=0.0))
    assert abs(report.success_rate - 0.5) < 0.05
    assert report.mean_tv_bound == 0.0
    assert report.max_tv_bound == 0.0
    assert report.bound_respected


def test_game_control_cell_is_distinguishable():
    report = run_distinguish_game(LowerBoundConfig(n=2, trials=800, seed=4,
                                                   delta_override=1.0))
    assert report.success_rate > 0.6


def test_game_hard_cell_stays_near_chance():
    report = run_distinguish_game(LowerBoundConfig(n=10, C=0.01, trials=300, seed=5))
    assert report.success_rate <= 0.6
    assert report.mean_tv_bound <= 0.5 * math.sqrt(0.01)
    assert report.max_tv_bound >= report.mean_tv_bound
    assert report.bound_respected


def test_bound_respected_is_an_exact_binomial_tail():
    # A cell fails only if P(Bin(trials, 1/2 + mean TV/2) >= successes) < 1e-4.
    cfg = LowerBoundConfig(n=4, trials=20)

    def respected(wins, tv):
        outcomes = [(t < wins, tv, 0.0, 0) for t in range(cfg.trials)]
        return game_report(cfg, outcomes).bound_respected
    assert respected(16, 0.0) is True  # P = 0.0059
    assert respected(18, 0.0) is True  # P = 2.0e-4
    assert respected(19, 0.0) is False  # P = 2.0e-5
    assert respected(20, 0.0) is False
    assert respected(20, 1.0) is True  # 1/2 + TV/2 = 1: every rate is allowed
    assert respected(20, 3.0) is True  # a TV bound above 1 caps there
    assert respected(0, 0.0) is True


def test_game_report_is_deterministic_and_json_complete():
    cfg = LowerBoundConfig(n=6, C=0.05, trials=50, seed=6)
    report = run_distinguish_game(cfg)
    a = report.to_json()
    b = run_distinguish_game(cfg).to_json()
    assert a == b
    assert a["wilson_interval"] == list(report.wilson_interval)
    assert type(a["wilson_interval"]) is list
    assert set(a) == {"successes", "success_rate", "wilson_interval", "mean_tv_bound",
                      "max_tv_bound", "delta_stats", "resamples", "bound_respected"}


def test_game_is_the_aggregate_of_its_trials():
    cfg = LowerBoundConfig(n=6, C=0.05, trials=12, seed=6)
    outcomes = [play_trial(cfg, t) for t in range(cfg.trials)]
    assert run_distinguish_game(cfg) == game_report(cfg, outcomes)


def test_play_trial_does_not_depend_on_the_other_trials():
    cfg = LowerBoundConfig(n=7, C=0.1, trials=10, seed=11)
    in_order = [play_trial(cfg, t) for t in range(10)]
    backwards = [play_trial(cfg, t) for t in reversed(range(10))][::-1]
    assert backwards == in_order
    assert play_trial(cfg, 6) == in_order[6]  # alone, after no other trial
    assert play_trial(LowerBoundConfig(n=7, C=0.1, trials=500, seed=11), 6) == in_order[6]


# --- the bidiagonal model against the dense reference ---------------------------------


def _dense_spectra(n, draws, seed):
    rng = make_rng(seed)
    return np.array([np.linalg.eigvalsh(X @ X.T)
                     for X in (standard_normal(rng, (n, n)) for _ in range(draws))])


def _bidiagonal_spectra(n, draws, seed):
    cfg = LowerBoundConfig(n=n, trials=1, seed=0)
    rng = make_rng(seed)
    return np.array([_spectrum(*build_instance(cfg, rng)[0]) for _ in range(draws)])


@pytest.mark.parametrize("n", [2, 10, 50])
def test_bidiagonal_spectrum_matches_dense_in_distribution(n):
    dense = _dense_spectra(n, 2000, seed=100 + n)
    bidiag = _bidiagonal_spectra(n, 2000, seed=200 + n)
    for k in (0, n // 2, n - 1):  # lambda_min, the median eigenvalue, lambda_max
        assert ks_2samp(dense[:, k], bidiag[:, k]).pvalue > 1e-3


@pytest.mark.parametrize("n", [2, 3, 10, 100, 200])
def test_build_instance_draws_b_from_its_stream_bit_for_bit(n):
    cfg = LowerBoundConfig(n=n, trials=1, seed=0)
    dfs = np.concatenate([np.arange(n, 0, -1), np.arange(n - 1, 0, -1)])
    ours, ref = make_rng(40 + n), make_rng(40 + n)  # the same stream, drawn twice
    for _ in range(20):
        c = chi(ref, dfs)
        (a, b), delta, _ = build_instance(cfg, ours)
        assert np.array_equal(a, c[:n]) and np.array_equal(b, c[n:])
        B = _bidiagonal(a, b)
        assert delta == pytest.approx(0.01 * np.linalg.eigvalsh(B @ B.T)[0] / n**2, rel=1e-6)
    assert ours.random() == ref.random()  # nothing else was drawn


def test_importing_the_library_leaves_scipy_linalg_unloaded():
    import lintest

    src = os.path.dirname(os.path.dirname(lintest.__file__))
    script = ("import sys, lintest, lintest.cli\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_build_instance_raises_on_a_failed_tridiagonal_solve(monkeypatch):
    import scipy.linalg.lapack

    monkeypatch.setattr(scipy.linalg.lapack, "dstebz", lambda d, e, *_: (0, d, d, d, 1))
    with pytest.raises(LowerBoundError, match="dstebz info 1"):
        build_instance(LowerBoundConfig(n=4, trials=1, seed=0), make_rng(0))


def _dense_route_successes(n, delta, trials, seed):
    """The game played on an explicit X: v = Xw (+ noise), rotated by the eigenvectors."""
    rng = make_rng(seed)
    successes = 0
    for _ in range(trials):
        X = standard_normal(rng, (n, n))
        lam, U = np.linalg.eigh(X @ X.T)
        truth_yes = bool(rng.random() < 0.5)
        v = X @ standard_normal(rng, n)
        if not truth_yes:
            v = v + math.sqrt(delta) * standard_normal(rng, n)
        y2 = (U.T @ v) ** 2
        ll_yes = -0.5 * (np.sum(np.log(lam)) + np.sum(y2 / lam))
        ll_no = -0.5 * (np.sum(np.log(lam + delta)) + np.sum(y2 / (lam + delta)))
        successes += (ll_yes > ll_no) == truth_yes
    return successes


def test_bidiagonal_game_matches_the_dense_route():
    trials = 4000
    dense_rate = _dense_route_successes(10, 0.5, trials, seed=12) / trials
    direct = run_distinguish_game(LowerBoundConfig(n=10, trials=trials, seed=13,
                                                   delta_override=0.5))
    lo, hi = direct.wilson_interval
    assert lo <= dense_rate <= hi
    lo, hi = wilson_interval(round(dense_rate * trials), trials)
    assert lo <= direct.success_rate <= hi
    assert direct.success_rate > 0.6  # delta = 0.5 at n = 10 is far from coin flipping


# --- the pivot forms against the spectral forms -----------------------------------------


def _tv_bound_decimal(eigvals, delta):
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(delta)
        total = Decimal(0)
        for lam in eigvals:
            r = d / Decimal(float(lam))
            total += r - (1 + r).ln()
        return float((total / 4).sqrt())


def _eigenbasis_statistic(v, a, b, delta):
    """The LR rule in the eigenbasis of T: sum delta y^2 / (lam (lam + delta)) - log1p(delta / lam)
    with y = U^T v, U the left singular vectors of B; returned as (quadratic part, log det)."""
    U, s, _ = np.linalg.svd(_bidiagonal(a, b))
    lam, y = s * s, U.T @ v
    return (float(np.sum(delta * (y / lam) * (y / (lam + delta)))),
            float(np.sum(np.log1p(delta / lam))))


@pytest.mark.parametrize("n", [10, 100, 200])
def test_tv_bound_matches_a_decimal_reference(n):
    cfg = LowerBoundConfig(n=n, C=0.01, trials=1, seed=0)
    rng = make_rng(30 + n)
    for _ in range(5):
        (a, b), delta, _ = build_instance(cfg, rng)
        assert tv_bound(*pivots(a, b, delta)) == pytest.approx(
            _tv_bound_decimal(_spectrum(a, b), delta), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 64), st.floats(1e-6, 0.44),
       st.sampled_from([None, 0.0, 1e-20, 1.0, _MAX_DELTA]), st.integers(0, 2**32))
def test_pivot_forms_match_the_spectral_forms(n, c, override, seed):
    cfg = LowerBoundConfig(n=n, C=c, seed=seed, delta_override=override)
    rng = make_rng(seed)
    (a, b), delta, _ = build_instance(cfg, rng)
    lam = _spectrum(a, b)
    if override is None:
        assert delta == pytest.approx(c * lam[0] / n**2, rel=1e-9)
    else:
        assert delta == override
    p, g, h = pivots(a, b, delta)
    assert np.all(g >= delta) and np.all(h >= 0.0)
    quadratic, log_det = _eigenbasis_statistic(v := standard_normal(rng, n), a, b, delta)
    assert float(np.sum(np.log1p(g / p))) == pytest.approx(log_det, rel=1e-12, abs=0.0)
    assert tv_bound(p, g, h) == pytest.approx(_tv_bound_decimal(lam, delta), rel=1e-12, abs=0.0)
    # the two parts nearly cancel on a yes-draw, so the statistic is held to their size
    assert lr_statistic(v, a, b, p, g, delta) == pytest.approx(
        quadratic - log_det, rel=0.0, abs=1e-10 * (quadratic + log_det))


@pytest.mark.parametrize("n", [2, 30, 200])
def test_pivot_sums_give_the_trace_and_the_log_det(n):
    # sum (g + h)/p = delta tr T^-1 and sum log1p(g/p) = log det(I + delta T^-1), term by
    # term nonnegative, at the game's delta and at one far above it
    rng = make_rng(60 + n)
    for override in (None, 1.0):
        (a, b), delta, _ = build_instance(LowerBoundConfig(n=n, delta_override=override), rng)
        lam = _spectrum(a, b)
        p, g, h = pivots(a, b, delta)
        assert float(np.sum((g + h) / p)) == pytest.approx(delta * float(np.sum(1.0 / lam)),
                                                           rel=1e-12)
        assert float(np.sum(np.log1p(g / p))) == pytest.approx(
            float(np.sum(np.log1p(delta / lam))), rel=1e-12)


@pytest.mark.parametrize("n", [10, 200])
def test_lr_statistic_decides_as_the_eigenbasis_rule(n):
    # on the game's own draws, the statistic takes the eigenbasis rule's sign
    cfg = LowerBoundConfig(n=n, C=0.01, trials=60, seed=17)
    for t in range(cfg.trials):
        rng = make_rng(derive_seed(cfg.seed, t))
        (a, b), delta, _ = build_instance(cfg, rng)
        truth_yes = bool(rng.random() < 0.5)
        z = standard_normal(rng, (2, n))
        # B z (+ sqrt(delta) z'), summed in the game's order
        v = a * z[0] + (0.0 if truth_yes else math.sqrt(delta)) * z[1]
        v[1:] += b * z[0, :-1]
        quadratic, log_det = _eigenbasis_statistic(v, a, b, delta)
        stat = lr_statistic(v, a, b, *pivots(a, b, delta)[:2], delta)
        assert (stat < 0.0) == (quadratic < log_det)
        # the game's success follows the same decision (no statistic here is exactly 0)
        assert play_trial(cfg, t)[0] == ((stat < 0.0) == truth_yes)


def test_tv_bound_covers_both_sides_of_the_series_switch():
    # a diagonal B: T = diag(eigvals), so p = eigvals, g = delta and h = 0
    eigvals = np.array([1.0, 10.0, 1e3])
    a, b = np.sqrt(eigvals), np.zeros(2)
    for delta in (0.5, 1e-3, 0.999e-3, 1.001e-3):
        assert tv_bound(*pivots(a, b, delta)) == pytest.approx(
            _tv_bound_decimal(eigvals, delta), rel=1e-12)


@pytest.mark.parametrize("position", [0, 2, 3])
@pytest.mark.parametrize("diagonal, bad, refusal", [(True, 0.0, "no a_i = 0"),
                                                    (True, np.nan, "no a_i = 0"),
                                                    (False, np.nan, "not finite")])
def test_a_bad_entry_of_the_bidiagonal_at_any_position_is_refused(diagonal, bad, refusal,
                                                                  position):
    # a singular T is refused before any division, and a NaN in b reaches the sum,
    # which is refused: a typed error, with no warning and no garbage TV bound
    a, b = np.array([5.0, 2.0, 7.0, 3.0, 4.0]), np.ones(4)
    (a if diagonal else b)[position] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LowerBoundError, match=refusal):
            tv_bound(*pivots(a, b, 1.0))


@pytest.mark.parametrize("delta", [1e-20, 0.0])
def test_game_runs_at_vanishing_delta(delta):
    report = run_distinguish_game(LowerBoundConfig(n=8, trials=400, seed=9,
                                                   delta_override=delta))
    assert abs(report.success_rate - 0.5) < 0.1
    assert 0.0 <= report.max_tv_bound < 1e-9
    assert (report.max_tv_bound == 0.0) == (delta == 0.0)
    assert report.bound_respected


def test_a_cell_at_n_ten_thousand_stays_under_its_bound():
    # O(n) per trial: a spectrum solve here took about 1.8 s a trial
    report = run_lower_bound({"n": 10**4, "C": 0.01, "trials": 5, "seed": 21})
    (cell,) = report["cells"]
    assert cell["bound_respected"]
    assert 0.0 < cell["max_tv_bound"] <= 0.5 * math.sqrt(0.01)


def test_game_reports_do_not_move_across_blas_kernels(tmp_path):
    # The trial calls LAPACK (dstebz, dpttrs) and sums a product; each subprocess
    # pins OpenBLAS's kernel, and must show that it did.
    import lintest

    spec = tmp_path / "lb.json"
    spec.write_text(json.dumps({"n_list": [2, 50], "C": 0.01, "trials": 20, "seed": 8}))
    src = os.path.dirname(os.path.dirname(lintest.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=src, OPENBLAS_VERBOSE="2")
    reports = {}
    for core in (None, "Haswell", "Sandybridge"):
        done = subprocess.run([sys.executable, "-m", "lintest.cli", "lower-bound", "--spec",
                               str(spec)], capture_output=True, text=True, timeout=120,
                              env=env if core is None else {**env, "OPENBLAS_CORETYPE": core})
        assert done.returncode == 0, done.stderr
        cores = re.findall(r"^Core: (\S+)", done.stderr, re.MULTILINE)
        assert cores, f"OpenBLAS printed no Core line (is numpy on OpenBLAS?): {done.stderr!r}"
        assert core is None or set(cores) == {core}, f"asked for {core}, ran {cores}"
        reports[core] = re.sub(r', "wall_clock_s": [^,}]+', "", done.stdout)
    assert reports["Haswell"] == reports[None]
    assert reports["Sandybridge"] == reports[None]
