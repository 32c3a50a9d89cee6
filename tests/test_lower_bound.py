import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.stats import ks_2samp

from lintest.lower_bound import (
    LowerBoundConfig,
    LowerBoundError,
    build_instance,
    derive_delta,
    game_report,
    play_trial,
    run_distinguish_game,
    tv_bound,
    wilson_interval,
)
from lintest.rng import chi, make_rng, standard_normal


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


def test_sample_matrix_identity_fixture():
    eigvals = np.linalg.eigvalsh(np.eye(2) @ np.eye(2).T)
    assert np.allclose(eigvals, [1.0, 1.0])
    assert derive_delta(eigvals, 0.01) == pytest.approx(0.01 / 4.0)


def test_tv_bound_identity_fixture():
    # X = I_2, delta = 1: the closed form evaluates to sqrt((2 - 2 ln 2) / 4)
    eigvals = np.linalg.eigvalsh(np.eye(2) @ np.eye(2).T)
    assert tv_bound(eigvals, 1.0) == pytest.approx(math.sqrt((2.0 - 2.0 * math.log(2.0)) / 4.0),
                                              abs=1e-12)
    assert tv_bound(eigvals, 0.0) == 0.0
    with pytest.raises(LowerBoundError):
        tv_bound(eigvals, -0.1)
    with pytest.raises(LowerBoundError):
        tv_bound(np.linalg.eigvalsh(np.zeros((2, 2))), 0.5)


def test_build_instance_full_rank_and_delta_formula():
    cfg = LowerBoundConfig(n=30, C=0.01, trials=1, seed=0)
    rng = make_rng(1)
    for _ in range(100):
        eigvals, delta, resamples = build_instance(cfg, rng)
        assert eigvals[0] > 0.0
        assert resamples == 0
        assert delta == pytest.approx(0.01 * eigvals[0] / 30**2)


def test_tv_bound_never_exceeds_half_sqrt_c():
    rng = make_rng(2)
    for n in (5, 20):
        for c in (0.01, 0.1, 0.4):
            cfg = LowerBoundConfig(n=n, C=c, trials=1, seed=0)
            for _ in range(25):
                eigvals, delta, _ = build_instance(cfg, rng)
                assert tv_bound(eigvals, delta) <= 0.5 * math.sqrt(c) + 1e-12


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


# --- the spectrum-only path against the dense reference ------------------------------


def _dense_spectra(n, draws, seed):
    rng = make_rng(seed)
    return np.array([np.linalg.eigvalsh(X @ X.T)
                     for X in (standard_normal(rng, (n, n)) for _ in range(draws))])


def _bidiagonal_spectra(n, draws, seed):
    cfg = LowerBoundConfig(n=n, trials=1, seed=0)
    rng = make_rng(seed)
    return np.array([build_instance(cfg, rng)[0] for _ in range(draws)])


@pytest.mark.parametrize("n", [2, 10, 50])
def test_bidiagonal_spectrum_matches_dense_in_distribution(n):
    dense = _dense_spectra(n, 2000, seed=100 + n)
    bidiag = _bidiagonal_spectra(n, 2000, seed=200 + n)
    for k in (0, n // 2, n - 1):  # lambda_min, the median eigenvalue, lambda_max
        assert ks_2samp(dense[:, k], bidiag[:, k]).pvalue > 1e-3


def test_tridiagonal_solve_matches_dense_eigvalsh_on_one_bidiagonal():
    n = 50
    c = chi(make_rng(7), np.concatenate([np.arange(n, 0, -1), np.arange(n - 1, 0, -1)]))
    B = np.diag(c[:n]) + np.diag(c[n:], -1)
    dense = np.linalg.eigvalsh(B @ B.T)
    a, b = c[:n], c[n:]
    tri = eigvalsh_tridiagonal(a * a + np.concatenate([[0.0], b * b]), a[:-1] * b)
    # delta is proportional to lambda_min, so it needs relative accuracy
    assert tri[0] == pytest.approx(dense[0], rel=1e-10)
    assert np.allclose(tri, dense, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 10, 100, 200])
def test_build_instance_spectrum_equals_eigvalsh_tridiagonal_bit_for_bit(n):
    cfg = LowerBoundConfig(n=n, trials=1, seed=0)
    dfs = np.concatenate([np.arange(n, 0, -1), np.arange(n - 1, 0, -1)])
    ours, ref = make_rng(40 + n), make_rng(40 + n)  # the same stream, drawn twice
    for _ in range(20):
        c = chi(ref, dfs)
        a, b = c[:n], c[n:]
        expected = eigvalsh_tridiagonal(a * a + np.concatenate([[0.0], b * b]), a[:-1] * b)
        assert np.array_equal(build_instance(cfg, ours)[0], expected)


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

    monkeypatch.setattr(scipy.linalg.lapack, "dsterf", lambda d, e, **_: (d, 1))
    with pytest.raises(LowerBoundError, match="info 1"):
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


def test_direct_eigenbasis_draws_match_the_dense_route():
    trials = 4000
    dense_rate = _dense_route_successes(10, 0.5, trials, seed=12) / trials
    direct = run_distinguish_game(LowerBoundConfig(n=10, trials=trials, seed=13,
                                                   delta_override=0.5))
    lo, hi = direct.wilson_interval
    assert lo <= dense_rate <= hi
    lo, hi = wilson_interval(round(dense_rate * trials), trials)
    assert lo <= direct.success_rate <= hi
    assert direct.success_rate > 0.6  # delta = 0.5 at n = 10 is far from coin flipping


# --- TV bound accuracy and edge cases -------------------------------------------------


def _tv_bound_decimal(eigvals, delta):
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(delta)
        total = Decimal(0)
        for lam in eigvals:
            r = d / Decimal(float(lam))
            total += r - (1 + r).ln()
        return float((total / 4).sqrt())


@pytest.mark.parametrize("n", [10, 100, 200])
def test_tv_bound_matches_a_decimal_reference(n):
    cfg = LowerBoundConfig(n=n, C=0.01, trials=1, seed=0)
    rng = make_rng(30 + n)
    for _ in range(5):
        eigvals, delta, _ = build_instance(cfg, rng)
        assert tv_bound(eigvals, delta) == pytest.approx(_tv_bound_decimal(eigvals, delta),
                                                         rel=1e-12)


def test_tv_bound_covers_both_sides_of_the_series_switch():
    eigvals = np.array([1.0, 10.0, 1e3])
    for delta in (0.5, 1e-3, 0.999e-3, 1.001e-3):
        assert tv_bound(eigvals, delta) == pytest.approx(_tv_bound_decimal(eigvals, delta),
                                                         rel=1e-12)
    with pytest.raises(LowerBoundError):
        tv_bound(eigvals, float("nan"))


def test_tv_bound_rejects_a_delta_whose_ratio_would_overflow():
    # delta / lambda_min beyond sqrt(float max): r^2 is not finite, so the bound
    # is refused, not computed with an overflow
    with pytest.raises(LowerBoundError):
        tv_bound(np.array([1e-9, 1.0, 5.0]), 1e300)


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("bad", [0.0, -1.0, -np.inf, np.nan, 1e-320])
def test_a_bad_eigenvalue_at_any_position_is_refused(bad, position):
    # the smallest entry is found wherever it sits, not read off the front
    eigvals = np.array([5.0, 2.0, 7.0, 3.0, 4.0])
    eigvals[position] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LowerBoundError):
            tv_bound(eigvals, 1.0)


def test_a_shuffled_spectrum_gives_the_same_delta_and_bound():
    rng = make_rng(12)
    eigvals, delta, _ = build_instance(LowerBoundConfig(n=40, seed=3), rng)
    shuffled = rng.permutation(eigvals)
    assert shuffled[0] != eigvals[0]
    assert derive_delta(shuffled, 0.01) == derive_delta(eigvals, 0.01) == delta
    for d in (delta, 0.5 * float(np.median(eigvals))):  # the series and the log1p branch
        assert tv_bound(shuffled, d) == pytest.approx(tv_bound(eigvals, d), rel=1e-15)


@pytest.mark.parametrize("delta", [1e-20, 0.0])
def test_game_runs_at_vanishing_delta(delta):
    report = run_distinguish_game(LowerBoundConfig(n=8, trials=400, seed=9,
                                                   delta_override=delta))
    assert abs(report.success_rate - 0.5) < 0.1
    assert 0.0 <= report.max_tv_bound < 1e-9
    assert (report.max_tv_bound == 0.0) == (delta == 0.0)
    assert report.bound_respected
