"""Acceptance suite: ten end-to-end checks, one printed PASS/FAIL line each.

Each test prints its verdict line directly to the terminal (bypassing
capture) so a `pytest -v` log doubles as the acceptance report.  Thresholds
and tolerances are pinned in the assertions; nothing is tuned at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from lintest.distro import ShiftedGaussian, StandardGaussian
from lintest.gauss_core import (
    GaussianDist,
    empirical_tv,
    kl_gaussians,
    pinsker_tv_bound,
    shared_cov_tv_bound,
)
from lintest.harness import run_query_scaling
from lintest.lower_bound import (
    LowerBoundConfig,
    run_distinguish_game,
    wilson_interval,
)
from lintest.oracle import (
    ConstantShiftLinear,
    CorruptedLinear,
    CorruptionRegion,
    LinearOracle,
    NoisyLinear,
    NormOracle,
)
from lintest.rng import derive_seed, make_rng, standard_normal
from lintest.tester import (
    TesterConfig,
    force_negativity,
    query_g,
    run_df_additivity,
    run_df_linearity,
    run_gaussian_additivity,
    test_additivity,
)


def _emit(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_acceptance_01_one_sided_error(capsys):
    # Linear oracles, n = 10, eps = 0.1: the Gaussian additivity tester, the
    # distribution-free additivity tester, and the linearity tester each
    # accept 1000/1000 seeded trials, in under 10 seconds total.
    n, trials = 10, 1000
    start = time.perf_counter()
    accepts = {"gaussian": 0, "df-additivity": 0, "df-linearity": 0}
    for t in range(trials):
        w = standard_normal(make_rng(derive_seed(0, t)), n)
        cfg = TesterConfig(epsilon=0.1, seed=derive_seed(1, t))
        if run_gaussian_additivity(LinearOracle(w), cfg).accepted:
            accepts["gaussian"] += 1
        d = StandardGaussian(n, seed=derive_seed(2, t))
        if run_df_additivity(LinearOracle(w), d, cfg).accepted:
            accepts["df-additivity"] += 1
        d2 = StandardGaussian(n, seed=derive_seed(3, t))
        if run_df_linearity(LinearOracle(w), d2, cfg).accepted:
            accepts["df-linearity"] += 1
    elapsed = time.perf_counter() - start
    ok = all(v == trials for v in accepts.values()) and elapsed < 10.0
    _emit(capsys, 1, ok,
          f"accepts {accepts['gaussian']}/{accepts['df-additivity']}/"
          f"{accepts['df-linearity']} of {trials} (gaussian/df-add/df-lin), "
          f"{elapsed:.1f}s < 10s")
    assert accepts == {"gaussian": trials, "df-additivity": trials,
                       "df-linearity": trials}
    assert elapsed < 10.0


def test_acceptance_02_far_instance_rejection(capsys):
    # CorruptedLinear(mass 0.3, payload 1.0), eps = 0.1, n = 10:
    # reject rate >= 0.9 over 500 trials, Wilson 95% lower bound >= 0.85.
    trials, n = 500, 10
    rejects = 0
    for t in range(trials):
        w = standard_normal(make_rng(derive_seed(10, t)), n)
        f = CorruptedLinear.with_mass(w, 0.3, payload=1.0)
        cfg = TesterConfig(epsilon=0.1, seed=derive_seed(11, t))
        rejects += not run_gaussian_additivity(f, cfg).accepted
    lo, _ = wilson_interval(rejects, trials)
    ok = rejects / trials >= 0.9 and lo >= 0.85
    _emit(capsys, 2, ok,
          f"reject rate {rejects}/{trials} = {rejects / trials:.3f} >= 0.9, "
          f"Wilson lower bound {lo:.3f} >= 0.85")
    assert rejects / trials >= 0.9
    assert lo >= 0.85


def test_acceptance_03_distribution_free_distinction(capsys):
    # Corruption on the halfspace u.x > 5: N(0,I)-mass < 1e-4 but D-mass 0.3
    # for D = N((5 - ndtri(0.7)) u, I).  The distribution-free tester rejects
    # >= 2/3 of 500 trials while the Gaussian tester accepts >= 0.9 of them.
    trials, n = 500, 10
    u = np.eye(n)[0]
    region = CorruptionRegion.from_threshold(u, 5.0)
    assert region.target_mass < 1e-4
    shift = (5.0 - float(ndtri(0.7))) * u  # Pr_D[u.x > 5] = 0.3 exactly
    df_rejects = gauss_accepts = 0
    for t in range(trials):
        w = standard_normal(make_rng(derive_seed(20, t)), n)
        cfg = TesterConfig(epsilon=0.1, seed=derive_seed(21, t))
        d = ShiftedGaussian(shift, seed=derive_seed(22, t))
        df_rejects += not run_df_additivity(
            CorruptedLinear(w, region, payload=1.0), d, cfg).accepted
        gauss_accepts += run_gaussian_additivity(
            CorruptedLinear(w, region, payload=1.0), cfg).accepted
    ok = df_rejects >= (2 * trials) // 3 and gauss_accepts >= int(0.9 * trials)
    _emit(capsys, 3, ok,
          f"df rejects {df_rejects}/{trials} >= {(2 * trials) // 3}, "
          f"gaussian accepts {gauss_accepts}/{trials} >= {int(0.9 * trials)}")
    assert df_rejects >= (2 * trials) // 3
    assert gauss_accepts >= int(0.9 * trials)


def test_acceptance_04_query_complexity(capsys):
    # Accept-path query counts match the closed form exactly for
    # eps in {0.2, 0.1, 0.05, 0.01}; the epsilon-dependent stage stays within
    # a 4x band of (1/eps) log2(1/eps) across the sweep.
    report = run_query_scaling({"epsilons": [0.2, 0.1, 0.05, 0.01], "seed": 30})
    rows = report["rows"]
    measured = [r["measured_queries"] for r in rows]
    exact = all(r["outcome"] == "accept" and r["exact_on_accept"] for r in rows)
    # independently derived counts for the four sweep points
    assert measured == [2056, 2357, 3049, 9677]
    band = report["ratio_band"]
    ok = exact and report["ratio_band_ok"] and band < 4.0
    _emit(capsys, 4, ok,
          f"measured queries {measured} equal closed form exactly; "
          f"main-stage ratio band {band:.2f}x < 4x")
    assert exact
    assert band < 4.0


def test_acceptance_05_self_corrector_fidelity(capsys):
    # CorruptedLinear(mass 0.01), n = 10, 10^4 random p ~ N(0,I): whenever
    # the probe returns a value, it is w.p within tolerance (>= 99%); the
    # probe returns a value on the overwhelming majority of points.
    n, total = 10, 10_000
    w = standard_normal(make_rng(40), n)
    f = CorruptedLinear.with_mass(w, 0.01, payload=1.0)
    rng = make_rng(41)
    returned = correct = 0
    for t in range(total):
        p = standard_normal(rng, n)
        res = query_g(f, p, TesterConfig(epsilon=0.1, seed=derive_seed(42, t)))
        if res.rejected:
            continue
        returned += 1
        truth = float(w @ p)
        correct += abs(res.value - truth) <= 1e-6 * max(1.0, abs(truth))
    ok = returned >= int(0.85 * total) and correct / returned >= 0.99
    _emit(capsys, 5, ok,
          f"{returned}/{total} probes returned a value; "
          f"{correct}/{returned} = {correct / returned:.4f} correct >= 0.99")
    assert returned >= int(0.85 * total)
    assert correct / returned >= 0.99
    assert correct == returned  # a returned-but-wrong value never occurred


def test_acceptance_06_force_negativity_contract(capsys):
    # The returned wrapper is odd within tolerance on 10^3 random points for
    # every oracle family; the even norm function is rejected on its first
    # sampled point in 500/500 trials.
    n = 4
    families = {
        "linear": LinearOracle(standard_normal(make_rng(50), n)),
        "constant-shift": ConstantShiftLinear(standard_normal(make_rng(51), n), 2.0),
        "corrupted": CorruptedLinear.with_mass(standard_normal(make_rng(52), n), 0.3),
        "corrupted-odd": CorruptedLinear.with_mass(standard_normal(make_rng(53), n),
                                                   0.3, odd_symmetric=True),
        "noisy": NoisyLinear(standard_normal(make_rng(54), n), 0.1, noise_seed=1),
        "norm": NormOracle(n),
    }
    from lintest.tester import OddOracle

    pol = TesterConfig(epsilon=0.1).policy
    odd_ok = True
    for name, base in families.items():
        wrapped = OddOracle(base)
        xs = standard_normal(make_rng(hash(name) & 0xFFFF), (1000, n))
        a = wrapped.query_batch(xs)
        b = wrapped.query_batch(-xs)
        odd_ok &= bool(np.all(pol.eq_arr(b, -a)))

    first_sample_rejects = 0
    for t in range(500):
        seed = derive_seed(55, t)
        d = StandardGaussian(n, seed=seed)
        wrapped, verdict = force_negativity(NormOracle(n), d,
                                            TesterConfig(epsilon=0.1, seed=t))
        if wrapped is not None or verdict.outcome != "reject":
            continue
        # the recorded failing point must be the distribution's first draw
        expected_first = StandardGaussian(n, seed=seed).draw()
        if np.allclose(verdict.transcript[0][1], expected_first):
            first_sample_rejects += 1
    ok = odd_ok and first_sample_rejects == 500
    _emit(capsys, 6, ok,
          f"wrapper odd on 1000 points for all {len(families)} families: {odd_ok}; "
          f"norm rejected on first sample {first_sample_rejects}/500")
    assert odd_ok
    assert first_sample_rejects == 500


def test_acceptance_07_gaussian_toolkit_exactness(capsys):
    # kl(N(0,I), N(p,I)) = ||p||^2 / 2 within 1e-12 for 100 random p;
    # 1-D KL agrees with numerical integration within 1e-6.
    rng = make_rng(60)
    max_err = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 8))
        p = standard_normal(rng, dim)
        kl = kl_gaussians(GaussianDist.standard(dim),
                          GaussianDist(p, np.eye(dim)))
        max_err = max(max_err, abs(kl - 0.5 * float(p @ p)))

    d1 = GaussianDist(np.array([0.7]), np.array([[1.3]]))
    d2 = GaussianDist(np.array([-0.2]), np.array([[0.6]]))

    def integrand(x):
        p1 = stats.norm.pdf(x, 0.7, math.sqrt(1.3))
        p2 = stats.norm.pdf(x, -0.2, math.sqrt(0.6))
        return p1 * (np.log(p1) - np.log(p2))

    ref, _ = integrate.quad(integrand, -25, 25)
    quad_err = abs(kl_gaussians(d1, d2) - ref)
    ok = max_err <= 1e-12 and quad_err <= 1e-6
    _emit(capsys, 7, ok,
          f"max |kl - ||p||^2/2| = {max_err:.2e} <= 1e-12; "
          f"1-D KL vs quadrature error {quad_err:.2e} <= 1e-6")
    assert max_err <= 1e-12
    assert quad_err <= 1e-6


def test_acceptance_08_tv_bound_consistency(capsys):
    # empirical_tv never exceeds an applicable analytic bound by more than
    # 5/sqrt(m) over 100 random Gaussian pairs, m = 10^5: Pinsker for every
    # pair, the shared-covariance bound additionally on the 50 pairs built
    # with a common covariance.
    m = 100_000
    slack = 5.0 / math.sqrt(m)
    rng = make_rng(70)
    violations = 0
    worst = -np.inf
    for i in range(100):
        dim = int(rng.integers(1, 6))
        a = standard_normal(rng, (dim, dim))
        cov1 = a @ a.T + 0.2 * np.eye(dim)
        mu1 = standard_normal(rng, dim)
        mu2 = mu1 + standard_normal(rng, dim)
        shared = i < 50
        if shared:
            cov2 = cov1
        else:
            b = standard_normal(rng, (dim, dim))
            cov2 = b @ b.T + 0.2 * np.eye(dim)
        d1 = GaussianDist(mu1, cov1)
        d2 = GaussianDist(mu2, cov2)
        est, _ = empirical_tv(d1, d2, m, derive_seed(71, i))
        bounds = [pinsker_tv_bound(kl_gaussians(d1, d2))]
        if shared:
            bounds.append(shared_cov_tv_bound(mu1, mu2, cov1))
        for bound in bounds:
            worst = max(worst, est - bound)
            violations += est > bound + slack
    ok = violations == 0
    _emit(capsys, 8, ok,
          f"0 of 100 pairs exceed an analytic bound by > 5/sqrt(m) "
          f"(worst excess {worst:.4f} vs slack {slack:.4f})")
    assert violations == 0


def test_acceptance_09_lower_bound_reproduction(capsys):
    # n = 100, C = 0.01, 10^4 trials: analytic TV bound <= 0.05 on every
    # draw, likelihood-ratio success rate <= 0.55, and a delta = 1 control
    # cell reaches >= 0.7; all in under 2 minutes.
    start = time.perf_counter()
    hard = run_distinguish_game(LowerBoundConfig(n=100, C=0.01, trials=10_000, seed=80))
    control = run_distinguish_game(LowerBoundConfig(n=2, trials=2000, seed=81,
                                                    delta_override=1.0))
    elapsed = time.perf_counter() - start
    ok = (hard.max_tv_bound <= 0.05 and hard.success_rate <= 0.55
          and control.success_rate >= 0.7 and elapsed < 120.0)
    _emit(capsys, 9, ok,
          f"max TV bound {hard.max_tv_bound:.2e} <= 0.05, "
          f"hard success {hard.success_rate:.4f} <= 0.55, "
          f"control success {control.success_rate:.4f} >= 0.7, "
          f"{elapsed:.1f}s < 120s")
    assert hard.max_tv_bound <= 0.05
    assert hard.success_rate <= 0.55
    assert hard.bound_respected
    assert control.success_rate >= 0.7
    assert elapsed < 120.0


def test_acceptance_10_noisy_instance_failure(capsys):
    # NoisyLinear(delta = 0.1) fails the identity battery in >= 495/500
    # trials; the three-point identity alone fails on every sampled round.
    n, trials = 10, 500
    rejects = 0
    for t in range(trials):
        w = standard_normal(make_rng(derive_seed(90, t)), n)
        f = NoisyLinear(w, 0.1, noise_seed=derive_seed(91, t))
        verdict = test_additivity(f, TesterConfig(epsilon=0.1, seed=derive_seed(92, t)))
        rejects += verdict.outcome == "reject"

    # the three-point check in isolation: independent noise at three fresh
    # points almost surely breaks the identity
    pol = TesterConfig(epsilon=0.1).policy
    rng = make_rng(93)
    three_point_failures = 0
    rounds = 500
    f = NoisyLinear(standard_normal(make_rng(94), n), 0.1, noise_seed=95)
    for _ in range(rounds):
        x, y, z = (standard_normal(rng, n) for _ in range(3))
        h1 = f.query((x - y) / 2.0)
        h2 = f.query((x - z) / 2.0)
        h3 = f.query((z - y) / 2.0)
        three_point_failures += not pol.eq(h1, h2 + h3)
    ok = rejects >= 495 and three_point_failures == rounds
    _emit(capsys, 10, ok,
          f"battery rejects {rejects}/{trials} >= 495; three-point identity "
          f"fails {three_point_failures}/{rounds} sampled rounds")
    assert rejects >= 495
    assert three_point_failures == rounds
