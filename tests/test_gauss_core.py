import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate, stats

from lintest.gauss_core import (
    GaussianDist,
    GaussianError,
    _factor,
    divergence_terms,
    empirical_tv,
    kl_gaussians,
    log_density,
    pinsker_tv_bound,
    sample_gaussian,
    shared_cov_tv_bound,
)
from lintest.jacobi import jacobi_eigh
from lintest.lower_bound import LowerBoundConfig, build_instance
from lintest.rng import make_rng, standard_normal


def _random_pd(rng, n, jitter=0.1):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


# --- construction / validation ---------------------------------------------


def test_rejects_asymmetric_covariance():
    cov = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(GaussianError):
        GaussianDist(np.zeros(2), cov)


def test_mean_and_cov_are_read_only_copies():
    mean, cov = np.zeros(3), np.eye(3)
    d = GaussianDist(mean, cov)
    for held in (d.mean, d.cov):
        with pytest.raises(ValueError):
            held[0] = 5.0
    mean[0] = 5.0  # the caller's arrays stay writable and unlinked
    cov[:] = 4.0 * np.eye(3)
    assert np.array_equal(d.mean, np.zeros(3)) and np.array_equal(d.cov, np.eye(3))
    assert np.var(sample_gaussian(d, 0, size=20000)[:, 0]) < 1.1


def test_symmetrizes_tiny_asymmetry():
    cov = np.array([[1.0, 0.3 + 1e-14], [0.3, 1.0]])
    d = GaussianDist(np.zeros(2), cov)
    assert np.array_equal(d.cov, d.cov.T)


def test_rejects_dimension_mismatch_and_nonfinite():
    with pytest.raises(GaussianError):
        GaussianDist(np.zeros(3), np.eye(2))
    with pytest.raises(GaussianError):
        GaussianDist(np.array([np.nan]), np.eye(1))


def test_indefinite_covariance_rejected_where_it_matters():
    d = GaussianDist(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(GaussianError):
        sample_gaussian(d, 0, size=4)
    with pytest.raises(GaussianError):
        log_density(d, np.zeros(2))


def test_singular_covariance_samples_but_has_no_density():
    # rank-1 covariance: sampling fine, inversion-based ops must refuse
    u = np.array([1.0, 2.0])
    d = GaussianDist(np.zeros(2), np.outer(u, u))
    x = sample_gaussian(d, 3, size=1000)
    # all samples lie on the line spanned by u
    cross = x[:, 0] * u[1] - x[:, 1] * u[0]
    assert np.max(np.abs(cross)) < 1e-9
    with pytest.raises(GaussianError):
        log_density(d, np.zeros(2))
    with pytest.raises(GaussianError):
        kl_gaussians(d, GaussianDist.standard(2))


# --- sampling ----------------------------------------------------------------


def test_sampling_reproducible_and_seed_sensitive():
    d = GaussianDist(np.array([1.0, -2.0]), _random_pd(np.random.default_rng(0), 2))
    a = sample_gaussian(d, 11, size=64)
    b = sample_gaussian(d, 11, size=64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_gaussian(d, 12, size=64))


@pytest.mark.parametrize("n", [1, 10, 50])
def test_identity_covariance_sampling_is_standard_normal(n):
    # eigh(I) is exactly I, so N(0, I) draws are the raw normal stream.
    x = sample_gaussian(GaussianDist.standard(n), 11, size=64)
    z = standard_normal(make_rng(11), (64, n))
    assert x.tobytes() == z.tobytes()


@pytest.mark.parametrize("n", [2, 5, 20])
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_spectral_core_matches_jacobi_reference(n, rank):
    rng = np.random.default_rng(100 + n)
    if rank == "full":
        a = _random_pd(rng, n)
    else:
        b = rng.standard_normal((n, n - 1))
        a = b @ b.T
    d = GaussianDist(np.zeros(n), a)
    w_ref, _ = jacobi_eigh(a)
    assert np.allclose(d.w, w_ref, rtol=0.0, atol=1e-10)
    assert np.allclose(d.v @ np.diag(d.w) @ d.v.T, a, rtol=0.0, atol=1e-10)
    L = _factor(d)
    assert np.allclose(L @ L.T, a, rtol=0.0, atol=1e-10)


def test_sample_moments_match():
    mean = np.array([2.0, -1.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    x = sample_gaussian(GaussianDist(mean, cov), 5, size=1_000_000)
    assert np.allclose(x.mean(axis=0), mean, atol=0.01)
    assert np.allclose(np.cov(x.T), cov, atol=0.02)


@pytest.mark.parametrize("rows", [1, 7, 922])
def test_sample_gaussian_is_mean_plus_factored_normals_bit_for_bit(rows):
    # the draw is built in one array, z @ L.T then += mean; addition commutes,
    # so every bit is that of mean + z @ L.T
    dist = GaussianDist(np.linspace(-2.0, 3.0, 6), _random_pd(make_rng(4), 6))
    expected = dist.mean + standard_normal(make_rng(8), (rows, 6)) @ _factor(dist).T
    x = sample_gaussian(dist, 8, size=rows)
    assert x.shape == (rows, 6) and np.array_equal(x, expected)


def test_generator_argument_continues_stream():
    from lintest.rng import make_rng

    d = GaussianDist.standard(3)
    rng = make_rng(9)
    a = sample_gaussian(d, rng, size=10)
    b = sample_gaussian(d, rng, size=10)
    assert not np.array_equal(a, b)
    rng2 = make_rng(9)
    both = sample_gaussian(d, rng2, size=20)
    assert np.allclose(np.vstack([a, b]), both)


# --- densities and divergences ----------------------------------------------


def test_log_density_matches_scipy():
    rng = np.random.default_rng(2)
    cov = _random_pd(rng, 4)
    mean = rng.standard_normal(4)
    d = GaussianDist(mean, cov)
    pts = rng.standard_normal((50, 4))
    ref = stats.multivariate_normal(mean, cov).logpdf(pts)
    assert np.allclose(log_density(d, pts), ref, atol=1e-10)


def test_kl_unit_shift_is_half():
    d1 = GaussianDist(np.zeros(1), np.eye(1))
    d2 = GaussianDist(np.ones(1), np.eye(1))
    assert abs(kl_gaussians(d1, d2) - 0.5) < 1e-12


def test_kl_self_is_zero():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5):
        d = GaussianDist(rng.standard_normal(n), _random_pd(rng, n))
        assert kl_gaussians(d, d) == 0.0


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        d1 = GaussianDist(rng.standard_normal(n), _random_pd(rng, n))
        d2 = GaussianDist(rng.standard_normal(n), _random_pd(rng, n))
        assert kl_gaussians(d1, d2) >= 0.0


def test_kl_1d_matches_quadrature():
    d1 = GaussianDist(np.array([0.3]), np.array([[1.4]]))
    d2 = GaussianDist(np.array([-0.5]), np.array([[0.8]]))

    def integrand(x):
        p = stats.norm.pdf(x, 0.3, math.sqrt(1.4))
        q = stats.norm.pdf(x, -0.5, math.sqrt(0.8))
        return p * (np.log(p) - np.log(q))

    ref, _ = integrate.quad(integrand, -20, 20)
    assert abs(kl_gaussians(d1, d2) - ref) < 1e-8


def _divergence_decimal(nu):
    with localcontext() as ctx:
        ctx.prec = 400  # 1 + nu holds every digit of nu down to |nu| = 1e-150
        d = Decimal(nu)
        return float(d - (1 + d).ln())


def test_divergence_terms_match_a_decimal_reference_on_both_sides_of_the_switch():
    nus = np.array([-0.999, -0.5, -1.001e-3, -1e-3, -0.999e-3, -1e-6, -1e-150, 0.0, 1e-150,
                    1e-8, 0.999e-3, 1e-3, 1.001e-3, 0.5, 1.0, 1e10, 1e300])
    terms = divergence_terms(nus)
    assert terms.shape == nus.shape
    assert np.all(terms >= 0.0)
    assert np.all(terms[nus == 0.0] == 0.0)
    for nu, term in zip(nus, terms):  # log1p's cancellation, at |nu| just past 1e-3, sets rel
        assert term == pytest.approx(_divergence_decimal(nu), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, rel", [(10, 1e-8), (50, 1e-2), (200, 1e-2)])
def test_kl_is_exact_on_rotated_game_spectra(n, rel):
    # The lower-bound game's pair N(0, Q L Q^T) vs N(0, Q (L + delta I) Q^T) in a random
    # basis Q: log det + trace - n cancels here, while the per-eigenvalue sum does not.
    # What error remains is the rotation's: each entry of Q L Q^T is rounded at the
    # scale of lambda_max, and delta is C lambda_min / n^2, so `rel` grows with n.
    for seed in range(10):
        lam, delta, _ = build_instance(LowerBoundConfig(n=n, seed=seed))
        q, _ = np.linalg.qr(standard_normal(make_rng(seed), (n, n)))
        yes = GaussianDist(np.zeros(n), (q * lam) @ q.T)
        no = GaussianDist(np.zeros(n), (q * (lam + delta)) @ q.T)
        r = delta / lam
        ref = 0.5 * float(np.sum(np.log1p(r) - r / (1.0 + r)))
        assert kl_gaussians(yes, no) == pytest.approx(ref, rel=rel, abs=0.0)


def test_kl_refuses_a_covariance_ratio_that_rounds_to_zero():
    # S2^-1 S1 = 1e-41 is positive, but nu = -1 + 1e-41 rounds to -1 and log1p(nu) to -inf
    d1 = GaussianDist(np.zeros(1), np.array([[1e-11]]))
    d2 = GaussianDist(np.zeros(1), np.array([[1e30]]))
    with pytest.raises(GaussianError, match="nonpositive eigenvalue"):
        kl_gaussians(d1, d2)


def test_pinsker_bound():
    assert pinsker_tv_bound(0.0) == 0.0
    assert abs(pinsker_tv_bound(0.5) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        pinsker_tv_bound(-1e-9)


def test_shared_cov_bound_identity_cov():
    # 0.5 * ||mu1 - mu2|| for the identity covariance
    b = shared_cov_tv_bound(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.eye(3))
    assert abs(b - 0.5) < 1e-12


def test_shared_cov_bound_scales_with_min_eigenvalue():
    cov = np.diag([4.0, 0.25])
    b = shared_cov_tv_bound(np.zeros(2), np.array([1.0, 0.0]), cov)
    assert abs(b - 0.5 / 0.5) < 1e-12  # sqrt(lambda_min) = 0.5


def test_small_shift_bound_claim():
    # ||p|| <= k/50 implies the shared-cov TV bound is at most k/100
    rng = np.random.default_rng(5)
    for k in range(1, 11):
        p = rng.standard_normal(6)
        p = p / np.linalg.norm(p) * (k / 50.0) * rng.random()
        assert shared_cov_tv_bound(np.zeros(6), p, np.eye(6)) <= k / 100.0 + 1e-12


# --- empirical TV -------------------------------------------------------------


def test_empirical_tv_unit_shift():
    # true TV of N(0,1) vs N(1,1) is 2*Phi(1/2) - 1
    target = 2.0 * stats.norm.cdf(0.5) - 1.0
    d1 = GaussianDist(np.zeros(1), np.eye(1))
    d2 = GaussianDist(np.ones(1), np.eye(1))
    est, stderr = empirical_tv(d1, d2, 100_000, 0)
    assert abs(est - target) < 0.01
    assert 0.0 < stderr < 0.01


def test_empirical_tv_far_pair_saturates():
    d1 = GaussianDist(np.zeros(2), np.eye(2))
    d2 = GaussianDist(np.array([12.0, 0.0]), np.eye(2))
    est, _ = empirical_tv(d1, d2, 100_000, 1)
    assert est >= 0.999


def test_empirical_tv_identical_pair_is_zero():
    d = GaussianDist(np.zeros(2), np.eye(2))
    est, stderr = empirical_tv(d, d, 10_000, 2)
    assert est == 0.0
    assert stderr == 0.0


def test_empirical_tv_requires_min_samples_and_is_deterministic():
    d1 = GaussianDist(np.zeros(1), np.eye(1))
    d2 = GaussianDist(np.ones(1), np.eye(1))
    with pytest.raises(ValueError):
        empirical_tv(d1, d2, 999, 0)
    assert empirical_tv(d1, d2, 5000, 3) == empirical_tv(d1, d2, 5000, 3)


def test_empirical_tv_respects_pinsker_on_random_pairs():
    rng = np.random.default_rng(6)
    m = 20_000
    for _ in range(10):
        n = int(rng.integers(1, 5))
        d1 = GaussianDist(rng.standard_normal(n), _random_pd(rng, n))
        d2 = GaussianDist(rng.standard_normal(n), _random_pd(rng, n))
        est, _ = empirical_tv(d1, d2, m, int(rng.integers(1 << 31)))
        bound = min(1.0, pinsker_tv_bound(kl_gaussians(d1, d2)))
        assert est <= bound + 5.0 / math.sqrt(m)
