import numpy as np
from scipy.stats import chi as chi_law
from scipy.stats import kstest

from lintest.rng import chi, derive_seed, make_rng, mix64, standard_normal, uniform_open


def test_mix64_is_deterministic_and_in_range():
    a = mix64(12345)
    assert a == mix64(12345)
    assert 0 <= a < 1 << 64
    assert mix64(12345) != mix64(12346)


def test_derive_seed_separates_indices():
    base = 42
    seeds = {derive_seed(base, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100
    assert derive_seed(base, 3, 1) == derive_seed(base, 3, 1)
    # order of indices matters
    assert derive_seed(base, 1, 2) != derive_seed(base, 2, 1)


def test_make_rng_reproducible_stream():
    a = make_rng(7).random(5)
    b = make_rng(7).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(8).random(5))


def test_uniform_open_avoids_endpoints():
    u = uniform_open(make_rng(0), 100_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01


def test_standard_normal_moments_and_shape():
    z = standard_normal(make_rng(1), (200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert standard_normal(make_rng(2), (3, 4)).shape == (3, 4)
    assert np.isscalar(float(standard_normal(make_rng(3))))


def test_chi_draws_follow_their_laws_one_per_df():
    dfs = np.repeat([1, 5, 40], 3000).reshape(3, 3000)
    draws = chi(make_rng(4), dfs)
    assert draws.shape == (3, 3000)
    for df, row in zip((1, 5, 40), draws):
        assert kstest(row, chi_law(df).cdf).pvalue > 1e-3
    assert np.array_equal(draws, chi(make_rng(4), dfs))
