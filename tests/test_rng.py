import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chi as chi_law
from scipy.stats import kstest

from lintest import rng as rng_module
from lintest.rng import (
    _GAMMA,
    chi,
    derive_seed,
    hash_rows,
    make_rng,
    mix64,
    open_unit,
    standard_normal,
)


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
    # SFC64 seeded through SeedSequence from the seed's low 64 bits
    assert isinstance(make_rng(7).bit_generator, np.random.SFC64)
    seeded = np.random.SFC64(np.random.SeedSequence(7))
    assert np.array_equal(a, np.random.Generator(seeded).random(5))
    assert np.array_equal(a, make_rng(7 + (1 << 64)).random(5))


def test_open_unit_stays_inside_the_unit_interval():
    u = open_unit(make_rng(0).integers(0, 1 << 53, size=100_000, dtype=np.uint64))
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01


def test_open_unit_maps_the_top_value_below_one():
    top = np.full(4, 2**53 - 1, dtype=np.uint64)
    assert np.all(open_unit(top) == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(ndtri(open_unit(top))))  # NoisyLinear's noise stays finite
    # every other value is (bits + 0.5) / 2**53
    bits = np.array([0, 1, 2**52 - 1, 2**52, 2**53 - 2], dtype=np.uint64)
    assert np.array_equal(open_unit(bits), (bits.astype(np.float64) + 0.5) / 2.0**53)


def test_mix64_of_an_array_matches_the_scalar_mix():
    xs = [0, 1, 12345, 2**63, 2**64 - 1]
    assert mix64(np.array(xs, dtype=np.uint64)).tolist() == [mix64(x) for x in xs]


def test_hash_rows_is_keyed_and_separates_single_word_changes():
    words = np.random.default_rng(0).integers(0, 2**63, size=(1000, 3), dtype=np.uint64)
    h = hash_rows(words, 7)
    assert np.array_equal(h, hash_rows(words, 7))
    assert np.all(h != hash_rows(words, 8))
    for j in range(3):
        flipped = words.copy()
        flipped[:, j] ^= np.uint64(1)
        assert np.all(hash_rows(flipped, 7) != h)
    assert hash_rows(np.zeros((1, 3), dtype=np.uint64), 0)[0] != 0


def test_hash_rows_makes_a_fixed_number_of_mix64_calls_whatever_the_width(monkeypatch):
    # NoisyLinear hashes every oracle batch: its Python-level work may not grow with n
    calls = []
    monkeypatch.setattr(rng_module, "mix64", lambda x: calls.append(x.shape) or mix64(x))
    counts = []
    for n in (1, 10, 1000, 10_000):
        calls.clear()
        hash_rows(np.zeros((8, n), dtype=np.uint64), 3)
        counts.append(len(calls))
    assert counts == [3, 3, 3, 3]


@pytest.mark.parametrize("shape", [(0, 4), (5, 1), (1840, 10), (32, 1000)])
def test_hash_rows_matches_the_wrapping_row_sum_bit_for_bit(shape):
    # full-range words, so the row sums wrap mod 2**64
    words = make_rng(shape[0]).integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
    words[:1] = np.uint64(2**64 - 1)
    key = 2**64 - 3
    keys = mix64(np.arange(shape[1], dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(key))
    want = mix64(mix64(words ^ keys).sum(axis=1, dtype=np.uint64) + np.uint64(_GAMMA))
    got = hash_rows(words, key)
    assert got.dtype == np.uint64 and got.shape == (shape[0],)
    assert np.array_equal(got, want)


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


def test_standard_normal_split_into_blocks_equals_one_draw():
    # probe_g's batch draws what one probe per row would, and the battery's
    # chunks what one draw per round would: both rest on this
    a, b, n = 7, 12, 5
    rng = make_rng(11)
    parts = np.concatenate([standard_normal(rng, (a, n)), standard_normal(rng, (b, n))])
    assert np.array_equal(parts, standard_normal(make_rng(11), (a + b, n)))


def test_standard_normal_into_out_equals_the_sized_draw():
    # probe_g draws its x_i straight into its stacked point buffer
    rng_out, rng_size = make_rng(13), make_rng(13)
    buf = np.empty((2, 4, 3, 5))
    drawn = standard_normal(rng_out, out=buf[1])
    assert drawn.shape == (4, 3, 5) and np.shares_memory(drawn, buf)
    assert np.array_equal(buf[1], standard_normal(rng_size, (4, 3, 5)))
    # both streams stand at the same point afterwards
    assert np.array_equal(standard_normal(rng_out, 9), standard_normal(rng_size, 9))


def test_chi_over_concatenated_df_equals_the_draws_made_in_parts():
    # build_instance draws the diagonal and the subdiagonal of its
    # bidiagonal model as one concatenated df vector
    n = 9
    diag, sub = np.arange(n, 0, -1), np.arange(n - 1, 0, -1)
    rng = make_rng(12)
    parts = np.concatenate([chi(rng, diag), chi(rng, sub)])
    assert np.array_equal(parts, chi(make_rng(12), np.concatenate([diag, sub])))
