import gzip
import re
import tracemalloc

import numpy as np
import pytest

from lintest.distro import (
    DistributionError,
    Empirical,
    Mixture,
    ShiftedGaussian,
    StandardGaussian,
    load_empirical,
)
from lintest.gauss_core import GaussianError
from lintest.harness import build_oracle
from lintest.oracle import CorruptedLinear
from lintest.rng import derive_seed, make_rng, standard_normal


def test_standard_gaussian_determinism_and_moments():
    d = StandardGaussian(3, seed=0)
    x = d.draw_many(100_000)
    assert x.shape == (100_000, 3)
    assert np.allclose(x.mean(axis=0), 0.0, atol=0.02)
    assert np.allclose(x.std(axis=0), 1.0, atol=0.02)
    assert np.array_equal(StandardGaussian(3, seed=5).draw_many(10),
                          StandardGaussian(3, seed=5).draw_many(10))
    assert not np.array_equal(StandardGaussian(3, seed=5).draw_many(10),
                              StandardGaussian(3, seed=6).draw_many(10))


def test_every_sampler_refuses_a_dimension_below_one():
    for make in (lambda: StandardGaussian(0), lambda: StandardGaussian(-2),
                 lambda: Empirical(np.empty((3, 0)))):
        with pytest.raises(DistributionError, match="dimension must be >= 1"):
            make()


@pytest.mark.parametrize("build", [
    lambda n: StandardGaussian(n, seed=1).draw_many(2),
    lambda n: ShiftedGaussian(np.zeros(n), seed=1).draw_many(2),
    lambda n: CorruptedLinear.with_mass(np.ones(n), 0.3),
    lambda n: build_oracle({"family": "corrupted-linear", "dim": n,
                            "corruption": {"threshold": 1.0}}),
], ids=["standard", "shifted", "with-mass", "threshold-oracle"])
def test_n0i_draws_and_first_axis_defaults_take_o_n_memory(build):
    # At n = 10^6 an n x n identity would take 8 TB, and numpy refuses it with MemoryError.
    tracemalloc.start()
    try:
        build(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n", [1, 3, 10, 20, 50, 200])
def test_standard_gaussian_draws_the_generators_normals_bit_for_bit(n):
    # m*n normals in row order, the stream continued across batches: for N(0, I) these are
    # the bits of the factored form mean + z @ I.T, with mean 0
    mean = np.linspace(-3.0, 5.0, n)
    d, shifted, rng = StandardGaussian(n, seed=n), ShiftedGaussian(mean, seed=n), make_rng(n)
    for m in (1, 17, 922, 5000):
        z = standard_normal(rng, (m, n))
        assert np.array_equal(d.draw_many(m), z)
        assert np.array_equal(z, np.zeros(n) + z @ np.eye(n).T)
        assert np.array_equal(shifted.draw_many(m), mean + z)


def test_restarted_copies_draw_afresh_from_the_given_seed():
    d = ShiftedGaussian([1.0, -1.0], seed=1)
    first = d.draw_many(5)
    assert np.array_equal(d.restarted(1).draw_many(5), first)  # the drawn stream is not kept
    assert np.array_equal(d.restarted(2).draw_many(5),
                          ShiftedGaussian([1.0, -1.0], seed=2).draw_many(5))
    assert np.array_equal(d.draw_many(5), ShiftedGaussian([1.0, -1.0], seed=1).draw_many(10)[5:])


def test_a_restarted_mixture_seeds_component_i_from_its_own_seed():
    mix = Mixture([0.5, 0.5], [StandardGaussian(2), ShiftedGaussian([5.0, 5.0])])
    expected = Mixture([0.5, 0.5], [StandardGaussian(2, seed=derive_seed(3, 0)),
                                    ShiftedGaussian([5.0, 5.0], seed=derive_seed(3, 1))], seed=3)
    assert np.array_equal(mix.restarted(3).draw_many(50), expected.draw_many(50))


def test_draw_is_prefix_of_draw_many():
    a = StandardGaussian(2, seed=9).draw()
    b = StandardGaussian(2, seed=9).draw_many(50)
    assert np.array_equal(a, b[0])


def test_shifted_gaussian():
    mean = np.array([10.0, -3.0])
    d = ShiftedGaussian(mean, seed=1)
    x = d.draw_many(50_000)
    assert np.allclose(x.mean(axis=0), mean, atol=0.02)
    cov = np.array([[2.0, 0.0], [0.0, 0.5]])
    x2 = ShiftedGaussian(mean, cov, seed=2).draw_many(50_000)
    assert np.allclose(np.cov(x2.T), cov, atol=0.05)
    with pytest.raises(GaussianError, match="non-finite"):
        ShiftedGaussian([np.nan, 0.0])  # checked with no cov too, where no GaussianDist is built


def test_mixture_validation():
    c = StandardGaussian(2, seed=0)
    with pytest.raises(DistributionError):
        Mixture([0.5, 0.6], [c, StandardGaussian(2, seed=1)])
    with pytest.raises(DistributionError):
        Mixture([], [])
    with pytest.raises(DistributionError):
        Mixture([0.5, 0.5], [c, StandardGaussian(3, seed=1)])
    with pytest.raises(DistributionError):
        Mixture([1.5, -0.5], [c, StandardGaussian(2, seed=1)])
    # a NaN weight passes both the sum check and an any(w < 0) test
    for weights in ([np.nan, np.nan], [0.5, np.nan], [np.inf, -np.inf]):
        with pytest.raises(DistributionError, match="nonnegative"):
            Mixture(weights, [c, StandardGaussian(2, seed=1)])


def test_single_component_mixture_is_transparent():
    a = Mixture([1.0], [StandardGaussian(2, seed=4)], seed=0).draw_many(20)
    b = StandardGaussian(2, seed=4).draw_many(20)
    assert np.array_equal(a, b)


def test_mixture_component_frequencies():
    m = 30_000
    mix = Mixture([0.2, 0.8],
                  [ShiftedGaussian([100.0], seed=1), ShiftedGaussian([-100.0], seed=2)],
                  seed=3)
    x = mix.draw_many(m)
    frac_first = np.mean(x[:, 0] > 0)
    assert abs(frac_first - 0.2) < 3.0 / np.sqrt(m) + 0.01


def _per_row_reference(weights, components, seed, m):
    """The mixture draw as one component draw() per selected row."""
    u = make_rng(seed).random(m)
    idx = np.searchsorted(np.cumsum(weights), u, side="right")
    idx = np.minimum(idx, len(components) - 1)
    return np.array([components[k].draw() for k in idx])


def _identity_components():
    return [StandardGaussian(3, seed=1),
            ShiftedGaussian([5.0, -1.0, 2.0], seed=2),
            Empirical(np.arange(12.0).reshape(4, 3), seed=3),
            Mixture([0.5, 0.5], [ShiftedGaussian([-9.0, 0.0, 0.0], seed=4),
                                 StandardGaussian(3, seed=5)], seed=6)]


def _correlated_components():
    rng = np.random.default_rng(7)
    covs = [a @ a.T + 0.1 * np.eye(3) for a in rng.standard_normal((2, 3, 3))]
    return [ShiftedGaussian([1.0, 2.0, 3.0], covs[0], seed=8),
            ShiftedGaussian([-1.0, 0.0, 1.0], covs[1], seed=9),
            StandardGaussian(3, seed=10)]


@pytest.mark.parametrize("m", [1, 7, 200])
def test_grouped_mixture_matches_per_row_draws_exactly_for_identity_components(m):
    weights = [0.1, 0.2, 0.3, 0.4]
    grouped = Mixture(weights, _identity_components(), seed=11)
    # a second call continues every stream where the first one left it
    x = np.concatenate([grouped.draw_many(m), grouped.draw_many(5)])
    ref = _per_row_reference(weights, _identity_components(), 11, m + 5)
    assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("m", [1, 7, 200])
def test_grouped_mixture_matches_per_row_draws_for_correlated_components(m):
    # gemm on a block and gemv on one row may round differently, by ~1e-15.
    weights = [0.3, 0.3, 0.4]
    x = Mixture(weights, _correlated_components(), seed=12).draw_many(m)
    ref = _per_row_reference(weights, _correlated_components(), 12, m)
    assert x.shape == ref.shape == (m, 3)
    assert np.allclose(x, ref, rtol=0.0, atol=1e-12)


def test_empirical_draws_rows_from_dataset():
    data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    d = Empirical(data, seed=0)
    x = d.draw_many(1000)
    # every draw is one of the rows
    for row in x:
        assert any(np.array_equal(row, r) for r in data)
    # roughly uniform
    counts = [np.sum(np.all(x == r, axis=1)) for r in data]
    assert min(counts) > 230
    with pytest.raises(DistributionError):
        Empirical(np.empty((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_empirical_rejects_non_finite_rows(tmp_path, bad):
    data = np.array([[1.0, 2.0], [3.0, bad], [5.0, 6.0]])
    with pytest.raises(DistributionError, match="row 2 has non-finite"):
        Empirical(data)
    p = tmp_path / "data.csv"
    p.write_text("".join(",".join(map(str, row)) + "\n" for row in data))
    with pytest.raises(DistributionError, match="data.csv: line 2: a non-finite entry"):
        load_empirical(p)


def test_load_empirical_roundtrip(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0\n3.5,-4.0\n\n0.0,0.0\n")
    d = load_empirical(p, seed=1)
    assert d.dim == 2
    assert d.data.shape == (3, 2)
    assert d.data[1, 1] == -4.0


def test_load_empirical_reads_only_the_named_file(tmp_path):
    # a missing x.csv is not served from a compressed x.csv.gz beside it
    p = tmp_path / "x.csv"
    with gzip.open(tmp_path / "x.csv.gz", "wt") as fh:
        fh.write("1.0,2.0\n")
    with pytest.raises(FileNotFoundError, match="No such file or directory"):
        load_empirical(p)


@pytest.mark.parametrize("text, message", [
    ("1.0,2.0\n1.0,oops\n", "bad.csv: line 2: could not convert string to float: 'oops'"),
    ("1.0,2.0\n1.0\n", "bad.csv: line 2: 1 fields, not 2"),
    ("1.0,2.0\n   \n3.0,4.0\n", "bad.csv: line 2: could not convert string to float: '   '"),
    ("\n\n", "bad.csv: empirical dataset must be a nonempty 2-D array"),
    ("", "bad.csv: empirical dataset must be a nonempty 2-D array"),
    # blank lines count: each refusal names the file's own line, not a data row
    ("1,2\n\n3,4\n\n5,x\n", "bad.csv: line 5: could not convert string to float: 'x'"),
    ("1,2\n\n3,4\n\n5,inf\n", "bad.csv: line 5: a non-finite entry"),
    ("1,2\n\n3,4\n\n5\n", "bad.csv: line 5: 1 fields, not 2"),
])
def test_load_empirical_errors(tmp_path, text, message):
    # the path, then the 1-based line; an empty file is refused without a warning,
    # and a line of spaces is a field that is no float, unlike a blank line
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(DistributionError, match=re.escape(message)):
        load_empirical(bad)


def test_load_empirical_names_no_line_for_a_bad_byte(tmp_path):
    # the file is decoded ahead of the line being read, so no line number would be right
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1,2\n3,4\n\xff,1\n")
    with pytest.raises(DistributionError, match=r"bad\.csv: 'utf-8' codec can't decode"):
        load_empirical(bad)
