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
from lintest.gauss_core import GaussianDist
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


def test_standard_gaussians_of_one_dimension_share_one_factored_dist(monkeypatch):
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda c: calls.append(c.shape) or eigh(c))
    GaussianDist.standard.cache_clear()
    a, b = StandardGaussian(37, seed=1), StandardGaussian(37, seed=2)
    assert a._dist is b._dist is GaussianDist.standard(37)
    assert GaussianDist.standard.cache_info().currsize == 1
    a.draw_many(3)
    b.draw_many(3)
    assert calls == [(37, 37)]  # eigh(I) runs once per dimension
    assert StandardGaussian(38, seed=1)._dist is not a._dist
    assert calls == [(37, 37), (38, 38)]


@pytest.mark.parametrize("n", [1, 3, 10, 20, 50, 200])
def test_standard_gaussian_draws_the_generators_normals_bit_for_bit(n):
    # for N(0, I), mean + z @ I.T is z bit for bit
    d, rng, old = StandardGaussian(n, seed=n), make_rng(n), make_rng(n)
    factor = np.eye(n)
    for m in (1, 17, 922, 5000):
        x = d.draw_many(m)
        assert np.array_equal(x, standard_normal(rng, (m, n)))
        assert np.array_equal(x, np.zeros(n) + standard_normal(old, (m, n)) @ factor.T)


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
    with pytest.raises(DistributionError, match="data.csv: .*row 2 has non-finite"):
        load_empirical(p)


def test_load_empirical_roundtrip(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0\n3.5,-4.0\n\n0.0,0.0\n")
    d = load_empirical(p, seed=1)
    assert d.dim == 2
    assert d.data.shape == (3, 2)
    assert d.data[1, 1] == -4.0


def test_load_empirical_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(DistributionError, match="bad.csv:2"):
        load_empirical(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n1.0\n")
    with pytest.raises(DistributionError, match="row width"):
        load_empirical(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(DistributionError, match="empty"):
        load_empirical(empty)
