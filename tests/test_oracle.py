import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from lintest.distro import StandardGaussian
from lintest.oracle import (
    ConstantShiftLinear,
    CorruptedLinear,
    CorruptionRegion,
    CustomOracle,
    EqPolicy,
    LinearOracle,
    NoisyLinear,
    NormOracle,
    OracleError,
    approx_eq,
    estimate_distance,
    random_linear,
)

ALL_FAMILIES = [
    lambda: LinearOracle([1.0, -2.0, 0.5]),
    lambda: ConstantShiftLinear([1.0, -2.0, 0.5], 3.0),
    lambda: CorruptedLinear.with_mass(np.array([1.0, -2.0, 0.5]), 0.3),
    lambda: CorruptedLinear.with_mass(np.array([1.0, -2.0, 0.5]), 0.3, odd_symmetric=True),
    lambda: NoisyLinear([1.0, -2.0, 0.5], 0.1, noise_seed=4),
    lambda: NormOracle(3),
]


# --- equality policy -----------------------------------------------------------


def test_eq_policy_basics():
    pol = EqPolicy()
    assert pol.eq(1.0, 1.0 + 1e-12)
    assert not pol.eq(1.0, 1.0 + 1e-6)
    assert pol.eq(0.0, 5e-13)
    assert not pol.eq(0.0, 1e-9)
    with pytest.raises(ValueError):
        EqPolicy(rel_tol=-1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9))
def test_eq_policy_symmetric_and_reflexive(a, b):
    pol = EqPolicy()
    assert pol.eq(a, a)
    assert pol.eq(a, b) == pol.eq(b, a)
    assert approx_eq(pol, a, b) == pol.eq(a, b)


def test_eq_arr_matches_scalar():
    pol = EqPolicy(rel_tol=1e-6, abs_tol=1e-9)
    a = np.array([1.0, 0.0, -3.0, 1e6])
    b = np.array([1.0 + 1e-7, 1e-10, -3.0 - 1.0, 1e6 + 0.5])
    arr = pol.eq_arr(a, b)
    assert list(arr) == [pol.eq(x, y) for x, y in zip(a, b)]


# --- base oracle mechanics -----------------------------------------------------


def test_query_counting_single_and_batch():
    f = LinearOracle([2.0, 1.0])
    assert f.query_count == 0
    f.query([1.0, 1.0])
    assert f.query_count == 1
    f.query_batch(np.zeros((7, 2)))
    assert f.query_count == 8


def test_query_validation():
    f = LinearOracle([1.0, 1.0])
    with pytest.raises(OracleError):
        f.query([1.0, 2.0, 3.0])
    with pytest.raises(OracleError):
        f.query_batch(np.ones((2, 3)))
    with pytest.raises(OracleError):
        f.query([np.inf, 0.0])
    with pytest.raises(OracleError):
        LinearOracle([])


@pytest.mark.parametrize("make", ALL_FAMILIES)
def test_oracles_are_fixed_functions(make):
    # querying the same points twice returns bit-identical values
    f = make()
    xs = np.random.default_rng(0).standard_normal((200, f.dim))
    a = f.query_batch(xs)
    b = f.query_batch(xs)
    assert np.array_equal(a, b)
    # single-point path agrees with the batch path
    assert f.query(xs[0]) == a[0]


# --- specific families ---------------------------------------------------------


def test_linear_value():
    assert LinearOracle([1.0, 2.0]).query([3.0, 4.0]) == 11.0


def test_constant_shift_value():
    assert ConstantShiftLinear([1.0, 2.0], 5.0).query([3.0, 4.0]) == 16.0


def test_corruption_region_from_mass_and_threshold():
    reg = CorruptionRegion.from_mass([0.0, 2.0], 0.3)
    assert np.allclose(reg.direction, [0.0, 1.0])
    assert abs((1.0 - ndtr(reg.threshold)) - 0.3) < 1e-12
    reg2 = CorruptionRegion.from_threshold([1.0, 0.0], 5.0)
    assert reg2.target_mass < 1e-4
    with pytest.raises(ValueError):
        CorruptionRegion.from_mass([1.0], 1.5)
    with pytest.raises(ValueError):
        CorruptionRegion.from_mass([0.0], 0.3)
    with pytest.raises(ValueError):
        CorruptionRegion.from_threshold([0.0, 0.0], 1.0)


def test_corrupted_linear_empirical_mass():
    w = np.array([0.5, -1.0, 2.0])
    f = CorruptedLinear.with_mass(w, 0.3, payload=1.0)
    xs = np.random.default_rng(1).standard_normal((100_000, 3))
    vals = f.query_batch(xs)
    clean = xs @ w
    diff = vals - clean
    frac = np.mean(diff != 0.0)
    assert abs(frac - 0.3) < 0.01
    # payload is +1 on the corrupted region (up to the cancellation rounding)
    assert np.allclose(diff[diff != 0.0], 1.0, atol=1e-9)


def test_corrupted_linear_odd_symmetric_is_odd():
    f = CorruptedLinear.with_mass(np.array([1.0, 0.0]), 0.3, odd_symmetric=True)
    xs = np.random.default_rng(2).standard_normal((10_000, 2))
    assert np.array_equal(f.query_batch(-xs * 2.0), -f.query_batch(xs * 2.0))
    # total corrupted mass under N(0,I) still ~0.3, split over the two tails
    frac = np.mean(f.query_batch(xs) != xs @ np.array([1.0, 0.0]))
    assert abs(frac - 0.3) < 0.02


def test_odd_symmetric_requires_positive_threshold():
    region = CorruptionRegion.from_mass([1.0], 0.7)  # threshold < 0
    with pytest.raises(OracleError):
        CorruptedLinear(np.array([1.0]), region, odd_symmetric=True)


def test_noisy_linear_noise_statistics_and_seeding():
    w = np.zeros(2)
    f = NoisyLinear(w, 0.25, noise_seed=7)
    xs = np.random.default_rng(3).standard_normal((50_000, 2))
    vals = f.query_batch(xs)
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 0.5) < 0.01
    # different noise seeds decorrelate, same seed reproduces
    g = NoisyLinear(w, 0.25, noise_seed=8)
    assert not np.array_equal(vals[:10], g.query_batch(xs[:10]))
    h = NoisyLinear(w, 0.25, noise_seed=7)
    assert np.array_equal(vals[:10], h.query_batch(xs[:10]))
    with pytest.raises(OracleError):
        NoisyLinear(w, -0.1)


def test_norm_oracle_is_even():
    f = NormOracle(4)
    xs = np.random.default_rng(4).standard_normal((100, 4))
    assert np.array_equal(f.query_batch(xs), f.query_batch(-xs))
    assert f.query([3.0, 4.0, 0.0, 0.0]) == 5.0


def test_custom_oracle():
    f = CustomOracle(2, lambda xs: xs[:, 0] ** 3)
    assert f.query([2.0, 9.0]) == 8.0


def test_random_linear_is_seed_deterministic():
    a = random_linear(5, 3)
    b = random_linear(5, 3)
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, random_linear(5, 4).w)


# --- distance estimation --------------------------------------------------------


def test_estimate_distance_identical_oracles():
    f = LinearOracle([1.0, 2.0])
    g = LinearOracle([1.0, 2.0])
    est = estimate_distance(f, g, StandardGaussian(2, seed=0), 2000, EqPolicy())
    assert est.fraction == 0.0
    assert est.indeterminate_fraction == 0.0


def test_estimate_distance_matches_corruption_mass():
    w = np.array([1.0, -1.0, 0.5])
    f = CorruptedLinear.with_mass(w, 0.2)
    g = LinearOracle(w)
    est = estimate_distance(f, g, StandardGaussian(3, seed=1), 20_000, EqPolicy())
    assert abs(est.fraction - 0.2) < 0.02
    assert est.halfwidth < 0.02


def test_estimate_distance_probe_with_indeterminates():
    f = LinearOracle([1.0])

    def probe(x):
        return None if x[0] > 0 else float(x[0])

    est = estimate_distance(f, probe, StandardGaussian(1, seed=2), 4000, EqPolicy())
    assert est.fraction == 0.0
    assert abs(est.indeterminate_fraction - 0.5) < 0.05
    with pytest.raises(ValueError):
        estimate_distance(f, probe, StandardGaussian(1, seed=2), 0, EqPolicy())
