import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest

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
    random_linear,
    scaled_norms,
)
from lintest.rng import make_rng, standard_normal

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
    # relative at every scale: no absolute floor hides a difference between tiny values
    assert pol.eq(1e-300, 1e-300 * (1.0 + 1e-12))
    assert not pol.eq(1e-300, 1e-300 * (1.0 + 1e-6))
    assert not pol.eq(0.0, 1e-9)
    assert not pol.eq(0.0, 1e-300)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9))
def test_eq_policy_symmetric_and_reflexive(a, b):
    pol = EqPolicy()
    assert pol.eq(a, a)
    assert pol.eq(a, b) == pol.eq(b, a)


def test_eq_arr_matches_scalar():
    pol = EqPolicy()
    a = np.array([1.0, 0.0, -3.0, 1e6])
    b = np.array([1.0 + 1e-10, 1e-300, -3.0 - 1.0, 1e6 + 1e-4])
    arr = pol.eq_arr(a, b)
    assert list(arr) == [pol.eq(x, y) for x, y in zip(a, b)] == [True, False, False, True]
    # the operand magnitude widens the band only where it exceeds |a| and |b|
    assert list(pol.eq_arr(a, b, mag=np.zeros(4))) == list(arr)
    assert list(pol.eq_arr([1e-3, -3.0], [0.0, -4.0], mag=1e7)) == [True, False]
    assert not pol.eq_arr(1e-3, 0.0)


def test_an_infinite_operand_equals_nothing():
    # |a - b| = inf would meet a band of REL_TOL * inf: the band's scale stops at float max
    pol = EqPolicy()
    big = np.finfo(float).max
    a = [np.inf, 1.0, -np.inf, np.inf, big]
    b = [1.0, -np.inf, np.inf, big, np.inf]
    assert not np.any(pol.eq_arr(a, b)) and not np.any(pol.eq_arr(b, a, mag=np.inf))
    assert not pol.eq(np.inf, 1.0) and not pol.eq(1.0, -np.inf)
    assert pol.eq_arr(big, big * (1 - 1e-12))  # the largest finite band still holds


# away from 0, no operand, difference or band below comes near the subnormals
_NOT_TINY = st.floats(-1e9, 1e9).filter(lambda x: x == 0 or abs(x) > 1e-200)


@settings(max_examples=200, deadline=None)
@given(_NOT_TINY, _NOT_TINY, _NOT_TINY.map(abs), st.integers(-200, 200))
def test_eq_arr_ignores_a_power_of_two_scale(a, b, mag, k):
    pol = EqPolicy()
    assert pol.eq_arr(2.0**k * a, 2.0**k * b, 2.0**k * mag) == pol.eq_arr(a, b, mag)
    assert pol.eq(2.0**k * a, 2.0**k * a * (1.0 + 1e-12))


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
    for xs in (np.ones((1, 2)), np.ones((3, 2)), np.ones((1, 1, 2))):
        with pytest.raises(OracleError, match=r"query expects a single point, got shape \("):
            f.query(xs)
    assert f.query_count == 0


_BOUND = np.finfo(float).max / 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -1e308,
                                 np.nextafter(_BOUND, np.inf)])
def test_an_unusable_oracle_value_is_refused_without_a_query(bad):
    # NaN compares false and inf - inf is NaN: either would pass for a failed check
    f = CustomOracle(2, lambda xs: np.where(xs[:, 0] > 0, bad, 1.0))
    with pytest.raises(OracleError, match="NaN or beyond"):
        f.query_batch(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert f.query_count == 0
    assert f.query([-1.0, 0.0]) == 1.0 and f.query_count == 1


def test_values_up_to_the_bound_are_served_and_overflow_is_refused():
    f = CustomOracle(1, lambda xs: xs[:, 0] * _BOUND)
    assert list(f.query_batch([[1.0], [-1.0]])) == [_BOUND, -_BOUND]
    assert f.query_batch(np.empty((0, 1))).shape == (0,)
    # an overflowing matmul raises no RuntimeWarning, only the typed error
    big = LinearOracle([2.0**1020, 2.0**1020])
    with pytest.raises(OracleError):
        big.query_batch(np.full((3, 2), 40.0))
    assert big.query_count == 0


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
    with pytest.raises(ValueError, match="finite and nonzero"):  # an empty last axis
        CorruptionRegion.from_mass([], 0.3)


@pytest.mark.parametrize("direction, unit", [([1e308, 1e308], [0.5**0.5, 0.5**0.5]),
                                             ([1e-320, 0.0], [1.0, 0.0]),
                                             ([0.0, -3e-200, 4e-200], [0.0, -0.6, 0.8])])
def test_corruption_direction_is_a_unit_vector_at_any_scale(direction, unit):
    # The squared norm of these overflows or underflows when taken without scaling.
    for region in (CorruptionRegion.from_mass(direction, 0.3),
                   CorruptionRegion.from_threshold(direction, 1.0)):
        assert np.allclose(region.direction, unit, rtol=1e-15, atol=0)


@pytest.mark.parametrize("direction", [[float("inf"), 0.0], [1.0, -float("inf")],
                                       [float("nan"), 1.0]])
def test_corruption_direction_with_a_non_finite_entry_is_refused(direction, recwarn):
    for make in (CorruptionRegion.from_mass, CorruptionRegion.from_threshold):
        with pytest.raises(ValueError, match="finite"):
            make(direction, 0.3)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


def test_noisy_linear_noise_ignores_the_sign_of_zero():
    f = NoisyLinear([1.0, 2.0], 0.1, noise_seed=3)
    pts = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0]])
    vals = f.query_batch(pts)
    assert vals[0] == vals[1]
    assert vals[2] == vals[3]


def test_noisy_linear_noise_is_a_function_of_the_point_and_the_seed():
    f = NoisyLinear(np.zeros(3), 1.0, noise_seed=11)
    xs = np.random.default_rng(5).standard_normal((200, 3))
    noise = f.query_batch(xs)
    assert np.array_equal(noise, f.query_batch(xs))
    assert np.array_equal(noise, [f.query(x) for x in xs])  # batch and single rows agree
    assert np.all(NoisyLinear(np.zeros(3), 1.0, noise_seed=12).query_batch(xs) != noise)
    for j in range(3):  # one ulp away in any coordinate
        ys = xs.copy()
        ys[:, j] = np.nextafter(ys[:, j], np.inf)
        assert np.all(f.query_batch(ys) != noise)


def test_noisy_linear_noise_is_standard_normal():
    f = NoisyLinear(np.zeros(4), 1.0, noise_seed=21)
    xs = np.random.default_rng(6).standard_normal((100_000, 4))
    assert len(np.unique(xs, axis=0)) == len(xs)
    assert kstest(f.query_batch(xs), "norm").pvalue > 1e-3
    # a lattice of small integers, whose words differ in few bits
    i, j = np.meshgrid(np.arange(317), np.arange(317))
    lattice = np.zeros((i.size, 4))
    lattice[:, 0], lattice[:, 1] = i.ravel(), j.ravel()
    assert kstest(f.query_batch(lattice), "norm").pvalue > 1e-3


def test_norm_oracle_is_even():
    f = NormOracle(4)
    xs = np.random.default_rng(4).standard_normal((100, 4))
    assert np.array_equal(f.query_batch(xs), f.query_batch(-xs))
    assert f.query([3.0, 4.0, 0.0, 0.0]) == 5.0


def test_norm_oracle_returns_a_norm_whose_square_leaves_the_double_range():
    f = NormOracle(2)
    assert f.query([1e155, 0.0]) == 1e155
    assert f.query([3e-200, 4e-200]) == pytest.approx(5e-200, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.integers(-600, 600))
def test_scaled_norms_equal_the_plain_norm_bit_for_bit_where_it_is_exact(row, shift):
    xs = np.ldexp(np.asarray([row, row[::-1]]), shift)
    _, norm, e = scaled_norms(xs)
    if 1e-150 < np.abs(xs).max() < 1e150:  # where no square under- or overflows
        assert np.array_equal(np.ldexp(norm, e), np.linalg.norm(xs, axis=1))


def _rows_at_every_scale(shape, seed):
    """Gaussian rows, each scaled by its own power of two, with zero, subnormal and
    near-float-max rows among them."""
    rng = make_rng(seed)
    xs = standard_normal(rng, shape)
    rows = xs.reshape(-1, shape[-1]) if xs.size else xs.reshape(0, 0)
    rows *= np.ldexp(1.0, rng.integers(-1070, 1020, size=(rows.shape[0], 1)))
    specials = [0.0, 5e-324, -2.2e-308, np.finfo(float).max, -np.finfo(float).max]
    for i, value in enumerate(specials if rows.shape[0] > len(specials) else []):
        rows[i] = value * np.sign(standard_normal(rng, rows.shape[1]))
    return xs


@pytest.mark.parametrize("shape", [(7,), (0,), (0, 5), (6, 1), (1840, 10), (32, 1000),
                                   (3, 4, 6)])
def test_scaled_norms_match_a_row_max_bit_for_bit(shape):
    # scaled_norms finds each row's largest |x_k| in one reduction over the flat array;
    # its result is that of the plain per-row max, in value, shape and dtype
    xs = _rows_at_every_scale(shape, seed=sum(shape))
    e = np.frexp(np.max(np.abs(xs), axis=-1, initial=0.0))[1]
    y = np.ldexp(xs, -e[..., None])
    for got, want in zip(scaled_norms(xs), (y, np.linalg.norm(y, axis=-1), e)):
        assert got.shape == np.shape(want) and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_custom_oracle():
    f = CustomOracle(2, lambda xs: xs[:, 0] ** 3)
    assert f.query([2.0, 9.0]) == 8.0


def test_random_linear_is_seed_deterministic():
    a = random_linear(5, 3)
    b = random_linear(5, 3)
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, random_linear(5, 4).w)
