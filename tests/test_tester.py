import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lintest import tester
from lintest.distro import ShiftedGaussian, StandardGaussian
from lintest.oracle import (
    ConstantShiftLinear,
    CorruptedLinear,
    CustomOracle,
    LinearOracle,
    NormOracle,
    random_linear,
)
from lintest.rng import make_rng, standard_normal
from lintest.tester import (
    QUERIES_PER_ADDITIVITY_ROUND,
    OddOracle,
    TesterConfig,
    default_n_forceneg,
    default_n_main,
    default_n_queryg,
    default_n_testadd,
    force_negativity,
    probe_g,
    query_g,
    run_df_additivity,
    run_df_linearity,
    run_gaussian_additivity,
    scaling_index,
    test_additivity,
)


# --- derived repetition counts ----------------------------------------------


def test_repetition_schedule():
    assert default_n_testadd() == 230
    assert 0.99**230 < 0.1 < 0.99**229
    assert default_n_queryg(0.1) == 5
    assert default_n_main(0.1) == 47
    assert default_n_forceneg(0.1) == 24
    cfg = TesterConfig(epsilon=0.1)
    assert cfg.accept_path_queries() == QUERIES_PER_ADDITIVITY_ROUND * 230 + 47 * 11 == 2357
    assert cfg.main_stage_queries() == 517


def test_config_validation_and_overrides():
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.1, r=0)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.1, n_main=0)
    cfg = TesterConfig(epsilon=0.1, n_testadd=3, n_queryg=2, n_main=4)
    assert cfg.accept_path_queries() == 8 * 3 + 4 * 5


def test_halving_epsilon_never_cheapens_the_main_stage():
    eps = 0.4
    prev = TesterConfig(epsilon=eps).main_stage_queries()
    for _ in range(6):
        eps /= 2.0
        cur = TesterConfig(epsilon=eps).main_stage_queries()
        assert cur > prev
        prev = cur


# --- scaling index -------------------------------------------------------------


def test_scaling_index_examples():
    assert scaling_index(np.zeros(3)) == 1
    assert scaling_index(np.array([0.01, 0.0])) == 1
    assert scaling_index(np.array([0.02])) == 1  # exactly on the 1/50 boundary
    assert scaling_index(np.array([2.03, 0.0])) == 102
    assert list(scaling_index(np.array([[0.01, 0.0], [2.03, 0.0]]))) == [1, 102]
    with pytest.raises(ValueError):
        scaling_index(np.array([np.nan]))
    with pytest.raises(ValueError):
        scaling_index(np.array([[1.0, 0.0], [np.nan, 0.0]]))


_rows = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_rows, st.integers(1, 200))
def test_scaling_index_maps_into_ball(rows, r):
    points = np.asarray(rows)
    ks = scaling_index(points, r)
    norms = np.linalg.norm(points, axis=1)
    assert ks.shape == (len(rows),)
    assert np.all(ks >= 1) and np.all(ks == np.ceil(ks))
    assert np.all(norms / ks <= 1.0 / r + 1e-12)
    assert np.all(ks[norms <= 1.0 / r] == 1)
    assert [scaling_index(p, r) for p in points] == list(ks)


# --- identity battery ------------------------------------------------------------


def test_additivity_accepts_linear_with_exact_query_count():
    f = random_linear(6, w_seed=1)
    verdict = test_additivity(f, TesterConfig(epsilon=0.1, seed=3))
    assert verdict.accepted
    assert verdict.queries_used == f.query_count == 8 * 230


def test_additivity_rejects_constant_shift_at_negation():
    f = ConstantShiftLinear([1.0, 2.0], 1.0)
    verdict = test_additivity(f, TesterConfig(epsilon=0.1, seed=0))
    assert verdict.outcome == "reject"
    assert verdict.reject_site == "negation"
    assert verdict.queries_used == f.query_count


def test_additivity_rejects_norm_at_negation():
    verdict = test_additivity(NormOracle(4), TesterConfig(epsilon=0.1, seed=1))
    assert verdict.outcome == "reject"
    assert verdict.reject_site == "negation"


def test_additivity_rejects_heavily_corrupted():
    for seed in range(5):
        f = CorruptedLinear.with_mass(np.ones(5), 0.3)
        verdict = test_additivity(f, TesterConfig(epsilon=0.1, seed=seed))
        assert verdict.outcome == "reject"
        assert verdict.reject_site in {"negation", "difference", "three-point"}


def test_additivity_deterministic_in_seed():
    a = test_additivity(random_linear(4, 0), TesterConfig(epsilon=0.1, seed=9))
    b = test_additivity(random_linear(4, 0), TesterConfig(epsilon=0.1, seed=9))
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("make, outcome", [
    (lambda: CorruptedLinear.with_mass(np.ones(5), 0.3, odd_symmetric=True), "reject"),
    (lambda: random_linear(5, w_seed=2), "accept"),
], ids=["odd-symmetric-corrupted", "linear"])
def test_battery_chunk_size_changes_no_verdict(monkeypatch, make, outcome):
    # each round draws its x, y, z as one row of the stream, so the chunk
    # size decides only how many rounds one oracle call evaluates
    runs = {}
    for chunk in (1, 7, 256):
        monkeypatch.setattr(tester, "_CHUNK", chunk)
        runs[chunk] = [run_gaussian_additivity(make(), TesterConfig(epsilon=0.1, seed=seed))
                       for seed in range(8)]
    assert {v.outcome for v in runs[256]} == {outcome}
    for verdicts in runs.values():
        assert [(v.outcome, v.reject_site, v.transcript) for v in verdicts] == \
            [(v.outcome, v.reject_site, v.transcript) for v in runs[256]]
        assert [v.queries_used for v in verdicts if v.accepted] == \
            [v.queries_used for v in runs[256] if v.accepted]


# --- self-corrected probe ---------------------------------------------------------


def test_query_g_recovers_linear_values_at_all_scales():
    f = random_linear(5, w_seed=2)
    cfg = TesterConfig(epsilon=0.1, seed=4)
    rng = np.random.default_rng(0)
    for scale in (0.001, 0.5, 3.0, 40.0):
        p = rng.standard_normal(5) * scale
        res = query_g(f, p, cfg)
        assert not res.rejected
        assert res.queries_used == 2 * cfg.rounds_queryg
        assert res.k == scaling_index(p)
        assert abs(res.value - float(f.w @ p)) <= 1e-9 * max(1.0, abs(f.w @ p))


@pytest.mark.parametrize("make, clean", [
    (lambda: random_linear(5, w_seed=3), True),
    (lambda: CorruptedLinear.with_mass(np.ones(5), 0.3), False),
])
def test_query_g_is_one_row_of_probe_g(make, clean):
    cfg = TesterConfig(epsilon=0.1, seed=9)
    scales = np.array([[0.001], [0.5], [1.0], [3.0], [40.0], [1.0], [2.0], [0.1]])
    points = np.random.default_rng(3).standard_normal((8, 5)) * scales
    ks, agree, v1, _ = probe_g(make(), points, cfg, make_rng(cfg.seed))
    # query_g on a fresh stream is row 0; on a continued stream, row i
    first = query_g(make(), points[0], cfg)
    assert (first.k, first.rejected) == (ks[0], not agree[0])
    rng = make_rng(cfg.seed)
    for i, p in enumerate(points):
        res = query_g(make(), p, cfg, rng)
        assert res.k == ks[i]
        assert res.rejected == (not agree[i])
        if not res.rejected:
            assert res.base_value == v1[i]
            assert res.value == res.k * v1[i]
    assert agree.all() == clean


def test_query_g_on_constant_shift_sees_the_doubled_shift():
    # v_i = w.(p/k - x) + c + w.x + c, so the probe agrees on w.p/k + 2c
    w = np.array([1.0, -1.0])
    c = 0.25
    f = ConstantShiftLinear(w, c)
    cfg = TesterConfig(epsilon=0.1, seed=5)
    p = np.array([3.0, 1.0])
    res = query_g(f, p, cfg)
    assert not res.rejected
    expected = float(w @ p) + 2.0 * c * res.k
    assert abs(res.value - expected) < 1e-9 * max(1.0, abs(expected))


def test_query_g_is_additive_and_homogeneous_on_lightly_corrupted_input():
    # g inherits additivity/homogeneity from the clean part; allow a few
    # probe rejections at corruption mass 0.01
    w = np.random.default_rng(1).standard_normal(6)
    cfg = TesterConfig(epsilon=0.1, seed=6)
    rng = np.random.default_rng(2)
    checked = passed = 0
    for i in range(100):
        f = CorruptedLinear.with_mass(w, 0.01)
        p = rng.standard_normal(6)
        q = rng.standard_normal(6)
        c = float(rng.uniform(0.5, 4.0))
        results = [query_g(f, x, TesterConfig(epsilon=0.1, seed=6 + 31 * i + j))
                   for j, x in enumerate((p, q, p + q, c * p))]
        if any(r.rejected for r in results):
            continue
        gp, gq, gpq, gcp = (r.value for r in results)
        checked += 1
        add_ok = abs(gpq - (gp + gq)) <= 1e-6 * max(1.0, abs(gpq))
        hom_ok = abs(gcp - c * gp) <= 1e-6 * max(1.0, abs(gcp))
        if add_ok and hom_ok:
            passed += 1
    assert checked >= 50
    assert passed / checked >= 0.95


# --- end-to-end testers -------------------------------------------------------------


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-12.0, 12.0), st.integers(1, 500), st.integers(0, 2**32 - 1))
def test_exactly_linear_is_accepted_at_any_weight_scale(log_scale, n, seed):
    # Rounding error scales with the operands of each identity, not its result;
    # epsilon 0.01 makes thousands of probe comparisons per verdict.
    w = 10.0**log_scale * standard_normal(make_rng(seed), n)
    cfg = TesterConfig(epsilon=0.01, seed=seed)
    for run in (lambda f: run_gaussian_additivity(f, cfg),
                lambda f: run_df_linearity(f, StandardGaussian(n, seed=seed + 1), cfg)):
        f = LinearOracle(w)
        verdict = run(f)
        assert verdict.accepted, verdict.reject_site
        assert verdict.queries_used == f.query_count


def test_gaussian_additivity_accepts_linear_exactly():
    f = random_linear(10, w_seed=3)
    cfg = TesterConfig(epsilon=0.1, seed=7)
    verdict = run_gaussian_additivity(f, cfg)
    assert verdict.accepted
    assert verdict.queries_used == f.query_count == cfg.accept_path_queries()
    assert verdict.reject_site is None


def test_queries_used_always_matches_the_oracle_counter():
    cfg = TesterConfig(epsilon=0.1, seed=8)
    for make in (lambda: random_linear(4, 1),
                 lambda: ConstantShiftLinear([1.0, 0.0, 0.0, 0.0], 1.0),
                 lambda: CorruptedLinear.with_mass(np.ones(4), 0.3)):
        f = make()
        verdict = run_gaussian_additivity(f, cfg)
        assert verdict.queries_used == f.query_count
        assert verdict.queries_used <= cfg.accept_path_queries()


def test_df_additivity_accepts_linear_under_shifted_distribution():
    f = random_linear(3, w_seed=4)
    d = ShiftedGaussian([5.0, -2.0, 0.0], seed=11)
    cfg = TesterConfig(epsilon=0.1, seed=12)
    verdict = run_df_additivity(f, d, cfg)
    assert verdict.accepted
    assert verdict.queries_used == cfg.accept_path_queries()


def test_df_additivity_dimension_mismatch():
    with pytest.raises(ValueError):
        run_df_additivity(random_linear(3, 0), StandardGaussian(4, 0),
                          TesterConfig(epsilon=0.1))
    f = random_linear(3, 0)
    with pytest.raises(ValueError):
        run_df_linearity(f, StandardGaussian(4, 0), TesterConfig(epsilon=0.1))
    assert f.query_count == 0


def test_df_additivity_sees_corruption_hidden_from_the_gaussian_tester():
    # corruption on a far halfspace: invisible under N(0,I), heavy under D
    from lintest.oracle import CorruptionRegion

    w = np.zeros(4)
    w[0] = 1.0
    region = CorruptionRegion.from_threshold(np.eye(4)[0], 5.0)
    d_mean = np.zeros(4)
    d_mean[0] = 5.5
    rejected = 0
    for seed in range(10):
        f = CorruptedLinear(w, region, payload=1.0)
        d = ShiftedGaussian(d_mean, seed=100 + seed)
        verdict = run_df_additivity(f, d, TesterConfig(epsilon=0.1, seed=200 + seed))
        rejected += not verdict.accepted
    assert rejected >= 8


# --- negativity forcing ---------------------------------------------------------------


def test_force_negativity_passes_odd_functions():
    f = random_linear(4, w_seed=5)
    d = StandardGaussian(4, seed=13)
    cfg = TesterConfig(epsilon=0.1, seed=14)
    wrapped, verdict = force_negativity(f, d, cfg)
    assert wrapped is not None
    assert verdict.accepted
    assert verdict.queries_used == 2 * cfg.rounds_forceneg
    # wrapper agrees with an already-odd base function
    x = np.random.default_rng(5).standard_normal(4)
    assert wrapped.query(x) == pytest.approx(float(f.w @ x), rel=1e-12)


def test_force_negativity_rejects_even_and_shifted_functions():
    cfg = TesterConfig(epsilon=0.1, seed=15)
    for f in (NormOracle(3), ConstantShiftLinear([1.0, 0.0, 0.0], 2.0),
              CustomOracle(3, lambda xs: xs[:, 0] ** 3 + 5.0)):
        wrapped, verdict = force_negativity(f, StandardGaussian(3, seed=16), cfg)
        assert wrapped is None
        assert verdict.outcome == "reject"
        assert verdict.reject_site == "force-negativity"


def test_odd_oracle_is_odd_and_counts_double():
    base = NormOracle(3)
    odd = OddOracle(base)
    xs = np.random.default_rng(6).standard_normal((20, 3))
    assert np.array_equal(odd.query_batch(-xs), -odd.query_batch(xs))
    assert odd.query_count == 40
    assert base.query_count == 80


def test_df_linearity_accepts_linear_with_exact_accounting():
    from dataclasses import replace

    f = random_linear(5, w_seed=6)
    d = StandardGaussian(5, seed=17)
    cfg = TesterConfig(epsilon=0.1, seed=18)
    verdict = run_df_linearity(f, d, cfg)
    assert verdict.accepted
    assert verdict.epsilon == 0.1
    inner = replace(cfg, epsilon=cfg.epsilon / 2.0)
    expected = 2 * cfg.rounds_forceneg + 2 * inner.accept_path_queries()
    assert verdict.queries_used == f.query_count == expected


def test_df_linearity_rejects_constant_shift_at_negativity():
    f = ConstantShiftLinear([2.0, 1.0], 0.5)
    verdict = run_df_linearity(f, StandardGaussian(2, seed=19),
                               TesterConfig(epsilon=0.1, seed=20))
    assert verdict.outcome == "reject"
    assert verdict.reject_site == "force-negativity"


def test_df_linearity_rejects_odd_symmetric_corruption():
    # passes negativity forcing, so rejection must come from the additivity stage
    rejected = 0
    for seed in range(10):
        f = CorruptedLinear.with_mass(np.ones(5), 0.3, odd_symmetric=True)
        verdict = run_df_linearity(f, StandardGaussian(5, seed=300 + seed),
                                   TesterConfig(epsilon=0.1, seed=400 + seed))
        if verdict.outcome == "reject":
            assert verdict.reject_site != "force-negativity"
            rejected += 1
    assert rejected >= 8


def test_verdict_json_shape():
    verdict = run_gaussian_additivity(random_linear(2, 7), TesterConfig(epsilon=0.2, seed=21))
    j = verdict.to_json()
    assert set(j) == {"outcome", "reject_site", "queries_used", "epsilon", "seed"}
    assert j["outcome"] == "accept"
