import hashlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from lintest import tester
from lintest.distro import ShiftedGaussian, StandardGaussian
from lintest.oracle import (
    ConstantShiftLinear,
    CorruptedLinear,
    CorruptionRegion,
    CustomOracle,
    LinearOracle,
    NoisyLinear,
    NormOracle,
    OracleError,
    random_linear,
)
from lintest.rng import derive_seed, make_rng, standard_normal
from lintest.tester import (
    QUERIES_PER_ADDITIVITY_ROUND,
    OddOracle,
    TesterConfig,
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
    cfg = TesterConfig(epsilon=0.1)
    assert cfg.rounds_testadd == 230
    assert 0.99**230 < 0.1 < 0.99**229
    assert cfg.rounds_queryg == 5
    assert cfg.rounds_main == 47
    assert cfg.rounds_forceneg == 24
    assert cfg.accept_path_queries() == QUERIES_PER_ADDITIVITY_ROUND * 230 + 47 * 11 == 2357
    assert cfg.main_stage_queries() == 517
    assert cfg.battery_queries() == 8 * 230


def test_config_validation_and_overrides():
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        TesterConfig(epsilon=0.1, r=0)
    with pytest.raises(ValueError, match="at most"):  # 1 / r would raise OverflowError
        TesterConfig(epsilon=0.1, r=10**400)
    # the repetition counts derive from epsilon alone: no keyword overrides them
    for name in ("n_testadd", "n_queryg", "n_main", "n_forceneg", "policy"):
        with pytest.raises(TypeError):
            TesterConfig(epsilon=0.1, **{name: 4})


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
    assert scaling_index(np.zeros(3), 50) == 1
    assert scaling_index(np.array([0.01, 0.0]), 50) == 1
    assert scaling_index(np.array([0.02]), 50) == 1  # exactly on the 1/50 boundary
    assert scaling_index(np.array([2.03, 0.0]), 50) == 102
    assert list(scaling_index(np.array([[0.01, 0.0], [2.03, 0.0]]), 50)) == [1, 102]
    with pytest.raises(ValueError):
        scaling_index(np.array([np.nan]), 50)
    with pytest.raises(ValueError):
        scaling_index(np.array([[1.0, 0.0], [np.nan, 0.0]]), 50)


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
    assert np.array_equal(ks, np.where(norms <= 1.0 / r, 1.0, np.ceil(r * norms)))  # bit for bit
    assert [scaling_index(p, r) for p in points] == list(ks)


@pytest.mark.parametrize("run, queries", [(run_df_additivity, 2357), (run_df_linearity, 6146)])
def test_a_point_whose_square_overflows_keeps_a_finite_k_p(run, queries, recwarn):
    # ||p||^2 ~ 1e310 passes float max, but ||p|| and k_p = ceil(r ||p||) do not.
    f = LinearOracle([1e-300, 1.0])
    verdict = run(f, ShiftedGaussian([1e155, 0.0]), TesterConfig(epsilon=0.1))
    assert verdict.accepted and verdict.queries_used == queries
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_point_whose_k_p_passes_float_max_is_refused(recwarn):
    edge = np.finfo(float).max / 50
    assert scaling_index(np.array([0.0, 0.99 * edge]), 50) == np.ceil(50 * (0.99 * edge))
    with pytest.raises(ValueError, match=r"point \[3\.63134013e\+306 0\.0+e\+000\] has no"):
        scaling_index(np.array([[1.5, 0.0], [1.01 * edge, 0.0]]), 50)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


def _df_linearity_run(f, seed):
    return run_df_linearity(f, StandardGaussian(5, seed=seed),
                            TesterConfig(epsilon=0.1, seed=seed))


_BATTERY_SITES = {"negation", "difference", "three-point"}


def _first_chunk(per_round, n):
    """Rounds in a stage's first chunk: one oracle block of its widest call."""
    return max(1, tester._BATCH_DOUBLES // (per_round * n))


def _evaluated_rounds(first, rounds, r, chunk=None):
    """Rounds evaluated when round r fails first: up to the stage's end, the next multiple
    of _CHUNK or the next edge of chunks of first, 2 first, 4 first, ..., whichever is first."""
    chunk = tester._CHUNK if chunk is None else chunk
    doubling = first * (2 ** (r // first + 1).bit_length() - 1)  # edges first * (2^k - 1)
    return min(rounds, doubling, chunk * (r // chunk + 1))


def _chunks(first, rounds):
    """A stage's chunk sizes in order: each chunk ends where some failing round stops it."""
    ends = sorted({_evaluated_rounds(first, rounds, r) for r in range(rounds)})
    return [hi - lo for lo, hi in zip([0] + ends, ends)]


def _battery_rows(seed, n):
    """Each battery round's x, which its witness names: rows of the tester's own stream."""
    return standard_normal(make_rng(seed), (230, 3, n))[:, 0]


@pytest.mark.parametrize("run, per_row, sites, rows", [
    (lambda seed: run_gaussian_additivity(
        CorruptedLinear.with_mass(np.ones(5), 0.3, odd_symmetric=True),
        TesterConfig(epsilon=0.1, seed=seed)), QUERIES_PER_ADDITIVITY_ROUND, _BATTERY_SITES,
     lambda seed: _battery_rows(seed, 5)),
    (lambda seed: run_gaussian_additivity(random_linear(5, w_seed=2),
                                          TesterConfig(epsilon=0.1, seed=seed)),
     QUERIES_PER_ADDITIVITY_ROUND, {None}, None),
    (lambda seed: _df_linearity_run(CorruptedLinear.with_mass(np.ones(5), 0.3), seed), 2,
     {"force-negativity"}, lambda seed: StandardGaussian(5, seed=seed).draw_many(24)),
    (lambda seed: _df_linearity_run(random_linear(5, w_seed=2), seed), 2, {None}, None),
], ids=["odd-symmetric-corrupted", "linear", "negativity-corrupted", "negativity-linear"])
def test_battery_chunk_size_changes_no_verdict(monkeypatch, run, per_row, sites, rows):
    # each round draws its x, y, z (or its point of D) as one row of the
    # stream, so the batch budget decides only how many rounds each chunk
    # checks at once (one oracle block, then doubling); every row of a chunk
    # is evaluated before its check runs
    def verdicts(first):
        monkeypatch.setattr(tester, "_BATCH_DOUBLES", first * per_row * 5)
        return [run(seed) for seed in range(8)]

    whole = verdicts(256)  # every stage is one chunk and one oracle call
    assert {v.reject_site for v in whole} <= sites
    assert all(v.accepted == (sites == {None}) for v in whole)
    for first in (1, 7, 256):
        runs = verdicts(first)
        assert [(v.outcome, v.reject_site, v.transcript) for v in runs] == \
            [(v.outcome, v.reject_site, v.transcript) for v in whole]
        for seed, v in enumerate(runs):
            if v.accepted:
                assert v.queries_used == whole[seed].queries_used
                continue
            stage = rows(seed)
            r = _round_of(stage, v.transcript[0][1])
            assert v.queries_used == per_row * _evaluated_rounds(first, len(stage), r)


def _shifted_halfspace_run(seed):
    # a payload on u.x > 5: invisible under N(0,I), mass 0.69 under D
    u = np.eye(5)[0]
    f = CorruptedLinear(u, CorruptionRegion.from_threshold(u, 5.0))
    return run_df_additivity(f, ShiftedGaussian(5.5 * u, seed=seed),
                             TesterConfig(epsilon=0.1, seed=seed))


def _one_round_battery_run(seed):
    # a one-round battery lets the corruption through to the probe
    with mock.patch.object(TesterConfig, "rounds_testadd", property(lambda cfg: 1)):
        return run_gaussian_additivity(CorruptedLinear.with_mass(np.ones(5), 0.01),
                                       TesterConfig(epsilon=0.1, seed=seed))


def _one_round_battery_main_rows(seed):
    rng = make_rng(seed)
    standard_normal(rng, (1, 3, 5))
    return standard_normal(rng, (TesterConfig(epsilon=0.1).rounds_main, 5))


@pytest.mark.parametrize("run, main_epsilon, site, main_rows, battery", [
    (lambda seed: run_gaussian_additivity(random_linear(5, w_seed=2),
                                          TesterConfig(epsilon=0.1, seed=seed)),
     0.1, None, None, None),
    (lambda seed: run_df_linearity(random_linear(5, w_seed=2), StandardGaussian(5, seed=seed),
                                   TesterConfig(epsilon=0.1, seed=seed)), 0.05, None, None, None),
    (_one_round_battery_run, 0.1, "query-g-disagreement", _one_round_battery_main_rows,
     QUERIES_PER_ADDITIVITY_ROUND),
    (_shifted_halfspace_run, 0.1, "f!=g",
     lambda seed: ShiftedGaussian(5.5 * np.eye(5)[0], seed=seed).draw_many(47),
     QUERIES_PER_ADDITIVITY_ROUND * 230),
], ids=["linear-gaussian", "linear-df-linearity", "query-g-disagreement", "f!=g-shifted"])
def test_probe_block_size_changes_no_verdict(monkeypatch, run, main_epsilon, site, main_rows,
                                             battery):
    # main-loop rows take their probe draws from the stream in order and every
    # block is evaluated, so the batch budget decides only how many rows one
    # oracle call of probe_g evaluates and how many rounds a chunk checks
    main = TesterConfig(epsilon=main_epsilon)
    doubles_per_row = 2 * main.rounds_queryg * 5  # p/k_p - x_i and x_i
    whole = main.rounds_main
    runs = {}
    for rows in (1, 7, whole):
        monkeypatch.setattr(tester, "_BATCH_DOUBLES", rows * doubles_per_row)
        runs[rows] = [run(seed) for seed in range(8)]
    if site is None:
        assert all(v.accepted for v in runs[whole])
    else:
        assert site in {v.reject_site for v in runs[whole]}
    for rows, verdicts in runs.items():
        assert [(v.outcome, v.reject_site, v.transcript) for v in verdicts] == \
            [(v.outcome, v.reject_site, v.transcript) for v in runs[whole]]
        for seed, v in enumerate(verdicts):
            if v.accepted:
                assert v.queries_used == runs[whole][seed].queries_used
            elif v.reject_site in ("query-g-disagreement", "f!=g"):
                r = _round_of(main_rows(seed), v.transcript[0][1])
                assert v.queries_used == battery + (1 + 2 * main.rounds_queryg) * \
                    _evaluated_rounds(rows, whole, r)
            else:  # a battery reject, in the battery's own chunks of the same budget
                r = _round_of(_battery_rows(seed, 5), v.transcript[0][1])
                first = rows * doubles_per_row // (QUERIES_PER_ADDITIVITY_ROUND * 5)
                assert v.queries_used == QUERIES_PER_ADDITIVITY_ROUND * _evaluated_rounds(
                    first, battery // QUERIES_PER_ADDITIVITY_ROUND, r)


# --- one oracle call per block of a step ----------------------------------------


def _counting_linear(n):
    """A linear CustomOracle and the list of batch sizes it was called with."""
    calls = []
    w = np.arange(1.0, n + 1.0)

    def fn(xs):
        calls.append(len(xs))
        return xs @ w
    return CustomOracle(n, fn), calls


def _blocks(total, rows):
    """Row counts of consecutive blocks of at most `rows` covering `total` rows."""
    return [min(rows, total - i) for i in range(0, total, rows)]


def test_each_battery_chunk_is_one_oracle_call(monkeypatch):
    # blocks of 30 rounds: 230 rounds in chunks of 30, 60, 120 and the last 20
    monkeypatch.setattr(tester, "_BATCH_DOUBLES", 30 * QUERIES_PER_ADDITIVITY_ROUND * 4)
    f, calls = _counting_linear(4)
    verdict = test_additivity(f, TesterConfig(epsilon=0.1, seed=1))
    assert verdict.accepted
    assert calls == [8 * rows for chunk in (30, 60, 120, 20) for rows in _blocks(chunk, 30)]
    assert calls == [240] * 7 + [160]


def test_each_probe_block_is_one_oracle_call(monkeypatch):
    n, eps = 4, 0.1
    cfg = TesterConfig(epsilon=eps, seed=2)
    nq, rounds = cfg.rounds_queryg, cfg.rounds_main
    monkeypatch.setattr(tester, "_BATCH_DOUBLES", 7 * 2 * nq * n)  # probe blocks of 7 rows
    f, calls = _counting_linear(n)
    verdict = run_gaussian_additivity(f, cfg)
    assert verdict.accepted
    # the battery's blocks of 70 // 8 = 8 rounds in chunks of 8, 16, 32, ...;
    # then main-loop chunks of 7, 14 and the last 26 rounds, each one call of f
    # at its points (blocks of 70 rows) and one call per probe block
    battery = [8 * rows for chunk in (8, 16, 32, 64, 110) for rows in _blocks(chunk, 8)]
    assert rounds == 7 + 14 + 26
    assert calls == battery + [call for chunk in (7, 14, 26)
                               for call in [chunk] + [2 * nq * rows for rows in _blocks(chunk, 7)]]
    f, calls = _counting_linear(n)
    probe_g(f, np.ones((5, n)), TesterConfig(epsilon=eps), make_rng(3))
    assert calls == [2 * nq * 5]


def test_each_negativity_chunk_is_one_oracle_call(monkeypatch):
    # blocks of 5 rounds: 24 rounds in chunks of 5, 10 and the last 9
    monkeypatch.setattr(tester, "_BATCH_DOUBLES", 5 * 2 * 3)
    f, calls = _counting_linear(3)
    wrapped, verdict = force_negativity(f, StandardGaussian(3, seed=4),
                                        TesterConfig(epsilon=0.1, seed=5))
    assert wrapped is not None and verdict.accepted
    assert calls == [2 * rows for chunk in (5, 10, 9) for rows in _blocks(chunk, 5)]
    assert calls == [10, 10, 10, 10, 8]


@pytest.mark.parametrize("n, epsilon, budget, chunk", [
    (50, 0.01, None, 256), (5, 0.05, 2**9, 256), (5, 0.05, 2**9, 20)])
def test_only_the_last_oracle_call_of_a_chunk_is_short(monkeypatch, n, epsilon, budget, chunk):
    # Each stage's chunks end at its doubling edges (from one oracle block of
    # its widest call), at multiples of _CHUNK and at its last round; every
    # call of a chunk holds one block but its last, and the main loop calls f
    # at a chunk's points (in blocks of _BATCH_DOUBLES // n rows) before its probes.
    if budget is not None:
        monkeypatch.setattr(tester, "_BATCH_DOUBLES", budget)
    monkeypatch.setattr(tester, "_CHUNK", chunk)
    stages, stage = [], tester._stage

    def spy(f, start, rounds, per_round, step):
        stages.append((len(calls), rounds, per_round))
        return stage(f, start, rounds, per_round, step)
    monkeypatch.setattr(tester, "_stage", spy)
    cfg = TesterConfig(epsilon=epsilon, seed=24)
    for run in (lambda f: run_gaussian_additivity(f, cfg),
                lambda f: run_df_additivity(f, StandardGaussian(n, seed=25), cfg),
                lambda f: run_df_linearity(f, StandardGaussian(n, seed=25), cfg)):
        stages.clear()
        f, calls = _counting_linear(n)
        assert run(f).accepted
        ends = [lo for lo, *_ in stages[1:]] + [len(calls)]
        for k, ((lo, rounds, width), hi) in enumerate(zip(stages, ends)):
            stage_calls = calls[lo:hi]
            if k and len(stages) == 3:  # under OddOracle each call is x, then -x
                assert stage_calls[::2] == stage_calls[1::2]
                stage_calls = stage_calls[::2]
            first = _first_chunk(width, n)
            f_rows = tester._BATCH_DOUBLES // n if k == len(stages) - 1 else None
            assert stage_calls == [
                call for m in _chunks(first, rounds)
                for call in (_blocks(m, f_rows) if f_rows else [])
                + [width * rows for rows in _blocks(m, first)]]
        assert len(_chunks(first, rounds)) >= 3  # the main loop's
    assert chunk == 256 or 20 in _chunks(first, rounds)


@pytest.mark.parametrize("n", [10, 50])
@pytest.mark.parametrize("epsilon", [0.1, 0.01])
def test_no_oracle_batch_exceeds_the_budget(n, epsilon):
    # every call a tester makes, and each base call beneath the odd wrapper,
    # holds at most _BATCH_DOUBLES doubles of points
    cfg = TesterConfig(epsilon=epsilon, seed=6)
    budget = tester._BATCH_DOUBLES
    for run in (lambda f: run_gaussian_additivity(f, cfg),
                lambda f: run_df_additivity(f, StandardGaussian(n, seed=7), cfg),
                lambda f: run_df_linearity(f, StandardGaussian(n, seed=7), cfg)):
        f, calls = _counting_linear(n)
        verdict = run(f)
        assert verdict.accepted and sum(calls) == f.query_count == verdict.queries_used
        assert max(calls) * n <= budget
    if n == 50:  # the battery's 230 rounds are more than one block, so it is split
        assert QUERIES_PER_ADDITIVITY_ROUND * cfg.rounds_testadd * n > budget


def _round_of(rows, witness):
    """The index of the one round whose drawn point is the witness point."""
    found = [i for i, row in enumerate(rows) if row.tolist() == witness]
    assert len(found) == 1
    return found[0]


def test_a_stage_stops_at_its_first_failing_chunk(monkeypatch):
    # First chunks of 7 rounds: a reject at round i has evaluated the chunks
    # of 7, 14, 28, ... rounds up to the one holding i, and nothing after them.
    n = 5
    battery_rounds = []
    monkeypatch.setattr(tester, "_BATCH_DOUBLES", 7 * QUERIES_PER_ADDITIVITY_ROUND * n)
    for seed in range(6):
        cfg = TesterConfig(epsilon=0.1, seed=seed)
        f = CorruptedLinear.with_mass(np.ones(n), 0.002, odd_symmetric=True)
        verdict = test_additivity(f, cfg)
        assert not verdict.accepted
        i = _round_of(_battery_rows(seed, n), verdict.transcript[0][1])
        assert verdict.queries_used == f.query_count == \
            QUERIES_PER_ADDITIVITY_ROUND * _evaluated_rounds(7, cfg.rounds_testadd, i)
        battery_rounds.append(i)
    negativity_rounds = []
    monkeypatch.setattr(tester, "_BATCH_DOUBLES", 7 * 2 * n)
    for seed in range(6):
        cfg = TesterConfig(epsilon=0.01, seed=seed)
        f = CorruptedLinear.with_mass(np.ones(n), 0.02)
        wrapped, verdict = force_negativity(f, StandardGaussian(n, seed=seed), cfg)
        assert wrapped is None and not verdict.accepted
        rows = StandardGaussian(n, seed=seed).draw_many(cfg.rounds_forceneg)
        i = _round_of(rows, verdict.transcript[0][1])
        assert verdict.queries_used == f.query_count == \
            2 * _evaluated_rounds(7, cfg.rounds_forceneg, i)
        negativity_rounds.append(i)
    # in both stages some reject comes after the first chunk
    assert max(battery_rounds) >= 7 and max(negativity_rounds) >= 7


def _hidden_halfspace(mass, odd_symmetric=False, n=5):
    """reject-far's hidden family (payload on u.x > 5) and the D per seed with `mass` on it."""
    u = np.eye(n)[0]
    f = CorruptedLinear(random_linear(n, w_seed=8).w, CorruptionRegion.from_threshold(u, 5.0),
                        odd_symmetric=odd_symmetric)
    return f, lambda seed: ShiftedGaussian((5.0 - ndtri(1.0 - mass)) * u, seed=seed)


class _RowExactCorrupted(CorruptedLinear):
    """CorruptedLinear with each dot product summed along its row.

    A row's value then does not depend on how many rows share its oracle call;
    BLAS's matrix-vector product gives a one-row call other last bits.
    """

    def _values(self, xs):
        proj = (xs * self.region.direction).sum(axis=1)
        hit = (proj > self.region.threshold).astype(float)
        if self.odd_symmetric:
            hit -= (-proj > self.region.threshold)
        return (xs * self.w).sum(axis=1) + self.payload * hit


def test_main_loop_stops_at_its_first_failing_chunk(monkeypatch):
    # A first main-loop chunk of 7 rounds: an oracle that first fails at
    # main-loop round r has evaluated the battery, then the chunks of 7, 14,
    # 28, ... rounds up to the one holding r, each round one f(p) and
    # 2 * rounds_queryg probe queries.
    rounds = []
    for seed in range(12):
        cfg = TesterConfig(epsilon=0.05, seed=seed)
        monkeypatch.setattr(tester, "_BATCH_DOUBLES", 7 * 2 * cfg.rounds_queryg * 5)
        f, dist = _hidden_halfspace(0.04)
        verdict = run_df_additivity(f, dist(seed), cfg)
        if verdict.reject_site in _BATTERY_SITES:  # u.x > 5 seen through x - y ~ N(0, 2I)
            continue
        assert verdict.reject_site == "f!=g"
        r = _round_of(dist(seed).draw_many(cfg.rounds_main), verdict.transcript[0][1])
        main = _evaluated_rounds(7, cfg.rounds_main, r) * (1 + 2 * cfg.rounds_queryg)
        assert verdict.queries_used == f.query_count == cfg.battery_queries() + main
        # the first three chunks hold 7 + 14 + 28 of the 93 rounds; the fourth the rest
        assert (verdict.queries_used < cfg.accept_path_queries()) == (r < 7 + 14 + 28)
        rounds.append(r)
    assert len(rounds) >= 10 and max(rounds) >= 7


@pytest.mark.parametrize("algorithm, mass, odd_symmetric", [
    ("df-additivity", 0.004, False), ("df-linearity", 0.002, True)])
def test_main_loop_chunk_size_changes_no_verdict(monkeypatch, algorithm, mass, odd_symmetric):
    # The main loop draws all its points, then their probes' x_i, before its
    # first chunk, so at epsilon = 0.01 (461 rounds, or 922 on the odd wrapper)
    # a reject past the first 256 rounds keeps its outcome, site and witness
    # under any first chunk, and evaluation stops at the end of its chunk.  At
    # n = 5 the default first chunk (409 or 364 rounds) is longer than _CHUNK,
    # and no reject evaluates more than checks every _CHUNK rounds would.
    cfg = TesterConfig(epsilon=0.01)
    main = cfg if algorithm == "df-additivity" else TesterConfig(epsilon=0.005)
    rounds = main.rounds_main
    per_round = 1 + 2 * main.rounds_queryg
    default = _first_chunk(2 * main.rounds_queryg, 5)
    assert default > tester._CHUNK == 256
    if algorithm == "df-additivity":
        run, before = run_df_additivity, cfg.battery_queries()
    else:  # each wrapper query costs two base queries
        run, before = run_df_linearity, 2 * cfg.rounds_forceneg + 2 * main.battery_queries()
        per_round *= 2
    hidden, dist = _hidden_halfspace(mass, odd_symmetric)
    f = _RowExactCorrupted(hidden.w, hidden.region, odd_symmetric=odd_symmetric)

    def main_rows(seed):
        d = dist(seed)
        if algorithm == "df-linearity":
            d.draw_many(cfg.rounds_forceneg)
        return d.draw_many(rounds)

    runs = {}
    for first in (1, 7, 256, default):
        monkeypatch.setattr(tester, "_BATCH_DOUBLES", first * 2 * main.rounds_queryg * 5)
        runs[first] = [run(f, dist(seed), TesterConfig(epsilon=0.01, seed=seed))
                       for seed in range(8)]
    for first in (1, 7, default):
        assert [(v.outcome, v.reject_site, v.transcript) for v in runs[first]] == \
            [(v.outcome, v.reject_site, v.transcript) for v in runs[256]]
    early = late = 0
    for seed, verdict in enumerate(runs[256]):
        if verdict.accepted:
            assert all(r[seed].queries_used == verdict.queries_used for r in runs.values())
        if verdict.reject_site not in ("f!=g", "query-g-disagreement"):
            continue
        r = _round_of(main_rows(seed), verdict.transcript[0][1])
        early, late = early + (r < 256), late + (r >= 256)
        for first, verdicts in runs.items():
            assert verdicts[seed].queries_used == \
                before + _evaluated_rounds(first, rounds, r) * per_round
            assert verdicts[seed].queries_used <= \
                before + min(rounds, 256 * (r // 256 + 1)) * per_round
    assert early >= 2 and late >= 2


@pytest.mark.parametrize("chunk", [1, 7, 256])
@pytest.mark.parametrize("epsilon", [0.01, 0.005])
def test_linear_accept_path_count_holds_under_any_chunk(monkeypatch, chunk, epsilon):
    cfg = TesterConfig(epsilon=epsilon, seed=21)
    inner = TesterConfig(epsilon=epsilon / 2.0)
    # a first main-loop chunk of `chunk` rounds; the other stages' follow the same budget
    monkeypatch.setattr(tester, "_BATCH_DOUBLES", chunk * 2 * cfg.rounds_queryg * 5)
    for run, expected in (
            (lambda f: run_gaussian_additivity(f, cfg), cfg.accept_path_queries()),
            (lambda f: run_df_additivity(f, ShiftedGaussian([3.0, -1.0, 0.0, 0.0, 2.0], seed=22),
                                         cfg), cfg.accept_path_queries()),
            (lambda f: run_df_linearity(f, StandardGaussian(5, seed=23), cfg),
             2 * cfg.rounds_forceneg + 2 * inner.accept_path_queries())):
        f = random_linear(5, w_seed=9)
        verdict = run(f)
        assert verdict.accepted
        assert verdict.queries_used == f.query_count == expected


_MAIN_SITES = {"query-g-disagreement", "f!=g"}
# queries of a failing round up to its failing check, in a sequential tester's
# order: the probe's first comparison needs four values, f!=g the whole round
_ROUND_PREFIX = {"negation": 2, "difference": 5, "three-point": 8, "force-negativity": 2,
                 "query-g-disagreement": 4}


def _stages(algorithm, cfg, d, n):
    """(rounds, queries a round, oracle points a round, sites, each round's point) per stage."""
    stages, per_query = [], 1
    if algorithm == "df-linearity":  # then the odd wrapper's two base queries per query
        stages.append((cfg.rounds_forceneg, 2, 2, {"force-negativity"},
                       d.draw_many(cfg.rounds_forceneg)))
        cfg, per_query = replace(cfg, epsilon=cfg.epsilon / 2.0, seed=derive_seed(cfg.seed, 1)), 2
    rng = make_rng(cfg.seed)
    battery = standard_normal(rng, (cfg.rounds_testadd, 3, n))[:, 0]
    main = (standard_normal(rng, (cfg.rounds_main, n)) if algorithm == "gaussian-additivity"
            else d.draw_many(cfg.rounds_main))
    return stages + [
        (cfg.rounds_testadd, per_query * QUERIES_PER_ADDITIVITY_ROUND,
         QUERIES_PER_ADDITIVITY_ROUND, _BATTERY_SITES, battery),
        (cfg.rounds_main, per_query * (1 + 2 * cfg.rounds_queryg), 2 * cfg.rounds_queryg,
         _MAIN_SITES, main)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["gaussian-additivity", "df-additivity", "df-linearity"]),
       st.sampled_from(["hidden", "hidden-odd", "corrupted-odd"]), st.floats(0.125, 1.0),
       st.sampled_from([0.05, 0.1, 0.2]), st.integers(2, 6), st.integers(-40, 40),
       st.integers(4, 15), st.sampled_from([5, 64, 256]), st.integers(0, 2**32 - 1))
def test_evaluated_is_at_most_twice_sequential_plus_one_block(algorithm, family, share, epsilon,
                                                               n, k, log_budget, chunk, seed):
    # A sequential tester stops at the failing check of round r of some stage.
    # The doubling chunks evaluate at most 2r + one block of that stage's
    # rounds, so evaluated <= 2 * sequential + one block (ROADMAP item 6), and
    # the _CHUNK edges no more than checks every _CHUNK rounds would; on accept
    # both are the closed form.  D has mass share * epsilon on the region.
    if family == "corrupted-odd":
        f = CorruptedLinear.with_mass(random_linear(n, w_seed=8).w, share * epsilon,
                                      odd_symmetric=True)
        dist = lambda: StandardGaussian(n, seed=seed)  # noqa: E731
    else:
        f, shifted = _hidden_halfspace(share * epsilon, family == "hidden-odd", n)
        dist = lambda: shifted(seed)  # noqa: E731
    cfg = TesterConfig(epsilon=epsilon, seed=seed)
    g = _times(f, 2.0**k)
    with mock.patch.object(tester, "_BATCH_DOUBLES", 2**log_budget), \
            mock.patch.object(tester, "_CHUNK", chunk):
        verdict = (run_gaussian_additivity(g, cfg) if algorithm == "gaussian-additivity" else
                   run_df_additivity(g, dist(), cfg) if algorithm == "df-additivity" else
                   run_df_linearity(g, dist(), cfg))
        stages = _stages(algorithm, cfg, dist(), n)
        firsts = [_first_chunk(width, n) for _, _, width, _, _ in stages]
    assert verdict.queries_used == g.query_count
    if verdict.accepted:
        inner = TesterConfig(epsilon=epsilon / 2)
        closed = (cfg.accept_path_queries() if algorithm != "df-linearity" else
                  2 * cfg.rounds_forceneg + 2 * inner.accept_path_queries())
        assert verdict.queries_used == sum(rounds * q for rounds, q, *_ in stages) == closed
        return
    s = next(i for i, stage in enumerate(stages) if verdict.reject_site in stage[3])
    rounds, q, _, _, rows = stages[s]
    r = _round_of(rows, verdict.transcript[0][1])
    per_query = 2 if algorithm == "df-linearity" and s else 1
    prefix = q if verdict.reject_site == "f!=g" else per_query * _ROUND_PREFIX[verdict.reject_site]
    before = sum(rr * qq for rr, qq, *_ in stages[:s])
    sequential = before + r * q + prefix
    assert verdict.queries_used == before + q * _evaluated_rounds(firsts[s], rounds, r, chunk)
    assert sequential <= verdict.queries_used <= 2 * sequential + q * firsts[s]
    assert verdict.queries_used <= before + q * min(rounds, chunk * (r // chunk + 1))


def _far_families(n):
    """reject-far's six far oracle families, each with the distribution D it is far under."""
    u = np.eye(n)[0]
    w = random_linear(n, w_seed=8).w

    def gauss(seed):
        return StandardGaussian(n, seed=seed)
    return {
        "corrupted": (lambda: CorruptedLinear.with_mass(w, 0.3), gauss),
        "corrupted-odd": (lambda: CorruptedLinear.with_mass(w, 0.3, odd_symmetric=True), gauss),
        "constant-shift": (lambda: ConstantShiftLinear(w, 1.0), gauss),
        "norm": (lambda: NormOracle(n), gauss),
        "noisy": (lambda: NoisyLinear(w, 0.1, noise_seed=5), gauss),
        # u.x > 5: N(0,I)-mass ~3e-7, D-mass 0.3
        "hidden": (lambda: CorruptedLinear(w, CorruptionRegion.from_threshold(u, 5.0)),
                   lambda seed: ShiftedGaussian((5.0 - ndtri(0.7)) * u, seed=seed)),
    }


# (algorithm, family) -> (outcome, reject site, queries_used, the first 16 hex digits
# of the sha256 of repr(transcript)); n = 10, epsilon = 0.1, seeds 100, 101, ... in order
_PINNED_VERDICTS = {
    ("gaussian-additivity", "corrupted"): ("reject", "difference", 1840, "749cf8bd3d109d44"),
    ("gaussian-additivity", "corrupted-odd"): ("reject", "difference", 1840, "df5c737f444e916e"),
    ("gaussian-additivity", "constant-shift"): ("reject", "negation", 1840, "0d2e58fcf9f30037"),
    ("gaussian-additivity", "norm"): ("reject", "negation", 1840, "08b5a015194b00bf"),
    ("gaussian-additivity", "noisy"): ("reject", "negation", 1840, "1f901b8f23974143"),
    ("gaussian-additivity", "hidden"): ("accept", None, 2357, "4f53cda18c2baa0c"),
    ("df-additivity", "corrupted"): ("reject", "negation", 1840, "40ed8e66dfc0a4d3"),
    ("df-additivity", "corrupted-odd"): ("reject", "difference", 1840, "dd07b2c38c143ff8"),
    ("df-additivity", "constant-shift"): ("reject", "negation", 1840, "f890c2345936377e"),
    ("df-additivity", "norm"): ("reject", "negation", 1840, "8ead07cc4a2150db"),
    ("df-additivity", "noisy"): ("reject", "negation", 1840, "345b78359d6a0792"),
    ("df-additivity", "hidden"): ("reject", "difference", 1840, "08075000bc2b8a7d"),
    ("df-linearity", "corrupted"): ("reject", "force-negativity", 48, "a088fe2cbac13c59"),
    ("df-linearity", "corrupted-odd"): ("reject", "three-point", 3728, "d70a9ab8e41dbc6d"),
    ("df-linearity", "constant-shift"): ("reject", "force-negativity", 48, "cb1c2ea2cc5d6967"),
    ("df-linearity", "norm"): ("reject", "force-negativity", 48, "1389bdd58034392e"),
    ("df-linearity", "noisy"): ("reject", "force-negativity", 48, "e3f2ca9f3f4baa0c"),
    ("df-linearity", "hidden"): ("reject", "force-negativity", 48, "23634b9beed4824d"),
}


def test_seeded_far_verdicts_are_pinned():
    # How a step batches its points may change no verdict, reject site,
    # witness or count: these were recorded with each point set in its own
    # oracle call.  Seeded streams hold per numpy version (NEP 19).
    families = _far_families(10)
    found = {}
    for seed, (alg, name) in enumerate(_PINNED_VERDICTS, start=100):
        make, dist = families[name]
        cfg = TesterConfig(epsilon=0.1, seed=seed)
        if alg == "gaussian-additivity":
            v = run_gaussian_additivity(make(), cfg)
        elif alg == "df-additivity":
            v = run_df_additivity(make(), dist(seed), cfg)
        else:
            v = run_df_linearity(make(), dist(seed), cfg)
        digest = hashlib.sha256(repr(v.transcript).encode()).hexdigest()[:16]
        found[alg, name] = (v.outcome, v.reject_site, v.queries_used, digest)
    assert found == _PINNED_VERDICTS


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
        assert res.k == scaling_index(p, 50)
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
@given(st.integers(-1000, 1000), st.integers(1, 500), st.integers(0, 2**32 - 1))
def test_exactly_linear_is_accepted_at_any_weight_scale(k, n, seed):
    # Rounding error scales with the operands of each identity, not its result;
    # epsilon 0.01 makes thousands of probe comparisons per verdict.  From 2^-1000
    # some products are subnormal, whose rounding is far below the relative band.
    w = 2.0**k * standard_normal(make_rng(seed), n)
    cfg = TesterConfig(epsilon=0.01, seed=seed)
    for run in (lambda f: run_gaussian_additivity(f, cfg),
                lambda f: run_df_linearity(f, StandardGaussian(n, seed=seed + 1), cfg)):
        f = LinearOracle(w)
        verdict = run(f)
        assert verdict.accepted, verdict.reject_site
        assert verdict.queries_used == f.query_count


_SCALE_RUNS = {
    "gaussian-additivity": lambda f, cfg: run_gaussian_additivity(f, cfg),
    "df-additivity": lambda f, cfg: run_df_additivity(f, StandardGaussian(f.dim, cfg.seed), cfg),
    "df-linearity": lambda f, cfg: run_df_linearity(f, StandardGaussian(f.dim, cfg.seed), cfg),
}
_SCALE_FAMILIES = ("linear", "constant-shift", "corrupted", "corrupted-odd")


def _family(name, n):
    return random_linear(n, w_seed=8) if name == "linear" else _far_families(n)[name][0]()


def _times(f, scale):
    """2^k f as an oracle of its own: every value of f times the power of two `scale`."""
    return CustomOracle(f.dim, lambda xs: scale * f.query_batch(xs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(_SCALE_FAMILIES), st.sampled_from(sorted(_SCALE_RUNS)),
       st.integers(-60, 60), st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_a_power_of_two_scale_changes_no_verdict(family, run, k, n, seed):
    # 2^k f is exact in floating point and every check is relative, so only the
    # witness values move, by 2^k exactly.
    cfg = TesterConfig(epsilon=0.1, seed=seed)
    base = _SCALE_RUNS[run](_family(family, n), cfg)
    scaled = _SCALE_RUNS[run](_times(_family(family, n), 2.0**k), cfg)
    assert (scaled.outcome, scaled.reject_site, scaled.queries_used) == (
        base.outcome, base.reject_site, base.queries_used)
    assert scaled.transcript == [
        tuple(2.0**k * v if isinstance(v, float) else v for v in witness)
        for witness in base.transcript]
    assert base.accepted == (family == "linear")


@pytest.mark.parametrize("k", [-50, -40])
@pytest.mark.parametrize("family", ["constant-shift", "corrupted", "corrupted-odd"])
def test_far_functions_are_rejected_at_tiny_scales(family, k):
    # An absolute tolerance floor of 1e-12 once accepted these every time.
    cfg = [TesterConfig(epsilon=0.1, seed=seed) for seed in range(20)]
    verdicts = [_SCALE_RUNS["df-additivity"](_times(_family(family, 10), 2.0**k), c) for c in cfg]
    assert not any(v.accepted for v in verdicts)


class _ScaledGaussian(ShiftedGaussian):
    """N(scale * mean, scale^2 * I), drawn as `scale` times the rows of N(mean, I).

    For a power of two the rows are exact, and no covariance has to be a
    double: 4^k * I would pass float max from k = 512.
    """

    def __init__(self, mean, scale: float, seed: int = 0):
        super().__init__(mean, seed=seed)
        self.scale = scale

    def draw_many(self, m: int) -> np.ndarray:
        return self.scale * super().draw_many(m)


_DF_RUNS = {"df-additivity": run_df_additivity, "df-linearity": run_df_linearity}


def _hidden_at_scale(k, n, seed):
    """reject-far's hidden halfspace at scale 2^k: payload 2^k on u.x > 2^k * 5, and
    D = N(2^k * mu, 4^k * I) with mass 0.3 on it."""
    u, s = np.eye(n)[0], 2.0**k
    f = CorruptedLinear(random_linear(n, w_seed=8).w, CorruptionRegion.from_threshold(u, s * 5.0),
                        payload=s)
    return f, _ScaledGaussian((5.0 - ndtri(0.7)) * u, s, seed=seed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_DF_RUNS)), st.integers(-1074, 1010), st.integers(2, 6),
       st.sampled_from([0.05, 0.1, 0.2]), st.integers(0, 2**32 - 1))
def test_exactly_linear_is_accepted_at_any_scale_of_d(run, k, n, epsilon, seed):
    # The D-side twin of the weight-scale property.  From 2^-1074 D's rows reach
    # the subnormal grid; up to 2^1010, k_p = ceil(r ||p||) of every point the
    # testers form stays finite, a bound reached before f's (float max / 4).
    f = random_linear(n, w_seed=8)
    _, d = _hidden_at_scale(k, n, seed)
    cfg = TesterConfig(epsilon=epsilon, seed=seed)
    verdict = _DF_RUNS[run](f, d, cfg)
    closed = (cfg.accept_path_queries() if run == "df-additivity" else
              2 * cfg.rounds_forceneg + 2 * TesterConfig(epsilon=epsilon / 2).accept_path_queries())
    assert verdict.accepted, verdict.reject_site
    assert verdict.queries_used == f.query_count == closed


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_DF_RUNS)), st.integers(-20, 1010), st.integers(2, 6),
       st.sampled_from([0.05, 0.1, 0.2]), st.integers(0, 2**32 - 1))
def test_a_hidden_halfspace_is_rejected_at_any_resolvable_scale_of_d(run, k, n, epsilon, seed):
    # The corruption lives only at D's scale.  query_g probes g(p) through
    # f(p - z) + f(z) with z ~ N(0, I) at any scale of D, so below about 2^-30 the
    # payload sits inside the 1e-9 relative band of those unit-scale values
    # (the xfail below); from 2^-20 it is 2^10 clear of it.
    f, d = _hidden_at_scale(k, n, seed)
    assert not _DF_RUNS[run](f, d, TesterConfig(epsilon=epsilon, seed=seed)).accepted


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="query_g's N(0, I) probes put g's operands at unit scale, "
                          "where a payload of 2^-60 is inside the equality band")
def test_a_hidden_halfspace_is_rejected_at_a_tiny_scale_of_d():
    verdicts = [run_df_additivity(*_hidden_at_scale(-60, 4, seed), TesterConfig(0.1, seed=seed))
                for seed in range(5)]
    assert not any(v.accepted for v in verdicts)


@pytest.mark.parametrize("n", [1, 5, 50])
def test_exactly_linear_with_subnormal_values_is_accepted(n):
    # every value sits on the subnormal grid, whose rounding a purely relative
    # band would not absorb
    for seed in range(5):
        cfg = TesterConfig(epsilon=0.1, seed=seed)
        assert run_gaussian_additivity(LinearOracle([1e-318] * n), cfg).accepted
        assert run_df_linearity(LinearOracle([1e-318] * n), StandardGaussian(n, seed=seed),
                                cfg).accepted


def test_f_ne_g_witness_near_the_value_bound_is_finite():
    # f = s * x_0 up to x_0 = 50 and 0 beyond, with D around x_0 = 100: every value
    # is within the bound, but g(p) = k_p * v_1 = 100 s passes float max
    s = np.finfo(float).max / 80
    f = CustomOracle(5, lambda xs: np.where(xs[:, 0] > 50.0, 0.0, s * xs[:, 0]))
    d = ShiftedGaussian(100.0 * np.eye(5)[0], seed=3)
    verdict = run_df_additivity(f, d, TesterConfig(epsilon=0.1, seed=3))
    assert verdict.reject_site == "f!=g"
    (site, p, fp, k, v1), = verdict.transcript
    assert fp == 0.0 and k == scaling_index(p, 50) and math.isfinite(v1)
    assert v1 == pytest.approx(s * (p[0] / k))
    assert math.isinf(query_g(f, p, TesterConfig(epsilon=0.1)).value)


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


@pytest.mark.parametrize("xs", [
    np.array([[0.0, 1.0, 2.0], [1.0, np.nan, 0.0]]),
    np.array([[0.0, np.inf, 0.0]]),
    np.ones((2, 4)),
    np.ones(3),
    np.float64(1.0),
], ids=["nan-row", "inf-row", "wrong-dimension", "one-d", "zero-d"])
def test_odd_oracle_rejects_bad_batches_without_counting(xs):
    base = LinearOracle([1.0, 2.0, 3.0])
    odd = OddOracle(base)
    with pytest.raises(OracleError):
        odd.query_batch(xs)
    assert odd.query_count == 0
    assert base.query_count == 0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.floats(-12.0, 12.0), st.integers(1, 500), st.integers(0, 2**32 - 1))
def test_odd_oracle_is_exactly_odd_at_any_scale(log_scale, n, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    base = CustomOracle(n, lambda xs: xs @ w + np.linalg.norm(xs, axis=1))  # neither odd nor even
    odd = OddOracle(base)
    xs = 10.0**log_scale * rng.standard_normal((7, n))
    values = odd.query_batch(xs)
    assert np.all(np.isfinite(values))
    assert np.array_equal(odd.query_batch(-xs), -values)
    assert odd.query_count == 14
    assert base.query_count == 28


def test_df_linearity_accepts_linear_with_exact_accounting():
    from dataclasses import replace

    f = random_linear(5, w_seed=6)
    d = StandardGaussian(5, seed=17)
    cfg = TesterConfig(epsilon=0.1, seed=18)
    verdict = run_df_linearity(f, d, cfg)
    assert verdict.accepted
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
            # the inner run's reject, counted as the caller's run sees it
            assert verdict.queries_used == f.query_count
            rejected += 1
    assert rejected >= 8


def test_verdict_json_shape():
    verdict = run_gaussian_additivity(random_linear(2, 7), TesterConfig(epsilon=0.2, seed=21))
    j = verdict.to_json()
    assert set(j) == {"outcome", "reject_site", "queries_used"}
    assert j["outcome"] == "accept"
