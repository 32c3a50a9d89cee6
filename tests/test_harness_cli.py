import contextlib
import dataclasses
import functools
import gc
import io
import itertools
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from lintest import cli, harness, lower_bound, tester
from lintest.cli import main
from lintest.gauss_core import GaussianError
from lintest.harness import (
    SpecError,
    build_distribution,
    build_oracle,
    run_calibrate,
    run_lower_bound,
    run_query_scaling,
)
from lintest.oracle import (
    ConstantShiftLinear,
    CorruptedLinear,
    LinearOracle,
    NoisyLinear,
    NormOracle,
)
from lintest.rng import derive_seed
from lintest.tester import (
    TesterConfig,
    run_df_additivity,
    run_df_linearity,
    run_gaussian_additivity,
)


# --- spec parsing / builders -----------------------------------------------------


def test_unknown_spec_fields_rejected():
    with pytest.raises(SpecError, match="unknown field"):
        run_calibrate({"epsilon": 0.1, "bogus": 1})
    with pytest.raises(SpecError):
        run_calibrate({"oracle": {"family": "linear", "dim": 2, "nope": 3}, "epsilon": 0.1})
    with pytest.raises(SpecError):
        build_distribution({"kind": "standard-gaussian", "dim": 2, "extra": 0})


def test_parse_fills_every_default_and_keeps_the_given_values():
    assert harness._parse({"n": 4, "trials": 5}, "lower-bound") == {
        "n": 4, "n_list": None, "C": 0.01, "C_list": None, "trials": 5, "seed": 0,
        "delta_override": None}
    assert harness._parse({"delta": 0.1}, "noise") == {"delta": 0.1, "seed": 0}
    spec = {"n": 4, "trials": 5}
    assert run_lower_bound(spec)["spec"] == {"n": 4, "trials": 5}  # embedded as given
    assert spec == {"n": 4, "trials": 5}


@pytest.mark.parametrize("spec, key", [
    ({"n_list": [], "trials": 5}, "n_list"),
    ({"n": 4, "C_list": [], "trials": 5}, "C_list"),
    ({"C": 0.01, "trials": 5}, "n"),
])
def test_lower_bound_names_an_empty_or_missing_grid_key(spec, key):
    with pytest.raises(SpecError, match=f"'{key}'"):
        run_lower_bound(spec)


def _readme_spec_keys() -> dict:
    """The README's Spec keys section: each bullet's context and the keys it lists."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Spec keys")[1].split("\n### ")[0]
    lists = {}
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", section, flags=re.M):
        head, _, body = bullet.partition(":")
        lists[re.findall(r"`([^`]+)`", head)[0]] = set(re.findall(r"`([A-Za-z_]\w*)`", body))
    return lists


def test_readme_lists_the_keys_of_every_spec_context():
    assert _readme_spec_keys() == {context: set(keys)
                                   for context, keys in harness._SCHEMAS.items()}


# A value of every key that an either-or pair or a required key of its context needs.
_GIVEN = {"dim": 1, "w_seed": 1, "w_explicit": [1.0], "mass": 0.3, "threshold": 5.0,
          "n": 4, "n_list": [4], "C": 0.01, "C_list": [0.01]}
_PAIRS = [(context, pair, needed) for context, schema in harness._SCHEMAS.items()
          for pair, needed in harness._EITHER.items() if set(pair) <= schema.keys()]


def test_each_either_or_pair_is_read_by_its_contexts():
    assert {(context, pair) for context, pair, _ in _PAIRS} == {
        *((family, ("w_seed", "w_explicit")) for family in
          ("linear", "constant-shift-linear", "corrupted-linear", "noisy-linear")),
        ("corruption", ("mass", "threshold")), ("lower-bound", ("n", "n_list")),
        ("lower-bound", ("C", "C_list"))}


@pytest.mark.parametrize("context, pair, needed", _PAIRS)
def test_parse_refuses_both_keys_of_a_pair_and_neither_of_a_required_one(context, pair, needed):
    one, other = pair
    base = {key: context if key == "family" else _GIVEN[key]
            for key, (_, default) in harness._SCHEMAS[context].items()
            if default is harness._REQUIRED}
    if context == "lower-bound" and one == "C":
        base["n"] = 4  # the required pair beside this one
    with pytest.raises(SpecError, match=f"give '{one}' or '{other}', not both"):
        harness._parse({**base, one: _GIVEN[one], other: _GIVEN[other]}, context)
    assert harness._parse({**base, other: _GIVEN[other]}, context)[other] == _GIVEN[other]
    if needed:
        with pytest.raises(SpecError, match=f"{context} spec needs '{one}' or '{other}'"):
            harness._parse(base, context)


_FAMILIES = {"linear": {}, "constant-shift-linear": {}, "norm": {},
             "corrupted-linear": {"corruption": {"mass": 0.3}},
             "noisy-linear": {"noise": {"delta": 0.1}}}


@pytest.mark.parametrize("dim", [0, -2])
@pytest.mark.parametrize("build, spec, context", [
    *((build_oracle, {"family": family, **keys}, family) for family, keys in _FAMILIES.items()),
    (build_distribution, {"kind": "standard-gaussian"}, "standard-gaussian"),
    (build_distribution, {}, "standard-gaussian"),
])
def test_every_dimension_below_one_is_refused_naming_dim(build, spec, context, dim):
    assert set(_FAMILIES) == {c for c, schema in harness._SCHEMAS.items() if "family" in schema}
    with pytest.raises(SpecError, match=f"'dim' in {context} spec must be a positive"):
        build({**spec, "dim": dim})


def test_spec_defaults_are_the_library_config_defaults():
    configs = {"calibrate": tester.TesterConfig, "query-scaling": tester.TesterConfig,
               "lower-bound": lower_bound.LowerBoundConfig}
    shared = [(context, field) for context, config in configs.items()
              for field in dataclasses.fields(config) if field.name in harness._SCHEMAS[context]
              and field.default is not dataclasses.MISSING]
    assert {(context, field.name) for context, field in shared} >= {
        ("calibrate", "r"), ("query-scaling", "r"), ("lower-bound", "C"), ("lower-bound", "trials")}
    for context, field in shared:
        assert harness._SCHEMAS[context][field.name][1] == field.default, (context, field.name)


def test_build_oracle_families():
    assert isinstance(build_oracle({"family": "linear", "dim": 3}), LinearOracle)
    assert isinstance(build_oracle({"family": "norm", "dim": 3}), NormOracle)
    shift = build_oracle({"family": "constant-shift-linear", "dim": 2, "shift": 4.0})
    assert isinstance(shift, ConstantShiftLinear) and shift.c == 4.0
    corr = build_oracle({"family": "corrupted-linear", "dim": 2,
                         "corruption": {"mass": 0.3, "payload": 2.0}})
    assert isinstance(corr, CorruptedLinear) and corr.payload == 2.0
    thr = build_oracle({"family": "corrupted-linear", "dim": 2,
                        "corruption": {"threshold": 5.0}})
    assert thr.region.threshold == 5.0
    noisy = build_oracle({"family": "noisy-linear", "dim": 2, "noise": {"delta": 0.1}})
    assert isinstance(noisy, NoisyLinear)


def test_build_oracle_explicit_weights_and_errors():
    f = build_oracle({"family": "linear", "dim": 2, "w_explicit": [1.0, -1.0]})
    assert np.array_equal(f.w, [1.0, -1.0])
    with pytest.raises(SpecError):
        build_oracle({"family": "linear", "dim": 3, "w_explicit": [1.0]})
    with pytest.raises(SpecError):
        build_oracle({"family": "martian", "dim": 2})
    with pytest.raises(SpecError):
        build_oracle({"family": "linear"})
    with pytest.raises(SpecError):
        build_oracle({"family": "corrupted-linear", "dim": 2, "corruption": {}})
    with pytest.raises(SpecError):
        build_oracle({"family": "noisy-linear", "dim": 2, "noise": {}})


@pytest.mark.parametrize("spec, word", [
    ({"family": "norm", "dim": 3, "w_seed": 4, "shift": 2.0}, "shift"),
    ({"family": "linear", "dim": 2, "noise": {"delta": 0.1}}, "noise"),
    ({"family": "constant-shift-linear", "dim": 2, "corruption": {"mass": 0.3}}, "corruption"),
    ({"family": "noisy-linear", "dim": 2, "shift": 1.0, "noise": {"delta": 0.1}}, "shift"),
    ({"family": "linear", "dim": 2, "w_seed": 1, "w_explicit": [1.0, 2.0]}, "not both"),
    ({"family": "norm", "dim": 2, "w_seed": 1, "w_explicit": [1.0, 2.0]}, "unknown field"),
])
def test_build_oracle_rejects_keys_its_family_does_not_read(spec, word):
    with pytest.raises(SpecError, match=word):
        build_oracle(spec)


@pytest.mark.parametrize("spec, word", [
    ({"kind": "standard-gaussian", "dim": 2, "mean": [1.0, 2.0]}, "mean"),
    ({"kind": "shifted-gaussian", "mean": [1.0], "dim": 1}, "dim"),
    ({"kind": "mixture", "weights": [1.0], "path": "x.csv",
      "components": [{"kind": "standard-gaussian", "dim": 1}]}, "path"),
    ({"kind": "shifted-gaussian", "mean": [1.0], "seed": 4}, "seed"),
    ({"kind": "mixture", "weights": [1.0],
      "components": [{"kind": "standard-gaussian", "dim": 1, "seed": 4}]}, "seed"),
])
def test_build_distribution_rejects_keys_its_kind_does_not_read(spec, word):
    with pytest.raises(SpecError, match=word):
        build_distribution(spec)


def test_build_distribution_kinds(tmp_path):
    d = build_distribution({"kind": "standard-gaussian", "dim": 3})
    assert d.dim == 3
    d2 = build_distribution({"kind": "shifted-gaussian", "mean": [1.0, 2.0]})
    assert d2.dim == 2
    d3 = build_distribution({"kind": "mixture", "weights": [0.5, 0.5],
                             "components": [{"kind": "standard-gaussian", "dim": 2},
                                            {"kind": "shifted-gaussian", "mean": [3.0, 3.0]}]})
    assert d3.dim == 2
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    d4 = build_distribution({"kind": "empirical", "path": str(p)})
    assert d4.dim == 2
    with pytest.raises(SpecError):
        build_distribution({"kind": "cauchy", "dim": 1})


def test_a_built_mixtures_components_draw_distinct_streams():
    gauss = {"kind": "standard-gaussian", "dim": 2}
    mixture = build_distribution({"kind": "mixture", "weights": [0.5, 0.5],
                                  "components": [gauss, gauss]})
    first, second = (component.draw_many(3) for component in mixture.components)
    assert not np.array_equal(first, second)


# --- harness runs -----------------------------------------------------------------


def _linear_spec(**extra):
    spec = {"oracle": {"family": "linear", "dim": 4, "w_seed": 2},
            "epsilon": 0.2, "trials": 3, "seed": 5,
            "algorithm": "gaussian-additivity"}
    spec.update(extra)
    return spec


def test_run_calibrate_linear_all_accept():
    report = run_calibrate(_linear_spec())
    agg = report["aggregates"]
    assert agg["trials"] == 3
    assert agg["accept_rate"] == 1.0
    # accept-path count is the same for every trial
    assert agg["query_histogram"] == {"2056": 3}
    assert agg["mean_queries"] == agg["max_queries"] == 2056
    assert [v["trial"] for v in report["verdicts"]] == [0, 1, 2]


def test_run_calibrate_deterministic_and_jobs_invariant():
    a = run_calibrate(_linear_spec(trials=4))
    b = run_calibrate(_linear_spec(trials=4))
    c = run_calibrate(_linear_spec(trials=4), jobs=2)
    for r in (a, b, c):
        r.pop("wall_clock_s")
    assert a == b == c


@pytest.fixture
def fresh_workers():
    """The harness's workers, none at the start of the test and stopped at its end."""
    harness._stop_workers()
    yield harness._workers
    harness._stop_workers()


def _where(fn, item):
    """fn(item), with the id of the process that ran it."""
    return os.getpid(), fn(item)


@pytest.fixture
def shares(monkeypatch):
    """Records, for each `_fan_out` call, the items that each process ran, as
    (pid, contiguous run of items) pairs in item order."""
    calls = []
    fan_out = harness._fan_out

    def spy(fn, items, jobs):
        tagged = fan_out(functools.partial(_where, fn), items, jobs)
        runs = itertools.groupby(zip(tagged, items), key=lambda pair: pair[0][0])
        calls.append([(pid, [item for _, item in run]) for pid, run in runs])
        return [result for _, result in tagged]

    monkeypatch.setattr(harness, "_fan_out", spy)
    return calls


def _one_share_each(call, processes):
    """The shares of one call: one contiguous run per process, the caller's first."""
    pids = [pid for pid, _ in call]
    assert len(pids) == len(set(pids)) == processes
    assert pids[0] == os.getpid()
    return [run for _, run in call]


@pytest.mark.parametrize("jobs, cpus, trials, workers", [
    (64, 2, 4, [2]),      # clamped to the cores
    (8, 16, 3, [3]),      # clamped to the trials
    (4, 8, 1, []),        # one trial runs in-process
    (4, None, 4, []),     # no affinity and an unknown core count count as one core
])
def test_run_calibrate_clamps_workers(monkeypatch, fresh_workers, shares, jobs, cpus, trials,
                                      workers):
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(harness, "_usable_cores", lambda: cpus)
    report = run_calibrate(_linear_spec(trials=trials), jobs=jobs)
    (call,) = shares
    processes = workers[0] if workers else 1  # the calling process included
    _one_share_each(call, processes)
    assert len(fresh_workers) == processes - 1
    serial = run_calibrate(_linear_spec(trials=trials))
    assert _reports_without_wall_clock(report, serial)[0] == serial


@pytest.mark.parametrize("run, spec", [(run_calibrate, _linear_spec(trials=4)),
                                       (run_lower_bound, {"n": 4, "trials": 5})])
@pytest.mark.parametrize("jobs", [0, -3])
def test_run_functions_refuse_a_worker_count_below_one(run, spec, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run(spec, jobs=jobs)


@pytest.mark.parametrize("run, spec", [(run_calibrate, _linear_spec(trials=4)),
                                       (run_lower_bound, {"n": 4, "trials": 5})])
@pytest.mark.parametrize("jobs", [1.5, 2.0, True, "2"])
def test_run_functions_refuse_a_worker_count_that_is_no_integer(run, spec, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1 and an integer"):
        run(spec, jobs=jobs)


@pytest.mark.parametrize("run, spec", [(run_calibrate, _linear_spec(trials=4)),
                                       (run_lower_bound, {"n": 4, "trials": 5})])
def test_run_functions_take_any_integer_worker_count(monkeypatch, fresh_workers, run, spec):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    serial, fanned = _reports_without_wall_clock(run(spec, jobs=1), run(spec, jobs=np.int64(2)))
    assert serial == fanned
    assert len(fresh_workers) == 1  # np.int64(2) fanned out like 2


def test_usable_cores_reads_the_affinity_then_the_core_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert harness._usable_cores() == 2  # pinned to 2 of 8 cores, as under taskset
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._usable_cores() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._usable_cores() == 1  # an unknown core count counts as one


def test_fan_out_gives_each_worker_one_contiguous_share(monkeypatch, fresh_workers, shares):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
    assert harness._fan_out(abs, range(-20, 0), 2) == list(range(20, 0, -1))
    assert harness._fan_out(abs, range(3), 2) == [0, 1, 2]
    assert harness._fan_out(abs, range(7), 3) == list(range(7))
    assert [_one_share_each(call, n) for call, n in zip(shares, (2, 2, 3))] == [
        [list(range(-20, -10)), list(range(-10, 0))],
        [[0], [1, 2]],  # the calling process takes the smaller share
        [[0, 1], [2, 3], [4, 5, 6]]]


def test_lower_bound_fans_out_trials_not_cells(monkeypatch, fresh_workers, shares):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    one_cell = run_lower_bound({"n": 4, "trials": 20, "seed": 1}, jobs=2)
    grid = run_lower_bound({"n_list": [4, 6], "trials": 20, "seed": 1}, jobs=2)
    # item k is trial k // cells of cell k % cells
    assert _one_share_each(shares[0], 2) == [list(range(10)), list(range(10, 20))]
    for share in _one_share_each(shares[1], 2):  # trial-major: a slice of both cells each
        assert len(share) == 20 and {k % 2 for k in share} == {0, 1}
    for report, spec in ((one_cell, {"n": 4}), (grid, {"n_list": [4, 6]})):
        fanned, serial = _reports_without_wall_clock(
            report, run_lower_bound({**spec, "trials": 20, "seed": 1}))
        assert fanned == serial


def test_lower_bound_fans_out_a_range_of_trial_indices(monkeypatch):
    # A range's shares are ranges, so each message has one size however many trials run.
    seen, fan_out = [], harness._fan_out
    monkeypatch.setattr(harness, "_fan_out",
                        lambda fn, items, jobs: seen.append(items) or fan_out(fn, items, jobs))
    run_lower_bound({"n_list": [4, 6], "C_list": [0.01, 0.1], "trials": 3, "seed": 1})
    assert seen == [range(12)]


def _reports_without_wall_clock(*reports):
    for report in reports:
        report.pop("wall_clock_s")
    return reports


def test_fan_out_reuses_one_pool_per_worker_count(monkeypatch, fresh_workers):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
    run_calibrate(_linear_spec(trials=4), jobs=2)
    first = list(fresh_workers)
    run_calibrate(_linear_spec(trials=4), jobs=2)
    assert fresh_workers == first
    run_calibrate(_linear_spec(trials=4), jobs=3)  # another count replaces the workers
    assert len(fresh_workers) == 2
    assert not {p for p, _ in first} & {p for p, _ in fresh_workers}
    (process, _), = first
    assert process.exitcode == 0  # ended by EOF on its pipe, not by a signal


def test_fan_out_drops_a_broken_pool(monkeypatch, fresh_workers):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    run_calibrate(_linear_spec(trials=4), jobs=2)
    (process, _), = fresh_workers
    os.kill(process.pid, signal.SIGKILL)
    process.join(30)
    assert not process.is_alive()
    with pytest.raises(multiprocessing.ProcessError):
        run_calibrate(_linear_spec(trials=4), jobs=2)
    assert fresh_workers == []
    report = run_calibrate(_linear_spec(trials=4), jobs=2)
    assert fresh_workers[0][0] is not process
    assert report["aggregates"]["accept_rate"] == 1.0


def _kill_self_at(last, item):
    """item, but SIGKILL the running process at `last`."""
    if item == last:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def test_fan_out_raises_when_a_worker_is_killed_mid_call(monkeypatch, fresh_workers):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    with pytest.raises(multiprocessing.ProcessError):  # the worker's share holds item 5
        harness._fan_out(functools.partial(_kill_self_at, 5), range(6), 2)
    assert fresh_workers == []
    fanned, serial = _reports_without_wall_clock(run_calibrate(_linear_spec(trials=4), jobs=2),
                                                 run_calibrate(_linear_spec(trials=4)))
    assert fanned == serial


def _fail_at(bad, item):
    if item == bad:
        raise SpecError(f"item {item} is bad")
    return item


@pytest.mark.parametrize("bad", [0, 5])  # in the caller's share, in the worker's
def test_fan_out_raises_a_failed_trial_as_itself(monkeypatch, fresh_workers, bad):
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    with pytest.raises(SpecError, match=f"item {bad} is bad"):
        harness._fan_out(functools.partial(_fail_at, bad), range(6), 2)
    fanned, serial = _reports_without_wall_clock(run_calibrate(_linear_spec(trials=4), jobs=2),
                                                 run_calibrate(_linear_spec(trials=4)))
    assert fanned == serial


def test_fan_out_reports_match_serial_across_specs(fresh_workers):
    specs = [_linear_spec(trials=4),
             _linear_spec(trials=5, seed=9, algorithm="df-linearity"),
             {**_linear_spec(trials=4), "oracle": {"family": "norm", "dim": 4}}]
    for spec in specs:
        fanned, serial = _reports_without_wall_clock(run_calibrate(spec, jobs=2),
                                                     run_calibrate(spec))
        assert fanned == serial
    for grid in ({"n_list": [4, 6], "C": 0.05, "trials": 10, "seed": 3},
                 {"n": 5, "trials": 7, "seed": 4},  # one cell
                 {"n_list": [3, 5], "C_list": [0.01, 0.2], "trials": 6, "seed": 8}):
        fanned, serial = _reports_without_wall_clock(run_lower_bound(grid, jobs=2),
                                                     run_lower_bound(grid))
        assert fanned == serial


def _run_cli_and_list_workers(*paths):
    """Run `calibrate --jobs 2` on each spec in turn in one fresh interpreter, the last
    as the command line does; returns (the finished process, the pids of its workers)."""
    script = ("import sys\n"
              "from lintest import harness\n"
              "from lintest.cli import main\n"
              "pids = set()\n"
              "try:\n"
              "    for path in sys.argv[1:-1]:\n"
              "        main([\"calibrate\", \"--spec\", path, \"--jobs\", \"2\"],\n"
              "             standalone_mode=False)\n"
              "        pids.update(process.pid for process, _ in harness._workers)\n"
              "    main([\"calibrate\", \"--spec\", sys.argv[-1], \"--jobs\", \"2\"])\n"
              "finally:\n"
              "    pids.update(process.pid for process, _ in harness._workers)\n"
              "    print(*sorted(pids), file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    done = subprocess.run([sys.executable, "-c", script, *paths], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    pids = [int(p) for p in done.stderr.strip().splitlines()[-1].split()]
    assert "Exception ignored" not in done.stderr
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    return done, pids


def test_cli_fan_out_leaves_no_worker_behind(tmp_path):
    path = _write_spec(tmp_path, _linear_spec(trials=4))
    done, pids = _run_cli_and_list_workers(path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["aggregates"]["trials"] == 4
    assert len(pids) == (1 if harness._usable_cores() > 1 else 0)


def test_cli_fan_out_leaves_no_worker_behind_a_failed_trial(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_linear_spec(trials=4)))
    # Every trial fails: w.x overflows, and the oracle refuses the value.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_linear_spec(trials=4), "oracle": {
        "family": "linear", "dim": 3, "w_explicit": [2e307, -2e307, 1.5e307]}}))
    done, pids = _run_cli_and_list_workers(str(good), str(bad))  # the failure reuses a worker
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stderr.splitlines()[0])["error"] == "OracleError"
    assert len(pids) == (1 if harness._usable_cores() > 1 else 0)


def _gone(pid: int) -> bool:
    """Whether process `pid` has exited: it is unknown, or a zombie that no one has reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_fan_out_workers_end_when_their_parent_is_killed(sig):
    # Killed, the parent runs no exit hook; its workers read EOF and end.
    script = ("from lintest import harness\n"
              "harness._usable_cores = lambda: 3\n"
              "harness._fan_out(abs, list(range(6)), 3)\n"
              "print(*(process.pid for process, _ in harness._workers), flush=True)\n"
              "import time; time.sleep(120)\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src})
    pids = []
    try:
        pids = [int(p) for p in parent.stdout.readline().split()]
        assert len(pids) == 2
        parent.send_signal(sig)
        parent.wait(30)
        deadline = time.monotonic() + 10
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone, pids))
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        for pid in (pid for pid in pids if not _gone(pid)):  # no orphan behind a failure
            os.kill(pid, signal.SIGKILL)


def test_run_calibrate_validation():
    with pytest.raises(SpecError):
        run_calibrate({"epsilon": 0.1})
    with pytest.raises(SpecError):
        run_calibrate({"oracle": {"family": "linear", "dim": 2}})
    with pytest.raises(SpecError):
        run_calibrate(_linear_spec(algorithm="quantum"))
    with pytest.raises(SpecError, match="'trials' in calibrate spec must be a positive"):
        run_calibrate(_linear_spec(trials=0))


def test_run_query_scaling_rows_and_band():
    report = run_query_scaling({"epsilons": [0.2, 0.1], "seed": 1})
    assert [r["epsilon"] for r in report["rows"]] == [0.2, 0.1]
    for row in report["rows"]:
        assert row["outcome"] == "accept"
        assert row["exact_on_accept"]
        assert row["within_formula"]
        assert row["measured_queries"] == row["formula_queries"]
    assert report["ratio_band_ok"]
    with pytest.raises(SpecError):
        run_query_scaling({"epsilons": [0.1, 0.2]})
    with pytest.raises(SpecError):
        run_query_scaling({"epsilons": []})
    with pytest.raises(SpecError, match="family"):  # not read as the default oracle
        run_query_scaling({"epsilons": [0.2], "oracle": {}})


def test_run_lower_bound_grid():
    report = run_lower_bound({"n_list": [4, 6], "C_list": [0.01, 0.1], "trials": 20, "seed": 2})
    assert len(report["cells"]) == 4
    assert {(c["n"], c["C"]) for c in report["cells"]} == {(4, 0.01), (4, 0.1),
                                                           (6, 0.01), (6, 0.1)}
    with pytest.raises(SpecError):
        run_lower_bound({"C_list": [0.01]})


def test_every_report_records_the_numpy_version():
    reports = (run_calibrate(_linear_spec(trials=1)),
               run_query_scaling({"epsilons": [0.2]}),
               run_lower_bound({"n": 4, "trials": 5}))
    for report in reports:
        assert report["numpy_version"] == np.__version__
        assert report["library_version"] == harness.__version__


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**63 - 1), st.integers(1, 200),
       st.sampled_from(["gaussian-additivity", "df-additivity", "df-linearity"]))
def test_run_calibrate_is_deterministic_in_the_seed(seed, n, algorithm):
    spec = {"oracle": {"family": "linear", "dim": n, "w_seed": seed}, "epsilon": 0.5,
            "trials": 2, "seed": seed, "algorithm": algorithm}
    a, b = run_calibrate(spec), run_calibrate(spec)
    assert a.pop("wall_clock_s") >= 0 and b.pop("wall_clock_s") >= 0
    assert a == b


# --- one build per calibrate call ---------------------------------------------------


def _fresh_trial(spec: dict, t: int) -> dict:
    """Trial t of a calibrate spec, from an oracle and a sampler built for that trial alone."""
    seed = spec["seed"]
    cfg = TesterConfig(epsilon=spec["epsilon"], seed=derive_seed(seed, t, 1))
    oracle = build_oracle(spec["oracle"])
    stamp = {"epsilon": spec["epsilon"], "seed": cfg.seed, "trial": t}
    if spec["algorithm"] == "gaussian-additivity":
        return {**vars(run_gaussian_additivity(oracle, cfg)), **stamp}
    dspec = spec.get("distribution", {"kind": "standard-gaussian", "dim": oracle.dim})
    run = run_df_additivity if spec["algorithm"] == "df-additivity" else run_df_linearity
    dist = build_distribution(dspec).restarted(derive_seed(seed, t, 2))
    return {**vars(run(oracle, dist, cfg)), **stamp}


_W = [0.7, -1.2, 0.4]
# A halfspace u.x > 6 that N(0,I) probes almost never reach, and a D with mass ~0.3 on it,
# so that where a trial rejects depends on D's stream.
_HIDDEN = {"threshold": 6.0, "direction": [1.0, 1.0, 0.0]}
_ON_REGION = {"kind": "shifted-gaussian", "mean": [3.9, 3.9, 0.0],
              "cov": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]]}
_MIXTURE = {"kind": "mixture", "weights": [0.3, 0.7],
            "components": [{"kind": "standard-gaussian", "dim": 3}, _ON_REGION]}


@pytest.mark.parametrize("algorithm, oracle, distribution", [
    ("gaussian-additivity", {"family": "linear", "dim": 3, "w_seed": 1}, None),
    # Noise near the equality band's edge: the first failing round depends on its key.
    ("gaussian-additivity", {"family": "noisy-linear", "dim": 3, "w_explicit": _W,
                             "noise": {"delta": 1e-19}}, None),
    ("gaussian-additivity", {"family": "noisy-linear", "dim": 3, "w_explicit": _W,
                             "noise": {"delta": 1e-19, "seed": 7}}, None),
    ("df-additivity", {"family": "constant-shift-linear", "dim": 3, "w_seed": 2},
     {"kind": "standard-gaussian", "dim": 3}),
    ("df-linearity", {"family": "corrupted-linear", "dim": 3, "w_seed": 3,
                      "corruption": {"mass": 0.3}}, None),
    ("df-additivity", {"family": "corrupted-linear", "dim": 3, "w_explicit": _W,
                       "corruption": _HIDDEN}, _ON_REGION),
    ("df-linearity", {"family": "corrupted-linear", "dim": 3, "w_explicit": _W,
                      "corruption": {**_HIDDEN, "odd_symmetric": True}}, _MIXTURE),
    ("df-linearity", {"family": "norm", "dim": 3}, _MIXTURE),
    ("df-additivity", {"family": "corrupted-linear", "dim": 3, "w_explicit": _W,
                       "corruption": _HIDDEN},
     {**_MIXTURE, "weights": [0.7, 0.3], "components": _MIXTURE["components"][::-1]}),
    ("df-additivity", {"family": "noisy-linear", "dim": 3, "w_seed": 4,
                       "noise": {"delta": 1e-19}}, "empirical"),
    ("df-linearity", {"family": "corrupted-linear", "dim": 3, "w_explicit": _W,
                      "corruption": _HIDDEN}, "empirical"),
])
@pytest.mark.parametrize("jobs", [1, 2])
def test_each_trial_equals_a_fresh_build_of_its_own_objects(
        tmp_path, monkeypatch, fresh_workers, algorithm, oracle, distribution, jobs):
    # run_calibrate builds its oracle and sampler once and restarts the sampler per trial;
    # every verdict, transcript included, is what building them for that trial gives.
    if isinstance(distribution, str):
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{a},{b},{c}\n" for a, b, c in
                                np.random.default_rng(8).normal([3.9, 3.9, 0.0], 1.0, (40, 3))))
        distribution = {"kind": "empirical", "path": str(data)}
    spec = {"algorithm": algorithm, "oracle": oracle, "epsilon": 0.2, "trials": 4, "seed": 9,
            **({} if distribution is None else {"distribution": distribution})}
    monkeypatch.setattr(tester.Verdict, "to_json", lambda self: dict(vars(self)))
    verdicts = run_calibrate(spec, jobs=jobs)["verdicts"]
    assert verdicts == [_fresh_trial(spec, t) for t in range(4)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_noisy_calibrate_queries_one_f_in_every_trial(monkeypatch, fresh_workers, jobs):
    # At delta = 1e-19 the first failing round depends on the noise key, which the
    # spec fixes (0 by default): every trial tests the one f that build_oracle gives.
    oracle = {"family": "noisy-linear", "dim": 3, "w_explicit": _W, "noise": {"delta": 1e-19}}
    spec = {"algorithm": "gaussian-additivity", "oracle": oracle, "epsilon": 0.2, "trials": 6,
            "seed": 9}
    monkeypatch.setattr(tester.Verdict, "to_json", lambda self: dict(vars(self)))
    f = build_oracle(oracle)
    verdicts = run_calibrate(spec, jobs=jobs)["verdicts"]
    seeds = [derive_seed(9, t, 1) for t in range(6)]
    assert verdicts == [{**vars(run_gaussian_additivity(f, TesterConfig(epsilon=0.2, seed=s))),
                         "epsilon": 0.2, "seed": s, "trial": t} for t, s in enumerate(seeds)]
    rekeyed = {**spec, "oracle": {**oracle, "noise": {"delta": 1e-19, "seed": 1}}}
    assert run_calibrate(rekeyed, jobs=jobs)["verdicts"] != verdicts


def _counted_reads(monkeypatch, log: Path):
    """Make every harness read of an empirical dataset, in any process, add a line to log."""
    load = harness.load_empirical

    def counted(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return load(*args, **kwargs)
    monkeypatch.setattr(harness, "load_empirical", counted)
    return lambda: len(log.read_text().splitlines()) if log.exists() else 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mixed", [False, True])
def test_an_empirical_dataset_is_read_once_per_call(tmp_path, monkeypatch, fresh_workers,
                                                    jobs, mixed):
    reads = _counted_reads(monkeypatch, tmp_path / "reads.log")
    data = tmp_path / "data.csv"
    data.write_text("6.0,0.0\n6.5,-1.0\n")  # on the corrupted halfspace x_1 > 5
    empirical = {"kind": "empirical", "path": str(data)}
    spec = {"algorithm": "df-additivity", "epsilon": 0.2, "trials": 4, "seed": 3,
            "oracle": {"family": "corrupted-linear", "dim": 2, "w_seed": 1,
                       "corruption": {"threshold": 5.0}},
            "distribution": empirical if not mixed else {
                "kind": "mixture", "weights": [0.5, 0.5],
                "components": [empirical, {"kind": "standard-gaussian", "dim": 2}]}}
    assert run_calibrate(spec, jobs=jobs)["aggregates"]["reject_rate"] == 1.0
    assert reads() == 1
    data.write_text("0.0,0.0\n0.5,-1.0\n")  # rewritten: off the halfspace
    assert run_calibrate(spec, jobs=jobs)["aggregates"]["accept_rate"] == 1.0
    assert reads() == 2


# a sampler covariance with a negative eigenvalue, which only a draw would have refused
_INDEFINITE = {"kind": "shifted-gaussian", "mean": [0.0] * 4,
               "cov": np.diag([1.0, 1.0, 1.0, -1.0]).tolist()}


@pytest.mark.parametrize("bad, word", [
    ({"oracle": {"family": "linear", "dim": 2, "w_explicit": [1.0]}}, "w_explicit"),
    ({"algorithm": "df-additivity", "distribution": {"kind": "standard-gaussian"}}, "dim"),
    ({"algorithm": "df-additivity", "distribution": {"kind": "empirical", "path": "no.csv"}},
     "no.csv"),
    ({"algorithm": "df-additivity", "distribution": _INDEFINITE}, "positive semidefinite"),
    ({"algorithm": "df-additivity", "distribution": {
        "kind": "mixture", "weights": [0.5, 0.5],
        "components": [{"kind": "standard-gaussian", "dim": 4}, _INDEFINITE]}},
     "positive semidefinite"),
])
def test_a_bad_oracle_or_distribution_fails_before_any_trial(monkeypatch, bad, word):
    monkeypatch.setattr(harness, "_fan_out", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises((SpecError, OSError, GaussianError), match=word):
        run_calibrate({**_linear_spec(trials=4), **bad}, jobs=2)


@pytest.mark.parametrize("bad, error, word", [
    ({"epsilon": 1.5}, ValueError, "epsilon"),
    ({"r": 0}, ValueError, "r must be"),
    ({"algorithm": "df-additivity", "distribution": {"kind": "standard-gaussian", "dim": 3}},
     SpecError, "dimension 3 != oracle dimension 4"),
])
def test_a_bad_calibrate_spec_fails_before_any_worker_starts(fresh_workers, bad, error, word):
    with pytest.raises(error, match=word):
        run_calibrate({**_linear_spec(trials=4), **bad}, jobs=2)
    assert fresh_workers == []


def test_a_far_oracle_with_a_huge_corruption_direction_is_rejected():
    # The direction's squared norm would overflow, leaving a zero direction and no corruption.
    spec = {"algorithm": "gaussian-additivity", "epsilon": 0.1, "trials": 3, "seed": 0,
            "oracle": {"family": "corrupted-linear", "dim": 2, "w_seed": 1,
                       "corruption": {"mass": 0.3, "direction": [1e308, 1e308]}}}
    assert run_calibrate(spec)["aggregates"]["reject_rate"] == 1.0


# --- CLI ---------------------------------------------------------------------------


def _write_spec(tmp_path, spec):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return str(p)


def test_cli_calibrate_json(tmp_path):
    path = _write_spec(tmp_path, {"oracle": {"family": "linear", "dim": 3, "w_seed": 1},
                                  "epsilon": 0.2, "algorithm": "gaussian-additivity",
                                  "trials": 2, "seed": 7})
    runner = CliRunner()
    result = runner.invoke(main, ["calibrate", "--spec", path])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["seed"] == 7
    assert report["aggregates"]["trials"] == 2
    assert report["aggregates"]["accept_rate"] == 1.0


def test_cli_does_not_keep_redirected_stdout_alive(tmp_path):
    path = _write_spec(tmp_path, {"oracle": {"family": "linear", "dim": 3, "w_seed": 1},
                                  "epsilon": 0.2, "algorithm": "gaussian-additivity"})
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main.main(["calibrate", "--spec", path], standalone_mode=False)
    assert json.loads(buf.getvalue())["aggregates"]["accept_rate"] == 1.0
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_cli_reports_identical_modulo_wall_clock(tmp_path):
    path = _write_spec(tmp_path, {"oracle": {"family": "linear", "dim": 3, "w_seed": 1},
                                  "epsilon": 0.2, "trials": 2, "seed": 3,
                                  "algorithm": "gaussian-additivity"})
    runner = CliRunner()
    outs = []
    for _ in range(2):
        result = runner.invoke(main, ["calibrate", "--spec", path])
        assert result.exit_code == 0
        report = json.loads(result.output)
        report.pop("wall_clock_s")
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_calibrate_runs_the_algorithm_the_spec_names(tmp_path):
    spec = {"oracle": {"family": "linear", "dim": 2, "w_seed": 0},
            "epsilon": 0.2, "trials": 1, "seed": 1}
    runner = CliRunner()
    add, lin = (json.loads(runner.invoke(main, [
        "calibrate", "--spec", _write_spec(tmp_path, {**spec, "algorithm": algorithm})]).output)
        for algorithm in ("df-additivity", "df-linearity"))
    assert add["spec"]["algorithm"] == "df-additivity"
    assert lin["spec"]["algorithm"] == "df-linearity"
    assert add["aggregates"]["accept_rate"] == 1.0
    assert lin["aggregates"]["accept_rate"] == 1.0
    assert lin["aggregates"]["max_queries"] > add["aggregates"]["max_queries"]


def test_cli_bad_spec_is_machine_readable_error(tmp_path):
    path = _write_spec(tmp_path, {"bogus": 1, "epsilon": 0.1})
    runner = CliRunner()
    result = runner.invoke(main, ["calibrate", "--spec", path])
    assert result.exit_code == 2
    err = getattr(result, "stderr", "") or result.output
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "SpecError"
    assert "bogus" in payload["message"]


def test_cli_empirical_with_a_non_finite_row_is_a_distribution_error(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("1.0,2.0\nnan,0.0\n3.0,4.0\n")
    path = _write_spec(tmp_path, {"oracle": {"family": "linear", "dim": 2, "w_seed": 0},
                                  "epsilon": 0.5, "trials": 1, "algorithm": "df-additivity",
                                  "distribution": {"kind": "empirical", "path": str(data)}})
    result = CliRunner().invoke(main, ["calibrate", "--spec", path])
    assert result.exit_code == 2
    err = getattr(result, "stderr", "") or result.output
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "DistributionError"
    assert "data.csv" in payload["message"] and "non-finite" in payload["message"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_an_overflowing_oracle_is_an_oracle_error_not_a_verdict(tmp_path, jobs):
    # Every weight is finite, but w.x overflows: inf - inf is NaN, and NaN compares
    # false, so an exactly linear f would be rejected.  The oracle refuses the value.
    path = _write_spec(tmp_path, {
        "oracle": {"family": "linear", "dim": 3, "w_explicit": [2e307, -2e307, 1.5e307]},
        "epsilon": 0.2, "trials": 4, "algorithm": "df-linearity"})
    src = os.path.dirname(os.path.dirname(harness.__file__))
    done = subprocess.run([sys.executable, "-m", "lintest.cli", "calibrate", "--spec", path,
                           "--jobs", jobs], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2 and done.stdout == ""
    (line,) = done.stderr.splitlines()  # no RuntimeWarning beside the error
    payload = json.loads(line)
    assert payload["error"] == "OracleError" and "NaN or beyond" in payload["message"]


@pytest.mark.parametrize("command, spec", [
    ("calibrate", {"oracle": {"family": "linear", "dim": 2}, "epsilon": 0.2, "r": 10**400}),
    ("query-scaling", {"epsilons": [0.2], "r": 10**400}),
])
def test_cli_refuses_an_r_beyond_the_double_range(tmp_path, command, spec):
    result = CliRunner().invoke(main, [command, "--spec", _write_spec(tmp_path, spec)])
    assert result.exit_code == 2, result.output
    err = getattr(result, "stderr", "") or result.output
    (line,) = err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "SpecError" and "'r' in" in payload["message"]


def test_cli_query_scaling_rejects_bad_sweep(tmp_path):
    path = _write_spec(tmp_path, {"epsilons": [0.05, 0.1]})
    result = CliRunner().invoke(main, ["query-scaling", "--spec", path])
    assert result.exit_code == 2


def test_cli_seed_ignores_the_environment(tmp_path):
    # the spec is the only way to set the seed; without a 'seed' key it is 0
    path = _write_spec(tmp_path, {"oracle": {"family": "linear", "dim": 2, "w_seed": 0},
                                  "epsilon": 0.2, "trials": 1,
                                  "algorithm": "gaussian-additivity"})
    runner = CliRunner()
    result = runner.invoke(main, ["calibrate", "--spec", path],
                           env={"LINTEST_SEED": "99"})
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] == 0


@pytest.mark.parametrize("command", ["lower-bound", "calibrate"])
@pytest.mark.parametrize("key", ["output", "jobs"])
def test_cli_rejects_spec_output_and_jobs(tmp_path, command, key):
    report = tmp_path / "report.json"
    spec = {"n": 4, "trials": 5, "seed": 2} if command == "lower-bound" else \
        {"oracle": {"family": "linear", "dim": 2}, "epsilon": 0.2, "trials": 2, "seed": 2}
    spec[key] = str(report) if key == "output" else 2
    result = CliRunner().invoke(main, [command, "--spec", _write_spec(tmp_path, spec)])
    assert result.exit_code == 2
    err = getattr(result, "stderr", "") or result.output
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "SpecError" and key in payload["message"]
    assert not report.exists()


_LINEAR = {"family": "linear", "dim": 2}


@pytest.mark.parametrize("command, spec, word", [
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2, "n_list": [4]}, "n_list"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2, "algorithm": "gaussian-additivity",
                   "distribution": {"kind": "standard-gaussian", "dim": 2}}, "distribution"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2, "C": 0.01}, "C"),
    ("lower-bound", {"n": 4, "trials": 5, "oracle": _LINEAR}, "oracle"),
    ("lower-bound", {"n": 4, "trials": 5, "epsilon": 0.1}, "epsilon"),
    ("lower-bound", {"n": 4, "n_list": [6], "trials": 5}, "n_list"),
    ("query-scaling", {"epsilons": [0.2], "command": "query-scaling"}, "command"),
    ("query-scaling", {"epsilons": [0.2], "trials": 3}, "trials"),
    ("query-scaling", [{"epsilons": [0.2]}], "JSON object"),
    ("query-scaling", {"epsilons": [0.2], "format": "xml"}, "format"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2, "format": "json"}, "format"),
    ("query-scaling", {"epsilons": [0.2], "format": "json"}, "format"),
    ("lower-bound", {"n": 4, "trials": 5, "format": "json"}, "format"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2,
                   "distribution": {"kind": "standard-gaussian", "dim": 2, "seed": 4}}, "seed"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2, "distribution": {
        "kind": "mixture", "weights": [1.0],
        "components": [{"kind": "standard-gaussian", "dim": 2, "seed": 4}]}}, "seed"),
])
def test_cli_rejects_spec_keys_the_command_does_not_read(tmp_path, command, spec, word):
    result = CliRunner().invoke(main, [command, "--spec", _write_spec(tmp_path, spec)])
    assert result.exit_code == 2
    err = getattr(result, "stderr", "") or result.output
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "SpecError" and word in payload["message"]


@pytest.mark.parametrize("oracle, error, message", [
    ({**_LINEAR, "family": "corrupted-linear", "corruption": {"mass": 0.3, "direction": [1.0]}},
     "OracleError", "corruption direction dimension mismatch"),
    ({**_LINEAR, "family": "corrupted-linear",
      "corruption": {"threshold": 1.0, "direction": [1.0, 0.0, 0.0]}},
     "OracleError", "corruption direction dimension mismatch"),
    ({**_LINEAR, "dim": 0}, "SpecError",
     "'dim' in linear spec must be a positive 64-bit integer, got 0"),
    ({"family": "norm", "dim": -2}, "SpecError",
     "'dim' in norm spec must be a positive 64-bit integer, got -2"),
])
def test_cli_refuses_an_oracle_it_cannot_build(tmp_path, oracle, error, message):
    path = _write_spec(tmp_path, {"oracle": oracle, "epsilon": 0.2})
    result = CliRunner().invoke(main, ["calibrate", "--spec", path])
    assert result.exit_code == 2, result.output
    err = getattr(result, "stderr", "") or result.output
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": error, "message": message}


@pytest.mark.parametrize("command, spec, word", [
    ("lower-bound", {"n_list": 5, "trials": 5}, "n_list"),
    ("calibrate", {"oracle": 5, "epsilon": 0.2}, "oracle"),
    ("lower-bound", {"n_list": [[4]], "trials": 5}, "n_list"),
    ("lower-bound", {"n": 4, "trials": "5"}, "trials"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2, "algorithm": ["df-linearity"]},
     "algorithm"),
    ("calibrate", {"oracle": {**_LINEAR, "family": "corrupted-linear", "corruption": 5},
                   "epsilon": 0.2}, "corruption"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2, "trials": True}, "trials"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2, "trials": 10**20}, "trials"),
    ("lower-bound", {"n": 4, "trials": 10**20}, "trials"),
    ("calibrate", {"oracle": _LINEAR, "epsilon": 0.2,
                   "distribution": {"kind": "shifted-gaussian", "mean": []}}, "mean"),
])
def test_cli_rejects_mistyped_spec_values(tmp_path, command, spec, word):
    result = CliRunner().invoke(main, [command, "--spec", _write_spec(tmp_path, spec)])
    assert result.exit_code == 2, result.output
    err = getattr(result, "stderr", "") or result.output
    lines = err.strip().splitlines()
    payload = json.loads(lines[-1])
    assert len(lines) == 1 and payload["error"] == "SpecError" and word in payload["message"]


_GAUSS2 = {"kind": "standard-gaussian", "dim": 2}


def _oracle_with(**keys):
    return {"oracle": {**_LINEAR, **keys}, "epsilon": 0.2}


def _distribution_with(**keys):
    return {"oracle": _LINEAR, "epsilon": 0.2, "distribution": keys}


# Each key that takes a number or a list of numbers, with a spec that puts v there.
_NUMBER_KEYS = {
    "epsilon": ("calibrate", lambda v: {"oracle": _LINEAR, "epsilon": v}),
    "epsilons": ("query-scaling", lambda v: {"epsilons": [0.2, v]}),
    "C": ("lower-bound", lambda v: {"n": 4, "trials": 5, "C": v}),
    "C_list": ("lower-bound", lambda v: {"n": 4, "trials": 5, "C_list": [0.01, v]}),
    "delta_override": ("lower-bound", lambda v: {"n": 4, "trials": 5, "delta_override": v}),
    "w_explicit": ("calibrate", lambda v: _oracle_with(w_explicit=[v, 1.0])),
    "shift": ("calibrate", lambda v: _oracle_with(family="constant-shift-linear", shift=v)),
    "mass": ("calibrate", lambda v: _oracle_with(family="corrupted-linear",
                                                 corruption={"mass": v})),
    "threshold": ("calibrate", lambda v: _oracle_with(family="corrupted-linear",
                                                      corruption={"threshold": v})),
    "payload": ("calibrate", lambda v: _oracle_with(family="corrupted-linear",
                                                    corruption={"mass": 0.3, "payload": v})),
    "direction": ("calibrate", lambda v: _oracle_with(
        family="corrupted-linear", corruption={"mass": 0.3, "direction": [1.0, v]})),
    "delta": ("calibrate", lambda v: _oracle_with(family="noisy-linear", noise={"delta": v})),
    "mean": ("calibrate", lambda v: _distribution_with(kind="shifted-gaussian", mean=[v, 0.0])),
    "cov": ("calibrate", lambda v: _distribution_with(
        kind="shifted-gaussian", mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, v]])),
    "weights": ("calibrate", lambda v: _distribution_with(kind="mixture", weights=[v],
                                                          components=[_GAUSS2])),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["NaN", "Infinity", "-Infinity", "int-beyond-double"])
@pytest.mark.parametrize("key", sorted(_NUMBER_KEYS))
def test_cli_rejects_non_finite_numbers(tmp_path, key, value):
    command, spec = _NUMBER_KEYS[key]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec(value)))  # json writes the NaN and Infinity tokens
    result = CliRunner().invoke(main, [command, "--spec", str(path)])
    assert result.exit_code == 2, result.output
    err = getattr(result, "stderr", "") or result.output
    lines = err.strip().splitlines()
    payload = json.loads(lines[-1])
    assert len(lines) == 1 and payload["error"] == "SpecError"
    assert f"'{key}'" in payload["message"] and "finite" in payload["message"]


def test_cli_writes_no_non_json_number(capsys):
    with pytest.raises(ValueError, match="JSON compliant"):
        cli._emit({"spec": {}, "value": float("nan")}, "{}")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("distribution, key", [
    ({"kind": "standard-gaussian"}, "dim"),
    ({"kind": "shifted-gaussian", "cov": [[1.0]]}, "mean"),
    ({"kind": "mixture", "components": [_GAUSS2]}, "weights"),
    ({"kind": "mixture", "weights": [1.0]}, "components"),
    ({"kind": "empirical"}, "path"),
    ({}, "dim"),  # an empty object is parsed as given, not read as the default N(0, I)
])
def test_cli_names_the_missing_distribution_key(tmp_path, distribution, key):
    spec = {"oracle": _LINEAR, "epsilon": 0.2, "distribution": distribution}
    result = CliRunner().invoke(main, ["calibrate", "--spec", _write_spec(tmp_path, spec)])
    assert result.exit_code == 2, result.output
    err = getattr(result, "stderr", "") or result.output
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "SpecError" and f"'{key}'" in payload["message"]


def test_cli_lets_a_library_key_error_through(tmp_path, monkeypatch):
    # Parsed specs leave no bad input that ends in a KeyError, so one is a bug, not exit 2.
    def broken(spec, jobs=1):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "run_calibrate", broken)
    path = _write_spec(tmp_path, {"oracle": _LINEAR, "epsilon": 0.2})
    result = CliRunner().invoke(main, ["calibrate", "--spec", path])
    assert isinstance(result.exception, KeyError) and result.exit_code == 1


def test_cli_reports_a_spec_too_large_for_the_machine_as_one_json_line(tmp_path, monkeypatch):
    # numpy refuses an impossible allocation up front.  Nothing is allocated here: a host
    # that overcommits memory could grant the allocation and then kill the process.
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

    def too_large(spec, jobs=1):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_calibrate", too_large)
    path = _write_spec(tmp_path, {"oracle": _LINEAR, "epsilon": 0.2})
    result = CliRunner().invoke(main, ["calibrate", "--spec", path])
    assert result.exit_code == 2
    err = getattr(result, "stderr", "") or result.output
    assert json.loads(err) == {"error": "MemoryError", "message": message}


@pytest.mark.parametrize("algorithm, queries", [("df-additivity", 1890), ("df-linearity", 3956)])
def test_the_default_d_accepts_at_the_closed_form_count_at_large_n(algorithm, queries):
    # The paper's count does not depend on n, and N(0, I) needs no n x n matrix.
    report = run_calibrate({"oracle": {"family": "linear", "dim": 20_000}, "epsilon": 0.5,
                            "algorithm": algorithm})
    assert [(v["outcome"], v["queries_used"]) for v in report["verdicts"]] == [("accept", queries)]


def test_cli_rejects_a_far_f_under_the_default_d_at_dim_100000(tmp_path):
    path = _write_spec(tmp_path, {"oracle": {"family": "corrupted-linear", "dim": 100_000,
                                             "corruption": {"threshold": 0.5}},
                                  "epsilon": 0.1, "algorithm": "df-linearity"})
    result = CliRunner().invoke(main, ["calibrate", "--spec", path])
    assert result.exit_code == 0, result.output
    (v,) = json.loads(result.output)["verdicts"]
    assert (v["outcome"], v["reject_site"], v["queries_used"]) == ("reject", "force-negativity", 6)


_SPECS = {"calibrate": {"oracle": _LINEAR, "epsilon": 0.2},
          "query-scaling": {"epsilons": [0.2]},
          "lower-bound": {"n": 4, "trials": 5}}


def test_cli_has_one_command_per_harness_entry_point():
    assert set(main.commands) == set(_SPECS)
    for name, command in main.commands.items():
        options = {param.name: param for param in command.params}
        assert options.keys() == ({"spec_path"} if name == "query-scaling"
                                  else {"spec_path", "jobs"}), name
        assert options["spec_path"].required


@pytest.mark.parametrize("args", [["query-scaling", "--jobs", "2"],
                                  ["query-scaling", "--epsilon", "0.1"],
                                  ["query-scaling", "--trials", "3"],
                                  ["lower-bound", "--epsilon", "0.1"],
                                  *([command, *flag] for command in _SPECS for flag in (
                                      ["--epsilon", "0.1"], ["--trials", "3"], ["--seed", "7"],
                                      ["--format", "csv"], ["--output", "report.json"]))])
def test_cli_rejects_flags_the_command_does_not_honour(tmp_path, args):
    result = CliRunner().invoke(main, [*args, "--spec", _write_spec(tmp_path, _SPECS[args[0]])])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize("command", ["calibrate", "lower-bound"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_refuses_a_worker_count_below_one(tmp_path, command, jobs):
    path = _write_spec(tmp_path, _SPECS[command])
    result = CliRunner().invoke(main, [command, "--spec", path, "--jobs", jobs])
    assert result.exit_code == 2, result.output
    assert "--jobs" in result.output and "x>=1" in result.output


def test_cli_lower_bound_jobs_gives_the_serial_report(tmp_path):
    path = _write_spec(tmp_path, {"n_list": [4, 6], "trials": 5, "seed": 1})
    plain = CliRunner().invoke(main, ["lower-bound", "--spec", path, "--jobs", "1"])
    jobs = CliRunner().invoke(main, ["lower-bound", "--spec", path, "--jobs", "2"])
    assert plain.exit_code == jobs.exit_code == 0
    reports = _reports_without_wall_clock(*(json.loads(r.output) for r in (plain, jobs)))
    assert [(c["n"], c["C"]) for c in reports[0]["cells"]] == [(4, 0.01), (6, 0.01)]
    assert reports[0] == reports[1]


def test_cli_rejects_mass_with_threshold(tmp_path):
    oracle = {**_LINEAR, "family": "corrupted-linear",
              "corruption": {"mass": 0.3, "threshold": 5.0}}
    path = _write_spec(tmp_path, {"oracle": oracle, "epsilon": 0.2})
    result = CliRunner().invoke(main, ["calibrate", "--spec", path])
    assert result.exit_code == 2, result.output
    err = getattr(result, "stderr", "") or result.output
    lines = err.strip().splitlines()
    payload = json.loads(lines[-1])
    assert len(lines) == 1 and payload["error"] == "SpecError"
    assert "mass" in payload["message"] and "threshold" in payload["message"]


def test_cli_refuses_a_lower_bound_grid_of_2_to_the_63_trials(tmp_path):
    # 4 cells of 2^62 trials each: each key alone is a 64-bit integer, the grid is not.
    spec = {"n_list": [4, 6], "C_list": [0.01, 0.1], "trials": 2**62}
    result = CliRunner().invoke(main, ["lower-bound", "--spec", _write_spec(tmp_path, spec)])
    assert result.exit_code == 2, result.output
    err = getattr(result, "stderr", "") or result.output
    (line,) = err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "SpecError" and "'trials'" in payload["message"]


def test_a_lower_bound_grid_of_sys_maxsize_trials_reaches_the_fan_out(monkeypatch):
    seen = []

    def stop(fn, items, jobs):
        seen.append(len(items))
        raise RuntimeError("stop before any trial")

    monkeypatch.setattr(harness, "_fan_out", stop)
    with pytest.raises(RuntimeError, match="stop"):
        run_lower_bound({"n_list": [4, 6], "C_list": [0.01, 0.1], "trials": sys.maxsize // 4})
    assert seen == [sys.maxsize // 4 * 4]


def test_readmes_example_spec_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    report = run_calibrate(json.loads(block))
    assert report["aggregates"]["trials"] == 500 and report["aggregates"]["reject_rate"] == 1.0


def test_cli_json_report_is_one_line(tmp_path):
    # The spec first, as the file's text; then the other keys, sorted.
    path = _write_spec(tmp_path, {"trials": 5, "n": 4, "seed": 2})
    result = CliRunner().invoke(main, ["lower-bound", "--spec", path])
    assert result.exit_code == 0, result.output
    rest = json.loads(result.output)
    del rest["spec"]
    assert result.output == ('{"spec": ' + Path(path).read_text() + ", "
                             + json.dumps(rest, sort_keys=True)[1:] + "\n")


_PRETTY_SPEC = """{
  "oracle": {"family": "constant-shift-linear", "dim": 2, "w_seed": 1, "shift": 1E-3},\r
  "epsilon": 0.10,
  "trials": 2,
  "seed": 4
}
"""


def test_cli_echoes_a_multi_line_spec_as_written_on_one_line(tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(_PRETTY_SPEC.encode("utf-8"))
    outputs = []
    for _ in range(2):
        result = CliRunner().invoke(main, ["calibrate", "--spec", str(path)])
        assert result.exit_code == 0, result.output
        outputs.append(re.sub(r'("wall_clock_s": )[^,}]+', r"\g<1>0", result.output))
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 1 and outputs[0].endswith("}\n")
    assert '"shift": 1E-3}' in outputs[0] and '"epsilon": 0.10,' in outputs[0]
    with open(path, encoding="utf-8") as fh:
        assert json.loads(outputs[0])["spec"] == json.load(fh)


def _non_ascii_spec(tmp_path, name: str) -> dict:
    data = tmp_path / name
    data.write_text("1.0,2.0\n3.0,-4.0\n-0.5,0.25\n", encoding="utf-8")
    return {"oracle": {"family": "linear", "dim": 2, "w_seed": 0}, "epsilon": 0.5, "trials": 1,
            "algorithm": "df-additivity", "distribution": {"kind": "empirical", "path": str(data)}}


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["utf-8", "escaped"])
def test_cli_echoes_a_non_ascii_dataset_path(tmp_path, ensure_ascii):
    # A spec written in raw UTF-8 is echoed with each non-ASCII character as its \u escape
    # (a surrogate pair beyond the BMP), which is the escaped spec's text: one parsed value.
    spec = _non_ascii_spec(tmp_path, "données µ \U0001d53c.csv")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec, ensure_ascii=ensure_ascii), encoding="utf-8")
    result = CliRunner().invoke(main, ["calibrate", "--spec", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output.isascii()
    assert result.output.startswith('{"spec": ' + json.dumps(spec) + ", ")
    assert "\\ud835\\udd3c" in result.output
    report = json.loads(result.output)
    assert report["spec"] == spec
    assert report["aggregates"]["accept_rate"] == 1.0


def test_cli_writes_a_non_ascii_spec_to_an_ascii_stdout(tmp_path):
    spec = _non_ascii_spec(tmp_path, "données.csv")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    done = subprocess.run([sys.executable, "-m", "lintest.cli", "calibrate", "--spec", str(path)],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"})
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    assert done.stdout.startswith(b'{"spec": ' + json.dumps(spec).encode("ascii") + b", ")
    assert json.loads(done.stdout)["spec"] == spec


def test_cli_lower_bound_tiny_delta_override_exits_cleanly(tmp_path):
    path = _write_spec(tmp_path, {"n": 5, "trials": 20, "seed": 1, "delta_override": 1e-20})
    result = CliRunner().invoke(main, ["lower-bound", "--spec", path])
    assert result.exit_code == 0, result.output
    cell = json.loads(result.output)["cells"][0]
    assert 0.0 < cell["max_tv_bound"] < 1e-9


@pytest.mark.parametrize("delta", [1e300, 1e308])
def test_cli_lower_bound_rejects_a_delta_override_beyond_its_cap(tmp_path, delta):
    path = _write_spec(tmp_path, {"n": 5, "trials": 20, "seed": 1, "delta_override": delta})
    result = CliRunner().invoke(main, ["lower-bound", "--spec", path])
    assert result.exit_code == 2, result.output
    err = getattr(result, "stderr", "") or result.output
    lines = err.strip().splitlines()
    payload = json.loads(lines[-1])
    assert len(lines) == 1 and payload["error"] == "LowerBoundError"
    assert "delta_override" in payload["message"]


def test_cli_lower_bound_largest_delta_override_gives_a_finite_report(tmp_path):
    # runs under the suite's error::RuntimeWarning filter: no overflow on the way
    path = _write_spec(tmp_path, {"n": 5, "trials": 20, "seed": 1,
                                  "delta_override": lower_bound._MAX_DELTA})
    result = CliRunner().invoke(main, ["lower-bound", "--spec", path])
    assert result.exit_code == 0, result.output
    cell = json.loads(result.output)["cells"][0]
    assert cell["delta_stats"]["max"] == lower_bound._MAX_DELTA
    assert 1.0 < cell["max_tv_bound"] < float("inf")
