import concurrent.futures
import contextlib
import gc
import io
import json
import os
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from lintest.cli import main
from lintest.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    SpecError,
    build_distribution,
    build_oracle,
    report_to_csv,
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


# --- spec parsing / builders -----------------------------------------------------


def test_unknown_spec_fields_rejected():
    with pytest.raises(SpecError, match="unknown field"):
        ExperimentSpec.parse({"epsilon": 0.1, "bogus": 1})
    with pytest.raises(SpecError):
        ExperimentSpec.parse({"oracle": {"family": "linear", "dim": 2, "nope": 3}})
    with pytest.raises(SpecError):
        build_distribution({"kind": "standard-gaussian", "dim": 2, "extra": 0}, 0)


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


def test_build_distribution_kinds(tmp_path):
    d = build_distribution({"kind": "standard-gaussian", "dim": 3}, 1)
    assert d.dim == 3
    d2 = build_distribution({"kind": "shifted-gaussian", "mean": [1.0, 2.0]}, 1)
    assert d2.dim == 2
    d3 = build_distribution({"kind": "mixture", "weights": [0.5, 0.5],
                             "components": [{"kind": "standard-gaussian", "dim": 2},
                                            {"kind": "shifted-gaussian", "mean": [3.0, 3.0]}]}, 1)
    assert d3.dim == 2
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    d4 = build_distribution({"kind": "empirical", "path": str(p)}, 1)
    assert d4.dim == 2
    with pytest.raises(SpecError):
        build_distribution({"kind": "cauchy", "dim": 1}, 1)


# --- harness runs -----------------------------------------------------------------


def _linear_spec(**extra):
    spec = {"oracle": {"family": "linear", "dim": 4, "w_seed": 2},
            "epsilon": 0.2, "trials": 3, "seed": 5,
            "algorithm": "gaussian-additivity"}
    spec.update(extra)
    return ExperimentSpec.parse(spec)


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


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    started: list = []

    def __init__(self, max_workers):
        _SerialPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, cpus, trials, workers", [
    (64, 2, 4, [2]),      # clamped to the cores
    (8, 16, 3, [3]),      # clamped to the trials
    (4, 8, 1, []),        # one trial runs in-process
    (4, None, 4, []),     # unknown core count counts as one
    (0, 8, 4, []),        # nonpositive jobs run in-process
])
def test_run_calibrate_clamps_workers(monkeypatch, jobs, cpus, trials, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "started", [])
    report = run_calibrate(_linear_spec(trials=trials), jobs=jobs)
    assert _SerialPool.started == workers
    serial = run_calibrate(_linear_spec(trials=trials))
    report.pop("wall_clock_s")
    serial.pop("wall_clock_s")
    assert report == serial


def test_run_calibrate_validation():
    with pytest.raises(SpecError):
        run_calibrate(ExperimentSpec.parse({"epsilon": 0.1}))
    with pytest.raises(SpecError):
        run_calibrate(ExperimentSpec.parse({"oracle": {"family": "linear", "dim": 2}}))
    with pytest.raises(SpecError):
        run_calibrate(_linear_spec(algorithm="quantum"))
    with pytest.raises(SpecError):
        run_calibrate(_linear_spec(trials=0))


def test_run_query_scaling_rows_and_band():
    spec = ExperimentSpec.parse({"epsilons": [0.2, 0.1], "seed": 1})
    report = run_query_scaling(spec)
    assert [r["epsilon"] for r in report["rows"]] == [0.2, 0.1]
    for row in report["rows"]:
        assert row["outcome"] == "accept"
        assert row["exact_on_accept"]
        assert row["within_formula"]
        assert row["measured_queries"] == row["formula_queries"]
    assert report["ratio_band_ok"]
    with pytest.raises(SpecError):
        run_query_scaling(ExperimentSpec.parse({"epsilons": [0.1, 0.2]}))
    with pytest.raises(SpecError):
        run_query_scaling(ExperimentSpec.parse({"epsilons": []}))


def test_run_lower_bound_grid():
    spec = ExperimentSpec.parse({"n_list": [4, 6], "C_list": [0.01, 0.1],
                                 "trials": 20, "seed": 2})
    report = run_lower_bound(spec)
    assert len(report["cells"]) == 4
    assert {(c["n"], c["C"]) for c in report["cells"]} == {(4, 0.01), (4, 0.1),
                                                           (6, 0.01), (6, 0.1)}
    with pytest.raises(SpecError):
        run_lower_bound(ExperimentSpec.parse({"C_list": [0.01]}))


# --- CSV rendering -----------------------------------------------------------------


def test_csv_headers_are_pinned():
    cal = report_to_csv(run_calibrate(_linear_spec()))
    assert cal.splitlines()[0] == ",".join(CSV_COLUMNS["calibrate"])
    qs = report_to_csv(run_query_scaling(ExperimentSpec.parse({"epsilons": [0.2]})))
    assert qs.splitlines()[0] == ",".join(CSV_COLUMNS["query-scaling"])
    lb = report_to_csv(run_lower_bound(ExperimentSpec.parse({"n": 4, "trials": 10})))
    lines = lb.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS["lower-bound"])
    assert len(lines) == 2
    # floats round-trip through repr
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["success_rate"]) <= 1.0
    assert row["delta_override"] == ""  # None renders empty


# --- CLI ---------------------------------------------------------------------------


def _write_spec(tmp_path, spec):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return str(p)


def test_cli_calibrate_json(tmp_path):
    path = _write_spec(tmp_path, {"oracle": {"family": "linear", "dim": 3, "w_seed": 1},
                                  "epsilon": 0.2, "algorithm": "gaussian-additivity"})
    runner = CliRunner()
    result = runner.invoke(main, ["calibrate", "--spec", path, "--trials", "2",
                                  "--seed", "7"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["seed"] == 7  # flag override wins
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


def test_cli_test_additivity_and_linearity_force_their_algorithms(tmp_path):
    path = _write_spec(tmp_path, {"oracle": {"family": "linear", "dim": 2, "w_seed": 0},
                                  "epsilon": 0.2, "trials": 1, "seed": 1})
    runner = CliRunner()
    add = json.loads(runner.invoke(main, ["test-additivity", "--spec", path]).output)
    lin = json.loads(runner.invoke(main, ["test-linearity", "--spec", path]).output)
    assert add["spec"]["algorithm"] == "df-additivity"
    assert lin["spec"]["algorithm"] == "df-linearity"
    assert add["aggregates"]["accept_rate"] == 1.0
    assert lin["aggregates"]["accept_rate"] == 1.0
    assert lin["aggregates"]["max_queries"] > add["aggregates"]["max_queries"]


def test_cli_csv_output_to_file(tmp_path):
    path = _write_spec(tmp_path, {"n": 4, "trials": 10, "seed": 2})
    out = tmp_path / "report.csv"
    runner = CliRunner()
    result = runner.invoke(main, ["lower-bound", "--spec", path,
                                  "--format", "csv", "--output", str(out)])
    assert result.exit_code == 0
    assert out.read_text().splitlines()[0].startswith("n,C,delta_override")


def test_cli_bad_spec_is_machine_readable_error(tmp_path):
    path = _write_spec(tmp_path, {"bogus": 1, "epsilon": 0.1})
    runner = CliRunner()
    result = runner.invoke(main, ["calibrate", "--spec", path])
    assert result.exit_code == 2
    err = getattr(result, "stderr", "") or result.output
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "SpecError"
    assert "bogus" in payload["message"]


def test_cli_query_scaling_rejects_bad_sweep(tmp_path):
    path = _write_spec(tmp_path, {"epsilons": [0.05, 0.1]})
    result = CliRunner().invoke(main, ["query-scaling", "--spec", path])
    assert result.exit_code == 2


def test_cli_env_seed_fallback(tmp_path):
    path = _write_spec(tmp_path, {"oracle": {"family": "linear", "dim": 2, "w_seed": 0},
                                  "epsilon": 0.2, "trials": 1,
                                  "algorithm": "gaussian-additivity"})
    runner = CliRunner()
    result = runner.invoke(main, ["calibrate", "--spec", path],
                           env={"LINTEST_SEED": "99"})
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] == 99
