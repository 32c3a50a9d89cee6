"""Tests of the benchmark itself: smoke runs, metric names, seeded inputs, tracer, gate.

Run from the repository root with `python -m pytest bench`.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_are_well_formed():
    names = [n for n, _ in run.END_TO_END] + [n for n, _, _ in run.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]


def test_benchmark_json_lists_what_the_code_reports():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(run.PER_LAYER))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_specs_depend_only_on_the_seed(workload):
    first = [c.spec_text() for c in workloads.generate(workload, 7)]
    again = [c.spec_text() for c in workloads.generate(workload, 7)]
    other = [c.spec_text() for c in workloads.generate(workload, 8)]
    assert first == again
    assert first != other


def test_self_time_excludes_children():
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            time.sleep(0.002)
    inner, outer = t.spans
    assert (inner.parent, outer.parent) == (outer.sid, -1)
    assert outer.self_ns == (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
    assert min(inner.self_ns, outer.self_ns) >= 0


def test_wrappers_reach_names_bound_by_from_imports():
    import lintest.cli
    import lintest.harness
    import lintest.rng
    import lintest.tester
    from lintest import LinearOracle, StandardGaussian, TesterConfig

    normal = lintest.rng.standard_normal
    linearity = lintest.tester.run_df_linearity
    t = tracer.Tracer()
    with tracer.installed(t):
        assert lintest.tester.standard_normal.__wrapped__ is normal
        assert lintest.harness.run_df_linearity.__wrapped__ is linearity
        assert lintest.cli.run_calibrate.__wrapped__.__module__ == "lintest.harness"
        verdict = lintest.harness.run_df_linearity(
            LinearOracle(np.ones(3)), StandardGaussian(3, seed=1),
            TesterConfig(epsilon=0.5, seed=1))
    assert lintest.tester.standard_normal is normal
    assert lintest.harness.run_df_linearity is linearity
    assert verdict.accepted
    assert t.points == verdict.queries_used
    assert {"tester.run_df_linearity", "tester.force_negativity", "tester.main_loop",
            "tester.test_additivity", "tester.odd_oracle", "oracle.query_batch",
            "rng.standard_normal", "rng.make_rng", "distro.draw_many",
            "gauss_core.sample_gaussian"} <= {s.name for s in t.spans}
    assert tracer.summarize(t.spans)["negative_self"] == 0


def test_closed_forms_match_the_paper_counts():
    # 9,677 and 39,178 are the accept-path counts of the two testers at eps = 0.01.
    assert gate.closed_form_queries("gaussian-additivity", 0.01) == 9677
    assert gate.closed_form_queries("df-linearity", 0.01) == 39178


def test_gate_counts_each_kind_of_failure():
    linear = workloads.Call("lin", "calibrate", {"algorithm": "gaussian-additivity",
                                                 "epsilon": 0.1, "trials": 3}, "accept")
    report = {"verdicts": [
        {"outcome": "accept", "reject_site": None, "queries_used": 2357},
        {"outcome": "accept", "reject_site": None, "queries_used": 2356},
        {"outcome": "reject", "reject_site": "f!=g", "queries_used": 2357},
    ]}
    game = workloads.Call("lb", "lower-bound", {"n_list": [4, 6], "C": 0.01, "trials": 5},
                          "game")
    cells = {"cells": [
        {"n": 4, "C": 0.01, "trials": 5, "bound_respected": False, "delta_override": None,
         "max_tv_bound": 0.0},
        {"n": 6, "C": 0.01, "trials": 5, "bound_respected": True, "delta_override": None,
         "max_tv_bound": 0.2},
    ]}
    t = gate.check_round([linear, linear, game], [report, None, cells])
    assert (t.attempted, t.failed) == (8, 7)
    assert t.reasons == {"accept-count-mismatch": 1, "linear-rejected": 1, "cli-error": 3,
                         "game-bound-broken": 1, "game-tv-above-cap": 1}
    assert (t.queries, t.samples, t.verdicts) == (7070, 50, 13)


def test_exits_nonzero_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    out = _run(bare, "--workload", "lb-game", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
