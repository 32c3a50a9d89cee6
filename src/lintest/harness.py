"""Experiment harness: spec checking, trial fan-out, and report assembly.

Specs are JSON dicts; each command rejects every key it does not read.
Every trial derives its own seeds from the master seed through the mixing
hash, so reports are byte-identical across re-runs and across worker
schedules, wall-clock aside.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import time

import numpy as np

from . import __version__
from .distro import (
    Mixture,
    SampleDistribution,
    ShiftedGaussian,
    StandardGaussian,
    load_empirical,
)
from .lower_bound import LowerBoundConfig, run_distinguish_game, wilson_interval
from .oracle import (
    ConstantShiftLinear,
    CorruptedLinear,
    CorruptionRegion,
    FunctionOracle,
    LinearOracle,
    NoisyLinear,
    NormOracle,
    random_linear,
)
from .rng import derive_seed
from .tester import (
    QUERIES_PER_ADDITIVITY_ROUND,
    TesterConfig,
    run_df_additivity,
    run_df_linearity,
    run_gaussian_additivity,
)


class SpecError(ValueError):
    """Invalid experiment specification."""


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise SpecError(f"unknown field(s) in {where}: {sorted(unknown)}")


_ORACLE_KEYS = {"family", "dim", "w_seed", "w_explicit", "shift", "corruption", "noise"}
_CORRUPTION_KEYS = {"mass", "payload", "direction", "threshold", "odd_symmetric"}
_NOISE_KEYS = {"delta", "seed"}


def build_oracle(spec: dict, trial_seed: int = 0) -> FunctionOracle:
    """Instantiate a fresh oracle from its JSON spec."""
    _check_keys(spec, _ORACLE_KEYS, "oracle spec")
    family = spec.get("family")
    dim = int(spec.get("dim", 0))
    if dim < 1:
        raise SpecError("oracle spec needs a positive 'dim'")
    if family == "norm":
        return NormOracle(dim)
    if "w_explicit" in spec:
        w = np.asarray(spec["w_explicit"], dtype=float)
        if w.size != dim:
            raise SpecError(f"w_explicit has length {w.size}, expected {dim}")
    else:
        w = random_linear(dim, int(spec.get("w_seed", 0))).w
    if family == "linear":
        return LinearOracle(w)
    if family == "constant-shift-linear":
        return ConstantShiftLinear(w, float(spec.get("shift", 1.0)))
    if family == "corrupted-linear":
        c = dict(spec.get("corruption", {}))
        _check_keys(c, _CORRUPTION_KEYS, "corruption spec")
        payload = float(c.get("payload", 1.0))
        odd = bool(c.get("odd_symmetric", False))
        direction = c.get("direction")
        if direction is None:
            direction = np.eye(dim)[0]
        if "threshold" in c:
            region = CorruptionRegion.from_threshold(direction, float(c["threshold"]))
            return CorruptedLinear(w, region, payload, odd)
        if "mass" not in c:
            raise SpecError("corruption spec needs 'mass' or 'threshold'")
        return CorruptedLinear.with_mass(w, float(c["mass"]), payload,
                                         direction=direction, odd_symmetric=odd)
    if family == "noisy-linear":
        nz = dict(spec.get("noise", {}))
        _check_keys(nz, _NOISE_KEYS, "noise spec")
        if "delta" not in nz:
            raise SpecError("noise spec needs 'delta'")
        noise_seed = int(nz.get("seed", derive_seed(trial_seed, 3)))
        return NoisyLinear(w, float(nz["delta"]), noise_seed)
    raise SpecError(f"unknown oracle family: {family!r}")


_DIST_KEYS = {"kind", "dim", "seed", "mean", "cov", "weights", "components", "path"}


def build_distribution(spec: dict, seed: int) -> SampleDistribution:
    """Instantiate a sampler from its JSON spec; `seed` wins unless the spec pins one."""
    _check_keys(spec, _DIST_KEYS, "distribution spec")
    seed = int(spec.get("seed", seed))
    kind = spec.get("kind", "standard-gaussian")
    if kind == "standard-gaussian":
        return StandardGaussian(int(spec["dim"]), seed=seed)
    if kind == "shifted-gaussian":
        return ShiftedGaussian(spec["mean"], spec.get("cov"), seed=seed)
    if kind == "mixture":
        comps = [build_distribution(c, derive_seed(seed, i))
                 for i, c in enumerate(spec["components"])]
        return Mixture(spec["weights"], comps, seed=seed)
    if kind == "empirical":
        return load_empirical(spec["path"], seed=seed)
    raise SpecError(f"unknown distribution kind: {kind!r}")


# The keys each command reads; "format" is read by the CLI.
_CALIBRATE_KEYS = {"algorithm", "oracle", "distribution", "epsilon", "trials", "seed", "r",
                   "format"}
_QUERY_SCALING_KEYS = {"epsilons", "oracle", "seed", "r", "format"}
_LOWER_BOUND_KEYS = {"n", "n_list", "C", "C_list", "trials", "seed", "delta_override", "format"}
_ALGORITHMS = {"gaussian-additivity", "df-additivity", "df-linearity"}


def _run_one_trial(raw_spec: dict, trial: int) -> dict:
    """One seeded tester invocation; pure in (spec, trial)."""
    seed = int(raw_spec.get("seed", 0))
    algorithm = raw_spec.get("algorithm", "df-additivity")
    epsilon = float(raw_spec["epsilon"])
    cfg = TesterConfig(epsilon=epsilon, r=int(raw_spec.get("r", 50)),
                       seed=derive_seed(seed, trial, 1))
    oracle = build_oracle(raw_spec["oracle"], trial_seed=derive_seed(seed, trial, 3))
    if algorithm == "gaussian-additivity":
        verdict = run_gaussian_additivity(oracle, cfg)
    else:
        dspec = raw_spec.get("distribution") or {"kind": "standard-gaussian",
                                                 "dim": raw_spec["oracle"]["dim"]}
        dist = build_distribution(dict(dspec), derive_seed(seed, trial, 2))
        if algorithm == "df-additivity":
            verdict = run_df_additivity(oracle, dist, cfg)
        else:
            verdict = run_df_linearity(oracle, dist, cfg)
    out = verdict.to_json()
    out["trial"] = trial
    return out


def run_calibrate(spec: dict, jobs: int = 1) -> dict:
    """Run `trials` independent tester invocations and aggregate the verdicts."""
    _check_keys(spec, _CALIBRATE_KEYS, "calibrate spec")
    if "oracle" not in spec:
        raise SpecError("calibrate needs an 'oracle' spec")
    if "epsilon" not in spec:
        raise SpecError("calibrate needs 'epsilon'")
    algorithm = spec.get("algorithm", "df-additivity")
    if algorithm not in _ALGORITHMS:
        raise SpecError(f"unknown algorithm: {algorithm!r}")
    if algorithm == "gaussian-additivity" and "distribution" in spec:
        raise SpecError("gaussian-additivity measures distance under N(0,I) "
                        "and reads no 'distribution'")
    trials = int(spec.get("trials", 1))
    if trials < 1:
        raise SpecError("trials must be >= 1")

    # More workers than cores or trials only adds process start-up.
    workers = max(1, min(jobs, os.cpu_count() or 1, trials))
    start = time.perf_counter()
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one_trial, [spec] * trials, range(trials),
                                    chunksize=max(1, trials // (workers * 4))))
    else:
        results = [_run_one_trial(spec, t) for t in range(trials)]
    results.sort(key=lambda v: v["trial"])
    wall = time.perf_counter() - start

    accepts = sum(1 for v in results if v["outcome"] == "accept")
    queries = [v["queries_used"] for v in results]
    hist: dict[str, int] = {}
    for q in queries:
        hist[str(q)] = hist.get(str(q), 0) + 1
    lo, hi = wilson_interval(accepts, trials)
    return {
        "spec": spec,
        "command": "calibrate",
        "library_version": __version__,
        "seed": int(spec.get("seed", 0)),
        "aggregates": {
            "trials": trials,
            "accept_rate": accepts / trials,
            "reject_rate": (trials - accepts) / trials,
            "accept_wilson95": [lo, hi],
            "mean_queries": sum(queries) / trials,
            "max_queries": max(queries),
            "query_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
        },
        "verdicts": results,
        "wall_clock_s": wall,
    }


def run_query_scaling(spec: dict) -> dict:
    """Sweep epsilon and compare measured accept-path queries to the closed form."""
    _check_keys(spec, _QUERY_SCALING_KEYS, "query-scaling spec")
    epsilons = spec.get("epsilons")
    if not epsilons:
        raise SpecError("query-scaling needs a nonempty 'epsilons' list")
    epsilons = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise SpecError("'epsilons' must be strictly decreasing")
    oracle_spec = spec.get("oracle") or {"family": "linear", "dim": 10, "w_seed": 1}
    seed = int(spec.get("seed", 0))

    start = time.perf_counter()
    rows = []
    for i, eps in enumerate(epsilons):
        cfg = TesterConfig(epsilon=eps, r=int(spec.get("r", 50)), seed=derive_seed(seed, i))
        oracle = build_oracle(oracle_spec, trial_seed=derive_seed(seed, i, 3))
        verdict = run_gaussian_additivity(oracle, cfg)
        formula = cfg.accept_path_queries()
        fixed = QUERIES_PER_ADDITIVITY_ROUND * cfg.rounds_testadd
        measured_main = verdict.queries_used - fixed if verdict.accepted else None
        base = (1.0 / eps) * math.log2(1.0 / eps) if eps < 1 else 1.0
        rows.append({
            "epsilon": eps,
            "outcome": verdict.outcome,
            "n_testadd": cfg.rounds_testadd,
            "n_queryg": cfg.rounds_queryg,
            "n_main": cfg.rounds_main,
            "measured_queries": verdict.queries_used,
            "formula_queries": formula,
            "within_formula": verdict.queries_used <= formula,
            "exact_on_accept": (not verdict.accepted) or verdict.queries_used == formula,
            "measured_main_stage": measured_main,
            "ratio_main_stage": None if measured_main is None else measured_main / base,
        })
    ratios = [r["ratio_main_stage"] for r in rows if r["ratio_main_stage"] is not None]
    band = max(ratios) / min(ratios) if ratios else None
    return {
        "spec": spec,
        "command": "query-scaling",
        "library_version": __version__,
        "seed": seed,
        "rows": rows,
        "ratio_band": band,
        "ratio_band_ok": band is not None and band < 4.0,
        "wall_clock_s": time.perf_counter() - start,
    }


def run_lower_bound(spec: dict) -> dict:
    """Run the distinguishing game over an (n, C) grid."""
    _check_keys(spec, _LOWER_BOUND_KEYS, "lower-bound spec")
    for one, many in (("n", "n_list"), ("C", "C_list")):
        if one in spec and many in spec:
            raise SpecError(f"give '{one}' or '{many}', not both")
    n_list = spec.get("n_list", [spec["n"]] if "n" in spec else [])
    c_list = spec.get("C_list", [spec.get("C", 0.01)])
    if not n_list or not c_list:
        raise SpecError("lower-bound needs a nonempty n / n_list grid")
    trials = int(spec.get("trials", 1000))
    seed = int(spec.get("seed", 0))
    override = spec.get("delta_override")

    start = time.perf_counter()
    cells = []
    for i, n in enumerate(n_list):
        for j, c in enumerate(c_list):
            cfg = LowerBoundConfig(n=int(n), C=float(c), trials=trials,
                                   seed=derive_seed(seed, i, j),
                                   delta_override=None if override is None else float(override))
            cells.append(run_distinguish_game(cfg).to_json())
    return {
        "spec": spec,
        "command": "lower-bound",
        "library_version": __version__,
        "seed": seed,
        "cells": cells,
        "wall_clock_s": time.perf_counter() - start,
    }


# Fixed CSV column orders, one schema per command.
CSV_COLUMNS = {
    "calibrate": ["trials", "accept_rate", "reject_rate", "wilson_low", "wilson_high",
                  "mean_queries", "max_queries"],
    "query-scaling": ["epsilon", "outcome", "n_testadd", "n_queryg", "n_main",
                      "measured_queries", "formula_queries", "within_formula",
                      "exact_on_accept", "measured_main_stage", "ratio_main_stage"],
    "lower-bound": ["n", "C", "delta_override", "trials", "successes", "success_rate",
                    "wilson_low", "wilson_high", "mean_tv_bound", "max_tv_bound", "delta_min",
                    "delta_mean", "delta_max", "bound_respected"],
}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)  # shortest round-trip
    if v is None:
        return ""
    return str(v)


def report_to_csv(report: dict) -> str:
    """Render a report as delimited rows with a fixed, documented column order."""
    cmd = report["command"]
    if cmd == "calibrate":
        agg = report["aggregates"]
        lo, hi = agg["accept_wilson95"]
        rows = [{**agg, "wilson_low": lo, "wilson_high": hi}]
    elif cmd == "query-scaling":
        rows = report["rows"]
    else:
        rows = [{**cell, "wilson_low": cell["wilson_interval"][0],
                 "wilson_high": cell["wilson_interval"][1],
                 **{f"delta_{stat}": v for stat, v in cell["delta_stats"].items()}}
                for cell in report["cells"]]
    cols = CSV_COLUMNS[cmd]
    lines = [",".join(cols)] + [",".join(_fmt(row[c]) for c in cols) for row in rows]
    return "\n".join(lines) + "\n"
