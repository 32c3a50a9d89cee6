"""Experiment harness: spec checking, trial fan-out, and report assembly.

Specs are JSON dicts; each command rejects every key it does not read and
every value of the wrong JSON type.  Every trial (and every lower-bound
grid cell) derives its own seeds from the master seed through the mixing
hash, so reports are byte-identical across re-runs and across worker
schedules, wall-clock aside.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import functools
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


# The JSON type of each spec key's value; a key means the same in every spec.
# A 1-tuple is a list whose items all have the inner type; a frozenset
# lists the allowed strings.
_TYPES = {
    **dict.fromkeys(("dim", "w_seed", "seed", "trials", "r", "n"), int),
    **dict.fromkeys(("epsilon", "shift", "mass", "payload", "threshold", "delta", "C",
                     "delta_override"), float),
    **dict.fromkeys(("oracle", "distribution", "corruption", "noise"), dict),
    **dict.fromkeys(("family", "kind", "path"), str),
    **dict.fromkeys(("w_explicit", "direction", "mean", "weights", "C_list", "epsilons"),
                    (float,)),
    "n_list": (int,),
    "cov": ((float,),),
    "components": (dict,),
    "odd_symmetric": bool,
    "algorithm": frozenset({"gaussian-additivity", "df-additivity", "df-linearity"}),
    "format": frozenset({"json", "csv"}),
}
_TYPE_NAMES = {int: "an integer", float: "a number", dict: "a JSON object", str: "a string",
               bool: "true or false", (float,): "a list of numbers", (int,): "a list of integers",
               ((float,),): "a list of lists of numbers", (dict,): "a list of JSON objects"}
_NULLABLE = {"delta_override", "direction", "cov"}  # null: derived from C / the first axis / I
# Exact Python types of parsed JSON, so that true is no number.
_JSON_TYPES = {int: {int}, float: {int, float}, dict: {dict}, str: {str}, bool: {bool}}


def _has_type(value, kind) -> bool:
    if isinstance(kind, frozenset):
        return type(value) is str and value in kind
    if not isinstance(kind, tuple):
        return type(value) in _JSON_TYPES[kind]
    if type(value) is not list:
        return False
    if isinstance(kind[0], tuple):
        return all(_has_type(v, kind[0]) for v in value)
    return _JSON_TYPES[kind[0]].issuperset(map(type, value))


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise SpecError(f"unknown field(s) in {where}: {sorted(unknown)}")


def _check_spec(d, allowed: set, where: str) -> dict:
    """Reject a spec that is not an object, holds a key outside `allowed`, or a mistyped value."""
    if type(d) is not dict:
        raise SpecError(f"{where} must be a JSON object, got {d!r}")
    _check_keys(d, allowed, where)
    for key, value in d.items():
        kind = _TYPES[key]
        if not (_has_type(value, kind) or value is None and key in _NULLABLE):
            name = " or ".join(map(repr, sorted(kind))) if isinstance(kind, frozenset) \
                else _TYPE_NAMES[kind]
            raise SpecError(f"'{key}' in {where} must be {name}, got {value!r}")
    return d


def _one_of(spec: dict, one: str, other: str):
    if one in spec and other in spec:
        raise SpecError(f"give '{one}' or '{other}', not both")


_LINEAR_KEYS = {"family", "dim", "w_seed", "w_explicit"}
_FAMILY_KEYS = {  # the keys each oracle family reads
    "linear": _LINEAR_KEYS,
    "constant-shift-linear": _LINEAR_KEYS | {"shift"},
    "corrupted-linear": _LINEAR_KEYS | {"corruption"},
    "noisy-linear": _LINEAR_KEYS | {"noise"},
    "norm": {"family", "dim"},
}
_ORACLE_KEYS = set().union(*_FAMILY_KEYS.values())
_CORRUPTION_KEYS = {"mass", "payload", "direction", "threshold", "odd_symmetric"}
_NOISE_KEYS = {"delta", "seed"}


def build_oracle(spec: dict, trial_seed: int = 0) -> FunctionOracle:
    """Instantiate a fresh oracle from its JSON spec."""
    family = _check_spec(spec, _ORACLE_KEYS, "oracle spec").get("family")
    if family not in _FAMILY_KEYS:
        raise SpecError(f"unknown oracle family: {family!r}")
    _check_keys(spec, _FAMILY_KEYS[family], f"{family} oracle spec")
    dim = spec.get("dim", 0)
    if dim < 1:
        raise SpecError("oracle spec needs a positive 'dim'")
    if family == "norm":
        return NormOracle(dim)
    _one_of(spec, "w_seed", "w_explicit")
    if "w_explicit" in spec:
        w = np.asarray(spec["w_explicit"], dtype=float)
        if w.size != dim:
            raise SpecError(f"w_explicit has length {w.size}, expected {dim}")
    else:
        w = random_linear(dim, spec.get("w_seed", 0)).w
    if family == "linear":
        return LinearOracle(w)
    if family == "constant-shift-linear":
        return ConstantShiftLinear(w, float(spec.get("shift", 1.0)))
    if family == "corrupted-linear":
        c = _check_spec(spec.get("corruption", {}), _CORRUPTION_KEYS, "corruption spec")
        payload = float(c.get("payload", 1.0))
        odd = c.get("odd_symmetric", False)
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
    nz = _check_spec(spec.get("noise", {}), _NOISE_KEYS, "noise spec")
    if "delta" not in nz:
        raise SpecError("noise spec needs 'delta'")
    return NoisyLinear(w, float(nz["delta"]), nz.get("seed", derive_seed(trial_seed, 3)))


# The keys each distribution kind needs; every kind also reads "kind" and
# "seed", and shifted-gaussian an optional "cov".
_KIND_REQUIRED = {
    "standard-gaussian": ("dim",),
    "shifted-gaussian": ("mean",),
    "mixture": ("weights", "components"),
    "empirical": ("path",),
}
_KIND_KEYS = {kind: {"kind", "seed", *keys} for kind, keys in _KIND_REQUIRED.items()}
_KIND_KEYS["shifted-gaussian"].add("cov")
_DIST_KEYS = set().union(*_KIND_KEYS.values())


def build_distribution(spec: dict, seed: int) -> SampleDistribution:
    """Instantiate a sampler from its JSON spec; `seed` wins unless the spec pins one."""
    kind = _check_spec(spec, _DIST_KEYS, "distribution spec").get("kind", "standard-gaussian")
    if kind not in _KIND_KEYS:
        raise SpecError(f"unknown distribution kind: {kind!r}")
    _check_keys(spec, _KIND_KEYS[kind], f"{kind} distribution spec")
    missing = [key for key in _KIND_REQUIRED[kind] if key not in spec]
    if missing:
        raise SpecError(f"{kind} distribution spec needs {missing}")
    seed = spec.get("seed", seed)
    if kind == "standard-gaussian":
        return StandardGaussian(spec["dim"], seed=seed)
    if kind == "shifted-gaussian":
        return ShiftedGaussian(spec["mean"], spec.get("cov"), seed=seed)
    if kind == "mixture":
        comps = [build_distribution(c, derive_seed(seed, i))
                 for i, c in enumerate(spec["components"])]
        return Mixture(spec["weights"], comps, seed=seed)
    return load_empirical(spec["path"], seed=seed)


# The keys each command reads; "format" is read by the CLI.
_CALIBRATE_KEYS = {"algorithm", "oracle", "distribution", "epsilon", "trials", "seed", "r",
                   "format"}
_QUERY_SCALING_KEYS = {"epsilons", "oracle", "seed", "r", "format"}
_LOWER_BOUND_KEYS = {"n", "n_list", "C", "C_list", "trials", "seed", "delta_override", "format"}

# One process pool per interpreter, kept while the worker count holds:
# forking and joining workers costs more than a short command's trials.
_pools: dict = {}  # at most one pool, keyed by its worker count


def _shutdown_pools():
    while _pools:
        _pools.popitem()[1].shutdown()


atexit.register(_shutdown_pools)


def _fan_out(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], on up to `jobs` worker processes when that pays."""
    # More workers than cores or items only adds process start-up.
    workers = max(1, min(jobs, os.cpu_count() or 1, len(items)))
    if workers == 1:
        return [fn(item) for item in items]
    if workers not in _pools:
        _shutdown_pools()
        _pools[workers] = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        return list(_pools[workers].map(fn, items,
                                        chunksize=max(1, len(items) // (workers * 4))))
    except concurrent.futures.BrokenExecutor:
        _shutdown_pools()  # a broken pool takes no more work; the next call starts afresh
        raise


def _report(spec: dict, command: str, seed: int, **body) -> dict:
    """A report: the spec and the versions that make it reproducible, then its body."""
    return {"spec": spec, "command": command, "library_version": __version__,
            "numpy_version": np.__version__, "seed": seed, **body}


def _run_one_trial(raw_spec: dict, trial: int) -> dict:
    """One seeded tester invocation; pure in (spec, trial)."""
    seed = raw_spec.get("seed", 0)
    algorithm = raw_spec.get("algorithm", "df-additivity")
    epsilon = float(raw_spec["epsilon"])
    cfg = TesterConfig(epsilon=epsilon, r=raw_spec.get("r", 50),
                       seed=derive_seed(seed, trial, 1))
    oracle = build_oracle(raw_spec["oracle"], trial_seed=derive_seed(seed, trial, 3))
    if algorithm == "gaussian-additivity":
        verdict = run_gaussian_additivity(oracle, cfg)
    else:
        dspec = raw_spec.get("distribution") or {"kind": "standard-gaussian",
                                                 "dim": raw_spec["oracle"]["dim"]}
        dist = build_distribution(dspec, derive_seed(seed, trial, 2))
        if algorithm == "df-additivity":
            verdict = run_df_additivity(oracle, dist, cfg)
        else:
            verdict = run_df_linearity(oracle, dist, cfg)
    out = verdict.to_json()
    out["trial"] = trial
    return out


def run_calibrate(spec: dict, jobs: int = 1) -> dict:
    """Run `trials` independent tester invocations and aggregate the verdicts."""
    _check_spec(spec, _CALIBRATE_KEYS, "calibrate spec")
    if "oracle" not in spec:
        raise SpecError("calibrate needs an 'oracle' spec")
    if "epsilon" not in spec:
        raise SpecError("calibrate needs 'epsilon'")
    if spec.get("algorithm") == "gaussian-additivity" and "distribution" in spec:
        raise SpecError("gaussian-additivity measures distance under N(0,I) "
                        "and reads no 'distribution'")
    trials = spec.get("trials", 1)
    if trials < 1:
        raise SpecError("trials must be >= 1")

    start = time.perf_counter()
    results = _fan_out(functools.partial(_run_one_trial, spec), range(trials), jobs)
    wall = time.perf_counter() - start

    accepts = sum(1 for v in results if v["outcome"] == "accept")
    queries = [v["queries_used"] for v in results]
    hist: dict[str, int] = {}
    for q in queries:
        hist[str(q)] = hist.get(str(q), 0) + 1
    lo, hi = wilson_interval(accepts, trials)
    aggregates = {
        "trials": trials,
        "accept_rate": accepts / trials,
        "reject_rate": (trials - accepts) / trials,
        "accept_wilson95": [lo, hi],
        "mean_queries": sum(queries) / trials,
        "max_queries": max(queries),
        "query_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
    }
    return _report(spec, "calibrate", spec.get("seed", 0), aggregates=aggregates,
                   verdicts=results, wall_clock_s=wall)


def run_query_scaling(spec: dict) -> dict:
    """Sweep epsilon and compare measured accept-path queries to the closed form."""
    _check_spec(spec, _QUERY_SCALING_KEYS, "query-scaling spec")
    epsilons = spec.get("epsilons")
    if not epsilons:
        raise SpecError("query-scaling needs a nonempty 'epsilons' list")
    epsilons = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise SpecError("'epsilons' must be strictly decreasing")
    oracle_spec = spec.get("oracle") or {"family": "linear", "dim": 10, "w_seed": 1}
    seed = spec.get("seed", 0)

    start = time.perf_counter()
    rows = []
    for i, eps in enumerate(epsilons):
        cfg = TesterConfig(epsilon=eps, r=spec.get("r", 50), seed=derive_seed(seed, i))
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
    return _report(spec, "query-scaling", seed, rows=rows, ratio_band=band,
                   ratio_band_ok=band is not None and band < 4.0,
                   wall_clock_s=time.perf_counter() - start)


def run_lower_bound(spec: dict, jobs: int = 1) -> dict:
    """Run the distinguishing game over an (n, C) grid, one cell per worker task."""
    _check_spec(spec, _LOWER_BOUND_KEYS, "lower-bound spec")
    _one_of(spec, "n", "n_list")
    _one_of(spec, "C", "C_list")
    n_list = spec.get("n_list", [spec["n"]] if "n" in spec else [])
    c_list = spec.get("C_list", [spec.get("C", 0.01)])
    if not n_list or not c_list:
        raise SpecError("lower-bound needs a nonempty n / n_list grid")
    trials = spec.get("trials", 1000)
    seed = spec.get("seed", 0)
    override = spec.get("delta_override")

    start = time.perf_counter()
    cells = [LowerBoundConfig(n=n, C=float(c), trials=trials, seed=derive_seed(seed, i, j),
                              delta_override=None if override is None else float(override))
             for i, n in enumerate(n_list) for j, c in enumerate(c_list)]
    games = _fan_out(run_distinguish_game, cells, jobs)
    return _report(spec, "lower-bound", seed, cells=[game.to_json() for game in games],
                   wall_clock_s=time.perf_counter() - start)


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
