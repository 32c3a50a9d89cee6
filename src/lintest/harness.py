"""Experiment harness: spec parsing, trial fan-out, and report assembly.

Specs are JSON dicts.  `_parse` applies every rule that reads one spec object,
from tables of typed keys with defaults (the library configs' where they share
a key) and of key pairs that say one thing two ways; builders and runners check
only rules that join keys.  Every trial derives its seeds from the master seed
through the mixing hash, so reports are byte-identical across re-runs and across
worker schedules, wall-clock aside.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import dataclasses
import functools
import math
import multiprocessing.connection
import numbers
import os
import sys
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
from .lower_bound import LowerBoundConfig, game_report, play_trial, wilson_interval
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
    TesterConfig,
    run_df_additivity,
    run_df_linearity,
    run_gaussian_additivity,
)


class SpecError(ValueError):
    """Invalid experiment specification."""


# A JSON value type: its name in error messages and a test of a parsed value.
_Type = collections.namedtuple("_Type", "name test")


def _list_of(name: str, item: _Type) -> _Type:
    return _Type(f"a nonempty list of {name}",
                 lambda v: type(v) is list and v != [] and all(map(item.test, v)))


def _or_null(kind: _Type) -> _Type:
    return _Type(f"{kind.name} or null", lambda v: v is None or kind.test(v))


def _choice(*words: str) -> _Type:
    return _Type(" or ".join(map(repr, words)), lambda v: v in words)


# Exact Python types of parsed JSON, so that true is no number, and exact comparisons,
# so that NaN, infinities, numbers beyond the double range and ints beyond 64 bits fail.
_INT = _Type("a 64-bit integer", lambda v: type(v) is int and -2**63 <= v < 2**63)
_POSITIVE = _Type("a positive 64-bit integer", lambda v: _INT.test(v) and v > 0)
_NUMBER = _Type("a finite number", lambda v: _NUMBERS.test([v]))
_OBJECT = _Type("a JSON object", lambda v: type(v) is dict)
_STRING = _Type("a string", lambda v: type(v) is str)
_NUMBERS = _Type("a nonempty list of finite numbers",  # builtins only, for long weight/cov lists
                 lambda v: type(v) is list and v != [] and {int, float}.issuperset(map(type, v))
                 and all(map(sys.float_info.max.__ge__, map(abs, v))))
_DECREASING = _Type("a strictly decreasing nonempty list of finite numbers",
                    lambda v: _NUMBERS.test(v) and all(a > b for a, b in zip(v, v[1:])))
_REQUIRED = object()  # in place of a default: the spec must give the key

_LINEAR = {"family": (_STRING, _REQUIRED), "dim": (_POSITIVE, _REQUIRED), "w_seed": (_INT, 0),
           "w_explicit": (_NUMBERS, None)}  # None: the weights come from w_seed
_SAMPLER = {"kind": (_STRING, "standard-gaussian")}

# Each spec context's keys, with the JSON type and default of each (None: derived
# in code).  The contexts are the commands, the oracle families (by "family"),
# the nested corruption and noise objects, and the distribution kinds (by "kind").
_SCHEMAS = {
    "calibrate": {
        "algorithm": (_choice("gaussian-additivity", "df-additivity", "df-linearity"),
                      "df-additivity"),
        "oracle": (_OBJECT, _REQUIRED), "epsilon": (_NUMBER, _REQUIRED),
        "distribution": (_OBJECT, None),  # None: N(0, I) in the oracle's dimension
        "trials": (_POSITIVE, 1), "seed": (_INT, 0), "r": (_INT, TesterConfig.r)},
    "query-scaling": {
        "epsilons": (_DECREASING, _REQUIRED), "seed": (_INT, 0), "r": (_INT, TesterConfig.r),
        "oracle": (_OBJECT, {"family": "linear", "dim": 10, "w_seed": 1})},
    "lower-bound": {
        "n": (_INT, None), "n_list": (_list_of("integers", _INT), None),
        "C": (_NUMBER, LowerBoundConfig.C), "C_list": (_NUMBERS, None),
        "trials": (_INT, LowerBoundConfig.trials),
        "seed": (_INT, 0), "delta_override": (_or_null(_NUMBER), None)},
    "linear": _LINEAR,
    "constant-shift-linear": {**_LINEAR, "shift": (_NUMBER, 1.0)},
    "corrupted-linear": {**_LINEAR, "corruption": (_OBJECT, {})},
    "noisy-linear": {**_LINEAR, "noise": (_OBJECT, {})},
    "norm": {"family": (_STRING, _REQUIRED), "dim": (_POSITIVE, _REQUIRED)},
    "corruption": {
        "mass": (_NUMBER, None), "threshold": (_NUMBER, None),
        "payload": (_NUMBER, 1.0), "direction": (_or_null(_NUMBERS), None),  # the first axis
        "odd_symmetric": (_Type("true or false", lambda v: type(v) is bool), False)},
    "noise": {"delta": (_NUMBER, _REQUIRED), "seed": (_INT, 0)},
    "standard-gaussian": {**_SAMPLER, "dim": (_POSITIVE, _REQUIRED)},
    "shifted-gaussian": {
        **_SAMPLER, "mean": (_NUMBERS, _REQUIRED),
        "cov": (_or_null(_list_of("nonempty lists of finite numbers", _NUMBERS)),
                None)},  # null: I
    "mixture": {**_SAMPLER, "weights": (_NUMBERS, _REQUIRED),
                "components": (_list_of("JSON objects", _OBJECT), _REQUIRED)},
    "empirical": {**_SAMPLER, "path": (_STRING, _REQUIRED)},
}
# The contexts named by a key of the spec: that key and its default.
_VARIANTS = {"oracle": ("family", None), "distribution": ("kind", _SAMPLER["kind"][1])}
# Pairs of keys that say one thing two ways: never both, and, where True, one of them.
_EITHER = {("w_seed", "w_explicit"): False, ("mass", "threshold"): True,
           ("n", "n_list"): True, ("C", "C_list"): False}


def _parse(spec, context: str) -> dict:
    """`spec` checked against its context's schema and key pairs, defaults filled in."""
    where = f"{context} spec"
    if type(spec) is not dict:
        raise SpecError(f"{where} must be a JSON object, got {spec!r}")
    if context in _VARIANTS:  # an oracle family or a distribution kind: the spec names it
        key, default = _VARIANTS[context]
        name = spec.get(key, default)
        if type(name) is not str or key not in _SCHEMAS.get(name, ()):
            raise SpecError(f"unknown {context} {key}: {name!r}")
        context, where = name, f"{name} spec"
    schema = _SCHEMAS[context]
    unknown = spec.keys() - schema.keys()
    if unknown:
        raise SpecError(f"unknown field(s) in {where}: {sorted(unknown)}")
    for key, value in spec.items():
        kind = schema[key][0]
        if not kind.test(value):
            raise SpecError(f"'{key}' in {where} must be {kind.name}, got {value!r}")
    for (one, other), needed in _EITHER.items():
        if one in spec and other in spec:
            raise SpecError(f"give '{one}' or '{other}', not both")
        if needed and one in schema and one not in spec and other not in spec:
            raise SpecError(f"{where} needs '{one}' or '{other}'")
    parsed = {key: default for key, (_, default) in schema.items()} | spec
    missing = [key for key, value in parsed.items() if value is _REQUIRED]
    if missing:
        raise SpecError(f"{where} needs {missing}")
    return parsed


def build_oracle(spec: dict) -> FunctionOracle:
    """Instantiate the oracle its JSON spec fixes, noise key included."""
    spec = _parse(spec, "oracle")
    family, dim = spec["family"], spec["dim"]
    if family == "norm":
        return NormOracle(dim)
    if spec["w_explicit"] is None:
        w = random_linear(dim, spec["w_seed"]).w
    else:
        w = np.asarray(spec["w_explicit"], dtype=float)
        if w.size != dim:
            raise SpecError(f"w_explicit has length {w.size}, expected {dim}")
    if family == "linear":
        return LinearOracle(w)
    if family == "constant-shift-linear":
        return ConstantShiftLinear(w, float(spec["shift"]))
    if family == "corrupted-linear":
        c = _parse(spec["corruption"], "corruption")
        if c["threshold"] is None:  # with_mass takes a null direction as the first axis
            return CorruptedLinear.with_mass(w, float(c["mass"]), float(c["payload"]),
                                             c["direction"], c["odd_symmetric"])
        direction = np.eye(1, dim)[0] if c["direction"] is None else c["direction"]
        region = CorruptionRegion.from_threshold(direction, float(c["threshold"]))
        return CorruptedLinear(w, region, float(c["payload"]), c["odd_symmetric"])
    nz = _parse(spec["noise"], "noise")
    return NoisyLinear(w, float(nz["delta"]), nz["seed"])


def build_distribution(spec: dict) -> SampleDistribution:
    """Instantiate a sampler from its JSON spec; `restarted(seed)` keys its streams."""
    spec = _parse(spec, "distribution")
    kind = spec["kind"]
    if kind == "standard-gaussian":
        return StandardGaussian(spec["dim"])
    if kind == "shifted-gaussian":
        return ShiftedGaussian(spec["mean"], spec["cov"])
    if kind == "mixture":
        components = [build_distribution(c) for c in spec["components"]]
        return Mixture(spec["weights"], components).restarted(0)  # distinct component streams
    return load_empirical(spec["path"])


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_workers: list = []  # (process, pipe end) of each worker, kept while the worker count holds


def _run_share(fn, share):
    """[fn(item) for item in share], or the exception that one of the calls raised."""
    try:
        return [fn(item) for item in share]
    except Exception as exc:
        return exc


def _serve(conn):
    """A worker: send back `_run_share` of each (fn, share) until the parent closes or exits."""
    for _, end in _workers:  # its forked copies of the parent's ends, its own too, or no EOF comes
        end.close()
    with contextlib.suppress(EOFError, OSError):  # EOF, or a reply that no parent takes
        while True:
            conn.send(_run_share(*conn.recv()))


def _stop_workers():
    """Close each worker's pipe end, which ends the worker, and join it."""
    while _workers:
        process, conn = _workers.pop()
        conn.close()
        process.join()


# Runs before multiprocessing's exit hook, registered earlier, which SIGTERMs daemonic workers.
atexit.register(_stop_workers)


def _fan_out(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], over up to `jobs` processes, the calling one included."""
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ValueError(f"jobs must be at least 1 and an integer, not {jobs!r}")
    n = max(1, min(jobs, _usable_cores(), len(items)))  # more would only add start-up
    if n == 1:
        return [fn(item) for item in items]
    if len(_workers) != n - 1:  # forking costs more than a short command's trials
        _stop_workers()
        for conn, child in (multiprocessing.connection.Pipe() for _ in range(n - 1)):
            _workers.append((multiprocessing.Process(target=_serve, args=(child,), daemon=True),
                             conn))
            _workers[-1][0].start()
            child.close()  # so that the worker's death reads as EOF here
    # One contiguous share per process, the first and smallest for this one:
    # shipping short trials one by one costs more than running them.
    shares = [items[len(items) * k // n:len(items) * (k + 1) // n] for k in range(n)]
    try:
        for (_, conn), share in zip(_workers, shares[1:]):
            conn.send((fn, share))
        replies = [_run_share(fn, shares[0])] + [conn.recv() for _, conn in _workers]
    except BaseException as exc:
        for process, _ in _workers:  # a reply may be pending: let none reach a later call
            process.terminate()
        _stop_workers()
        if isinstance(exc, (EOFError, OSError)):  # here only the pipes raise these
            raise multiprocessing.ProcessError("a fan-out worker died") from exc
        raise
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
    return [result for reply in replies for result in reply]


def _report(spec: dict, command: str, seed: int, **body) -> dict:
    """A report: the spec and the versions that make it reproducible, then its body."""
    return {"spec": spec, "command": command, "library_version": __version__,
            "numpy_version": np.__version__, "seed": seed, **body}


def _run_one_trial(setup: tuple, trial: int) -> dict:
    """One seeded tester run, restarting only the streams; its ε, seed and trial stamped here."""
    spec, cfg, oracle, dist = setup
    seed = spec["seed"]
    cfg = dataclasses.replace(cfg, seed=derive_seed(seed, trial, 1))
    if dist is None:
        verdict = run_gaussian_additivity(oracle, cfg)
    else:
        run = run_df_additivity if spec["algorithm"] == "df-additivity" else run_df_linearity
        verdict = run(oracle, dist.restarted(derive_seed(seed, trial, 2)), cfg)
    return {**verdict.to_json(), "epsilon": cfg.epsilon, "seed": cfg.seed, "trial": trial}


def run_calibrate(spec: dict, jobs: int = 1) -> dict:
    """Run `trials` independent tester invocations and aggregate the verdicts."""
    parsed = _parse(spec, "calibrate")
    if parsed["algorithm"] == "gaussian-additivity" and parsed["distribution"] is not None:
        raise SpecError("gaussian-additivity measures distance under N(0,I) "
                        "and reads no 'distribution'")
    trials = parsed["trials"]

    start = time.perf_counter()
    cfg = TesterConfig(epsilon=float(parsed["epsilon"]), r=parsed["r"])
    oracle, dspec = build_oracle(parsed["oracle"]), parsed["distribution"]
    dist = None if parsed["algorithm"] == "gaussian-additivity" else build_distribution(
        {"kind": "standard-gaussian", "dim": oracle.dim} if dspec is None else dspec)
    if dist is not None and dist.dim != oracle.dim:
        raise SpecError(f"distribution dimension {dist.dim} != oracle dimension {oracle.dim}")
    setup = (parsed, cfg, oracle, dist)  # built once; each worker gets it in its share's message
    results = _fan_out(functools.partial(_run_one_trial, setup), range(trials), jobs)
    wall = time.perf_counter() - start

    accepts = sum(1 for v in results if v["outcome"] == "accept")
    queries = [v["queries_used"] for v in results]
    lo, hi = wilson_interval(accepts, trials)
    aggregates = {
        "trials": trials,
        "accept_rate": accepts / trials,
        "reject_rate": (trials - accepts) / trials,
        "accept_wilson95": [lo, hi],
        "mean_queries": sum(queries) / trials,
        "max_queries": max(queries),
        "query_histogram": {str(q): k for q, k in sorted(collections.Counter(queries).items())},
    }
    return _report(spec, "calibrate", parsed["seed"], aggregates=aggregates,
                   verdicts=results, wall_clock_s=wall)


def run_query_scaling(spec: dict) -> dict:
    """Sweep epsilon and compare measured accept-path queries to the closed form."""
    parsed = _parse(spec, "query-scaling")
    epsilons = [float(e) for e in parsed["epsilons"]]
    seed = parsed["seed"]

    start = time.perf_counter()
    rows, built = [], build_oracle(parsed["oracle"])
    for i, eps in enumerate(epsilons):
        cfg = TesterConfig(epsilon=eps, r=parsed["r"], seed=derive_seed(seed, i))
        verdict = run_gaussian_additivity(built, cfg)
        formula = cfg.accept_path_queries()
        measured_main = verdict.queries_used - cfg.battery_queries() if verdict.accepted else None
        base = (1.0 / eps) * math.log2(1.0 / eps)
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


def _play(cells: list, k: int):
    """Trial k // len(cells) of cells[k % len(cells)]: the unit of the lower-bound fan-out."""
    return play_trial(cells[k % len(cells)], k // len(cells))


def run_lower_bound(spec: dict, jobs: int = 1) -> dict:
    """Run the distinguishing game over an (n, C) grid, fanned out by trial."""
    parsed = _parse(spec, "lower-bound")
    n_list = [parsed["n"]] if parsed["n_list"] is None else parsed["n_list"]
    c_list = [parsed["C"]] if parsed["C_list"] is None else parsed["C_list"]
    seed = parsed["seed"]
    override = parsed["delta_override"]

    start = time.perf_counter()
    cells = [LowerBoundConfig(n=n, C=float(c), trials=parsed["trials"],
                              seed=derive_seed(seed, i, j),
                              delta_override=None if override is None else float(override))
             for i, n in enumerate(n_list) for j, c in enumerate(c_list)]
    if parsed["trials"] * len(cells) > sys.maxsize:  # past it, a range of trials has no len
        raise SpecError(f"'trials' times {len(cells)} grid cells must be at most {sys.maxsize}")
    # Trial-major, so that each worker's contiguous share holds a slice of
    # every cell, whatever the cells cost; only ranges of indices are shipped.
    outcomes = _fan_out(functools.partial(_play, cells), range(parsed["trials"] * len(cells)), jobs)
    games = [{**dataclasses.asdict(cfg), **game_report(cfg, outcomes[cell::len(cells)]).to_json()}
             for cell, cfg in enumerate(cells)]  # each cell: its config, then what its trials gave
    return _report(spec, "lower-bound", seed, cells=games,
                   wall_clock_s=time.perf_counter() - start)

