"""Seeded inputs for the benchmark's four workloads.

A workload is a fixed list of CLI calls (`calibrate` or `lower-bound`), each
with its spec document.  Every number in a spec comes from numpy's PCG64
stream keyed by the benchmark seed, not from lintest's own generators, so
the inputs stay put when a change to lintest alters its random streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

WORKLOADS = ("accept-linear", "reject-far", "df-correlated", "lb-game")



@dataclass(frozen=True)
class Call:
    label: str
    command: str
    spec: dict
    # "accept": an exactly linear oracle (one-sided error and the closed-form
    # count apply); "reject": an oracle far from linear under the tester's
    # distance distribution; "game": lower-bound cells.
    expect: str

    def spec_text(self) -> str:
        return json.dumps(self.spec, sort_keys=True) + "\n"


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _linear(w: np.ndarray) -> dict:
    return {"family": "linear", "dim": int(w.size), "w_explicit": w.tolist()}


def _accept_linear(rng, tiny):
    # Exactly linear oracles at the weight scales where the equality
    # tolerance is known to misfire; they stay fixed whatever the verdicts show.
    dims = (3,) if tiny else (10, 50)
    scales = (1.0, 1e6) if tiny else (1.0, 1e3, 1e6)
    eps, trials = (0.1, 1) if tiny else (0.01, 3)
    calls = []
    for algorithm in ("gaussian-additivity", "df-linearity"):
        for n in dims:
            for s in scales:
                spec = {"algorithm": algorithm,
                        "oracle": _linear(s * rng.standard_normal(n)),
                        "epsilon": eps, "trials": trials, "seed": _seed(rng)}
                if algorithm != "gaussian-additivity":
                    spec["distribution"] = {"kind": "standard-gaussian", "dim": n}
                calls.append(Call(f"{algorithm}-n{n}-s{s:g}", "calibrate", spec, "accept"))
    return calls


def _far_families(rng, n):
    """The far oracle families, each with the distribution D it is far under."""
    gauss = {"kind": "standard-gaussian", "dim": n}
    u = np.eye(n)[0]

    def w():
        return rng.standard_normal(n).tolist()

    # Halfspace u.x > 5: N(0,I)-mass ~3e-7, but D-mass exactly 0.3 for D
    # shifted by (5 - ndtri(0.7)) u.  Only the distribution-free testers see it.
    shifted = {"kind": "shifted-gaussian", "mean": ((5.0 - float(ndtri(0.7))) * u).tolist()}
    return [
        ("corrupted", {"family": "corrupted-linear", "dim": n, "w_explicit": w(),
                       "corruption": {"mass": 0.3, "payload": 1.0}}, gauss),
        ("corrupted-odd", {"family": "corrupted-linear", "dim": n, "w_explicit": w(),
                           "corruption": {"mass": 0.3, "payload": 1.0,
                                          "odd_symmetric": True}}, gauss),
        ("constant-shift", {"family": "constant-shift-linear", "dim": n,
                            "w_explicit": w(), "shift": 1.0}, gauss),
        ("norm", {"family": "norm", "dim": n}, gauss),
        ("noisy", {"family": "noisy-linear", "dim": n, "w_explicit": w(),
                   "noise": {"delta": 0.1}}, gauss),
        ("hidden", {"family": "corrupted-linear", "dim": n, "w_explicit": w(),
                    "corruption": {"threshold": 5.0, "payload": 1.0}}, shifted),
    ]


def _reject_far(rng, tiny):
    n, trials = (4, 1) if tiny else (10, 20)
    calls = []
    for algorithm in ("gaussian-additivity", "df-additivity", "df-linearity"):
        for name, oracle, dist in _far_families(rng, n):
            spec = {"algorithm": algorithm, "oracle": oracle, "epsilon": 0.1,
                    "trials": trials, "seed": _seed(rng)}
            if algorithm == "gaussian-additivity":
                if dist["kind"] != "standard-gaussian":
                    continue  # not far under N(0,I), so not a far input here
            else:
                spec["distribution"] = dist
            calls.append(Call(f"{algorithm}-{name}", "calibrate", spec, "reject"))
    return calls


def _df_correlated(rng, tiny):
    n, trials = (4, 1) if tiny else (20, 1)
    epsilons = (0.1,) if tiny else (0.1, 0.01)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    # Odd corruption beyond |u.x| > 7: an N(0,I) probe point (variance <= 2
    # along u) lands there with probability ~1e-6, while each mixture
    # component sits half a standard deviation past the threshold.
    threshold = 7.0
    components = []
    for sign in (1.0, -1.0):
        a = rng.standard_normal((n, n))
        cov = a @ a.T / n + 0.5 * np.eye(n)
        cov = 0.5 * (cov + cov.T)
        mean = sign * (threshold + 0.5 * float(np.sqrt(u @ cov @ u))) * u
        components.append({"kind": "shifted-gaussian", "mean": mean.tolist(),
                           "cov": cov.tolist()})
    dist = {"kind": "mixture", "weights": [0.5, 0.5], "components": components}
    corrupted = {"family": "corrupted-linear", "dim": n,
                 "w_explicit": rng.standard_normal(n).tolist(),
                 "corruption": {"threshold": threshold, "direction": u.tolist(),
                                "odd_symmetric": True, "payload": 1.0}}
    calls = []
    for eps in epsilons:
        for name, oracle, expect in (("linear", _linear(rng.standard_normal(n)), "accept"),
                                     ("corrupted", corrupted, "reject")):
            spec = {"algorithm": "df-linearity", "oracle": oracle, "distribution": dist,
                    "epsilon": eps, "trials": trials, "seed": _seed(rng)}
            calls.append(Call(f"{name}-eps{eps:g}", "calibrate", spec, expect))
    return calls


def _lb_game(rng, tiny):
    n_list, trials = ((4, 6), 5) if tiny else ((100, 200), 20)
    return [
        Call("hard", "lower-bound",
             {"n_list": list(n_list), "C": 0.01, "trials": trials, "seed": _seed(rng)}, "game"),
        # Acceptance 9's control cell: delta = 1 at n = 2 is easy to distinguish.
        Call("control", "lower-bound",
             {"n": 2, "C": 0.01, "delta_override": 1.0, "trials": trials,
              "seed": _seed(rng)}, "game"),
    ]


_MAKERS = {
    "accept-linear": _accept_linear,
    "reject-far": _reject_far,
    "df-correlated": _df_correlated,
    "lb-game": _lb_game,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Call]:
    """The workload's calls; the same (workload, seed, tiny) gives the same specs."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _MAKERS[workload](np.random.default_rng(seed), tiny)


def warmup_call(calls: list[Call]) -> Call:
    """The first call cut down to a single trial: fills lazy imports and caches."""
    first = calls[0]
    return Call("warmup", first.command, {**first.spec, "trials": 1}, first.expect)
