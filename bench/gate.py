"""Correctness gate: which operations of a round failed, and the count metrics.

An operation is one tester verdict, or one cell of the lower-bound game.  It
fails when its CLI call raised or exited non-zero, when an exactly linear
oracle is rejected, when an accepted verdict's query count differs from the
closed form, or when a game cell breaks its TV bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from lintest.tester import TesterConfig


class GateError(RuntimeError):
    """A report has a shape the gate cannot check."""


def closed_form_queries(algorithm: str, epsilon: float, r: int = 50) -> int:
    """Accept-path oracle queries, from the public TesterConfig methods only.

    df-linearity forces negativity (two queries per round) and then runs the
    additivity tester on the odd wrapper at epsilon/2, each wrapper query
    costing two oracle queries.
    """
    cfg = TesterConfig(epsilon=epsilon, r=r)
    if algorithm == "df-linearity":
        inner = TesterConfig(epsilon=epsilon / 2.0, r=r)
        return 2 * cfg.rounds_forceneg + 2 * inner.accept_path_queries()
    return cfg.accept_path_queries()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0   # tester verdicts, plus game trials on the lower-bound command
    queries: int = 0    # sum of queries_used: oracle evaluations
    samples: int = 0    # samples a game trial reveals (n each), the game's query cost
    far: int = 0
    far_rejected: int = 0
    reasons: Counter = field(default_factory=Counter)
    sites: Counter = field(default_factory=Counter)

    def fail(self, reason: str, k: int = 1):
        self.failed += k
        self.reasons[reason] += k


def check_round(calls, reports) -> Tally:
    """Gate one round; `reports[i]` is call i's parsed report, or None if it failed."""
    t = Tally()
    for call, report in zip(calls, reports):
        if call.command == "lower-bound":
            _check_game(call, report, t)
        else:
            _check_calibrate(call, report, t)
    return t


def _check_calibrate(call, report, t: Tally):
    spec = call.spec
    trials = int(spec["trials"])
    t.attempted += trials
    if report is None:
        t.fail("cli-error", trials)
        return
    verdicts = report["verdicts"]
    if len(verdicts) != trials:
        raise GateError(f"{call.label}: {len(verdicts)} verdicts for {trials} trials")
    expected = closed_form_queries(spec["algorithm"], float(spec["epsilon"]),
                                   int(spec.get("r", 50)))
    for v in verdicts:
        t.verdicts += 1
        t.queries += int(v["queries_used"])
        rejected = v["outcome"] == "reject"
        if rejected:
            t.sites[v["reject_site"]] += 1
        if call.expect == "reject":
            t.far += 1
            t.far_rejected += rejected
        elif rejected:
            t.fail("linear-rejected")
            continue
        if not rejected and v["queries_used"] != expected:
            t.fail("accept-count-mismatch")


def _check_game(call, report, t: Tally):
    spec = call.spec
    n_list = spec.get("n_list") or [spec["n"]]
    cells = len(n_list) * len(spec.get("C_list") or [spec.get("C")])
    t.attempted += cells
    if report is None:
        t.fail("cli-error", cells)
        return
    if len(report["cells"]) != cells:
        raise GateError(f"{call.label}: {len(report['cells'])} cells, expected {cells}")
    for cell in report["cells"]:
        t.verdicts += cell["trials"]
        t.samples += cell["n"] * cell["trials"]
        if not cell["bound_respected"]:
            t.fail("game-bound-broken")
        # sqrt(C)/2 caps the TV bound only where delta is derived from C.
        elif cell["delta_override"] is None and cell["max_tv_bound"] > math.sqrt(cell["C"]) / 2:
            t.fail("game-tv-above-cap")
