"""Rules every library module keeps, checked on its syntax tree."""

import ast
import dataclasses
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lintest").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}


def test_library_makes_no_assert_statements():
    # python -O strips assert, so it can neither check input nor guard an invariant
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _defines(cls: ast.ClassDef) -> set:
    """Names bound in a class body, by def or by assignment."""
    names = set()
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            names.update(_name(target) for target in item.targets)
    return names


def test_every_oracle_evaluation_passes_through_query_batch():
    # The benchmark's tracer counts queries by wrapping FunctionOracle.query_batch:
    # an override would go untraced, and a direct _values call would
    # evaluate points that no counter sees.
    classes = [node for tree in TREES.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    oracles, grew = {"FunctionOracle"}, True
    while grew:  # subclasses of subclasses, across modules
        found = {c.name for c in classes if any(_name(b) in oracles for b in c.bases)}
        grew, oracles = not found <= oracles, oracles | found
    assert {"LinearOracle", "NoisyLinear", "OddOracle"} <= oracles
    overrides = [c.name for c in classes
                 if c.name in oracles - {"FunctionOracle"} and "query_batch" in _defines(c)]
    assert overrides == []
    calls = [f"{name}:{node.lineno}" for name, tree in TREES.items() if name != "oracle.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "_values"]
    assert calls == []


def test_tester_builds_every_verdict_in_its_stage_runner():
    # One first-failure search and one Verdict construction: every stage feeds _stage.
    tree = TREES["tester.py"]
    stage = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_stage")

    def verdicts(root):
        return [node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Call) and _name(node.func) == "Verdict"]
    assert len(verdicts(tree)) == len(verdicts(stage)) == 1


def test_tester_config_holds_only_epsilon_r_and_seed():
    # The paper fixes every repetition count as a function of epsilon alone,
    # so no field may override the round schedule.
    from lintest.tester import TesterConfig

    assert [f.name for f in dataclasses.fields(TesterConfig)] == ["epsilon", "r", "seed"]


def test_results_hold_no_field_of_the_config_that_made_them():
    # A result holds what was measured; its caller already holds the config it chose,
    # and stamps it into the report, so no copy can disagree with the config that ran.
    from lintest.lower_bound import GameReport, LowerBoundConfig
    from lintest.tester import TesterConfig, Verdict

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}
    assert names(Verdict) & names(TesterConfig) == set()
    assert names(GameReport) & names(LowerBoundConfig) == set()


def test_library_reads_no_environment_variable():
    # A seed alone must fix a report: nothing in the environment may change it.
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items() for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in {"environ", "environb", "getenv"})
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and {a.name for a in node.names} & {"environ", "environb", "getenv"})]
    assert found == []


def test_calibrate_trials_parse_build_and_read_nothing():
    # run_calibrate parses its specs, builds its oracle and sampler and reads any dataset
    # once; the function it fans out, and every harness function that one calls, only
    # restarts them.
    tree = TREES["harness.py"]
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (fan_out,) = [node for node in ast.walk(defs["run_calibrate"])
                  if isinstance(node, ast.Call) and _name(node.func) == "_fan_out"]
    trial = fan_out.args[0]
    while isinstance(trial, ast.Call):  # functools.partial(fn, ...)
        trial = trial.args[0]
    assert _name(trial) in defs
    forbidden = {"_parse", "build_oracle", "build_distribution", "load_empirical"}
    seen, todo, found = set(), [_name(trial)], []
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call):
                called = _name(node.func)
                if called in forbidden:
                    found.append(f"{name}:{node.lineno} calls {called}")
                elif called in defs and called not in seen:
                    todo.append(called)
    assert found == []
