"""Command-line front end: `lintest <command> --spec file.json [overrides]`."""

from __future__ import annotations

import json
import os
import sys

import click

from .harness import (
    ExperimentSpec,
    SpecError,
    report_to_csv,
    run_calibrate,
    run_lower_bound,
    run_query_scaling,
)


def _load_spec(spec_path, overrides: dict) -> ExperimentSpec:
    raw = {}
    if spec_path:
        with open(spec_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    if "seed" not in raw and os.environ.get("LINTEST_SEED"):
        raw["seed"] = int(os.environ["LINTEST_SEED"])
    return ExperimentSpec.parse(raw)


def _emit(report: dict, output, fmt: str):
    if fmt == "csv":
        text = report_to_csv(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        # An explicit file keeps click from caching a wrapper keyed by
        # sys.stdout, which would pin every redirected stdout (and its report).
        click.echo(text, nl=False, file=sys.stdout)


_common = [
    click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
                 help="JSON experiment spec; command-line flags win on conflict."),
    click.option("--epsilon", type=float, default=None),
    click.option("--trials", type=int, default=None),
    click.option("--seed", type=int, default=None),
    click.option("--jobs", type=int, default=1, show_default=True,
                 help="Worker processes for trial fan-out."),
    click.option("--output", type=click.Path(), default=None,
                 help="Write the report here instead of stdout."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Distribution-free additivity/linearity testers and the sample lower bound."""


def _fail(exc: Exception):
    click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}), err=True)
    sys.exit(2)


def _calibrate_like(algorithm, spec_path, epsilon, trials, seed, jobs, output, fmt):
    try:
        spec = _load_spec(spec_path, {"epsilon": epsilon, "trials": trials, "seed": seed})
        if algorithm is not None:
            spec.raw["algorithm"] = algorithm
        report = run_calibrate(spec, jobs=jobs)
        _emit(report, output, fmt or spec.get("format", "json"))
    except (SpecError, ValueError, OSError, KeyError) as exc:
        _fail(exc)


@main.command("test-additivity")
@_with_common
def cmd_test_additivity(spec_path, epsilon, trials, seed, jobs, output, fmt):
    """Run the distribution-free additivity tester."""
    _calibrate_like("df-additivity", spec_path, epsilon, trials, seed, jobs, output, fmt)


@main.command("test-linearity")
@_with_common
def cmd_test_linearity(spec_path, epsilon, trials, seed, jobs, output, fmt):
    """Run the distribution-free linearity tester."""
    _calibrate_like("df-linearity", spec_path, epsilon, trials, seed, jobs, output, fmt)


@main.command("calibrate")
@_with_common
def cmd_calibrate(spec_path, epsilon, trials, seed, jobs, output, fmt):
    """Aggregate accept/reject rates over many seeded trials."""
    _calibrate_like(None, spec_path, epsilon, trials, seed, jobs, output, fmt)


@main.command("query-scaling")
@_with_common
def cmd_query_scaling(spec_path, epsilon, trials, seed, jobs, output, fmt):
    """Sweep epsilon and compare measured query counts against the closed form."""
    try:
        spec = _load_spec(spec_path, {"seed": seed})
        report = run_query_scaling(spec)
        _emit(report, output, fmt or spec.get("format", "json"))
    except (SpecError, ValueError, OSError, KeyError) as exc:
        _fail(exc)


@main.command("lower-bound")
@_with_common
def cmd_lower_bound(spec_path, epsilon, trials, seed, jobs, output, fmt):
    """Play the likelihood-ratio distinguishing game over an (n, C) grid."""
    try:
        spec = _load_spec(spec_path, {"trials": trials, "seed": seed})
        report = run_lower_bound(spec)
        _emit(report, output, fmt or spec.get("format", "json"))
    except (SpecError, ValueError, OSError, KeyError) as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
