"""Command-line front end: `lintest <command> --spec file.json [overrides]`."""

from __future__ import annotations

import contextlib
import json
import sys

import click

from .harness import (
    SpecError,
    report_format,
    report_to_csv,
    run_calibrate,
    run_lower_bound,
    run_query_scaling,
)


def _load_spec(spec_path, overrides: dict) -> dict:
    raw = {}
    if spec_path:
        with open(spec_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise SpecError("a spec file holds one JSON object")
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    return raw


def _emit(report: dict, output, fmt: str | None):
    """Write the report in `fmt`, or else in the format its spec asks for."""
    if (fmt or report_format(report)) == "csv":
        text = report_to_csv(report)
    else:
        # One line, by the C encoder; NaN and infinities are no JSON.
        text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        # An explicit file keeps click from caching a wrapper keyed by
        # sys.stdout, which would pin every redirected stdout (and its report).
        click.echo(text, nl=False, file=sys.stdout)


@contextlib.contextmanager
def _errors_as_json():
    """Report bad input as one line of JSON on stderr and exit 2."""
    try:
        yield
    except (ValueError, OSError) as exc:  # SpecError is a ValueError
        click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}), err=True)
        sys.exit(2)


_SPEC = click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
                     help="JSON experiment spec; command-line flags win on conflict.")
_EPSILON = click.option("--epsilon", type=float, default=None)
_TRIALS = click.option("--trials", type=int, default=None)
_SEED = click.option("--seed", type=int, default=None)
_JOBS = click.option("--jobs", type=int, default=1, show_default=True,
                     help="Processes that share the trials, the calling one included.")
_OUTPUT = click.option("--output", type=click.Path(), default=None,
                       help="Write the report here instead of stdout.")
_FORMAT = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None)


def _options(*options):
    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return decorate


@click.group()
def main():
    """Distribution-free additivity/linearity testers and the sample lower bound."""


def _calibrate_command(name: str, algorithm: str | None, doc: str):
    """A command that runs `calibrate`, pinned to one algorithm unless it is None."""

    @main.command(name, help=doc)
    @_options(_SPEC, _EPSILON, _TRIALS, _SEED, _JOBS, _OUTPUT, _FORMAT)
    def command(spec_path, epsilon, trials, seed, jobs, output, fmt):
        with _errors_as_json():
            spec = _load_spec(spec_path, {"epsilon": epsilon, "trials": trials, "seed": seed})
            if algorithm is not None and spec.setdefault("algorithm", algorithm) != algorithm:
                raise SpecError(f"{name} runs {algorithm}, not the spec's {spec['algorithm']!r}")
            _emit(run_calibrate(spec, jobs=jobs), output, fmt)

    return command


cmd_test_additivity = _calibrate_command(
    "test-additivity", "df-additivity", "Run the distribution-free additivity tester.")
cmd_test_linearity = _calibrate_command(
    "test-linearity", "df-linearity", "Run the distribution-free linearity tester.")
cmd_calibrate = _calibrate_command(
    "calibrate", None, "Aggregate accept/reject rates over many seeded trials.")


@main.command("query-scaling")
@_options(_SPEC, _SEED, _OUTPUT, _FORMAT)
def cmd_query_scaling(spec_path, seed, output, fmt):
    """Sweep epsilon and compare measured query counts against the closed form."""
    with _errors_as_json():
        spec = _load_spec(spec_path, {"seed": seed})
        _emit(run_query_scaling(spec), output, fmt)


@main.command("lower-bound")
@_options(_SPEC, _TRIALS, _SEED, _JOBS, _OUTPUT, _FORMAT)
def cmd_lower_bound(spec_path, trials, seed, jobs, output, fmt):
    """Play the likelihood-ratio distinguishing game over an (n, C) grid."""
    with _errors_as_json():
        spec = _load_spec(spec_path, {"trials": trials, "seed": seed})
        _emit(run_lower_bound(spec, jobs=jobs), output, fmt)


if __name__ == "__main__":
    main()
