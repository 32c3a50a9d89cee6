"""Command-line front end: `lintest <command> --spec file.json [--jobs N]`.

One command per harness entry point. The spec file alone fixes the report,
`--jobs` says only how many processes compute it, and the report goes to
stdout as one line of JSON.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click

from .harness import run_calibrate, run_lower_bound, run_query_scaling


def _load_spec(spec_path) -> dict:
    """The spec file's JSON value; the harness checks that it is an object."""
    with open(spec_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(report: dict):
    """Write the report to stdout as one line of JSON."""
    # By the C encoder; NaN and infinities are no JSON.
    text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
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


_SPEC = click.option("--spec", "spec_path", type=click.Path(exists=True), required=True,
                     help="JSON experiment spec; it alone fixes the report.")
_JOBS = click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
                     help="Processes that share the trials, the calling one included.")


@click.group()
def main():
    """Distribution-free additivity/linearity testers and the sample lower bound."""


@main.command("calibrate")
@_SPEC
@_JOBS
def cmd_calibrate(spec_path, jobs):
    """Run the spec's tester over many seeded trials and aggregate the verdicts."""
    with _errors_as_json():
        _emit(run_calibrate(_load_spec(spec_path), jobs=jobs))


@main.command("query-scaling")
@_SPEC
def cmd_query_scaling(spec_path):
    """Sweep epsilon and compare measured query counts against the closed form."""
    with _errors_as_json():
        _emit(run_query_scaling(_load_spec(spec_path)))


@main.command("lower-bound")
@_SPEC
@_JOBS
def cmd_lower_bound(spec_path, jobs):
    """Play the likelihood-ratio distinguishing game over an (n, C) grid."""
    with _errors_as_json():
        _emit(run_lower_bound(_load_spec(spec_path), jobs=jobs))


if __name__ == "__main__":
    main()
