"""Command-line front end: `lintest <command> --spec file.json [--jobs N]`.

One command per harness entry point. The spec file alone fixes the report,
`--jobs` says only how many processes compute it, and the report goes to
stdout as one line of ASCII JSON: `spec` first, as the file's text, then sorted keys.
"""

from __future__ import annotations

import json
import sys

import click

from .harness import run_calibrate, run_lower_bound, run_query_scaling


def _emit(report: dict, spec_text: str):
    """Write the report to stdout as one line of JSON, its spec echoed as `spec_text`."""
    # A JSON string holds no raw line break, so joining the lines moves no value.
    spec = spec_text.strip().replace("\r", " ").replace("\n", " ")
    if not spec.isascii():  # non-ASCII is only in strings: \u-escape it for any stdout
        spec = "".join(c if c.isascii() else json.dumps(c)[1:-1] for c in spec)
    # The rest by the C encoder; NaN and infinities are no JSON.
    rest = json.dumps({k: v for k, v in report.items() if k != "spec"},
                      sort_keys=True, allow_nan=False)
    sys.stdout.write('{"spec": ' + spec + ", " + rest[1:] + "\n")


def _run(spec_path, run, **kwargs):
    """Emit the report of `run` on the spec file's JSON.  Bad input, or a spec too large
    for the machine, is reported as one JSON line on stderr, with exit status 2."""
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        _emit(run(json.loads(text), **kwargs), text)
    except (ValueError, OSError, MemoryError) as exc:  # SpecError is a ValueError
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
    _run(spec_path, run_calibrate, jobs=jobs)


@main.command("query-scaling")
@_SPEC
def cmd_query_scaling(spec_path):
    """Sweep epsilon and compare measured query counts against the closed form."""
    _run(spec_path, run_query_scaling)


@main.command("lower-bound")
@_SPEC
@_JOBS
def cmd_lower_bound(spec_path, jobs):
    """Play the likelihood-ratio distinguishing game over an (n, C) grid."""
    _run(spec_path, run_lower_bound, jobs=jobs)


if __name__ == "__main__":
    main()
