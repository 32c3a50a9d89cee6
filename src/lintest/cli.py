"""Command-line front end: `lintest <command> --spec file.json [--jobs N]`.

One command per harness entry point. The spec file alone fixes the report,
`--jobs` says only how many processes compute it, and the report goes to
stdout as one line of ASCII JSON: `spec` first, as the file's text, then sorted keys.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click

from .harness import run_calibrate, run_lower_bound, run_query_scaling


def _load_spec(spec_path) -> str:
    """The spec file's text; each command parses it, and the harness checks the value."""
    with open(spec_path, "r", encoding="utf-8") as fh:
        return fh.read()


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
        text = _load_spec(spec_path)
        _emit(run_calibrate(json.loads(text), jobs=jobs), text)


@main.command("query-scaling")
@_SPEC
def cmd_query_scaling(spec_path):
    """Sweep epsilon and compare measured query counts against the closed form."""
    with _errors_as_json():
        text = _load_spec(spec_path)
        _emit(run_query_scaling(json.loads(text)), text)


@main.command("lower-bound")
@_SPEC
@_JOBS
def cmd_lower_bound(spec_path, jobs):
    """Play the likelihood-ratio distinguishing game over an (n, C) grid."""
    with _errors_as_json():
        text = _load_spec(spec_path)
        _emit(run_lower_bound(json.loads(text), jobs=jobs), text)


if __name__ == "__main__":
    main()
