"""The project's pytest settings, exercised on a throwaway test file in a subprocess."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_example_fails_its_test_and_not_the_run(tmp_path):
    # hypothesis's report hook on a failing example raises a DeprecationWarning that the
    # `error::DeprecationWarning` filter would turn into an INTERNALERROR (exit 3), so the
    # run would stop before the next test; pyproject.toml ignores that one message
    (tmp_path / "test_two_failures.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails_for_some_integer(x):
            assert x < 5

        def test_fails_plainly():
            assert False
    """))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                           "test_two_failures.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout
    assert "2 failed" in done.stdout
