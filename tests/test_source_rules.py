"""Rules every library module keeps, checked on its syntax tree."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lintest").glob("*.py"))


def test_library_makes_no_assert_statements():
    # python -O strips assert, so it can neither check input nor guard an invariant
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []
