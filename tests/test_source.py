"""Static checks on the library's source files."""

import ast
from pathlib import Path

import hilblat

SOURCES = sorted(Path(hilblat.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "groups.py"}


def test_no_assert_in_the_library():
    # python -O strips every assert, so no check of the library may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
