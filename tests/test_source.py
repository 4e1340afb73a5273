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


def unused_imports(source: str) -> list[str]:
    """Names that a module imports but neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_every_import_is_used():
    found = [f"{path.name}: {name}" for path in SOURCES
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_unused_import_is_found():
    source = "from math import gcd, prod\nimport os.path\n__all__ = ['prod']\n"
    assert unused_imports(source) == ["gcd (line 1)", "os (line 2)"]
    assert unused_imports(source + "os.sep\ngcd(1, 2)\n") == []
