"""Static checks on the library's source files."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hilblat

PACKAGE = Path(hilblat.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


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


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    path = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = (
        '"""Module\ndocstring."""\n\n'
        "def f(x):  # a comment\n"
        '    """One line."""\n'
        "    # a comment line\n\n"
        "    return (x,\n"
        '            """not a docstring""")\n'
    )
    assert tool.code_lines(source) == 3


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command runs in a fresh process, so these imports cost each run
    # several milliseconds; -S keeps the host's site hooks out of the count
    code = (
        "import sys; before = set(sys.modules); import hilblat.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert "hilblat.cli" in out
    assert {"dataclasses", "inspect"}.isdisjoint(out)


def test_no_module_imports_dataclasses():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []
