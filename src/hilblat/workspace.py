"""Workspace files: named lattices, vectors, sublattices, isometries and
groups, described in JSON.

Top-level keys (all optional): "lattices", "vectors", "sublattices",
"isometries", "groups".  Integer entries may be JSON numbers or decimal
strings (strings protect arbitrary precision).

    {
      "lattices": {
        "quartic": {"gram": [[4, 0], [0, -8]], "e": [0, 1]},
        "L2": "DOUADY(2)"
      },
      "vectors":     {"h": {"lattice": "quartic", "coords": [1, 0]}},
      "sublattices": {"hspan": {"lattice": "quartic", "columns": [[1, 0]]}},
      "isometries":  {"inv": {"lattice": "quartic", "matrix": [[3, 4], [-2, -3]]}},
      "groups":      {"G": {"lattice": "quartic", "generators": ["inv"], "cap": 10000}}
    }

A lattice entry is either an inline object with a "gram" matrix (plus an
optional "e" vector designating an exceptional class in its last
coordinate) or a string naming a builtin: "U", "E8_MINUS", "K3" or
"DOUADY(n)" with n >= 2.  DOUADY(n) lattices come with their exceptional
class built in.  Structural problems (a file that is not UTF-8, bad or too
deeply nested JSON, unresolved or non-string names, ragged or non-integer
matrices, length mismatches) raise WorkspaceError;
mathematical failures surface later, when an operation runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .core import _INT, Lattice, Matrix, Vector
from .douady import (
    ExceptionalPair,
    douady_lattice,
    e8_minus,
    hyperbolic_plane,
    k3_lattice,
)
from .groups import DEFAULT_CLOSURE_CAP, _plain_lattice

__all__ = [
    "Workspace",
    "WorkspaceError",
    "load_workspace",
    "parse_workspace",
]

_DOUADY_RE = re.compile(r"^DOUADY\((-?\d+)\)$")

LatticeEntry = Lattice | ExceptionalPair


class WorkspaceError(ValueError):
    """The workspace file is malformed or a name does not resolve."""


def _int(value, where: str) -> int:
    if isinstance(value, bool):
        raise WorkspaceError(f"{where}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?\d+", value):
        return int(value)
    raise WorkspaceError(f"{where}: expected an integer, got {value!r}")


def _vector(value, where: str) -> Vector:
    if not isinstance(value, list):
        raise WorkspaceError(f"{where}: expected a list of integers")
    # a list of JSON numbers needs no per-entry check
    if _INT.issuperset(map(type, value)):
        return tuple(value)
    return tuple(_int(x, where) for x in value)


def _matrix(value, where: str) -> Matrix:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise WorkspaceError(f"{where}: expected a list of rows")
    rows = tuple(_vector(r, where) for r in value)
    if len({len(r) for r in rows}) > 1:
        raise WorkspaceError(f"{where}: rows have unequal lengths")
    return rows


@dataclass(frozen=True)
class NamedVector:
    lattice: str
    coords: Vector


@dataclass(frozen=True)
class NamedSublattice:
    lattice: str
    columns: tuple[Vector, ...]


@dataclass(frozen=True)
class NamedIsometry:
    lattice: str
    matrix: Matrix


@dataclass(frozen=True)
class NamedGroup:
    lattice: str
    generators: tuple[str, ...]
    cap: int


def builtin_lattice(name: str) -> LatticeEntry | None:
    """Resolve a builtin lattice name, or None when the name is not builtin."""
    if name == "U":
        return hyperbolic_plane()
    if name == "E8_MINUS":
        return e8_minus()
    if name == "K3":
        return k3_lattice()
    m = _DOUADY_RE.match(name)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise WorkspaceError(f"{name}: the number of points must be >= 2")
        return douady_lattice(n)
    return None


@dataclass
class Workspace:
    lattices: dict[str, LatticeEntry] = field(default_factory=dict)
    vectors: dict[str, NamedVector] = field(default_factory=dict)
    sublattices: dict[str, NamedSublattice] = field(default_factory=dict)
    isometries: dict[str, NamedIsometry] = field(default_factory=dict)
    groups: dict[str, NamedGroup] = field(default_factory=dict)

    def entry(self, name: str) -> LatticeEntry:
        """Resolve a lattice name: workspace entries first, then builtins."""
        if name in self.lattices:
            return self.lattices[name]
        builtin = builtin_lattice(name)
        if builtin is None:
            raise WorkspaceError(f"unknown lattice {name!r}")
        return builtin

    def lattice(self, name: str) -> Lattice:
        return _plain_lattice(self.entry(name))

    def exceptional(self, name: str) -> ExceptionalPair:
        entry = self.entry(name)
        if isinstance(entry, ExceptionalPair):
            return entry
        raise WorkspaceError(
            f"lattice {name!r} has no designated exceptional class"
        )

    def vector(self, name: str) -> NamedVector:
        if name not in self.vectors:
            raise WorkspaceError(f"unknown vector {name!r}")
        return self.vectors[name]

    def sublattice(self, name: str) -> NamedSublattice:
        if name not in self.sublattices:
            raise WorkspaceError(f"unknown sublattice {name!r}")
        return self.sublattices[name]

    def isometry(self, name: str) -> NamedIsometry:
        if name not in self.isometries:
            raise WorkspaceError(f"unknown isometry {name!r}")
        return self.isometries[name]

    def group(self, name: str) -> NamedGroup:
        if name not in self.groups:
            raise WorkspaceError(f"unknown group {name!r}")
        return self.groups[name]


def _parse_lattice(name: str, value) -> LatticeEntry:
    where = f"lattices.{name}"
    if isinstance(value, str):
        entry = builtin_lattice(value)
        if entry is None:
            raise WorkspaceError(f"{where}: unknown builtin lattice {value!r}")
        return entry
    if not isinstance(value, dict):
        raise WorkspaceError(f"{where}: expected a builtin name or an object")
    unknown = set(value) - {"gram", "e"}
    if unknown:
        raise WorkspaceError(f"{where}: unknown keys {sorted(unknown)}")
    if "gram" not in value:
        raise WorkspaceError(f"{where}: missing 'gram'")
    gram = _matrix(value["gram"], f"{where}.gram")
    if len(gram) and len(gram[0]) != len(gram):
        raise WorkspaceError(f"{where}.gram: matrix is not square")
    try:
        lattice = Lattice(len(gram), gram)
    except ValueError as exc:
        raise WorkspaceError(f"{where}.gram: {exc}") from exc
    if "e" not in value:
        return lattice
    e = _vector(value["e"], f"{where}.e")
    if len(e) != lattice.rank:
        raise WorkspaceError(f"{where}.e: length does not match the rank")
    try:
        return ExceptionalPair(lattice, e)
    except ValueError as exc:
        raise WorkspaceError(f"{where}.e: {exc}") from exc


def parse_workspace(data) -> Workspace:
    """Build a Workspace from decoded JSON, validating structure and references."""
    if not isinstance(data, dict):
        raise WorkspaceError("workspace must be a JSON object")
    known = {"lattices", "vectors", "sublattices", "isometries", "groups"}
    unknown = set(data) - known
    if unknown:
        raise WorkspaceError(f"unknown top-level keys {sorted(unknown)}")
    for key in known:
        section = data.get(key, {})
        if not isinstance(section, dict):
            raise WorkspaceError(f"{key}: expected an object of named entries")
    ws = Workspace()
    for name, value in data.get("lattices", {}).items():
        ws.lattices[name] = _parse_lattice(name, value)

    def _resolved_rank(lattice_name, where: str) -> int:
        if not isinstance(lattice_name, str):
            raise WorkspaceError(
                f"{where}.lattice: expected a lattice name, got {lattice_name!r}"
            )
        try:
            return ws.lattice(lattice_name).rank
        except WorkspaceError as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc

    for name, value in data.get("vectors", {}).items():
        where = f"vectors.{name}"
        if not isinstance(value, dict) or set(value) != {"lattice", "coords"}:
            raise WorkspaceError(f"{where}: expected keys 'lattice' and 'coords'")
        rank = _resolved_rank(value["lattice"], where)
        coords = _vector(value["coords"], f"{where}.coords")
        if len(coords) != rank:
            raise WorkspaceError(f"{where}: vector length does not match rank {rank}")
        ws.vectors[name] = NamedVector(value["lattice"], coords)
    for name, value in data.get("sublattices", {}).items():
        where = f"sublattices.{name}"
        if not isinstance(value, dict) or set(value) != {"lattice", "columns"}:
            raise WorkspaceError(f"{where}: expected keys 'lattice' and 'columns'")
        rank = _resolved_rank(value["lattice"], where)
        columns = tuple(
            _vector(c, f"{where}.columns") for c in _as_list(value["columns"], where)
        )
        for c in columns:
            if len(c) != rank:
                raise WorkspaceError(
                    f"{where}: column length does not match rank {rank}"
                )
        ws.sublattices[name] = NamedSublattice(value["lattice"], columns)
    for name, value in data.get("isometries", {}).items():
        where = f"isometries.{name}"
        if not isinstance(value, dict) or set(value) != {"lattice", "matrix"}:
            raise WorkspaceError(f"{where}: expected keys 'lattice' and 'matrix'")
        rank = _resolved_rank(value["lattice"], where)
        matrix = _matrix(value["matrix"], f"{where}.matrix")
        if len(matrix) != rank or (matrix and len(matrix[0]) != rank):
            raise WorkspaceError(f"{where}.matrix: expected a {rank}x{rank} matrix")
        ws.isometries[name] = NamedIsometry(value["lattice"], matrix)
    for name, value in data.get("groups", {}).items():
        where = f"groups.{name}"
        if not isinstance(value, dict) or not {"lattice", "generators"} <= set(value):
            raise WorkspaceError(f"{where}: expected keys 'lattice' and 'generators'")
        if set(value) - {"lattice", "generators", "cap"}:
            raise WorkspaceError(f"{where}: unknown keys present")
        _resolved_rank(value["lattice"], where)
        gen_names = _as_list(value["generators"], where)
        for gen in gen_names:
            if not isinstance(gen, str) or gen not in ws.isometries:
                raise WorkspaceError(f"{where}: unknown generator {gen!r}")
            if ws.isometries[gen].lattice != value["lattice"]:
                raise WorkspaceError(
                    f"{where}: generator {gen!r} acts on a different lattice"
                )
        cap = _int(value.get("cap", DEFAULT_CLOSURE_CAP), f"{where}.cap")
        if cap < 1:
            raise WorkspaceError(f"{where}.cap: must be positive")
        ws.groups[name] = NamedGroup(value["lattice"], tuple(gen_names), cap)
    return ws


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise WorkspaceError(f"{where}: expected a list")
    return value


def _reject_duplicate_names(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise WorkspaceError(f"duplicate name {key!r}")
        out[key] = value
    return out


def load_workspace(path: str | None) -> Workspace:
    """Load a workspace file; None yields the builtins-only workspace."""
    if path is None:
        return Workspace()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_reject_duplicate_names)
    except OSError as exc:
        raise WorkspaceError(f"cannot read workspace file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"workspace file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"workspace file is not valid JSON: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise WorkspaceError("workspace file nests arrays or objects too deeply") from None
    return parse_workspace(data)
