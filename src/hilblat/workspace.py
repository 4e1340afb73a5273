"""Workspace files: named lattices, vectors, sublattices, isometries and
groups, described in JSON.

Top-level keys (all optional): "lattices", "vectors", "sublattices",
"isometries", "groups".  Integer entries may be JSON numbers or strings of
ASCII decimal digits after an optional minus sign (strings protect
arbitrary precision).
parse_workspace takes the text of the document, load_workspace the path
of a UTF-8 file holding it.

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
class built in.  A name must be Unicode text: a string with no lone
surrogate, so that every report can print it.  Structural problems (a file
that is not UTF-8, bad or too deeply nested JSON, unresolved or non-string
names, ragged or non-integer matrices, length mismatches) raise
WorkspaceError, and so does an integer longer than
sys.get_int_max_str_digits() digits unless the caller lifts that cap, as
the command line does; mathematical failures surface later, when an
operation runs.  A Gram matrix that is not square, or an "e" that is not
a nonzero multiple of the last basis vector of the right length, is
refused with the message of Lattice or ExceptionalPair after the entry's
location.  A lookup such as Workspace.lattice refuses a name that is not a
str with a WorkspaceError that names its type.
"""

from __future__ import annotations

import json
import re

from .core import Lattice, LatticeError, Matrix, Vector, _all_int, _is_int, _Record
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

# the text of an integer, in a workspace and on the command line: an
# optional minus sign and ASCII decimal digits
_INT_TEXT = "-?[0-9]+"
_DOUADY_RE = re.compile(rf"DOUADY\(({_INT_TEXT})\)")
# the five sections, in the order they are checked and parsed
_SECTIONS = ("lattices", "vectors", "sublattices", "isometries", "groups")
# a str encodes as UTF-8 unless it holds a surrogate code point
_SURROGATE = re.compile("[\ud800-\udfff]")

LatticeEntry = Lattice | ExceptionalPair


class WorkspaceError(ValueError):
    """The workspace file is malformed or a name does not resolve."""


def _int(value, where: str) -> int:
    """``value`` as an int: an int (not a bool), or a str of the form
    ``_INT_TEXT``; ``where`` names it in the error."""
    if _is_int(value):
        return value
    if isinstance(value, str) and re.fullmatch(_INT_TEXT, value):
        try:
            return int(value)
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise WorkspaceError(f"{where}: {exc}") from None
    raise WorkspaceError(f"{where}: expected an integer, got {value!r}")


def _vector(value, where: str) -> Vector:
    if not isinstance(value, list):
        raise WorkspaceError(f"{where}: expected a list of integers")
    # a list of JSON numbers needs no per-entry check
    if _all_int(value):
        return tuple(value)
    return tuple(_int(x, where) for x in value)


def _matrix(value, where: str) -> Matrix:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise WorkspaceError(f"{where}: expected a list of rows")
    rows = tuple(_vector(r, where) for r in value)
    if len({len(r) for r in rows}) > 1:
        raise WorkspaceError(f"{where}: rows have unequal lengths")
    return rows


class NamedVector(_Record):
    lattice: str
    coords: Vector


class NamedSublattice(_Record):
    lattice: str
    columns: tuple[Vector, ...]


class NamedIsometry(_Record):
    lattice: str
    matrix: Matrix


class NamedGroup(_Record):
    lattice: str
    generators: tuple[str, ...]
    cap: int


_BUILTINS = {"U": hyperbolic_plane, "E8_MINUS": e8_minus, "K3": k3_lattice}


def builtin_lattice(name: str) -> LatticeEntry | None:
    """Resolve a builtin lattice name, or None when the name is not builtin."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    m = _DOUADY_RE.fullmatch(name)
    if m:
        try:
            return douady_lattice(_int(m.group(1), name))
        except LatticeError as exc:
            raise WorkspaceError(f"{name}: {exc}") from exc
    return None


class Workspace(_Record):
    """The named entries of a workspace file, one dict per section.  Its
    fields are dicts, so it is unhashable; parse_workspace fills them in
    place."""

    lattices: dict[str, LatticeEntry]
    vectors: dict[str, NamedVector]
    sublattices: dict[str, NamedSublattice]
    isometries: dict[str, NamedIsometry]
    groups: dict[str, NamedGroup]

    def __init__(self, *args, **sections):
        """Each section that is not given starts as a new empty dict."""
        empty = {name: {} for name in self._fields[len(args):] if name not in sections}
        super().__init__(*args, **empty, **sections)

    def entry(self, name: str) -> LatticeEntry:
        """Resolve a lattice name: workspace entries first, then builtins."""
        return _named(self.lattices, "lattice", name, builtin_lattice)

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
        return _named(self.vectors, "vector", name)

    def sublattice(self, name: str) -> NamedSublattice:
        return _named(self.sublattices, "sublattice", name)

    def isometry(self, name: str) -> NamedIsometry:
        return _named(self.isometries, "isometry", name)

    def group(self, name: str) -> NamedGroup:
        return _named(self.groups, "group", name)


def _named(entries: dict, kind: str, name: str, builtin=None):
    """The entry called ``name``, else what ``builtin``, when given, resolves
    it to.  A name that is not a str is unknown, and named by its type."""
    if not isinstance(name, str):
        raise WorkspaceError(f"unknown {kind}: a name must be a str, not {type(name).__name__}")
    if name in entries:
        return entries[name]
    found = builtin(name) if builtin else None
    if found is None:
        raise WorkspaceError(f"unknown {kind} {name!r}")
    return found


def _parse_lattice(name: str, value) -> LatticeEntry:
    where = f"lattices.{name}"
    if isinstance(value, str):
        try:
            entry = builtin_lattice(value)
        except WorkspaceError as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc
        if entry is None:
            raise WorkspaceError(f"{where}: unknown builtin lattice {value!r}")
        return entry
    if not isinstance(value, dict):
        raise WorkspaceError(f"{where}: expected a builtin name or an object")
    unknown = set(value) - {"gram", "e"}
    if unknown:
        raise WorkspaceError(f"{where}: unknown keys {sorted(unknown)!r}")
    if "gram" not in value:
        raise WorkspaceError(f"{where}: missing 'gram'")
    gram = _matrix(value["gram"], f"{where}.gram")
    try:
        lattice = Lattice(gram)
    except ValueError as exc:
        raise WorkspaceError(f"{where}.gram: {exc}") from exc
    if "e" not in value:
        return lattice
    e = _vector(value["e"], f"{where}.e")
    try:
        return ExceptionalPair(lattice, e)
    except ValueError as exc:
        raise WorkspaceError(f"{where}.e: {exc}") from exc


def _reject_duplicate_names(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise WorkspaceError(f"duplicate name {key!r}")
        out[key] = value
    return out


def parse_workspace(text: str) -> Workspace:
    """Build a Workspace from the text of a JSON document, validating its
    structure and references."""
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_names)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"workspace file is not valid JSON: {exc}") from exc
    except WorkspaceError:  # a duplicate name, raised by the decoder's hook
        raise
    except ValueError as exc:  # a number with more digits than the int <-> str cap
        raise WorkspaceError(f"workspace file: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise WorkspaceError("workspace file nests arrays or objects too deeply") from None
    if not isinstance(data, dict):
        raise WorkspaceError("workspace must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise WorkspaceError(f"unknown top-level keys {sorted(unknown)!r}")
    for key in _SECTIONS:
        section = data.get(key, {})
        if not isinstance(section, dict):
            raise WorkspaceError(f"{key}: expected an object of named entries")
        for name in section:
            if _SURROGATE.search(name):
                raise WorkspaceError(f"{key}: name {name!r} is not Unicode text")
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

    def entries(section: str, payload: str):
        """(name, where, lattice name, rank, payload) of each entry of a
        section whose entries hold exactly 'lattice' and ``payload``."""
        for name, value in data.get(section, {}).items():
            where = f"{section}.{name}"
            if not isinstance(value, dict) or set(value) != {"lattice", payload}:
                raise WorkspaceError(f"{where}: expected keys 'lattice' and '{payload}'")
            lattice = value["lattice"]
            yield name, where, lattice, _resolved_rank(lattice, where), value[payload]

    for name, where, lattice, rank, coords in entries("vectors", "coords"):
        coords = _vector(coords, f"{where}.coords")
        if len(coords) != rank:
            raise WorkspaceError(f"{where}: vector length does not match rank {rank}")
        ws.vectors[name] = NamedVector(lattice, coords)
    for name, where, lattice, rank, columns in entries("sublattices", "columns"):
        columns = tuple(_vector(c, f"{where}.columns") for c in _as_list(columns, where))
        if any(len(c) != rank for c in columns):
            raise WorkspaceError(f"{where}: column length does not match rank {rank}")
        ws.sublattices[name] = NamedSublattice(lattice, columns)
    for name, where, lattice, rank, matrix in entries("isometries", "matrix"):
        matrix = _matrix(matrix, f"{where}.matrix")
        if len(matrix) != rank or (matrix and len(matrix[0]) != rank):
            raise WorkspaceError(f"{where}.matrix: expected a {rank}x{rank} matrix")
        ws.isometries[name] = NamedIsometry(lattice, matrix)
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


def load_workspace(path: str | None) -> Workspace:
    """Load a workspace file; None yields the builtins-only workspace."""
    if path is None:
        return Workspace()
    try:
        # newline="" keeps "\r" as it is, so the decoder's (char N) is the
        # file's own offset; in valid JSON "\r" is only ever whitespace
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise WorkspaceError(f"cannot read workspace file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"workspace file is not UTF-8 text: {exc}") from exc
    return parse_workspace(text)
