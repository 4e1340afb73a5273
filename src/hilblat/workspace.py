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
location.  Looking up a name that is not a str, such as
``Workspace().lattice(5)``, raises WorkspaceError("unknown lattice 5").
"""

from __future__ import annotations

import json
import re

from .core import _INT, Lattice, Matrix, Vector, _Record
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

_DOUADY_RE = re.compile(r"DOUADY\((-?\d+)\)")
# the five sections, in the order they are checked and parsed
_SECTIONS = ("lattices", "vectors", "sublattices", "isometries", "groups")
# a str encodes as UTF-8 unless it holds a surrogate code point
_SURROGATE = re.compile("[\ud800-\udfff]")

LatticeEntry = Lattice | ExceptionalPair


class WorkspaceError(ValueError):
    """The workspace file is malformed or a name does not resolve."""


def _show(value) -> str:
    """repr(value), for a message naming a value that need not be a str.
    An int with more digits than sys.get_int_max_str_digits() allows, whose
    repr raises, is named by its digit count instead, also inside a list,
    tuple or dict; a value of any other type whose repr raises is named by
    its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            digits = int(abs(value).bit_length() * 0.30102999566398120)  # the count or one less
            return f"<an integer of {digits + (abs(value) >= 10**digits)} digits>"
        if isinstance(value, dict):
            return "{" + ", ".join(f"{_show(k)}: {_show(v)}" for k, v in value.items()) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(map(_show, value)) + "]"
        if isinstance(value, tuple):
            return "(" + ", ".join(map(_show, value)) + ("," if len(value) == 1 else "") + ")"
        return f"<a {type(value).__name__} that cannot be shown>"


def _show_keys(keys) -> str:
    """The keys as a list in a fixed order: the str keys sorted, then any
    others sorted by their text."""
    return _show(sorted(keys, key=lambda k: (0, k) if isinstance(k, str) else (1, _show(k))))


def _int(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?\d+", value):
        try:
            return int(value)
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise WorkspaceError(f"{where}: {exc}") from None
    raise WorkspaceError(f"{where}: expected an integer, got {_show(value)}")


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
        n = _int(m.group(1), name)
        if n < 2:
            raise WorkspaceError(f"{name}: the number of points must be >= 2")
        return douady_lattice(n)
    return None


class Workspace(_Record):
    """The named entries of a workspace file, one dict per section.  Unlike
    the other records it is mutable, and so unhashable."""

    lattices: dict[str, LatticeEntry]
    vectors: dict[str, NamedVector]
    sublattices: dict[str, NamedSublattice]
    isometries: dict[str, NamedIsometry]
    groups: dict[str, NamedGroup]

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

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
            f"lattice {_show(name)} has no designated exceptional class"
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
    it to.  A name that is not a str is unknown."""
    if isinstance(name, str):
        if name in entries:
            return entries[name]
        found = builtin(name) if builtin else None
        if found is not None:
            return found
    raise WorkspaceError(f"unknown {kind} {_show(name)}")


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
        raise WorkspaceError(f"{where}: unknown keys {_show_keys(unknown)}")
    if "gram" not in value:
        raise WorkspaceError(f"{where}: missing 'gram'")
    gram = _matrix(value["gram"], f"{where}.gram")
    try:
        lattice = Lattice(len(gram), gram)
    except ValueError as exc:
        raise WorkspaceError(f"{where}.gram: {exc}") from exc
    if "e" not in value:
        return lattice
    e = _vector(value["e"], f"{where}.e")
    try:
        return ExceptionalPair(lattice, e)
    except ValueError as exc:
        raise WorkspaceError(f"{where}.e: {exc}") from exc


def parse_workspace(data) -> Workspace:
    """Build a Workspace from decoded JSON, validating structure and references."""
    if not isinstance(data, dict):
        raise WorkspaceError("workspace must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise WorkspaceError(f"unknown top-level keys {_show_keys(unknown)}")
    for key in _SECTIONS:
        section = data.get(key, {})
        if not isinstance(section, dict):
            raise WorkspaceError(f"{key}: expected an object of named entries")
        for name in section:
            if not isinstance(name, str) or _SURROGATE.search(name):
                raise WorkspaceError(f"{key}: name {_show(name)} is not Unicode text")
    ws = Workspace()
    for name, value in data.get("lattices", {}).items():
        ws.lattices[name] = _parse_lattice(name, value)

    def _resolved_rank(lattice_name, where: str) -> int:
        if not isinstance(lattice_name, str):
            raise WorkspaceError(
                f"{where}.lattice: expected a lattice name, got {_show(lattice_name)}"
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
                raise WorkspaceError(f"{where}: unknown generator {_show(gen)}")
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
    except WorkspaceError:  # a duplicate name, raised by the decoder's hook
        raise
    except ValueError as exc:  # a number with more digits than the int <-> str cap
        raise WorkspaceError(f"workspace file {path}: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise WorkspaceError("workspace file nests arrays or objects too deeply") from None
    return parse_workspace(data)
