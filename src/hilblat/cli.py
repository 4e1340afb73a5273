"""Deterministic command-line front end.

A command is declared once, in ``_COMMANDS``: its name, help, positional
arguments and payload builder.  Each command builds one JSON payload: each
positional argument is echoed in it under its own name, as the string
given, and the builder adds what it computes.  Integer arguments are
written as workspace integers are, an optional minus sign and ASCII
digits; ``solve-index`` reads them itself and echoes the ints.  ``--json``
prints the payload; otherwise ``_text`` renders it, one line form per
payload key, so the two outputs carry the same facts.  Reports go to
standard out, diagnostics to standard error.  Identical inputs produce
byte-identical reports.

Exit codes: 0 on success, 2 on input or parse errors (argument, file,
encoding, JSON or workspace structure), 3 on mathematical precondition
failures.  A standard out closed by its reader (``hilblat ... | head``)
also exits 0, silently: the computation succeeded, and what is lost is
output the reader chose not to read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    Isometry,
    Lattice,
    LatticeError,
    Sublattice,
    discriminant,
    isometry_violation,
    norm,
    orthogonal_complement,
    signature,
)
from .douady import (
    DouadyLattice,
    ExceptionalPair,
    extract_surface_isometry,
    index_norm_solutions,
    is_natural_on_lattice,
    pullback_decomposition,
)
from .groups import (
    NSClassification,
    closure,
    is_negative_definite,
    ns_classification,
    verify_pair_properties,
)
from .workspace import Workspace, WorkspaceError, _int, load_workspace


def fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _entry_on(ws: Workspace, kind: str, name: str, lattice_name: str):
    """The workspace's ``kind`` ("sublattice" or "isometry") called ``name``,
    which must be declared on the lattice called ``lattice_name``."""
    entry = getattr(ws, kind)(name)
    if entry.lattice != lattice_name:
        verb = "lives in" if kind == "sublattice" else "acts on"
        raise WorkspaceError(f"{kind} {name!r} {verb} {entry.lattice!r}, not {lattice_name!r}")
    return entry


def _named_sublattice(
    ws: Workspace, lattice_name: str, sub_name: str
) -> tuple[Lattice, Sublattice]:
    L = ws.lattice(lattice_name)
    entry = _entry_on(ws, "sublattice", sub_name, lattice_name)
    return L, Sublattice(L, entry.columns)


def _named_isometry(ws: Workspace, args) -> tuple[ExceptionalPair, Isometry]:
    """The lattice and the isometry named on the command line; the matrix
    is checked once, here."""
    target = ws.exceptional(args.lattice)
    entry = _entry_on(ws, "isometry", args.isometry, args.lattice)
    return target, Isometry(target.lattice, entry.matrix)


def _index_body(target: ExceptionalPair, f: Isometry) -> dict:
    """The index lam, the same Fraction as index_invariant's (printed as
    "p/q", or "p" when whole), and d, from one reading of f(e)."""
    dec = pullback_decomposition(target, f)
    return {"lambda": str(dec.lam), "d": [int(x) for x in dec.d]}


def _moved_class(target: ExceptionalPair, f: Isometry) -> dict:
    """The image of the moved class: delta on a Douady lattice, e otherwise."""
    if isinstance(target, DouadyLattice):
        moved, image = "delta", f.apply(target.delta)
    else:
        moved, image = "e", f.apply(target.e)
    return {"moved_class": moved, "image": [int(x) for x in image]}


def _group_body(ws: Workspace, name: str) -> dict:
    entry = ws.group(name)
    L = ws.lattice(entry.lattice)
    gens = [ws.isometry(g).matrix for g in entry.generators]
    G = closure(L, gens, cap=entry.cap)
    rep = verify_pair_properties(G)

    def block(sub: Sublattice, gram_det: int, nondegenerate: bool) -> dict:
        return {
            "rank": sub.rank,
            "basis": [list(v) for v in sub.basis],
            "gram_det": gram_det,
            "negative_definite": is_negative_definite(sub),
            "nondegenerate": nondegenerate,
        }

    return {
        "order": G.order,
        "invariant": block(
            rep.invariant, rep.invariant_gram_det, rep.invariant_nondegenerate
        ),
        "coinvariant": block(
            rep.coinvariant, rep.coinvariant_gram_det, rep.coinvariant_nondegenerate
        ),
        "checks": {
            # L^G meets L_G in the radical of q on L^G, so this is the
            # same fact; the key stays so that the report does not change
            "intersection_trivial": rep.invariant_nondegenerate,
            "invariant_nondegenerate": rep.invariant_nondegenerate,
            "coinvariant_nondegenerate": rep.coinvariant_nondegenerate,
        },
    }


def _classification(cls: NSClassification) -> dict:
    return {
        "type": cls.ns_type.value,
        "ns_signature": list(cls.ns_signature),
        "tr_signature": list(cls.tr_signature),
        "expected_tr_signature": list(cls.expected_tr_signature),
        "companion_ok": cls.companion_ok,
    }


def cmd_signature(ws: Workspace, args) -> dict:
    return {"signature": list(signature(ws.lattice(args.lattice)))}


def cmd_complement(ws: Workspace, args) -> dict:
    comp = orthogonal_complement(*_named_sublattice(ws, args.lattice, args.sublattice))
    return {"rank": comp.rank, "basis": [list(v) for v in comp.basis]}


def cmd_isometry_check(ws: Workspace, args) -> dict:
    L = ws.lattice(args.lattice)
    entry = _entry_on(ws, "isometry", args.isometry, args.lattice)
    violation = isometry_violation(L, entry.matrix)
    return {"is_isometry": violation is None, "violation": violation}


def cmd_index(ws: Workspace, args) -> dict:
    return _index_body(*_named_isometry(ws, args))


def cmd_natural_check(ws: Workspace, args) -> dict:
    target, f = _named_isometry(ws, args)
    if is_natural_on_lattice(target, f):
        phi = extract_surface_isometry(target, f)
        return {"natural": True, "surface_block": [list(row) for row in phi.matrix]}
    return {"natural": False, **_moved_class(target, f)}


def cmd_invariant(ws: Workspace, args) -> dict:
    return _group_body(ws, args.group)


def cmd_classify(ws: Workspace, args) -> dict:
    return _classification(
        ns_classification(*_named_sublattice(ws, args.lattice, args.sublattice))
    )


def cmd_solve_index(ws: Workspace, args) -> dict:
    """Its three arguments are read as workspace integers are, and returned
    as ints in place of the echoed strings."""
    numbers = {name: _int(getattr(args, name), name) for name in args.positionals}
    try:
        solutions = index_norm_solutions(*numbers.values())
    except LatticeError as exc:  # a bad command-line argument: usage error
        raise WorkspaceError(str(exc)) from None
    return {**numbers, "solutions": [list(pair) for pair in solutions]}


def _report_lattice(ws: Workspace, name: str) -> dict:
    entry = ws.entry(name)
    L = ws.lattice(name)
    item = {"signature": list(signature(L)), "discriminant": discriminant(L)}
    if isinstance(entry, ExceptionalPair):
        item["q_e"] = norm(L, entry.e)
    if isinstance(entry, DouadyLattice):
        item["q_delta"] = norm(L, entry.delta)
    return item


def _report_vector(ws: Workspace, name: str) -> dict:
    entry = ws.vector(name)
    return {"lattice": entry.lattice, "q": norm(ws.lattice(entry.lattice), entry.coords)}


def _report_sublattice(ws: Workspace, name: str) -> dict:
    entry = ws.sublattice(name)
    L = ws.lattice(entry.lattice)
    try:
        sub = Sublattice(L, entry.columns)
    except LatticeError as exc:
        return {"lattice": entry.lattice, "error": str(exc)}
    item = {"lattice": entry.lattice, "rank": sub.rank, "saturated": sub.saturated}
    try:
        cls = ns_classification(L, sub)
    except LatticeError as exc:
        item["classification_error"] = str(exc)
        comp = orthogonal_complement(L, sub)
    else:
        item.update(_classification(cls))
        comp = cls.transcendental
    item["complement_rank"] = comp.rank
    item["complement_basis"] = [list(v) for v in comp.basis]
    return item


def _report_isometry(ws: Workspace, name: str) -> dict:
    entry = ws.isometry(name)
    L = ws.lattice(entry.lattice)
    violation = isometry_violation(L, entry.matrix)
    item = {"lattice": entry.lattice, "is_isometry": violation is None}
    if violation is not None:
        item["violation"] = violation
        return item
    target = ws.entry(entry.lattice)
    if isinstance(target, ExceptionalPair):
        f = Isometry._trusted(L, entry.matrix)  # checked just above
        item.update(_index_body(target, f), natural=is_natural_on_lattice(target, f))
        if not item["natural"]:
            item.update(_moved_class(target, f))
    return item


def _report_group(ws: Workspace, name: str) -> dict:
    entry = ws.group(name)
    try:
        return {"lattice": entry.lattice, **_group_body(ws, name)}
    except LatticeError as exc:
        return {"lattice": entry.lattice, "error": str(exc)}


# (kind, Workspace section, item builder), in report order.
_REPORT = (
    ("lattice", "lattices", _report_lattice),
    ("vector", "vectors", _report_vector),
    ("sublattice", "sublattices", _report_sublattice),
    ("isometry", "isometries", _report_isometry),
    ("group", "groups", _report_group),
)


def cmd_report(ws: Workspace, args) -> dict:
    return {
        "items": [
            {"kind": kind, "name": name, **build(ws, name)}
            for kind, section, build in _REPORT
            for name in sorted(getattr(ws, section))
        ]
    }


def _header(kind: str, item: dict) -> str:
    if "lattice" not in item:
        return f"== {kind} {item['name']} =="
    where = "in" if kind in ("vector", "sublattice") else "on"
    return f"== {kind} {item['name']} ({where} {item['lattice']}) =="


def _each(template: str):
    """One line per row of a list of vectors."""
    return lambda rows, payload: [template.format(fmt_vec(row)) for row in rows]


def _block(prefix: str):
    """A nested payload, each of its lines under a label."""
    return lambda block, payload: [prefix + line for line in _text(block)]


# The text form of each payload key, in output order.  A string is a
# template for the value (a list prints as a vector), a triple is a
# template and its words for True and False, a callable gets the value
# and the whole payload.  Keys absent here are JSON-only: the names,
# "moved_class", "d2" and "bound" (read by the forms of "image" and "n"),
# "expected_tr_signature" and "nondegenerate".  A None value prints
# nothing.
_TEXT = (
    ("kind", _header),
    ("error", "error: {}"),
    ("n", lambda n, p: f"n = {n}, d2 = {p['d2']}, bound = {p['bound']}"),
    ("solutions", lambda s, p: [f"solutions: {len(s)}"] + [fmt_vec(x) for x in s]),
    ("signature", "signature: {}"),
    ("discriminant", "discriminant: {}"),
    ("q_e", "q(e) = {}"),
    ("q_delta", "q(delta) = {}"),
    ("q", "q = {}"),
    ("order", "order: {}"),
    ("rank", "rank: {}"),
    ("basis", _each("basis: {}")),
    ("gram_det", "gram det: {}"),
    ("negative_definite", ("negative definite: {}", "yes", "no")),
    ("invariant", _block("invariant ")),
    ("coinvariant", _block("coinvariant ")),
    ("checks", _block("")),
    ("intersection_trivial", ("intersection trivial: {}", "pass", "fail")),
    ("invariant_nondegenerate", ("invariant form nondegenerate: {}", "pass", "fail")),
    ("coinvariant_nondegenerate", ("coinvariant form nondegenerate: {}", "pass", "fail")),
    ("saturated", ("saturated: {}", "yes", "no")),
    ("type", "type: {}"),
    ("ns_signature", "NS signature: {}"),
    ("tr_signature", "Tr signature: {}"),
    ("companion_ok", ("companion pattern: {}", "ok", "mismatch")),
    ("classification_error", "classification error: {}"),
    ("complement_rank", "complement rank: {}"),
    ("complement_basis", _each("complement basis: {}")),
    ("is_isometry", ("{}", "ISOMETRY", "NOT-ISOMETRY")),
    ("violation", "violation: {}"),
    ("lambda", "lambda = {}"),
    ("d", "d = {}"),
    ("natural", ("{}", "NATURAL", "NOT-NATURAL")),
    ("surface_block", _each("surface: {}")),
    ("image", lambda image, p: f"f({p['moved_class']}) = {fmt_vec(image)}"),
    ("items", lambda items, p: [line for item in items for line in _text(item)]),
)


def _text(payload: dict) -> list[str]:
    """The text lines of a payload."""
    lines: list[str] = []
    for key, form in _TEXT:
        value = payload.get(key)
        if value is None:
            continue
        if isinstance(form, tuple):
            template, yes, no = form
            lines.append(template.format(yes if value else no))
        elif isinstance(form, str):
            lines.append(form.format(fmt_vec(value) if isinstance(value, list) else value))
        else:
            out = form(value, payload)
            lines += [out] if isinstance(out, str) else out
    return lines


# (name, help, positional arguments, payload builder), in --help order.
# _main echoes each positional argument in the payload under its own name,
# so a builder returns only what it computes, or an argument it has read.
_COMMANDS = (
    ("signature", "signature of a lattice",
     ("lattice",), cmd_signature),
    ("complement", "orthogonal complement of a sublattice",
     ("lattice", "sublattice"), cmd_complement),
    ("isometry-check", "verify the isometry conditions",
     ("lattice", "isometry"), cmd_isometry_check),
    ("index", "index and pullback decomposition",
     ("lattice", "isometry"), cmd_index),
    ("natural-check", "lattice-level naturality criterion",
     ("lattice", "isometry"), cmd_natural_check),
    ("invariant", "fixed and coinvariant sublattices",
     ("group",), cmd_invariant),
    ("classify", "hyperbolic/parabolic/elliptic type",
     ("lattice", "sublattice"), cmd_classify),
    ("solve-index", "solve the index norm equation",
     ("n", "d2", "bound"), cmd_solve_index),
    ("report", "run every applicable check in the workspace",
     (), cmd_report),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", metavar="FILE", default=None)
    common.add_argument("--json", action="store_true", dest="as_json")
    parser = argparse.ArgumentParser(
        prog="hilblat",
        description="Exact lattice computations for K3 surfaces and their "
        "Douady spaces of points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positionals, build in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=build, positionals=positionals)
    return parser


def main(argv=None) -> int:
    # Integers keep every digit from the input to the output.  Python
    # caps int <-> str conversion by default since 3.10.7; lift the cap
    # for this call only.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ws = load_workspace(args.workspace)
        payload = {
            "command": args.command,
            **{name: getattr(args, name) for name in args.positionals},
            **args.func(ws, args),
        }
    except WorkspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.as_json:
        out = json.dumps(payload, indent=2, sort_keys=True)
    else:
        out = "\n".join(_text(payload))
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard out; the result was computed, so this
        # is exit 0.  Point the descriptor at devnull so that the flush at
        # interpreter exit does not fail again (as the signal module's
        # documentation advises).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
