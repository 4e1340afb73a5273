"""Deterministic command-line front end.

Reports go to standard out, diagnostics to standard error.  Exit codes:
0 on success, 2 on input or parse errors, 3 on mathematical precondition
failures.  Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

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
    index_invariant,
    index_norm_solutions,
    is_natural_on_lattice,
    pullback_decomposition,
)
from .groups import (
    closure,
    is_negative_definite,
    ns_classification,
    verify_pair_properties,
)
from .workspace import Workspace, WorkspaceError, load_workspace


def fmt_frac(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def fmt_sig(sig) -> str:
    return f"({sig.pos}, {sig.zero}, {sig.neg})"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _passfail(flag: bool) -> str:
    return "pass" if flag else "fail"


def _named_sublattice(ws: Workspace, lattice_name: str, sub_name: str) -> Sublattice:
    entry = ws.sublattice(sub_name)
    if entry.lattice != lattice_name:
        raise WorkspaceError(
            f"sublattice {sub_name!r} lives in {entry.lattice!r}, not {lattice_name!r}"
        )
    return Sublattice(ws.lattice(lattice_name), entry.columns)


def _named_isometry_matrix(ws: Workspace, lattice_name: str, iso_name: str):
    entry = ws.isometry(iso_name)
    if entry.lattice != lattice_name:
        raise WorkspaceError(
            f"isometry {iso_name!r} acts on {entry.lattice!r}, not {lattice_name!r}"
        )
    return entry.matrix


def cmd_signature(ws: Workspace, args):
    L = ws.lattice(args.lattice)
    sig = signature(L)
    lines = [f"signature: {fmt_sig(sig)}"]
    payload = {
        "command": "signature",
        "lattice": args.lattice,
        "signature": list(sig),
    }
    return lines, payload


def cmd_complement(ws: Workspace, args):
    L = ws.lattice(args.lattice)
    sub = _named_sublattice(ws, args.lattice, args.sublattice)
    comp = orthogonal_complement(L, sub)
    lines = [f"rank: {comp.rank}"]
    lines += [f"basis: {fmt_vec(v)}" for v in comp.basis]
    payload = {
        "command": "complement",
        "lattice": args.lattice,
        "sublattice": args.sublattice,
        "rank": comp.rank,
        "basis": [list(v) for v in comp.basis],
    }
    return lines, payload


def cmd_isometry_check(ws: Workspace, args):
    L = ws.lattice(args.lattice)
    matrix = _named_isometry_matrix(ws, args.lattice, args.isometry)
    violation = isometry_violation(L, matrix)
    if violation is None:
        lines = ["ISOMETRY"]
    else:
        lines = ["NOT-ISOMETRY", f"violation: {violation}"]
    payload = {
        "command": "isometry-check",
        "lattice": args.lattice,
        "isometry": args.isometry,
        "is_isometry": violation is None,
        "violation": violation,
    }
    return lines, payload


def _index_body(target: ExceptionalPair, f: Isometry):
    lam = index_invariant(target, f)
    dec = pullback_decomposition(target, f)
    lines = [f"lambda = {fmt_frac(lam)}", f"d = {fmt_vec(dec.d)}"]
    return lines, {"lambda": fmt_frac(lam), "d": [int(x) for x in dec.d]}


def _not_natural_body(target: ExceptionalPair, f: Isometry):
    """The image of the moved class: delta on a Douady lattice, e otherwise."""
    if isinstance(target, DouadyLattice):
        moved, image = "delta", f.apply(target.delta)
    else:
        moved, image = "e", f.apply(target.e)
    lines = ["NOT-NATURAL", f"f({moved}) = {fmt_vec(image)}"]
    return lines, {"moved_class": moved, "image": [int(x) for x in image]}


def _named_isometry(ws: Workspace, args) -> tuple[ExceptionalPair, Isometry]:
    """The lattice and the isometry named on the command line; the matrix
    is checked once, here."""
    target = ws.exceptional(args.lattice)
    matrix = _named_isometry_matrix(ws, args.lattice, args.isometry)
    return target, Isometry(target.lattice, matrix)


def cmd_index(ws: Workspace, args):
    target, f = _named_isometry(ws, args)
    lines, body = _index_body(target, f)
    payload = {
        "command": "index",
        "lattice": args.lattice,
        "isometry": args.isometry,
        **body,
    }
    return lines, payload


def cmd_natural_check(ws: Workspace, args):
    target, f = _named_isometry(ws, args)
    payload = {
        "command": "natural-check",
        "lattice": args.lattice,
        "isometry": args.isometry,
        "natural": is_natural_on_lattice(target, f),
    }
    if payload["natural"]:
        phi = extract_surface_isometry(target, f)
        lines = ["NATURAL"]
        lines += [f"surface: {fmt_vec(row)}" for row in phi.matrix]
        payload["surface_block"] = [list(row) for row in phi.matrix]
    else:
        lines, body = _not_natural_body(target, f)
        payload.update(body)
    return lines, payload


def _group_body(ws: Workspace, name: str):
    entry = ws.group(name)
    L = ws.lattice(entry.lattice)
    gens = [ws.isometry(g).matrix for g in entry.generators]
    G = closure(L, gens, cap=entry.cap)
    rep = verify_pair_properties(G)
    lines = [f"order: {G.order}"]
    blocks = []
    for label, sub, gram_det, nondeg in (
        ("invariant", rep.invariant, rep.invariant_gram_det, rep.invariant_nondegenerate),
        ("coinvariant", rep.coinvariant, rep.coinvariant_gram_det, rep.coinvariant_nondegenerate),
    ):
        negdef = is_negative_definite(sub)
        lines.append(f"{label} rank: {sub.rank}")
        lines += [f"{label} basis: {fmt_vec(v)}" for v in sub.basis]
        lines.append(f"{label} gram det: {gram_det}")
        lines.append(f"{label} negative definite: {_yesno(negdef)}")
        blocks.append(
            {
                "rank": sub.rank,
                "basis": [list(v) for v in sub.basis],
                "gram_det": gram_det,
                "negative_definite": negdef,
                "nondegenerate": nondeg,
            }
        )
    lines.append(f"intersection trivial: {_passfail(rep.intersection_trivial)}")
    lines.append(f"invariant form nondegenerate: {_passfail(rep.invariant_nondegenerate)}")
    lines.append(f"coinvariant form nondegenerate: {_passfail(rep.coinvariant_nondegenerate)}")
    payload = {
        "order": G.order,
        "invariant": blocks[0],
        "coinvariant": blocks[1],
        "checks": {
            "intersection_trivial": rep.intersection_trivial,
            "invariant_nondegenerate": rep.invariant_nondegenerate,
            "coinvariant_nondegenerate": rep.coinvariant_nondegenerate,
        },
    }
    return lines, payload


def cmd_invariant(ws: Workspace, args):
    lines, payload = _group_body(ws, args.group)
    payload = {"command": "invariant", "group": args.group, **payload}
    return lines, payload


def _classification_body(L: Lattice, sub: Sublattice):
    cls = ns_classification(L, sub)
    lines = [
        f"type: {cls.ns_type.value}",
        f"NS signature: {fmt_sig(cls.ns_signature)}",
        f"Tr signature: {fmt_sig(cls.tr_signature)}",
        f"companion pattern: {'ok' if cls.companion_ok else 'mismatch'}",
    ]
    payload = {
        "type": cls.ns_type.value,
        "ns_signature": list(cls.ns_signature),
        "tr_signature": list(cls.tr_signature),
        "expected_tr_signature": list(cls.expected_tr_signature),
        "companion_ok": cls.companion_ok,
    }
    return lines, payload


def cmd_classify(ws: Workspace, args):
    L = ws.lattice(args.lattice)
    sub = _named_sublattice(ws, args.lattice, args.sublattice)
    lines, payload = _classification_body(L, sub)
    payload = {
        "command": "classify",
        "lattice": args.lattice,
        "sublattice": args.sublattice,
        **payload,
    }
    return lines, payload


def cmd_solve_index(ws: Workspace, args):
    try:
        solutions = index_norm_solutions(args.n, args.d2, args.bound)
    except LatticeError as exc:  # a bad command-line argument: usage error
        raise WorkspaceError(str(exc)) from None
    lines = [
        f"n = {args.n}, d2 = {args.d2}, bound = {args.bound}",
        f"solutions: {len(solutions)}",
    ]
    lines += [fmt_vec(pair) for pair in solutions]
    payload = {
        "command": "solve-index",
        "n": args.n,
        "d2": args.d2,
        "bound": args.bound,
        "solutions": [list(pair) for pair in solutions],
    }
    return lines, payload


def _report_lattice(ws: Workspace, name: str):
    entry = ws.entry(name)
    L = ws.lattice(name)
    lines = [f"== lattice {name} =="]
    item = {"kind": "lattice", "name": name}
    sig = signature(L)
    disc = discriminant(L)
    lines.append(f"signature: {fmt_sig(sig)}")
    lines.append(f"discriminant: {disc}")
    item["signature"] = list(sig)
    item["discriminant"] = disc
    if isinstance(entry, ExceptionalPair):
        qe = norm(L, entry.e)
        lines.append(f"q(e) = {qe}")
        item["q_e"] = qe
        if isinstance(entry, DouadyLattice):
            qd = norm(L, entry.delta)
            lines.append(f"q(delta) = {qd}")
            item["q_delta"] = qd
    return lines, item


def _report_sublattice(ws: Workspace, name: str):
    entry = ws.sublattice(name)
    L = ws.lattice(entry.lattice)
    lines = [f"== sublattice {name} (in {entry.lattice}) =="]
    item = {"kind": "sublattice", "name": name, "lattice": entry.lattice}
    try:
        sub = Sublattice(L, entry.columns)
    except LatticeError as exc:
        lines.append(f"error: {exc}")
        item["error"] = str(exc)
        return lines, item
    lines.append(f"rank: {sub.rank}")
    lines.append(f"saturated: {_yesno(sub.saturated)}")
    item["rank"] = sub.rank
    item["saturated"] = sub.saturated
    try:
        cls_lines, cls_payload = _classification_body(L, sub)
        lines += cls_lines
        item.update(cls_payload)
    except LatticeError as exc:
        lines.append(f"classification error: {exc}")
        item["classification_error"] = str(exc)
    comp = orthogonal_complement(L, sub)
    lines.append(f"complement rank: {comp.rank}")
    lines += [f"complement basis: {fmt_vec(v)}" for v in comp.basis]
    item["complement_rank"] = comp.rank
    item["complement_basis"] = [list(v) for v in comp.basis]
    return lines, item


def _report_isometry(ws: Workspace, name: str):
    entry = ws.isometry(name)
    L = ws.lattice(entry.lattice)
    lines = [f"== isometry {name} (on {entry.lattice}) =="]
    item = {"kind": "isometry", "name": name, "lattice": entry.lattice}
    violation = isometry_violation(L, entry.matrix)
    item["is_isometry"] = violation is None
    if violation is not None:
        lines += ["NOT-ISOMETRY", f"violation: {violation}"]
        item["violation"] = violation
        return lines, item
    lines.append("ISOMETRY")
    target = ws.entry(entry.lattice)
    if isinstance(target, ExceptionalPair):
        f = Isometry._trusted(L, entry.matrix)  # checked just above
        part, body = _index_body(target, f)
        lines += part
        item.update(body)
        item["natural"] = is_natural_on_lattice(target, f)
        if item["natural"]:
            lines.append("NATURAL")
        else:
            part, body = _not_natural_body(target, f)
            lines += part
            item.update(body)
    return lines, item


def _report_group(ws: Workspace, name: str):
    entry = ws.group(name)
    lines = [f"== group {name} (on {entry.lattice}) =="]
    item = {"kind": "group", "name": name, "lattice": entry.lattice}
    try:
        body_lines, payload = _group_body(ws, name)
        lines += body_lines
        item.update(payload)
    except LatticeError as exc:
        lines.append(f"error: {exc}")
        item["error"] = str(exc)
    return lines, item


def cmd_report(ws: Workspace, args):
    lines: list[str] = []
    items: list[dict] = []
    for name in sorted(ws.lattices):
        part, item = _report_lattice(ws, name)
        lines += part
        items.append(item)
    for name in sorted(ws.vectors):
        entry = ws.vector(name)
        L = ws.lattice(entry.lattice)
        q = norm(L, entry.coords)
        lines += [f"== vector {name} (in {entry.lattice}) ==", f"q = {q}"]
        items.append(
            {"kind": "vector", "name": name, "lattice": entry.lattice, "q": q}
        )
    for name in sorted(ws.sublattices):
        part, item = _report_sublattice(ws, name)
        lines += part
        items.append(item)
    for name in sorted(ws.isometries):
        part, item = _report_isometry(ws, name)
        lines += part
        items.append(item)
    for name in sorted(ws.groups):
        part, item = _report_group(ws, name)
        lines += part
        items.append(item)
    return lines, {"command": "report", "items": items}


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

    p = sub.add_parser("signature", parents=[common], help="signature of a lattice")
    p.add_argument("lattice")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser(
        "complement", parents=[common], help="orthogonal complement of a sublattice"
    )
    p.add_argument("lattice")
    p.add_argument("sublattice")
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser(
        "isometry-check", parents=[common], help="verify the isometry conditions"
    )
    p.add_argument("lattice")
    p.add_argument("isometry")
    p.set_defaults(func=cmd_isometry_check)

    p = sub.add_parser(
        "index", parents=[common], help="index and pullback decomposition"
    )
    p.add_argument("lattice")
    p.add_argument("isometry")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser(
        "natural-check", parents=[common], help="lattice-level naturality criterion"
    )
    p.add_argument("lattice")
    p.add_argument("isometry")
    p.set_defaults(func=cmd_natural_check)

    p = sub.add_parser(
        "invariant", parents=[common], help="fixed and coinvariant sublattices"
    )
    p.add_argument("group")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser(
        "classify", parents=[common], help="hyperbolic/parabolic/elliptic type"
    )
    p.add_argument("lattice")
    p.add_argument("sublattice")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "solve-index", parents=[common], help="solve the index norm equation"
    )
    p.add_argument("n", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("bound", type=int)
    p.set_defaults(func=cmd_solve_index)

    p = sub.add_parser(
        "report", parents=[common], help="run every applicable check in the workspace"
    )
    p.set_defaults(func=cmd_report)

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
        lines, payload = args.func(ws, args)
    except WorkspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
