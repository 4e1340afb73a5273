import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilblat
import hilblat.cli as cli
import hilblat.core as core
import hilblat.groups as groups
from hilblat import (
    LatticeError,
    Sublattice,
    WorkspaceError,
    closure,
    det,
    douady_lattice,
    e8_minus,
    hyperbolic_plane,
    identity_isometry,
    orthogonal_complement,
    parse_workspace,
)
from hilblat.cli import build_parser, main
from hilblat.workspace import builtin_lattice, load_workspace

SECTIONS = ("lattices", "vectors", "sublattices", "isometries", "groups")
QUARTIC = {"gram": [[4, 0], [0, -8]], "e": [0, 1]}
INVOLUTION = {"lattice": "quartic", "matrix": [[3, 4], [-2, -3]]}


def _workspace_file(tmp_path, data):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _with_quartic(**sections):
    return {"lattices": {"Q": QUARTIC}, **sections}


# (id, workspace, (lookup method, name) tried on the parsed workspace,
# exact WorkspaceError text)
STRUCTURAL_FAULTS = [
    # an entry is an object with exactly 'lattice' and its payload key
    ("vector-not-object", _with_quartic(vectors={"v": [1, 0]}), None,
     "vectors.v: expected keys 'lattice' and 'coords'"),
    ("vector-missing-key", _with_quartic(vectors={"v": {"lattice": "Q"}}), None,
     "vectors.v: expected keys 'lattice' and 'coords'"),
    ("vector-extra-key",
     _with_quartic(vectors={"v": {"lattice": "Q", "coords": [1, 0], "e": 1}}), None,
     "vectors.v: expected keys 'lattice' and 'coords'"),
    ("sublattice-keys",
     _with_quartic(sublattices={"s": {"lattice": "Q", "coords": [[1, 0]]}}), None,
     "sublattices.s: expected keys 'lattice' and 'columns'"),
    ("isometry-keys",
     _with_quartic(isometries={"f": {"lattice": "Q", "columns": [[1, 0]]}}), None,
     "isometries.f: expected keys 'lattice' and 'matrix'"),
    ("group-keys", _with_quartic(groups={"G": {"lattice": "Q"}}), None,
     "groups.G: expected keys 'lattice' and 'generators'"),
    ("group-extra-key",
     _with_quartic(groups={"G": {"lattice": "Q", "generators": [], "e": 1}}), None,
     "groups.G: unknown keys present"),
    # lattice references: not a string, or not resolvable
    ("vector-lattice-int", _with_quartic(vectors={"v": {"lattice": 5, "coords": [1, 0]}}),
     None, "vectors.v.lattice: expected a lattice name, got 5"),
    ("sublattice-lattice-null",
     _with_quartic(sublattices={"s": {"lattice": None, "columns": []}}), None,
     "sublattices.s.lattice: expected a lattice name, got None"),
    ("isometry-lattice-list",
     _with_quartic(isometries={"f": {"lattice": ["Q"], "matrix": []}}), None,
     "isometries.f.lattice: expected a lattice name, got ['Q']"),
    ("vector-unknown-lattice",
     _with_quartic(vectors={"v": {"lattice": "nope", "coords": [1, 0]}}), None,
     "vectors.v: unknown lattice 'nope'"),
    ("sublattice-douady-1",
     _with_quartic(sublattices={"s": {"lattice": "DOUADY(1)", "columns": []}}), None,
     "sublattices.s: DOUADY(1): the number of points n must be an integer >= 2"),
    ("isometry-unknown-lattice",
     _with_quartic(isometries={"f": {"lattice": "nope", "matrix": "x"}}), None,
     "isometries.f: unknown lattice 'nope'"),
    ("lattice-before-payload",
     _with_quartic(vectors={"v": {"lattice": "nope", "coords": "x"}}), None,
     "vectors.v: unknown lattice 'nope'"),
    ("unknown-builtin", {"lattices": {"L": "K3\n"}}, None,
     "lattices.L: unknown builtin lattice 'K3\\n'"),
    ("lattice-douady-1", {"lattices": {"L": "DOUADY(1)"}}, None,
     "lattices.L: DOUADY(1): the number of points n must be an integer >= 2"),
    # vector, column and matrix shapes
    ("coords-not-list", _with_quartic(vectors={"v": {"lattice": "Q", "coords": "1 0"}}),
     None, "vectors.v.coords: expected a list of integers"),
    ("coords-length", _with_quartic(vectors={"v": {"lattice": "Q", "coords": [1]}}),
     None, "vectors.v: vector length does not match rank 2"),
    ("columns-not-list",
     _with_quartic(sublattices={"s": {"lattice": "Q", "columns": {"a": 1}}}), None,
     "sublattices.s: expected a list"),
    ("column-not-list", _with_quartic(sublattices={"s": {"lattice": "Q", "columns": [1, 0]}}),
     None, "sublattices.s.columns: expected a list of integers"),
    ("column-length",
     _with_quartic(sublattices={"s": {"lattice": "Q", "columns": [[1, 0], [1]]}}), None,
     "sublattices.s: column length does not match rank 2"),
    ("column-entry-before-length",
     _with_quartic(sublattices={"s": {"lattice": "Q", "columns": [[1], [1.5, 0]]}}), None,
     "sublattices.s.columns: expected an integer, got 1.5"),
    ("matrix-not-rows", _with_quartic(isometries={"f": {"lattice": "Q", "matrix": [1, 0]}}),
     None, "isometries.f.matrix: expected a list of rows"),
    ("matrix-ragged",
     _with_quartic(isometries={"f": {"lattice": "Q", "matrix": [[1, 0], [0]]}}), None,
     "isometries.f.matrix: rows have unequal lengths"),
    ("matrix-rows",
     _with_quartic(isometries={"f": {"lattice": "Q", "matrix": [[1, 0, 0], [0, 1, 0]]}}),
     None, "isometries.f.matrix: expected a 2x2 matrix"),
    ("matrix-width", _with_quartic(isometries={"f": {"lattice": "Q", "matrix": [[1], [0]]}}),
     None, "isometries.f.matrix: expected a 2x2 matrix"),
    # bool and float entries
    ("coords-bool", _with_quartic(vectors={"v": {"lattice": "Q", "coords": [True, 0]}}),
     None, "vectors.v.coords: expected an integer, got True"),
    ("coords-float", _with_quartic(vectors={"v": {"lattice": "Q", "coords": [1.0, 0]}}),
     None, "vectors.v.coords: expected an integer, got 1.0"),
    ("column-float-string",
     _with_quartic(sublattices={"s": {"lattice": "Q", "columns": [["1.0", 0]]}}), None,
     "sublattices.s.columns: expected an integer, got '1.0'"),
    ("matrix-bool",
     _with_quartic(isometries={"f": {"lattice": "Q", "matrix": [[1, 0], [0, False]]}}),
     None, "isometries.f.matrix: expected an integer, got False"),
    ("gram-float", {"lattices": {"L": {"gram": [[1.5]]}}}, None,
     "lattices.L.gram: expected an integer, got 1.5"),
    ("gram-bool", {"lattices": {"L": {"gram": [[True]]}}}, None,
     "lattices.L.gram: expected an integer, got True"),
    ("cap-bool", _with_quartic(groups={"G": {"lattice": "Q", "generators": [], "cap": True}}),
     None, "groups.G.cap: expected an integer, got True"),
    ("cap-float", _with_quartic(groups={"G": {"lattice": "Q", "generators": [], "cap": 2.5}}),
     None, "groups.G.cap: expected an integer, got 2.5"),
    # lookups of names the workspace does not hold
    ("unknown-lattice", {}, ("lattice", "nope"), "unknown lattice 'nope'"),
    ("unknown-vector", {}, ("vector", "nope"), "unknown vector 'nope'"),
    ("unknown-sublattice", {}, ("sublattice", "nope"), "unknown sublattice 'nope'"),
    ("unknown-isometry", {}, ("isometry", "nope"), "unknown isometry 'nope'"),
    ("unknown-group", {}, ("group", "nope"), "unknown group 'nope'"),
    ("no-exceptional-class", {}, ("exceptional", "U"),
     "lattice 'U' has no designated exceptional class"),
]


class TestWorkspaceParsing:
    def test_builtins(self):
        assert builtin_lattice("U").rank == 2
        assert builtin_lattice("E8_MINUS").rank == 8
        assert builtin_lattice("K3").rank == 22
        assert builtin_lattice("DOUADY(3)").n == 3
        assert builtin_lattice("nope") is None
        # the whole name matches, trailing newline included
        assert builtin_lattice("DOUADY(2)\n") is None

    def test_douady_needs_two_points(self):
        with pytest.raises(WorkspaceError):
            builtin_lattice("DOUADY(1)")

    def test_decimal_strings_preserve_precision(self):
        big = 10**40
        ws = parse_workspace(json.dumps(
            {"lattices": {"L": {"gram": [[str(big)]]}}}
        ))
        assert ws.lattice("L").gram == ((big,),)

    def test_float_entries_rejected(self):
        with pytest.raises(WorkspaceError):
            parse_workspace(json.dumps({"lattices": {"L": {"gram": [[1.5]]}}}))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(WorkspaceError):
            parse_workspace(json.dumps({"lattices": {"L": {"gram": [[1, 0], [0]]}}}))

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(WorkspaceError):
            parse_workspace(json.dumps({"lattices": {"L": {"gram": [[0, 1], [2, 0]]}}}))

    def test_unresolved_reference_rejected(self):
        with pytest.raises(WorkspaceError):
            parse_workspace(json.dumps(
                {"vectors": {"v": {"lattice": "missing", "coords": [1, 0]}}}
            ))

    def test_vector_length_checked(self):
        with pytest.raises(WorkspaceError):
            parse_workspace(json.dumps(
                {
                    "lattices": {"quartic": QUARTIC},
                    "vectors": {"v": {"lattice": "quartic", "coords": [1]}},
                }
            ))

    def test_group_cap_defaults_to_the_closure_cap(self):
        ws = parse_workspace(json.dumps(
            {
                "lattices": {"plane": "U"},
                "isometries": {"swap": {"lattice": "plane", "matrix": [[0, 1], [1, 0]]}},
                "groups": {"G": {"lattice": "plane", "generators": ["swap"]}},
            }
        ))
        assert ws.group("G").cap == groups.DEFAULT_CLOSURE_CAP

    def test_group_generators_must_share_lattice(self):
        with pytest.raises(WorkspaceError):
            parse_workspace(json.dumps(
                {
                    "lattices": {"quartic": QUARTIC},
                    "isometries": {"inv": INVOLUTION},
                    "groups": {"G": {"lattice": "U", "generators": ["inv"]}},
                }
            ))

    def test_exceptional_resolution(self):
        ws = parse_workspace(json.dumps({"lattices": {"quartic": QUARTIC, "plane": "U"}}))
        assert ws.exceptional("quartic").e == (0, 1)
        assert ws.exceptional("DOUADY(2)").n == 2
        with pytest.raises(WorkspaceError):
            ws.exceptional("plane")

    def test_missing_file(self):
        with pytest.raises(WorkspaceError):
            load_workspace("/no/such/file.json")

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"lattices": {"L": "U", "L": "K3"}}', encoding="utf-8"
        )
        with pytest.raises(WorkspaceError):
            load_workspace(str(path))

    @pytest.mark.parametrize(
        "data, lookup, message",
        [case[1:] for case in STRUCTURAL_FAULTS],
        ids=[case[0] for case in STRUCTURAL_FAULTS],
    )
    def test_structural_fault_messages(self, data, lookup, message):
        with pytest.raises(WorkspaceError) as caught:
            ws = parse_workspace(json.dumps(data))
            if lookup:
                getattr(ws, lookup[0])(lookup[1])
        assert str(caught.value) == message

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("name", ["\ud800", "\udc80"])
    def test_names_are_unicode_text(self, section, name):
        # a lone surrogate is legal in a JSON string but cannot be printed
        with pytest.raises(WorkspaceError) as caught:
            parse_workspace(json.dumps({section: {name: "U"}}))
        assert str(caught.value) == f"{section}: name {name!r} is not Unicode text"


# (name, help, positional arguments), in --help order.
COMMANDS = [
    ("signature", "signature of a lattice", ["lattice"]),
    ("complement", "orthogonal complement of a sublattice", ["lattice", "sublattice"]),
    ("isometry-check", "verify the isometry conditions", ["lattice", "isometry"]),
    ("index", "index and pullback decomposition", ["lattice", "isometry"]),
    ("natural-check", "lattice-level naturality criterion", ["lattice", "isometry"]),
    ("invariant", "fixed and coinvariant sublattices", ["group"]),
    ("classify", "hyperbolic/parabolic/elliptic type", ["lattice", "sublattice"]),
    ("solve-index", "solve the index norm equation", ["n", "d2", "bound"]),
    ("report", "run every applicable check in the workspace", []),
]


class TestParser:
    """The parser's structure, not its --help bytes, which argparse lays
    out differently across Python versions."""

    @staticmethod
    def _subcommands():
        parser = build_parser()
        (action,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        return action

    def test_commands_helps_and_positionals(self):
        action = self._subcommands()
        helps = {choice.dest: choice.help for choice in action._choices_actions}
        got = []
        for name, sub in action.choices.items():
            positionals = [a.dest for a in sub._actions if not a.option_strings]
            # argparse passes every argument on as the string given
            assert all(a.type is None for a in sub._actions), name
            got.append((name, helps[name], positionals))
        assert got == COMMANDS

    def test_every_command_takes_the_common_options(self):
        for name, sub in self._subcommands().choices.items():
            options = [a.option_strings for a in sub._actions if a.option_strings]
            assert options == [["-h", "--help"], ["--workspace"], ["--json"]], name

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "required: command" in capsys.readouterr().err


class TestCommands:
    def test_signature_builtin(self, capsys):
        assert main(["signature", "K3"]) == 0
        assert capsys.readouterr().out == "signature: (3, 0, 19)\n"

    def test_without_an_int_cap(self, monkeypatch, capsys):
        # Python before 3.10.7 has no int <-> str cap for main to lift
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        assert main(["signature", "K3"]) == 0
        assert capsys.readouterr().out == "signature: (3, 0, 19)\n"

    def test_signature_douady(self, capsys):
        assert main(["signature", "DOUADY(2)"]) == 0
        assert capsys.readouterr().out == "signature: (3, 0, 20)\n"

    def test_signature_json(self, capsys):
        assert main(["signature", "U", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["signature"] == [1, 0, 1]
        assert payload["command"] == "signature"

    def test_index_of_quartic_involution(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {"lattices": {"quartic": QUARTIC}, "isometries": {"inv": INVOLUTION}},
        )
        assert main(["index", "quartic", "inv", "--workspace", ws]) == 0
        assert capsys.readouterr().out == "lambda = -3\nd = (4)\n"

    def test_natural_check_involution(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {"lattices": {"quartic": QUARTIC}, "isometries": {"inv": INVOLUTION}},
        )
        assert main(["natural-check", "quartic", "inv", "--workspace", ws]) == 0
        assert capsys.readouterr().out == "NOT-NATURAL\nf(e) = (4, -3)\n"

    def test_natural_check_reports_moved_delta_on_rank_23(self, tmp_path, capsys):
        # reflection in delta: fixes the K3 block, negates delta
        matrix = [
            [1 if i == j else 0 for j in range(23)] for i in range(23)
        ]
        matrix[22][22] = -1
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"L2": "DOUADY(2)"},
                "isometries": {"flip": {"lattice": "L2", "matrix": matrix}},
            },
        )
        assert main(["index", "L2", "flip", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "lambda = -1"
        assert main(["natural-check", "L2", "flip", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "NOT-NATURAL"
        assert lines[1] == "f(delta) = " + "(" + ", ".join(["0"] * 22 + ["-1"]) + ")"

    def test_natural_check_identity(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"quartic": QUARTIC},
                "isometries": {
                    "id": {"lattice": "quartic", "matrix": [[1, 0], [0, 1]]}
                },
            },
        )
        assert main(["natural-check", "quartic", "id", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert out.startswith("NATURAL\n")
        assert "surface: (1)" in out

    def test_invariant_swap_group(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"plane": "U"},
                "isometries": {"swap": {"lattice": "plane", "matrix": [[0, 1], [1, 0]]}},
                "groups": {"G": {"lattice": "plane", "generators": ["swap"]}},
            },
        )
        assert main(["invariant", "G", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert "order: 2" in out
        assert "invariant basis: (1, 1)" in out
        assert "coinvariant basis: (1, -1)" in out
        assert out.count("pass") == 3

    def test_classify(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"lorentz": {"gram": [[4, 0], [0, -2]]}},
                "sublattices": {
                    "all": {"lattice": "lorentz", "columns": [[1, 0], [0, 1]]}
                },
            },
        )
        assert main(["classify", "lorentz", "all", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "type: Hyperbolic"

    def test_solve_index(self, capsys):
        assert main(["solve-index", "2", "4", "30"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "solutions: 10"
        assert lines[2] == "(-17, -24)"
        assert lines[-1] == "(17, 24)"

    def test_complement(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"plane": "U"},
                "sublattices": {"diag": {"lattice": "plane", "columns": [[1, 1]]}},
            },
        )
        assert main(["complement", "plane", "diag", "--workspace", ws]) == 0
        assert capsys.readouterr().out == "rank: 1\nbasis: (1, -1)\n"

    def test_isometry_check_failure_is_reported_not_fatal(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"plane": "U"},
                "isometries": {"bad": {"lattice": "plane", "matrix": [[1, 1], [0, 1]]}},
            },
        )
        assert main(["isometry-check", "plane", "bad", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert out.startswith("NOT-ISOMETRY\nviolation:")


class TestExitCodes:
    def test_unknown_lattice_is_input_error(self, capsys):
        assert main(["signature", "missing"]) == 2
        assert "unknown lattice" in capsys.readouterr().err

    def test_unreadable_workspace_is_input_error(self, capsys):
        assert main(["signature", "U", "--workspace", "/no/such.json"]) == 2

    def test_builtin_lattice_entry_error_names_its_location(self, tmp_path, capsys):
        ws = _workspace_file(tmp_path, {"lattices": {"L": "DOUADY(1)"}})
        assert main(["report", "--workspace", ws]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: lattices.L: DOUADY(1): the number of points n must be an integer >= 2\n"
        )

    def test_douady_1_is_refused_with_the_text_of_douady_lattice(self, tmp_path, capsys):
        with pytest.raises(LatticeError) as exc:
            douady_lattice(1)
        refusal = f"DOUADY(1): {exc.value}"
        got = _run(capsys, ["signature", "DOUADY(1)"])
        assert got == {"exit": 2, "stdout": "", "stderr": f"error: {refusal}\n"}
        sublattice = {"lattice": "DOUADY(1)", "columns": []}
        for data, where in (
            ({"lattices": {"L": "DOUADY(1)"}}, "lattices.L"),
            ({"sublattices": {"s": sublattice}}, "sublattices.s"),
        ):
            got = _run(capsys, ["report", "--workspace", _workspace_file(tmp_path, data)])
            assert got == {"exit": 2, "stdout": "", "stderr": f"error: {where}: {refusal}\n"}

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["signature", "U", "--workspace", str(path)]) == 2

    def test_non_isometry_in_index_is_math_error(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"quartic": QUARTIC},
                "isometries": {
                    "shear": {"lattice": "quartic", "matrix": [[1, 1], [0, 1]]}
                },
            },
        )
        assert main(["index", "quartic", "shear", "--workspace", ws]) == 3
        assert "not an isometry" in capsys.readouterr().err

    def test_dependent_columns_are_math_error(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"plane": "U"},
                "sublattices": {
                    "dep": {"lattice": "plane", "columns": [[1, 0], [2, 0]]}
                },
            },
        )
        assert main(["classify", "plane", "dep", "--workspace", ws]) == 3

    def test_classification_mismatch_is_math_error(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"pos": {"gram": [[1, 0], [0, 1]]}},
                "sublattices": {
                    "all": {"lattice": "pos", "columns": [[1, 0], [0, 1]]}
                },
            },
        )
        assert main(["classify", "pos", "all", "--workspace", ws]) == 3

    def test_closure_cap_is_math_error(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"pell": {"gram": [[1, 0], [0, -2]]}},
                "isometries": {"m": {"lattice": "pell", "matrix": [[3, 4], [2, 3]]}},
                "groups": {
                    "G": {"lattice": "pell", "generators": ["m"], "cap": 32}
                },
            },
        )
        assert main(["invariant", "G", "--workspace", ws]) == 3
        assert "cap" in capsys.readouterr().err

    def test_solve_index_bad_arguments_are_usage_errors(self, capsys):
        assert main(["solve-index", "1", "4", "30"]) == 2
        assert main(["solve-index", "2", "0", "30"]) == 2
        assert main(["solve-index", "2", "4", "0"]) == 2

    def test_solve_index_argument_messages(self, capsys):
        for argv, message in (
            (["1", "4", "30"], "the number of points n must be an integer >= 2"),
            (["2", "0", "30"], "d2 must be a nonzero integer"),
            (["2", "4", "0"], "bound must be a positive integer"),
        ):
            got = _run(capsys, ["solve-index"] + argv)
            assert got == {"exit": 2, "stdout": "", "stderr": f"error: {message}\n"}

    # int() and argparse's type=int accept all but "two"; a workspace integer
    # is an optional minus sign and ASCII digits
    @pytest.mark.parametrize("text", ["٢", "２", "1_0", "+2", " 2", "two"], ids=ascii)
    @pytest.mark.parametrize("name", ["n", "d2", "bound"])
    def test_solve_index_reads_workspace_integers(self, capsys, text, name):
        args = {"n": "2", "d2": "4", "bound": "30", name: text}
        got = _run(capsys, ["solve-index", *args.values()])
        message = f"error: {name}: expected an integer, got {text!r}\n"
        assert got == {"exit": 2, "stdout": "", "stderr": message}

    def test_solve_index_echoes_the_integers_it_read(self, capsys):
        for flag in ([], ["--json"]):
            assert _run(capsys, ["solve-index", "02", "-04", "0030"] + flag) == (
                _run(capsys, ["solve-index", "2", "-4", "30"] + flag)
            )
        payload = json.loads(_run(capsys, ["solve-index", "3", "-4", "01", "--json"])["stdout"])
        assert payload == {"command": "solve-index", "n": 3, "d2": -4, "bound": 1,
                           "solutions": [[-1, 0], [1, 0]]}

    def test_missing_exceptional_class_is_input_error(self, capsys):
        assert main(["index", "U", "whatever"]) == 2

    def test_deeply_nested_workspace_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        got = _run(capsys, ["report", "--workspace", str(path)])
        message = "error: workspace file nests arrays or objects too deeply\n"
        assert got == {"exit": 2, "stdout": "", "stderr": message}

    def test_non_utf8_workspace_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        got = _run(capsys, ["report", "--workspace", str(path)])
        assert got["exit"] == 2 and got["stdout"] == ""
        assert got["stderr"].startswith("error: workspace file is not UTF-8 text: ")
        assert got["stderr"].count("\n") == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"lattices": {"L": "U"',
             "workspace file is not valid JSON: Expecting ',' delimiter: line 1 column 23 (char 22)"),
            (b'{"lattices": {"L": "U", "L": "K3"}}', "duplicate name 'L'"),
            (b"\xef\xbb\xbf{}", "workspace file is not valid JSON: "
             "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            # (char N) is the offset in the file, carriage returns included
            (b'{\r\n "a": 1,\r\n "b": [1,],\r\n}', "workspace file is not valid JSON: "
             "Expecting value: line 3 column 10 (char 22)"),
        ],
        ids=["truncated", "duplicate-name", "utf-8-bom", "crlf"],
    )
    def test_decoder_messages(self, tmp_path, capsys, content, message):
        path = tmp_path / "ws.json"
        path.write_bytes(content)
        got = _run(capsys, ["report", "--workspace", str(path)])
        assert got == {"exit": 2, "stdout": "", "stderr": f"error: {message}\n"}

    def test_missing_workspace_message(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        got = _run(capsys, ["report", "--workspace", str(path)])
        message = f"cannot read workspace file: [Errno 2] No such file or directory: {str(path)!r}"
        assert got == {"exit": 2, "stdout": "", "stderr": f"error: {message}\n"}

    @pytest.mark.parametrize("name", ["DOUADY(٣)", "DOUADY(２)"])
    def test_douady_takes_ascii_digits_only(self, capsys, name):
        got = _run(capsys, ["signature", name])
        assert got == {"exit": 2, "stdout": "", "stderr": f"error: unknown lattice {name!r}\n"}
        got = _run(capsys, ["signature", "DOUADY(02)"])
        assert got == {"exit": 0, "stdout": "signature: (3, 0, 20)\n", "stderr": ""}

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {"vectors": {"v": {"lattice": ["x"], "coords": [1]}}},
                "vectors.v.lattice: expected a lattice name, got ['x']",
            ),
            (
                {"vectors": {"v": {"lattice": 5, "coords": [1]}}},
                "vectors.v.lattice: expected a lattice name, got 5",
            ),
            (
                {"groups": {"G": {"lattice": {"a": 1}, "generators": []}}},
                "groups.G.lattice: expected a lattice name, got {'a': 1}",
            ),
        ],
    )
    def test_non_string_lattice_reference_is_input_error(
        self, tmp_path, capsys, data, message
    ):
        got = _run(capsys, ["report", "--workspace", _workspace_file(tmp_path, data)])
        assert got == {"exit": 2, "stdout": "", "stderr": f"error: {message}\n"}

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_quietly(self, unbuffered):
        # The read end of the pipe is closed before the child starts, so
        # every write to stdout fails with EPIPE, as under `| head` once
        # head has exited.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(hilblat.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-c", "from hilblat.cli import run; run()",
                 "solve-index", "2", "4", "30"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (0, b"")

    @pytest.mark.parametrize("stdout_encoding", [None, "utf-8:strict"])
    @pytest.mark.parametrize("name", ["\\ud800", "\\udc80"])
    def test_name_that_is_not_unicode_text(self, tmp_path, stdout_encoding, name):
        # The child encodes what it prints, which capsys and StringIO never do;
        # a strict stdout cannot encode any lone surrogate.
        path = tmp_path / "ws.json"
        path.write_text('{"lattices": {"%s": "U"}}' % name, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(hilblat.__file__).parents[1]))
        env.pop("PYTHONIOENCODING", None)
        if stdout_encoding:
            env["PYTHONIOENCODING"] = stdout_encoding
        child = subprocess.run(
            [sys.executable, "-c", "from hilblat.cli import run; run()",
             "report", "--workspace", str(path)],
            capture_output=True, env=env, timeout=60,
        )
        message = f"error: lattices: name '{name}' is not Unicode text\n"
        assert (child.returncode, child.stdout, child.stderr.decode()) == (2, b"", message)

    @pytest.mark.parametrize("seed", ["1", "3"])
    def test_section_diagnostic_is_deterministic(self, tmp_path, seed):
        # set iteration order follows the string hash, which PYTHONHASHSEED
        # varies; the sections are checked in their parse order instead
        path = _workspace_file(tmp_path, {"vectors": 1, "groups": 1, "lattices": 1})
        env = dict(os.environ, PYTHONPATH=str(Path(hilblat.__file__).parents[1]))
        env["PYTHONHASHSEED"] = seed
        child = subprocess.run(
            [sys.executable, "-c", "from hilblat.cli import run; run()",
             "report", "--workspace", path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (child.returncode, child.stderr) == (
            2, "error: lattices: expected an object of named entries\n"
        )


class TestJsonMirrorsText:
    def test_report_json_round_trips(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"quartic": QUARTIC, "plane": "U"},
                "vectors": {"h": {"lattice": "quartic", "coords": [1, 0]}},
                "sublattices": {"diag": {"lattice": "plane", "columns": [[1, 1]]}},
                "isometries": {"inv": INVOLUTION},
                "groups": {},
            },
        )
        assert main(["report", "--workspace", ws, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = [item["kind"] for item in payload["items"]]
        assert kinds == ["lattice", "lattice", "vector", "sublattice", "isometry"]
        inv_item = payload["items"][-1]
        assert inv_item["lambda"] == "-3"
        assert inv_item["natural"] is False

    def test_index_json(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {"lattices": {"quartic": QUARTIC}, "isometries": {"inv": INVOLUTION}},
        )
        assert main(["index", "quartic", "inv", "--workspace", ws, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "command": "index",
            "lattice": "quartic",
            "isometry": "inv",
            "lambda": "-3",
            "d": [4],
        }


DATA = Path(__file__).parent / "data"
SHEAR = {"lattice": "plane", "matrix": [[1, 1], [0, 1]]}
NOT_ISOMETRY = "generator is not an isometry: q(f(b1), f(b1)) = 2, expected q(b1, b1) = 0"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


class TestGoldenOutputs:
    """Outputs captured from an earlier release, compared byte for byte."""

    def test_report_json_golden(self, capsys):
        got = _run(capsys, ["report", "--workspace", str(DATA / "workspace.json"), "--json"])
        golden = (DATA / "report_golden.json").read_text(encoding="utf-8")
        assert got == {"exit": 0, "stdout": golden, "stderr": ""}

    def test_intersection_check_is_invariant_nondegeneracy(self, capsys):
        # L^G meets L_G in the radical of q on L^G, so the report's
        # "intersection trivial" line is the invariant block's nondegeneracy
        got = _run(capsys, ["report", "--workspace", str(DATA / "workspace.json"), "--json"])
        groups = [item for item in json.loads(got["stdout"])["items"] if item["kind"] == "group"]
        assert len(groups) == 2
        for item in groups:
            checks = item["checks"]
            assert checks["intersection_trivial"] is item["invariant"]["nondegenerate"]
            assert checks["intersection_trivial"] is checks["invariant_nondegenerate"]

    def test_douady_workspace_golden(self, capsys):
        # a natural, a non-natural and a non-isometric matrix on DOUADY(2),
        # so the q(delta) and f(delta) lines are pinned too
        workspace = str(DATA / "douady_workspace.json")
        golden = json.loads((DATA / "douady_golden.json").read_text(encoding="utf-8"))
        assert len(golden) == 14
        for command, expected in golden.items():
            argv = command.split()
            argv[1:1] = ["--workspace", workspace]
            assert _run(capsys, argv) == expected, command

    def test_commands_golden(self, capsys):
        # every command but report in text and --json on workspace.json,
        # with its exit-2 and exit-3 paths; errors_workspace.json adds the
        # exit-3 paths workspace.json has none for, and a report whose
        # items carry "error" and "classification_error"
        golden = json.loads((DATA / "commands_golden.json").read_text(encoding="utf-8"))
        assert {name: len(runs) for name, runs in golden.items()} == {
            "workspace.json": 92,
            "errors_workspace.json": 18,
        }
        for name, runs in golden.items():
            for command, expected in runs.items():
                argv = command.split()
                argv[1:1] = ["--workspace", str(DATA / name)]
                assert _run(capsys, argv) == expected, command


class TestClosureErrors:
    def test_non_isometry_generator(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"plane": "U"},
                "isometries": {"shear": SHEAR},
                "groups": {"G": {"lattice": "plane", "generators": ["shear"]}},
            },
        )
        for extra in ([], ["--json"]):
            got = _run(capsys, ["invariant", "G", "--workspace", ws] + extra)
            assert got == {"exit": 3, "stdout": "", "stderr": f"error: {NOT_ISOMETRY}\n"}
        got = _run(capsys, ["report", "--workspace", ws])
        assert got["exit"] == 0 and got["stderr"] == ""
        assert got["stdout"].endswith(f"== group G (on plane) ==\nerror: {NOT_ISOMETRY}\n")
        got = _run(capsys, ["report", "--workspace", ws, "--json"])
        assert json.loads(got["stdout"])["items"][-1] == {
            "kind": "group",
            "name": "G",
            "lattice": "plane",
            "error": NOT_ISOMETRY,
        }

    def test_generator_on_another_lattice(self, tmp_path, capsys):
        ws = _workspace_file(
            tmp_path,
            {
                "lattices": {"plane": "U", "other": "U"},
                "isometries": {"shear": SHEAR},
                "groups": {"G": {"lattice": "other", "generators": ["shear"]}},
            },
        )
        message = "error: groups.G: generator 'shear' acts on a different lattice\n"
        for argv in (["invariant", "G"], ["report"]):
            got = _run(capsys, argv + ["--workspace", ws])
            assert got == {"exit": 2, "stdout": "", "stderr": message}

    def test_closure_messages(self):
        U = hyperbolic_plane()
        with pytest.raises(LatticeError) as exc:
            closure(U, [identity_isometry(U), identity_isometry(e8_minus())])
        assert str(exc.value) == "generator acts on a different lattice"
        with pytest.raises(LatticeError) as exc:
            closure(U, [[[0, 1], [1, 0]], SHEAR["matrix"]])
        assert str(exc.value) == NOT_ISOMETRY


class TestBigIntegers:
    """Integers keep every digit, beyond Python's default cap of 4300 on
    int <-> str conversion, and the cap is restored when main returns."""

    DIGITS = "7" * 5000

    @pytest.mark.parametrize("form", ["number", "string"])
    def test_report_prints_every_digit(self, tmp_path, capsys, form):
        entry = self.DIGITS if form == "number" else f'"{self.DIGITS}"'
        path = tmp_path / "ws.json"
        path.write_text('{"lattices": {"big": {"gram": [[%s]]}}}' % entry, encoding="utf-8")
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for extra in ([], ["--json"]):
                got = _run(capsys, ["report", "--workspace", str(path)] + extra)
                assert got["exit"] == 0 and got["stderr"] == ""
                assert self.DIGITS in got["stdout"]
                assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int <-> str cap"
    )
    @pytest.mark.parametrize("form", ["number", "string"])
    def test_library_refuses_integers_over_the_cap(self, tmp_path, form):
        # outside the CLI the cap holds, and a longer integer is an input error
        digits = "7" * 5001
        entry = digits if form == "number" else f'"{digits}"'
        path = tmp_path / "ws.json"
        path.write_text('{"lattices": {"big": {"gram": [[%s]]}}}' % entry, encoding="utf-8")
        where = "workspace file" if form == "number" else "lattices.big.gram"
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(WorkspaceError) as caught:
                load_workspace(str(path))
        finally:
            sys.set_int_max_str_digits(previous)
        assert str(caught.value).startswith(f"{where}: Exceeds the limit (4300")


class TestReportWork:
    def test_one_complement_per_sublattice(self, tmp_path, monkeypatch, capsys):
        # ns_classification returns the complement; report reuses it and
        # computes one only when the classification fails
        calls = []

        def counted(L, s):
            calls.append(s.basis)
            return orthogonal_complement(L, s)

        monkeypatch.setattr(cli, "orthogonal_complement", counted)
        monkeypatch.setattr(groups, "orthogonal_complement", counted)
        for name in ("workspace.json", "errors_workspace.json"):
            data = json.loads((DATA / name).read_text(encoding="utf-8"))
            data = {k: data[k] for k in ("lattices", "sublattices")}
            calls.clear()
            ws = _workspace_file(tmp_path, data)
            got = _run(capsys, ["report", "--json", "--workspace", ws])
            assert got["exit"] == 0
            items = json.loads(got["stdout"])["items"]
            built = [i for i in items if i["kind"] == "sublattice" and "error" not in i]
            assert all("complement_rank" in item for item in built)
            assert len(calls) == len(built), name

    # A fresh process, so that no builtin lattice (U, K3, DOUADY(n), which
    # are cached) has had its form eliminated before the report runs.
    _COUNT_ELIMINATIONS = (
        "import sys\n"
        "from hilblat import cli, core\n"
        "seen = []\n"
        "eliminate = core._eliminate\n"
        "core._eliminate = lambda m: seen.append(m) or eliminate(m)\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, len(seen), file=sys.stderr)\n"
    )

    @pytest.mark.parametrize("name, eliminations", [
        ("workspace.json", 20), ("douady_workspace.json", 1),
        # every vector and isometry names DOUADY(2) itself, not an alias
        ("douady_named_workspace.json", 1),
    ])
    def test_one_elimination_per_form(self, name, eliminations):
        # each lattice and sublattice eliminates its form once, for its
        # signature and its determinant together
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(hilblat.__file__).parents[1])
        child = subprocess.run(
            [sys.executable, "-c", self._COUNT_ELIMINATIONS,
             "report", "--workspace", str(DATA / name)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        # the exit code, then the number of eliminations
        assert child.stderr.split() == ["0", str(eliminations)]

    # A fresh process, so that the groups the command builds are the only
    # ones seen; each reports whether it built its element matrices.
    _COUNT_BUILT_ELEMENTS = (
        "import sys\n"
        "from hilblat import cli\n"
        "made = []\n"
        "closure = cli.closure\n"
        "cli.closure = lambda *a, **k: made.append(closure(*a, **k)) or made[-1]\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, len(made), sum('elements' in G.__dict__ for G in made), file=sys.stderr)\n"
    )

    @pytest.mark.parametrize("argv, groups", [
        (["invariant", "swap_group"], 1), (["invariant", "swap_group", "--json"], 1),
        (["report"], 2), (["report", "--json"], 2),
    ])
    def test_groups_never_build_their_elements(self, argv, groups):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(hilblat.__file__).parents[1])
        child = subprocess.run(
            [sys.executable, "-c", self._COUNT_BUILT_ELEMENTS,
             *argv, "--workspace", str(DATA / "workspace.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        # the exit code, the groups built, and how many built their matrices
        assert child.stderr.split() == ["0", str(groups), "0"]

    def test_invariant_eliminates_each_gram_once(self, monkeypatch, capsys):
        seen = []
        eliminate = core._eliminate
        monkeypatch.setattr(core, "_eliminate", lambda m: seen.append(m) or eliminate(m))
        got = _run(capsys, ["invariant", "swap_group", "--json",
                            "--workspace", str(DATA / "workspace.json")])
        monkeypatch.undo()
        assert got["exit"] == 0
        payload = json.loads(got["stdout"])
        L = hyperbolic_plane()
        for block in ("invariant", "coinvariant"):
            gram = Sublattice(L, payload[block]["basis"]).gram()
            assert seen.count(gram) == 1, block
            assert payload[block]["gram_det"] == det(gram)
