"""The exact text of every rejection at the boundary: unknown names, objects
on different lattices, shapes that Lattice and ExceptionalPair refuse, and
the rejections that no other in-process test reaches."""

import json
import sys
from enum import IntEnum

import pytest

import hilblat.core as core
import hilblat.douady as douady
from hilblat import (
    ExceptionalPair,
    Lattice,
    LatticeError,
    Sublattice,
    acts_trivially_on,
    closure,
    delta_class,
    diagonal_lattice,
    douady_lattice,
    e_class,
    full_sublattice,
    hermite_basis,
    hyperbolic_plane,
    identity_isometry,
    identity_matrix,
    index_norm_solutions,
    integer_kernel,
    iota,
    kahler_candidate_check,
    mat_vec,
    norm,
    ns_classification,
    orthogonal_complement,
    pairing,
    psi_first_chern,
    rank_of,
    rational_span_leq,
    reflection_isometry,
    rescale,
    saturate,
    saturation_basis,
    symplectic_action_report,
)
from hilblat.cli import main
from hilblat.workspace import Workspace, WorkspaceError, parse_workspace

U = hyperbolic_plane()
# a second rank-2 lattice, so that shapes agree and only the lattice differs
OTHER = diagonal_lattice((1, -1))
SWAP = ((0, 1), (1, 0))


@pytest.fixture
def default_int_cap():
    """Python's default cap of 4300 digits on int <-> str conversion, on an
    interpreter that has the cap."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


class TestUnknownNames:
    """A name that is not a str is unknown in every lookup, and named by its
    type, never by its repr."""

    # each id is the name and its repr; 10**5000 has more digits than the
    # default cap, so its repr raises ValueError and the message must not need it
    @pytest.mark.parametrize(
        "name, type_name",
        [(5, "int"), (None, "NoneType"), ([], "list"), ({}, "dict"), ([1], "list"),
         (10**5000, "int")],
        ids=["5-5", "None-None", "name2-[]", "name3-{}", "name4-[1]", "over-the-cap"],
    )
    @pytest.mark.parametrize(
        "method, kind",
        [
            ("entry", "lattice"),
            ("lattice", "lattice"),
            ("exceptional", "lattice"),
            ("vector", "vector"),
            ("sublattice", "sublattice"),
            ("isometry", "isometry"),
            ("group", "group"),
        ],
    )
    @pytest.mark.usefixtures("default_int_cap")
    def test_not_a_str(self, method, kind, name, type_name):
        with pytest.raises(WorkspaceError) as exc:
            getattr(Workspace(), method)(name)
        assert str(exc.value) == f"unknown {kind}: a name must be a str, not {type_name}"


class TestDifferentLattices:
    """One wording per kind of object: a sublattice lives in, an isometry
    or a group acts on, a different lattice."""

    def test_sublattice_of_another_lattice(self):
        s = full_sublattice(OTHER)
        for f in (orthogonal_complement, saturate, ns_classification):
            with pytest.raises(LatticeError) as exc:
                f(U, s)
            assert str(exc.value) == "sublattice lives in a different lattice"

    def test_rational_span_leq(self):
        with pytest.raises(LatticeError) as exc:
            rational_span_leq(full_sublattice(U), full_sublattice(OTHER))
        assert str(exc.value) == "sublattice lives in a different lattice"

    def test_product_of_isometries(self):
        with pytest.raises(LatticeError) as exc:
            identity_isometry(U) * identity_isometry(OTHER)
        assert str(exc.value) == "isometry acts on a different lattice"

    def test_product_with_a_number(self):
        with pytest.raises(TypeError) as exc:
            identity_isometry(U) * 3
        assert str(exc.value) == "unsupported operand type(s) for *: 'Isometry' and 'int'"

    def test_acts_trivially_on(self):
        G = closure(U, [SWAP])
        with pytest.raises(LatticeError) as exc:
            acts_trivially_on(G, full_sublattice(OTHER))
        assert str(exc.value) == "sublattice lives in a different lattice"

    def test_symplectic_action_report(self):
        G = closure(U, [SWAP])
        with pytest.raises(LatticeError) as exc:
            symplectic_action_report(OTHER, G, full_sublattice(OTHER))
        assert str(exc.value) == "group acts on a different lattice"
        with pytest.raises(LatticeError) as exc:
            symplectic_action_report(U, G, full_sublattice(OTHER))
        assert str(exc.value) == "sublattice lives in a different lattice"


class TestUnreachedRejections:
    def test_mat_vec_dimensions(self):
        with pytest.raises(LatticeError) as exc:
            mat_vec(((1, 2),), (1,))
        assert str(exc.value) == "matrix and vector dimensions do not match"

    def test_closure_of_a_non_lattice(self):
        with pytest.raises(LatticeError) as exc:
            closure("x", [])
        assert str(exc.value) == "expected a lattice (possibly with exceptional structure)"

    @pytest.mark.parametrize(
        "gram, e, message",
        [
            (((1, 0), (0, -2)), (1,), "exceptional class of length 1 inside Z^2"),
            (((1, 0), (0, -2)), (1, 1),
             "exceptional class must be a nonzero multiple of the last basis vector"),
            ((), (), "exceptional class must be a nonzero multiple of the last basis vector"),
            (((1, 1), (1, -2)), (0, 1),
             "the exceptional coordinate must be orthogonal to the rest and of nonzero norm"),
            (((1, 0), (0, 0)), (0, 1),
             "the exceptional coordinate must be orthogonal to the rest and of nonzero norm"),
        ],
        ids=["length", "off-last", "rank-0", "not-orthogonal", "null"],
    )
    def test_exceptional_pair(self, gram, e, message):
        with pytest.raises(LatticeError) as exc:
            ExceptionalPair(Lattice(gram), e)
        assert str(exc.value) == message

    def test_plain_lattice_is_no_target(self):
        for call in (lambda: e_class(U), lambda: iota(U, (1,))):
            with pytest.raises(LatticeError) as exc:
                call()
            assert str(exc.value) == "expected a Douady lattice or an exceptional pair"

    def test_douady_only(self):
        pair = ExceptionalPair(diagonal_lattice((1, -2)), (0, 1))
        with pytest.raises(LatticeError) as exc:
            delta_class(pair)
        assert str(exc.value) == "delta is integral only on the full Douady lattice"
        with pytest.raises(LatticeError) as exc:
            psi_first_chern(pair, (1,))
        assert str(exc.value) == "this Chern-class formula needs the full Douady lattice"
        with pytest.raises(LatticeError) as exc:
            psi_first_chern(douady_lattice(2), (1,) * 21)
        assert str(exc.value) == "surface class of length 21 inside Z^22"


class TestWidth:
    """A width must be a non-negative int; a float, a bool or a negative
    number is refused before any row is read."""

    @pytest.mark.parametrize("width", [2.0, True, -1, "2", None], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda w: hermite_basis([(1, 2)], w),
            lambda w: rank_of([(3,)], w),
            lambda w: saturation_basis([(2, 4)], w),
            # checked before the cache, so that True is not taken for 1
            identity_matrix,
        ],
        ids=["hermite_basis", "rank_of", "saturation_basis", "identity_matrix"],
    )
    def test_span_functions(self, call, width):
        with pytest.raises(LatticeError) as exc:
            call(width)
        assert str(exc.value) == f"width must be a non-negative int, got {width!r}"

    @pytest.mark.parametrize("width", [2.0, True, -1, "2"], ids=repr)
    @pytest.mark.parametrize("matrix", [((1, 2),), ()], ids=["one-row", "empty"])
    def test_integer_kernel(self, matrix, width):
        with pytest.raises(LatticeError) as exc:
            integer_kernel(matrix, width)
        assert str(exc.value) == f"width must be a non-negative int, got {width!r}"

    def test_an_int_subclass_shares_the_cache_entry(self):
        Width = IntEnum("Width", {"two": 2})
        core._identity_matrix.cache_clear()
        assert identity_matrix(Width.two) is identity_matrix(2)
        assert core._identity_matrix.cache_info().currsize == 1
        assert integer_kernel((), Width.two) == integer_kernel((), 2)
        assert hermite_basis([(2, 4)], Width.two) == ((2, 4),)

    def test_valid_widths_still_work(self):
        assert identity_matrix(0) == ()
        assert identity_matrix(2) == ((1, 0), (0, 1))
        assert integer_kernel((), 0) == ()
        assert integer_kernel((), 1) == ((1,),)
        assert integer_kernel(((1, 2),)) == integer_kernel(((1, 2),), 2) == ((2, -1),)
        assert rank_of([], 0) == 0
        assert hermite_basis([(1, 2)], 2) == ((1, 2),)
        assert saturation_basis([(2, 4)], 2) == ((1, 2),)


class TestLengths:
    """Every check of a vector's length against a rank has one wording:
    "<what> of length <len> inside Z^<rank>"."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: hermite_basis([(1, 2, 3)], 2), "vector of length 3 inside Z^2"),
            (lambda: Sublattice(U, [(1,)]), "vector of length 1 inside Z^2"),
            (lambda: full_sublattice(U).contains((1, 0, 0)), "vector of length 3 inside Z^2"),
            (lambda: pairing(U, (1, 0, 0), (1, 0)), "vector of length 3 inside Z^2"),
            (lambda: pairing(U, (1, 0), (1,)), "vector of length 1 inside Z^2"),
            (lambda: norm(U, (1, 0, 0)), "vector of length 3 inside Z^2"),
            (lambda: reflection_isometry(U, (1, 1, 0)), "vector of length 3 inside Z^2"),
            (lambda: identity_isometry(U).apply((1, 0, 0)), "vector of length 3 inside Z^2"),
            (lambda: identity_isometry(Lattice(())).apply((1, 2, 3)),
             "vector of length 3 inside Z^0"),
            (lambda: ExceptionalPair(diagonal_lattice((1, -2)), (0, 0, 1)),
             "exceptional class of length 3 inside Z^2"),
            (lambda: iota(douady_lattice(2), (1,) * 5), "surface class of length 5 inside Z^22"),
            (lambda: psi_first_chern(douady_lattice(2), (1,) * 23),
             "surface class of length 23 inside Z^22"),
            (lambda: kahler_candidate_check(ExceptionalPair(diagonal_lattice((1, -2)), (0, 1)),
                                            (1, 0, 0)),
             "class of length 3 inside Z^2"),
        ],
        ids=["rows", "sublattice", "contains", "pairing-x", "pairing-y", "norm", "reflection",
             "apply", "apply-rank-0", "exceptional-pair", "iota", "psi_first_chern", "kahler_candidate_check"],
    )
    def test_message(self, call, message):
        with pytest.raises(LatticeError) as exc:
            call()
        assert str(exc.value) == message


class Small(IntEnum):
    ONE = 1
    TWO = 2


class TestIntegerArguments:
    """Every public integer argument is an int and not a bool: True, 2.0 and
    "2" are refused with LatticeError, and an int subclass in range passes."""

    CALLS = {
        "width": lambda k: hermite_basis([(1, 2)], k),
        "identity-width": identity_matrix,
        "kernel-width": lambda k: integer_kernel(((1, 2),), k),
        "basis-index": lambda k: U.basis_vector(k),
        "rescale": lambda k: rescale(U, k),
        "douady-n": douady_lattice,
        "k": lambda k: psi_first_chern(douady_lattice(2), (0,) * 22, k),
        "solve-n": lambda k: index_norm_solutions(k, 4, 3),
        "d2": lambda k: index_norm_solutions(2, k, 3),
        "bound": lambda k: index_norm_solutions(2, 4, k),
        "cap": lambda k: closure(U, [((0, 1), (1, 0))], cap=k),
    }

    @pytest.mark.parametrize("value", [True, 2.0, "2"], ids=repr)
    @pytest.mark.parametrize("name", CALLS)
    def test_refused(self, name, value):
        with pytest.raises(LatticeError):
            self.CALLS[name](value)

    @pytest.mark.parametrize("name", CALLS)
    def test_int_subclass_in_range(self, name):
        member = Small.ONE if name == "basis-index" else Small.TWO
        assert self.CALLS[name](member) == self.CALLS[name](int(member))


class TestWorkspaceRejections:
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"lattices": {"q": {"gram": [[1, 2]]}}},
             "lattices.q.gram: Gram matrix must be 1x1"),
            ({"lattices": {"q": {"gram": [[]]}}},
             "lattices.q.gram: Gram matrix must be 1x1"),
            ({"lattices": {"q": {"gram": [[1]], "e": [0, 1]}}},
             "lattices.q.e: exceptional class of length 2 inside Z^1"),
            ({"lattices": {"q": {"gram": [[1, 0], [0, -2]], "e": [1, 0]}}},
             "lattices.q.e: exceptional class must be a nonzero multiple "
             "of the last basis vector"),
            ({"isometries": {"s": {"lattice": "U", "matrix": [[0, 1], [1, 0]]}},
              "groups": {"G": {"lattice": "U", "generators": ["s"], "cap": 0}}},
             "groups.G.cap: must be positive"),
            ({"vectors": []}, "vectors: expected an object of named entries"),
            ({"b": 0, "lattices": {}, "a": 0}, "unknown top-level keys ['a', 'b']"),
            ({"lattices": {"q": {"y": 0, "gram": [[1]], "x": 0}}},
             "lattices.q: unknown keys ['x', 'y']"),
        ],
        ids=["gram-not-square", "gram-empty-row", "e-length", "e-off-last", "cap-0",
             "section-not-object", "top-level-keys-sorted", "lattice-keys-sorted"],
    )
    def test_message(self, data, message):
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(json.dumps(data))
        assert str(exc.value) == message

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str cap")
    @pytest.mark.usefixtures("default_int_cap")
    @pytest.mark.parametrize(
        "template",
        [
            '{"vectors": {"v": {"lattice": %s, "coords": []}}}',
            '{"lattices": {"L": {"gram": [[[-%s, 1]]]}}}',
            '{"groups": {"G": {"lattice": "U", "generators": [%s]}}}',
            '{"lattices": %s}',
        ],
        ids=["lattice-name", "in-a-list", "generator", "section"],
    )
    def test_integer_over_the_cap_is_refused_by_the_decoder(self, template):
        # before any message could need the repr of such an integer
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(template % ("1" + "0" * 5000))
        assert str(exc.value).startswith("workspace file: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("digit", ["٢", "２"])
    def test_integers_are_ascii_decimal(self, digit):
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(json.dumps({"lattices": {"L": {"gram": [[digit]]}}}))
        assert str(exc.value) == f"lattices.L.gram: expected an integer, got {digit!r}"
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(json.dumps({"lattices": {"L": f"DOUADY({digit})"}}))
        assert str(exc.value) == f"lattices.L: unknown builtin lattice 'DOUADY({digit})'"
        assert parse_workspace('{"lattices": {"L": "DOUADY(02)"}}').entry("L").n == 2

    def test_shape_errors_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({"lattices": {"q": {"gram": [[1, 2]]}}}), encoding="utf-8")
        assert main(["signature", "q", "--workspace", str(path)]) == 2
        assert capsys.readouterr().err == "error: lattices.q.gram: Gram matrix must be 1x1\n"


def test_index_reads_the_image_of_e_once(tmp_path, monkeypatch, capsys):
    """`index` prints lambda and d from one pullback decomposition."""
    calls = []
    image_of_e = douady._image_of_e

    def counted(D, f):
        calls.append(f)
        return image_of_e(D, f)

    monkeypatch.setattr(douady, "_image_of_e", counted)
    path = tmp_path / "ws.json"
    data = {
        "lattices": {"quartic": {"gram": [[4, 0], [0, -8]], "e": [0, 1]}},
        "isometries": {"inv": {"lattice": "quartic", "matrix": [[3, 4], [-2, -3]]}},
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["index", "quartic", "inv", "--workspace", str(path)]) == 0
    assert capsys.readouterr().out == "lambda = -3\nd = (4)\n"
    assert len(calls) == 1
