"""The value and report types behave as frozen dataclasses with the same
fields would: equality, hash, repr, immutability and construction are
compared with a reference that ``dataclasses`` builds."""

import dataclasses
from fractions import Fraction

import pytest

from hilblat import (
    DouadyLattice,
    ExceptionalPair,
    Isometry,
    KahlerCandidateReport,
    Lattice,
    NSClassification,
    NSType,
    PairReport,
    SignatureTriple,
    Sublattice,
    SymplecticActionReport,
    Workspace,
    closure,
    diagonal_lattice,
    hyperbolic_plane,
)
from hilblat.workspace import NamedGroup, NamedIsometry, NamedSublattice, NamedVector

U = hyperbolic_plane()
SWAP = ((0, 1), (1, 0))
LINE = Sublattice(U, [(1, 1)])
ANTILINE = Sublattice(U, [(1, -1)])

# (class, constructor arguments by position, their names); the field
# names are the argument names except for DouadyLattice
RECORDS = [
    (Lattice, (SWAP,), ("gram",)),
    (Sublattice, (U, LINE.basis), ("ambient", "basis")),
    (Isometry, (U, SWAP), ("ambient", "matrix")),
    (ExceptionalPair, (diagonal_lattice([4, -8]), (0, 1)), ("lattice", "e")),
    (DouadyLattice, (2,), ("n",)),
    (
        KahlerCandidateReport,
        (Fraction(1, 2), Fraction(3), Fraction(-4), Fraction(5, 3), True, False, True),
        ("e_coefficient", "q_total", "q_against_e", "q_surface_part",
         "positive_norm", "positive_against_e", "surface_part_positive"),
    ),
    (
        PairReport,
        (LINE, ANTILINE, True, 2, -2),
        ("invariant", "coinvariant", "intersection_trivial",
         "invariant_gram_det", "coinvariant_gram_det"),
    ),
    (
        NSClassification,
        (NSType.HYPERBOLIC, SignatureTriple(1, 0, 0), SignatureTriple(0, 0, 1),
         (0, 0, 1), False, ANTILINE),
        ("ns_type", "ns_signature", "tr_signature", "expected_tr_signature",
         "companion_ok", "transcendental"),
    ),
    (
        SymplecticActionReport,
        (NSType.ELLIPTIC, True, True, False, None, SignatureTriple(0, 0, 2)),
        ("ns_type", "fixes_transcendental_pointwise", "transcendental_in_invariant",
         "coinvariant_in_ns", "coinvariant_negative_definite", "coinvariant_signature"),
    ),
    (NamedVector, ("U", (1, 0)), ("lattice", "coords")),
    (NamedSublattice, ("U", ((1, 0),)), ("lattice", "columns")),
    (NamedIsometry, ("U", SWAP), ("lattice", "matrix")),
    (NamedGroup, ("U", ("s",), 10), ("lattice", "generators", "cap")),
]
FIELDS = {DouadyLattice: ("lattice", "e", "n")}


@pytest.fixture(params=RECORDS, ids=[row[0].__name__ for row in RECORDS])
def record(request):
    """(the record, its constructor arguments and their names, and an equal
    instance of a frozen dataclass with the same name and fields)."""
    cls, args, params = request.param
    value = cls(*args)
    names = FIELDS.get(cls, params)
    reference = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    return value, args, params, reference(*(getattr(value, n) for n in names))


def field_tuple(reference):
    return tuple(getattr(reference, f.name) for f in dataclasses.fields(reference))


def test_equality(record):
    value, args, _, reference = record
    cls = type(value)
    same = cls(*args)
    assert value == same and not value != same
    assert value != reference and not value == reference and reference != value
    assert value.__eq__(reference) is NotImplemented
    values = field_tuple(reference)
    assert value != values and value.__eq__(values) is NotImplemented


def test_hash(record):
    value, args, _, reference = record
    assert hash(value) == hash(type(value)(*args)) == hash(reference)
    assert hash(value) == hash(field_tuple(reference))


def test_repr(record):
    value, _, _, reference = record
    assert repr(value) == repr(reference)


def test_immutable(record):
    value, args, _, reference = record
    for name in [f.name for f in dataclasses.fields(reference)] + ["other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == type(value)(*args)


def test_positional_and_keyword_construction(record):
    value, args, params, _ = record
    cls = type(value)
    by_name = dict(zip(params, args))
    assert cls(**by_name) == value
    assert cls(args[0], **dict(list(by_name.items())[1:])) == value


@pytest.mark.parametrize("case", ["missing", "extra", "unknown", "repeated"])
def test_wrong_fields_raise_type_error(record, case):
    value, args, params, _ = record
    calls = {
        "missing": lambda: type(value)(*args[:-1]),
        "extra": lambda: type(value)(*args, None),
        "unknown": lambda: type(value)(*args, unknown=None),
        "repeated": lambda: type(value)(*args, **{params[0]: args[0]}),
    }
    with pytest.raises(TypeError):
        calls[case]()


def test_isometry_group_repr_leaves_out_private_fields():
    G = closure(U, [SWAP])
    assert repr(G) == f"IsometryGroup(ambient={U!r}, generators={G.generators!r})"


def test_workspace_is_an_immutable_record_of_dicts():
    # its sections are filled in place; the record itself is not assigned to
    sections = ("lattices", "vectors", "sublattices", "isometries", "groups")
    a, b = Workspace(), Workspace()
    assert a == b and not a != b
    assert all(getattr(a, s) == {} for s in sections)
    assert a.lattices is not b.lattices
    ws = Workspace(lattices={"A": U}, groups={})
    assert ws.lattices == {"A": U} and ws.vectors == {} and ws != a
    assert Workspace({"A": U}) == ws
    with pytest.raises(TypeError):
        hash(Workspace())
    with pytest.raises(TypeError):
        Workspace(unknown={})
    for name in sections:
        with pytest.raises(AttributeError):
            setattr(a, name, {})
        with pytest.raises(AttributeError):
            delattr(a, name)
    a.lattices["A"] = U
    assert a == ws


@pytest.mark.parametrize("cls, args", [(Isometry, (U, SWAP)), (Sublattice, (U, LINE.basis))])
def test_a_patched_post_init_runs_in_the_public_constructor_only(monkeypatch, cls, args):
    # perfbench/layers.py times these two methods by patching them on the
    # class; the public constructor must find the patch, _trusted must not
    original = cls.__dict__["__post_init__"]
    calls = []

    def traced(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "__post_init__", traced)
    made = cls(*args)
    assert calls == [made]
    cls._trusted(*args)
    assert calls == [made]
