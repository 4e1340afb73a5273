"""Conversion of raw input at the boundary: the one type scan per matrix
or vector must accept and reject exactly what the old per-entry checks
did, with the same values, exception types and messages."""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_as_matrix,
    reference_as_vector,
    reference_exact_vector,
    reference_support,
)
from hilblat import Lattice, LatticeError, core, douady_lattice, isometry_violation, workspace
from hilblat.workspace import WorkspaceError

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


class Colour(enum.IntEnum):
    RED = 0
    GREEN = 1
    BLUE = -7


entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.floats(allow_nan=False),
    st.fractions(max_denominator=5),
    st.text(max_size=2),
    st.none(),
    st.sampled_from(list(Colour)),
)
mostly_ints = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-(2**80), 2**80), entries
)

# A row is (form, entries); "scalar" rows are not iterable.
rows = st.tuples(
    st.sampled_from(["list", "tuple", "iter", "scalar"]), st.lists(mostly_ints, max_size=4)
)
matrices = st.tuples(st.sampled_from(["list", "gen"]), st.lists(rows, max_size=4))


def build_row(spec):
    form, xs = spec
    if form == "scalar":
        return xs[0] if xs else None
    return {"list": list, "tuple": tuple, "iter": iter}[form](xs)


def build_matrix(spec):
    form, specs = spec
    built = (build_row(r) for r in specs)
    return built if form == "gen" else list(built)


def outcome(f, make):
    """f applied to a freshly built input: the value with the exact type of
    every entry, or the exception type and message."""
    try:
        value = f(make())
    except (LatticeError, TypeError) as exc:
        return ("raised", type(exc), str(exc))
    return ("value", value, _types(value))


def _types(value):
    return type(value), tuple(
        _types(x) if isinstance(x, tuple) else type(x) for x in value
    )


class TestSameAsPerEntryChecks:
    @SEEDED
    @given(rows)
    def test_as_vector(self, spec):
        make = lambda: build_row(spec)
        assert outcome(core.as_vector, make) == outcome(reference_as_vector, make)

    @SEEDED
    @given(matrices)
    def test_as_matrix(self, spec):
        make = lambda: build_matrix(spec)
        assert outcome(core.as_matrix, make) == outcome(reference_as_matrix, make)

    @SEEDED
    @given(rows)
    def test_exact_vector(self, spec):
        make = lambda: build_row(spec)
        assert outcome(core._exact_vector, make) == outcome(reference_exact_vector, make)

    @settings(SEEDED, max_examples=100)
    @given(
        st.lists(
            st.lists(
                st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)),
                max_size=5,
            ),
            max_size=4,
        )
    )
    def test_support(self, m):
        got, want = core._support(m), reference_support(m)
        assert got == want
        types = lambda s: [[type(x) for _, x in row] for row in s]
        assert types(got) == types(want)

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: [[1, "x"], 5], LatticeError, "integer entry expected, got 'x'"),
            (lambda: [[1, 2], 5], TypeError, "'int' object is not iterable"),
            (lambda: [[1, 2], [True, 0]], LatticeError, "integer entry expected, got True"),
            (lambda: [[1, 2], [0]], LatticeError, "matrix rows have unequal lengths"),
            (lambda: [[1], [1, 2.0]], LatticeError, "integer entry expected, got 2.0"),
            (lambda: [[1], None], TypeError, "'NoneType' object is not iterable"),
            (lambda: [iter([1, 2]), 5], TypeError, "'int' object is not iterable"),
            (lambda: [iter([1, "x"]), 5], LatticeError, "integer entry expected, got 'x'"),
        ],
        ids=[
            "bad-entry-before-non-iterable",
            "non-iterable",
            "bool",
            "ragged",
            "bad-entry-before-ragged",
            "none-row",
            "iterator-row-then-non-iterable",
            "bad-entry-in-iterator-row",
        ],
    )
    def test_row_order_sets_the_error(self, make, error, message):
        # a fresh input for each call, as an iterator row is read only once
        for f in (core.as_matrix, reference_as_matrix):
            with pytest.raises(error) as exc:
                f(make())
            assert str(exc.value) == message

    def test_int_subclass_passes_unchanged(self):
        v = core.as_vector([Colour.GREEN, 2])
        assert v == (1, 2) and type(v[0]) is Colour and type(v[1]) is int


def count_entry_checks(monkeypatch):
    calls = []
    original = core._entry

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(core, "_entry", counted)
    return calls


class TestOneScanPerRow:
    def test_all_int_input_checks_no_entry(self, monkeypatch):
        gram = douady_lattice(2).full.gram
        m = [list(row) for row in gram]
        calls = count_entry_checks(monkeypatch)
        assert core.as_matrix(m) == gram
        assert core.as_vector(m[0]) == gram[0]
        assert len(gram) == 23 and calls == []

    def test_only_a_row_with_a_non_int_is_checked_entry_by_entry(self, monkeypatch):
        m = [list(row) for row in douady_lattice(2).full.gram]
        m[5][3] = Colour.RED
        calls = count_entry_checks(monkeypatch)
        assert core.as_matrix(m)[5][3] is Colour.RED
        assert len(calls) == 23

    def test_workspace_vectors_of_ints_skip_the_entry_parser(self, monkeypatch):
        calls = []
        original = workspace._int
        monkeypatch.setattr(
            workspace, "_int", lambda x, where: calls.append(x) or original(x, where)
        )
        assert workspace._vector([1, -2, 10**30], "v") == (1, -2, 10**30)
        assert calls == []
        assert workspace._vector([1, "-2", "7"], "v") == (1, -2, 7)
        assert calls == [1, "-2", "7"]


class TestOneScanPerMatrix:
    def test_an_all_int_matrix_gets_one_type_scan(self, monkeypatch):
        scans = []
        original = core._all_int
        monkeypatch.setattr(core, "_all_int", lambda xs: scans.append(1) or original(xs))
        gram = douady_lattice(2).full.gram
        assert core.as_matrix(gram) == gram
        assert core.as_matrix(iter(list(row) for row in gram)) == gram
        assert scans == [1, 1]


class TestBoundaryMessages:
    @pytest.mark.parametrize(
        "value, message",
        [
            ([1, True], "v: expected an integer, got True"),
            ([1.0], "v: expected an integer, got 1.0"),
            (["1.5"], "v: expected an integer, got '1.5'"),
            ([None], "v: expected an integer, got None"),
            ((1, 2), "v: expected a list of integers"),
        ],
    )
    def test_workspace_vector(self, value, message):
        with pytest.raises(WorkspaceError) as exc:
            workspace._vector(value, "v")
        assert str(exc.value) == message

    def test_asymmetric_gram(self):
        with pytest.raises(LatticeError, match=r"^Gram matrix must be symmetric$"):
            Lattice([[1, 0, 0], [0, 1, 2], [0, 3, 1]])
        assert Lattice(()).gram == ()

    @pytest.mark.parametrize("m", [[[1, 0, 0]] * 3, [[1, 0, 0], [0, 1, 0]], [], [[1], [0]]])
    def test_isometry_shape(self, m):
        L = Lattice([[2, 1], [1, 2]])
        with pytest.raises(LatticeError, match=r"^matrix size does not match the lattice rank$"):
            isometry_violation(L, m)

