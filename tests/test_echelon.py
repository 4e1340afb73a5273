"""The single echelon routine behind hermite_basis, integer_kernel and
saturation_basis.

Liveness cases that the earlier column-by-column elimination never
finished, bit-equality with that elimination (kept in helpers.py as a
reference) on small input, brute-force kernel checks, agreement with
sympy's Hermite normal form, and counts showing that sublattices the
library builds itself are not converted or checked again.
"""

import itertools
import random
import signal
from contextlib import contextmanager
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_nondegenerate_lattice,
    random_norm_pm2_vector,
    random_sublattice,
    reference_hermite_basis,
    reference_integer_kernel,
)
from hilblat import (
    Isometry,
    Lattice,
    LatticeError,
    Sublattice,
    closure,
    coinvariant_sublattice,
    det,
    hermite_basis,
    identity_matrix,
    integer_kernel,
    invariant_sublattice,
    k3_lattice,
    orthogonal_complement,
    pairing,
    rank_of,
    rational_span_leq,
    reflection_isometry,
    saturate,
    saturation_basis,
    signature,
    verify_pair_properties,
)
from hilblat import core, groups

K3 = k3_lattice()

# Seeded and database-free, so every run tries the same examples.
exact = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@contextmanager
def deadline(seconds=10):
    """Fail a case that is still running after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def dense(seed, rows, width, lo, hi):
    rng = random.Random(seed)
    return [[rng.randint(lo, hi) for _ in range(width)] for _ in range(rows)]


DENSE_12 = dense(12, 12, 12, -10, 10)
SIGNS_23 = dense(23, 23, 23, -1, 1)
KERNEL_6x12 = dense(6, 6, 12, -10, 10)
# A dense rank-4 block of K3 whose rank-18 complement has small entries.
RANK_4_BLOCK = (
    (-3, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, -1, 0, 0, 0, -2, 1),
    (0, 0, 0, 2, 0, 0, 0, 0, 3, 0, -2, 0, 0, 0, 0, 0, 0, 0, 0, -3, 0, -2),
    (0, 0, 0, 0, 0, 0, 0, 2, 0, 0, -3, 0, 0, 0, 0, 0, 0, 0, -2, 0, 2, 0),
    (0, 0, 0, -2, 0, 0, 0, 0, -2, 0, -2, 0, 0, 0, 0, 0, -3, 0, 3, 0, 0, 0),
)


def nikulin_generic_marking():
    """The Nikulin involution swapping the two E8(-1) summands of K3,
    conjugated by 12 reflections in roots that mix summands."""
    swap = list(range(22))
    for i in range(8):
        swap[6 + i], swap[14 + i] = 14 + i, 6 + i
    nikulin = Isometry(K3, tuple(tuple(int(swap[j] == i) for j in range(22)) for i in range(22)))
    rng = random.Random(1)
    reflections = [
        reflection_isometry(K3, random_norm_pm2_vector(K3, rng, max_entry=2, max_support=4))
        for _ in range(12)
    ]
    p = p_inv = Isometry(K3, tuple(tuple(int(i == j) for j in range(22)) for i in range(22)))
    for r in reflections:
        p, p_inv = p * r, r * p_inv
    return p * nikulin * p_inv


def max_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def is_hermite(rows, width):
    """Echelon shape, positive pivots, entries above a pivot in [0, pivot)."""
    pivots = []
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None or (pivots and lead <= pivots[-1]) or row[lead] < 0:
            return False
        pivots.append(lead)
    return all(
        0 <= rows[i][c] < rows[k][c] for k, c in enumerate(pivots) for i in range(k)
    ) and all(len(row) == width for row in rows)


class TestLiveness:
    """Each case overran 10 s with the earlier elimination."""

    def test_dense_12x12_hermite(self):
        with deadline():
            h = hermite_basis(DENSE_12, 12)
        assert len(h) == 12 and is_hermite(h, 12)
        assert abs(det(h)) == abs(det(DENSE_12))

    def test_signs_23x23_hermite(self):
        with deadline():
            h = hermite_basis(SIGNS_23, 23)
        assert len(h) == 23 and is_hermite(h, 23)
        assert abs(det(h)) == abs(det(SIGNS_23))

    def test_dense_6x12_kernel(self):
        with deadline():
            ker = integer_kernel(KERNEL_6x12, 12)
        assert len(ker) == 6 and is_hermite(ker, 12)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in KERNEL_6x12 for v in ker)

    def test_dense_rank_4_complement(self):
        S = Sublattice(K3, RANK_4_BLOCK)
        with deadline():
            comp = orthogonal_complement(K3, S)
            double = orthogonal_complement(K3, comp)
            assert comp.saturated and double == saturate(K3, S)
        assert comp.rank == 18 and max_bits(comp.basis) <= 6
        assert all(pairing(K3, u, v) == 0 for u in comp.basis for v in S.basis)

    def test_nikulin_in_a_generic_marking(self):
        g = nikulin_generic_marking()
        with deadline():
            G = closure(K3, [g])
            inv = invariant_sublattice(G)
            co = coinvariant_sublattice(G)
        assert G.order == 2
        assert (inv.rank, det(inv.gram())) == (14, -256)
        co_gram = co.gram()
        assert (co.rank, det(co_gram)) == (8, 256)
        assert signature(Lattice.from_gram(co_gram)) == (0, 0, 8)
        # Half the form is even, unimodular and negative definite of rank 8,
        # which is E8(-1) up to isometry: the coinvariant lattice is E8(-2).
        half = tuple(tuple(x // 2 for x in row) for row in co_gram)
        assert all(x % 2 == 0 for row in co_gram for x in row)
        assert all(half[i][i] % 2 == 0 for i in range(8)) and det(half) == 1


rows_7 = st.integers(0, 7).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.one_of(
                st.lists(st.integers(-6, 6), min_size=width, max_size=width),
                st.just([0] * width),
            ),
            max_size=8,
        ),
    )
)


def rank_deficient(width_and_rows):
    """Append an integer combination of the rows, so the rank drops."""
    width, rows = width_and_rows
    if len(rows) < 2:
        return width, rows
    combo = [2 * x - 3 * y for x, y in zip(rows[0], rows[-1])]
    return width, rows + [combo]


matrices = st.one_of(rows_7, rows_7.map(rank_deficient))


def maximal_minors_gcd(rows):
    """gcd of the k x k minors of a k x n matrix; 1 iff its rows span a
    saturated lattice (of rank k)."""
    k, n = len(rows), len(rows[0]) if rows else 0
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = gcd(g, det(tuple(tuple(row[c] for c in cols) for row in rows)))
    return g


class TestAgainstReference:
    @exact
    @given(matrices)
    def test_hermite_basis_bit_equal(self, case):
        width, rows = case
        assert hermite_basis(rows, width) == reference_hermite_basis(rows, width)

    @exact
    @given(matrices)
    def test_integer_kernel_bit_equal(self, case):
        width, rows = case
        assert integer_kernel(rows, width) == reference_integer_kernel(rows, width)

    @exact
    @given(matrices)
    def test_saturation_basis_bit_equal(self, case):
        width, rows = case
        gens = reference_hermite_basis(rows, width)
        expected = (
            reference_integer_kernel(reference_integer_kernel(gens, width), width)
            if gens
            else ()
        )
        assert saturation_basis(rows, width) == expected

    @exact
    @given(st.integers(0, 2**32))
    def test_saturate_bit_equal(self, seed):
        rng = random.Random(seed)
        L = random_nondegenerate_lattice(rng, max_rank=6)
        S = random_sublattice(L, rng)
        n = L.rank
        expected = reference_integer_kernel(reference_integer_kernel(S.basis, n), n)
        assert saturate(L, S).basis == saturation_basis(S.basis, n) == expected
        assert S.saturated == (S.basis == expected)

    def test_empty_input(self):
        assert hermite_basis([], 3) == ()
        assert integer_kernel([], 2) == ((1, 0), (0, 1))
        assert saturation_basis([], 3) == ()
        assert hermite_basis([], 0) == integer_kernel([[]]) == ()


def random_canonical_basis(rng, width):
    """A canonical Hermite basis of rank 0 to ``width`` with 40-bit
    entries, some rows scaled so that pivots exceed 1."""
    rows = []
    for _ in range(rng.randint(0, width + 1)):
        bits = rng.choice((3, 40))
        row = [rng.randint(-(2**bits), 2**bits) if rng.random() < 0.6 else 0 for _ in range(width)]
        rows.append([rng.choice((1, 1, 2, 6, 2**39 + 1)) * x for x in row])
    return core._hnf(rows)


def random_test_vector(rng, basis, width):
    """The zero vector, an integer or halved combination of the basis, such
    a combination moved by a unit vector, or a random 40-bit vector."""
    kind = rng.randrange(5)
    if kind == 0 or (kind < 4 and not basis):
        return (0,) * width
    if kind == 4:
        return tuple(rng.randint(-(2**40), 2**40) for _ in range(width))
    v = [0] * width
    for row in basis:
        c = rng.randint(-(2**40), 2**40)
        v = [x + c * y for x, y in zip(v, row)]
    if kind == 2 and all(x % 2 == 0 for x in v):
        v = [x // 2 for x in v]  # stays in the rational span
    if kind == 3:
        v[rng.randrange(width)] += rng.choice((1, -1))
    return tuple(v)


def random_unit_pivot_basis(rng, width):
    """A canonical Hermite basis whose pivots are all 1: rows that start
    with a 1 in distinct columns, followed by random entries."""
    cols = sorted(rng.sample(range(width), rng.randint(0, width)))
    rows = [[0] * c + [1] + [rng.randint(-9, 9) for _ in range(width - c - 1)] for c in cols]
    return core._hnf(rows)


class TestSaturation:
    """core._saturation, behind saturate, saturation_basis,
    Sublattice.saturated and the coinvariant sublattice, against the kernel
    of the kernel; a basis whose pivots are all 1 comes back unchanged."""

    @exact
    @given(st.integers(0, 2**32), st.integers(0, 7), st.booleans())
    def test_equals_the_kernel_of_the_kernel(self, seed, width, unit):
        rng = random.Random(seed)
        h = random_unit_pivot_basis(rng, width) if unit else random_canonical_basis(rng, width)
        got = core._saturation(h, width)
        assert got == core._kernel_of_hnf(core._kernel_of_hnf(h, width), width)
        pivots = [next(x for x in row if x) for row in h]
        assert (got is h) == (prod(pivots) == 1)
        assert not unit or got is h

    @exact
    @given(st.integers(0, 2**32))
    def test_public_readers(self, seed):
        rng = random.Random(seed)
        L = random_nondegenerate_lattice(rng, max_rank=6)
        S = random_sublattice(L, rng)
        expected = core._saturation(S.basis, L.rank)
        assert saturate(L, S).basis == saturation_basis(S.basis, L.rank) == expected
        assert S.saturated == (expected == S.basis)


class TestSift:
    """Membership by sifting against a canonical basis, integral and
    rational, agrees with the echelon tests it replaced: the HNF of the
    basis and the vector is the basis, and the rank does not grow."""

    @exact
    @given(st.integers(0, 2**32), st.integers(1, 7))
    def test_agrees_with_the_echelon_tests(self, seed, width):
        rng = random.Random(seed)
        basis = random_canonical_basis(rng, width)
        vectors = [random_test_vector(rng, basis, width) for _ in range(4)]
        integral = [core._hnf([*basis, v]) == basis for v in vectors]
        rational = [len(core._hnf([*basis, v])) == len(basis) for v in vectors]
        for v, inside, spanned in zip(vectors, integral, rational):
            assert core._sift(basis, [v]) == inside
            assert core._sift(basis, [v], rational=True) == spanned
        assert core._sift(basis, vectors) == all(integral)
        assert core._sift(basis, vectors, rational=True) == all(rational)
        assert core._sift(basis, []) and core._sift(basis, [], rational=True)

    @exact
    @given(st.integers(0, 2**32), st.integers(1, 7))
    def test_public_readers(self, seed, width):
        rng = random.Random(seed)
        L = Lattice.from_gram(identity_matrix(width))
        outer = Sublattice._trusted(L, random_canonical_basis(rng, width))
        inner = Sublattice._trusted(L, random_canonical_basis(rng, width))
        v = random_test_vector(rng, outer.basis, width)
        assert outer.contains(v) == (hermite_basis([*outer.basis, v], width) == outer.basis)
        assert outer.rational_span_contains(v) == (rank_of([*outer.basis, v], width) == outer.rank)
        assert rational_span_leq(inner, outer) == (
            rank_of(outer.basis + inner.basis, width) == outer.rank
        )

    def test_pivots_above_one(self):
        basis = ((2, 1, 0), (0, 3, 0))
        assert core._sift(basis, [(4, 5, 0), (0, 0, 0)])
        assert not core._sift(basis, [(2, 2, 0)])
        assert core._sift(basis, [(1, 0, 0), (0, 1, 0)], rational=True)
        assert not core._sift(basis, [(0, 0, 1)], rational=True)
        assert core._sift((), [(0, 0, 0)]) and not core._sift((), [(0, 1, 0)])

    @pytest.mark.parametrize(
        "basis, index",
        [(((2, 0, 1), (0, 3, 1)), 1), (((2, 0, 0), (0, 3, 1)), 2), (((2, 0, 0), (0, 3, 0)), 6)],
        ids=["saturated", "proper-divisor", "pivot-product"],
    )
    def test_rational_membership_scales_by_the_pivot_product(self, basis, index):
        # pivots 2 and 3, so P = 6; [saturation : span] is 1, 2 or 6
        def pivot_product(rows):
            return prod(next(x for x in row if x) for row in rows)

        assert hermite_basis(basis, 3) == basis
        assert pivot_product(basis) // pivot_product(saturation_basis(basis, 3)) == index
        for v in itertools.product(range(-3, 4), repeat=3):
            assert core._sift(basis, [v]) == (hermite_basis([*basis, v], 3) == basis)
            assert core._sift(basis, [v], rational=True) == (rank_of([*basis, v], 3) == 2)


class TestKernelByBruteForce:
    @exact
    @given(matrices)
    def test_kernel_laws(self, case):
        width, rows = case
        ker = integer_kernel(rows, width)
        for v in ker:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert len(ker) == width - len(reference_hermite_basis(rows, width))
        if ker:
            assert maximal_minors_gcd(ker) == 1
        assert is_hermite(ker, width)


class TestAgainstSympy:
    @pytest.mark.parametrize("rows", [DENSE_12, SIGNS_23], ids=["dense-12", "signs-23"])
    def test_same_lattice(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form

        n = len(rows)
        ours = sympy.Matrix(hermite_basis(rows, n)).T  # basis vectors as columns
        theirs = hermite_normal_form(sympy.Matrix(rows).T)
        assert ours.shape == theirs.shape == (n, n)
        # Each basis lies in the integer span of the other.
        for a, b in ((ours, theirs), (theirs, ours)):
            coeffs = b.solve(a)
            assert all(x.is_integer for x in coeffs)


class TestGramFromOneProduct:
    def test_equals_pairings(self):
        rng = random.Random(8)
        for _ in range(40):
            L = random_nondegenerate_lattice(rng, max_rank=6)
            S = random_sublattice(L, rng)
            expected = tuple(tuple(pairing(L, u, v) for v in S.basis) for u in S.basis)
            assert S.gram() == expected
            assert all(type(x) is int for row in S.gram() for x in row)

    def test_rank_zero(self):
        assert Sublattice(K3, ()).gram() == ()
        empty = Lattice.from_gram([])
        assert Sublattice(empty, ()).gram() == ()


def count_conversions(monkeypatch):
    """Wrap as_vector and as_matrix wherever hilblat binds them; the
    returned dict counts their calls from now on."""
    counts = {"as_vector": 0, "as_matrix": 0}

    def counted(name):
        original = getattr(core, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        wrapper = counted(name)
        for module in (core, groups):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return counts


class TestValidationAtTheBoundary:
    """Internal callers work on rows the library built itself: once their
    arguments exist, they convert nothing through as_vector or as_matrix."""

    def test_internal_callers_convert_nothing(self, monkeypatch):
        rng = random.Random(4)
        L = random_nondegenerate_lattice(rng, min_rank=4, max_rank=6)
        S = random_sublattice(L, rng)
        T = random_sublattice(L, rng)
        G = closure(K3, [nikulin_generic_marking()])
        counts = count_conversions(monkeypatch)
        comp = orthogonal_complement(L, S)
        sat = saturate(L, S)
        assert S.saturated in (True, False)
        rational_span_leq(S, T)
        inv = invariant_sublattice(G)
        coinvariant_sublattice(G)
        verify_pair_properties(G)
        comp.gram(), sat.gram(), inv.gram()
        assert counts == {"as_vector": 0, "as_matrix": 0}

    def test_public_entry_points_still_convert(self, monkeypatch):
        counts = count_conversions(monkeypatch)
        hermite_basis([(1, 2)], 2)
        rank_of([(1, 2)], 2)
        saturation_basis([(2, 4)], 2)
        Sublattice(K3, [(1,) + (0,) * 21])
        assert counts == {"as_vector": 4, "as_matrix": 0}
        integer_kernel([[1, 1]])
        assert counts == {"as_vector": 4, "as_matrix": 1}

    def test_membership_checks_the_vector(self):
        S = Sublattice(K3, [(1,) + (0,) * 21])
        for method in (S.contains, S.rational_span_contains):
            with pytest.raises(LatticeError, match=r"^integer entry expected, got 1\.0$"):
                method((1.0,) + (0,) * 21)
            with pytest.raises(LatticeError, match=r"^vector of length 2 inside Z\^22$"):
                method((1, 0))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: hermite_basis([(1, True)], 2), "integer entry expected, got True"),
            (lambda: rank_of([(1.5, 0)], 2), "integer entry expected, got 1.5"),
            (lambda: saturation_basis([(1, 0, 0)], 2), "vector of length 3 inside Z^2"),
            (lambda: integer_kernel([[1, 0], [1]]), "matrix rows have unequal lengths"),
            (lambda: integer_kernel([]), "kernel of an empty matrix needs an explicit width"),
            (
                lambda: integer_kernel([[1, 0]], 3),
                "matrix width disagrees with the requested kernel width",
            ),
            (lambda: Sublattice(K3, [(1,) * 21]), "vector of length 21 inside Z^22"),
            (
                lambda: Sublattice(K3, [(1,) * 22, (2,) * 22]),
                "sublattice generators are linearly dependent",
            ),
        ],
        ids=["bool", "float", "width", "ragged", "empty", "kernel-width", "sub-width", "dependent"],
    )
    def test_public_entry_points_reject_bad_input(self, call, message):
        with pytest.raises(LatticeError) as exc:
            call()
        assert str(exc.value) == message
