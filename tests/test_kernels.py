"""Property tests of the sparse exact kernels against brute-force oracles.

``mat_mul`` is compared with the textbook triple sum, and in the exact type
of every entry with the sum of the nonzero products, ``isometry_violation``
with a dense M^T . gram . M followed by a Bareiss determinant, the form's
other uses (pairings, reflections, restricted Grams and complements) with
dense textbook formulas, and every isometry the library builds without
re-validation is checked with ``isometry_violation``.
"""

import os
import random
import re
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from helpers import (
    random_norm_pm2_vector,
    random_reflection_product,
    reference_integer_kernel,
    reference_mat_mul,
    reference_pairing,
    reference_reflection,
    reference_restricted_gram,
)
from hilblat import (
    K3_RANK,
    DouadyLattice,
    ExceptionalPair,
    Isometry,
    Lattice,
    LatticeError,
    Sublattice,
    core,
    det,
    diagonal_lattice,
    direct_sum,
    douady_lattice,
    extract_surface_isometry,
    full_sublattice,
    hermite_basis,
    hyperbolic_plane,
    identity_isometry,
    identity_matrix,
    index_invariant,
    is_natural_on_lattice,
    isometry_violation,
    k3_lattice,
    mat_mul,
    mat_vec,
    natural_lift,
    norm,
    orthogonal_complement,
    pairing,
    reflection_isometry,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
K3 = k3_lattice()
D2 = douady_lattice(2)
D3 = douady_lattice(3)

# Seeded and database-free, so every run tries the same examples.
exact = settings(derandomize=True, database=None, deadline=None, max_examples=100)

small = st.integers(-3, 3)
big = st.integers(-(2**70), 2**70)
rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)
entries = st.one_of(st.just(0), small, big, rational)


def textbook_product(a, b):
    width = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(width))
        for i in range(len(a))
    )


@st.composite
def product_pairs(draw, inner=None):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    inner = draw(st.integers(0, 5)) if inner is None else inner
    a = tuple(tuple(draw(entries) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(inner))
    return a, b


@st.composite
def lattices(draw, max_rank=5):
    """Random symmetric Gram matrices; some with a zero row and column, so
    that degenerate forms come up often."""
    n = draw(st.integers(0, max_rank))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(small)
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            g[i][k] = g[k][i] = 0
    return Lattice.from_gram(g)


def dense_violation(L, m):
    """Brute-force oracle: dense gram . M, then every entry of
    M^T . (gram . M) for i <= j in row order, then the Bareiss det."""
    n = L.rank
    g = L.gram
    gm = [[sum(g[a][b] * m[b][j] for b in range(n)) for j in range(n)] for a in range(n)]
    for i in range(n):
        for j in range(i, n):
            got = sum(m[a][i] * gm[a][j] for a in range(n))
            if got != g[i][j]:
                return f"q(f(b{i}), f(b{j})) = {got}, expected q(b{i}, b{j}) = {g[i][j]}"
    d = det(m)
    return None if d in (1, -1) else f"det = {d}, expected 1 or -1"


def reflection_vectors(L, rng, count):
    """Up to ``count`` random vectors whose reflection is integral."""
    out = []
    for _ in range(50 * count):
        v = tuple(rng.randint(-2, 2) for _ in range(L.rank))
        q = norm(L, v)
        if q and all(2 * x % q == 0 for x in mat_vec(L.gram, v)):
            out.append(v)
            if len(out) == count:
                break
    return out


def known_isometry(L, rng):
    """Plus or minus a product of integral reflections, times a scaling of
    the basis vectors whose Gram row is zero: M^T . gram . M = gram holds,
    and on a degenerate form det M may be any integer."""
    n = L.rank
    sign = rng.choice((1, -1))
    m = tuple(tuple(sign if i == j else 0 for j in range(n)) for i in range(n))
    for v in reflection_vectors(L, rng, rng.randint(0, 3)):
        m = mat_mul(m, reflection_isometry(L, v).matrix)
    scale = [rng.randint(-3, 3) if not any(row) else 1 for row in L.gram]
    diagonal = tuple(tuple(scale[i] if i == j else 0 for j in range(n)) for i in range(n))
    return mat_mul(m, diagonal)


class Two(IntEnum):
    TWO = 2


zeros = st.sampled_from([0, 0, False, Fraction(0)])
ones = st.sampled_from([1, 1, True, Fraction(1)])
right_entries = st.one_of(
    st.just(0), small, big, st.sampled_from([True, Two.TWO, Fraction(0)]), rational.filter(bool)
)


@st.composite
def near_identity_pairs(draw):
    """(a, b) where some rows of a, and of a square b, are unit vectors,
    with a 1 that may be True or Fraction(1) and zeros that may be False
    or Fraction(0); a may have more rows than b."""
    n = draw(st.integers(0, 5))
    width = draw(st.one_of(st.just(n), st.integers(0, 5)))

    def unit_or(i, entry, length):
        if i < length and draw(st.booleans()):
            one = draw(ones)
            return tuple(one if j == i else draw(zeros) for j in range(length))
        return tuple(draw(entry) for _ in range(length))

    a = tuple(unit_or(i, entries, n) for i in range(draw(st.integers(0, 6))))
    b = tuple(unit_or(k, right_entries, width) for k in range(n))
    return a, b


def entry_types(m):
    return [[type(x) for x in row] for row in m]


class TestMatMul:
    @exact
    @given(product_pairs())
    def test_equals_textbook_sum(self, pair):
        a, b = pair
        assert mat_mul(a, b) == textbook_product(a, b)

    @settings(exact, max_examples=300)
    @given(near_identity_pairs())
    def test_same_entries_and_types_as_the_sum_of_nonzero_products(self, pair):
        # not the textbook sum, which also adds the zero products: for
        # ((0,),) times ((Fraction(1, 2),),) it gives Fraction(0), mat_mul 0
        a, b = pair
        got, want = mat_mul(a, b), reference_mat_mul(a, b)
        assert got == want
        assert type(got) is tuple and all(type(row) is tuple for row in got)
        assert entry_types(got) == entry_types(want)

    def test_a_unit_row_copies_only_an_all_int_row(self):
        a = ((1, 0), (0, 1))
        b = ((Two.TWO, 0), (3, -4))
        got = mat_mul(a, b)
        assert got == b and entry_types(got) == [[int, int], [int, int]]
        assert got[1] is b[1]
        assert mat_mul(a, [[1, 2], [3, 4]]) == ((1, 2), (3, 4))

    @settings(exact, max_examples=20)
    @given(st.integers(0, 2**32))
    def test_isometry_products_equal_the_dense_product(self, seed):
        rng = random.Random(seed)
        phi, psi = (Isometry(K3, random_reflection_product(K3, rng, max_length=3)) for _ in "ab")
        factors = [[phi, psi]]
        for D in (D2, D3):
            raw = random_reflection_product(D.full, rng, max_length=3)
            factors.append([natural_lift(D, phi), natural_lift(D, psi), Isometry(D.full, raw)])
        for isometries in factors:
            for f in isometries:
                for g in isometries:
                    assert (f * g).matrix == textbook_product(f.matrix, g.matrix)

    @exact
    @given(product_pairs(inner=0))
    def test_empty_inner_dimension(self, pair):
        a, b = pair
        assert mat_mul(a, b) == textbook_product(a, b) == tuple(() for _ in a)

    def test_rational_entries(self):
        a = ((Fraction(1, 2), 0), (3, Fraction(-2, 3)))
        b = ((Fraction(4, 3), 1), (0, Fraction(3, 2)))
        assert mat_mul(a, b) == ((Fraction(2, 3), Fraction(1, 2)), (4, 2))

    @settings(exact, max_examples=30)
    @given(product_pairs(), st.integers(1, 5))
    def test_dimension_mismatch_raises(self, pair, extra):
        a, b = pair
        if a and a[0]:
            with pytest.raises(LatticeError):
                mat_mul(a, ())  # a right factor with no rows at all
        if not a or not b:
            return
        wrong = b + tuple(b[0] for _ in range(extra))
        with pytest.raises(LatticeError):
            mat_mul(a, wrong)


class TestIsometryViolation:
    @exact
    @given(lattices(), st.data())
    def test_random_matrices(self, L, data):
        n = L.rank
        m = tuple(tuple(data.draw(st.integers(-2, 2)) for _ in range(n)) for _ in range(n))
        assert isometry_violation(L, m) == dense_violation(L, m)

    @exact
    @given(lattices(), st.randoms(use_true_random=False), st.booleans())
    def test_isometries_and_near_misses(self, L, rng, perturb):
        m = known_isometry(L, rng)
        if perturb and L.rank:
            i, j = rng.randrange(L.rank), rng.randrange(L.rank)
            rows = [list(row) for row in m]
            rows[i][j] += rng.choice((1, -1, 2))
            m = tuple(tuple(row) for row in rows)
        expected = dense_violation(L, m)
        assert isometry_violation(L, m) == expected
        if not perturb:
            assert expected is None or expected.startswith("det = ")

    def test_determinant_checked_only_on_degenerate_forms(self):
        L = Lattice.from_gram([[2, 0], [0, 0]])
        assert isometry_violation(L, ((1, 0), (0, 2))) == "det = 2, expected 1 or -1"
        assert isometry_violation(L, ((1, 0), (5, 1))) is None

    def test_k3_reflection_products(self):
        rng = random.Random(5)
        for _ in range(10):
            m = random_reflection_product(K3, rng)
            assert isometry_violation(K3, m) is None
            bad = m[:-1] + (m[-1][:-1] + (m[-1][-1] + 1,),)
            assert isometry_violation(K3, bad) == dense_violation(K3, bad)

    @exact
    @given(lattices(max_rank=3), st.integers(1, 2))
    def test_shape_mismatch_raises(self, L, extra):
        n = L.rank + extra
        with pytest.raises(LatticeError):
            isometry_violation(L, tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def moved_columns(m):
    """The j with column j of ``m`` not the unit vector e_j."""
    unit = identity_matrix(len(m))
    return [j for j, col in enumerate(zip(*m)) if col != unit[j]]


def lifted_reflections(D, rng):
    """The natural lift of a product of one to three reflections in K3."""
    phi = identity_isometry(K3)
    for _ in range(rng.randint(1, 3)):
        phi = phi * reflection_isometry(K3, random_norm_pm2_vector(K3, rng))
    return natural_lift(D, phi).matrix


def delta_reflection(D, rng):
    """s_(2w+delta), w = u + r isotropic: u of norm 2 in one U summand and
    r a basis root of one E8(-1).  It moves e."""
    w = [0] * K3.rank
    k = 2 * rng.randrange(3)
    w[k] = w[k + 1] = rng.choice((1, -1))
    w[6 + rng.randrange(16)] = rng.choice((1, -1))
    return reflection_isometry(D.full, tuple(2 * x for x in w) + (1,)).matrix


def replaced_columns(L, rng):
    """The identity with one or two columns replaced by short random ones."""
    columns = [list(col) for col in identity_matrix(L.rank)]
    for j in rng.sample(range(L.rank), rng.randint(1, 2)):
        columns[j] = [0] * L.rank
        for _ in range(rng.randint(1, 4)):
            columns[j][rng.randrange(L.rank)] = rng.randint(-2, 2)
    return tuple(zip(*columns))


def every_column_moved(L, rng):
    """A product of reflections in vectors of norm +-2 that moves every
    basis vector."""
    m = identity_matrix(L.rank)
    while len(moved_columns(m)) < L.rank:
        v = random_norm_pm2_vector(L, rng, max_entry=1, max_support=6)
        m = mat_mul(m, reflection_isometry(L, v).matrix)
    return m


def perturbed(m, rng):
    rows = [list(row) for row in m]
    rows[rng.randrange(len(m))][rng.randrange(len(m))] += rng.choice((1, -1, 2))
    return tuple(tuple(row) for row in rows)


PAIR_CLASSES = ("fixed, moved", "moved, fixed", "both moved")


def first_pair_class(m, message):
    """Which of the two basis vectors of the violated pair ``m`` moves."""
    i, j = map(int, re.match(r"q\(f\(b(\d+)\), f\(b(\d+)\)\)", message).groups())
    moved = moved_columns(m)
    if i not in moved:
        return "fixed, moved"  # a pair of fixed vectors cannot be violated
    return "both moved" if j in moved else "moved, fixed"


class TestMovedColumns:
    """The scan skips the pairs of basis vectors that M fixes; the first
    violation must still be the dense oracle's, whichever vector of the
    violated pair moves."""

    @settings(exact, max_examples=60)
    @given(
        st.sampled_from((D2, D3)),
        st.sampled_from((lifted_reflections, delta_reflection)),
        st.sampled_from(PAIR_CLASSES),
        st.integers(0, 2**32),
    )
    def test_first_violation_in_each_pair_class(self, D, isometry, wanted, seed):
        rng = random.Random(seed)
        m = isometry(D, rng)
        assert isometry_violation(D.full, m) is None
        assert len(moved_columns(m)) < D.lattice.rank
        # perturb one entry, drawn until the first violation is in the class
        for _ in range(2000):
            bad = perturbed(m, rng)
            expected = dense_violation(D.full, bad)
            if expected is not None and first_pair_class(bad, expected) == wanted:
                break
        else:
            reject()
        assert isometry_violation(D.full, bad) == expected

    @settings(exact, max_examples=60)
    @given(
        st.sampled_from((K3, D2.full, D3.full)),
        st.integers(0, 2**32),
        st.booleans(),
    )
    def test_replaced_columns(self, L, seed, perturb):
        rng = random.Random(seed)
        m = replaced_columns(L, rng)
        if perturb:
            m = perturbed(m, rng)
        assert isometry_violation(L, m) == dense_violation(L, m)

    @settings(exact, max_examples=10)
    @given(st.sampled_from((K3, D2.full)), st.integers(0, 2**32))
    def test_every_column_moved(self, L, seed):
        rng = random.Random(seed)
        m = every_column_moved(L, rng)
        assert isometry_violation(L, m) is None
        for _ in range(5):
            bad = perturbed(m, rng)
            assert isometry_violation(L, bad) == dense_violation(L, bad)

    @exact
    @given(st.integers(-5, 5))
    def test_scaled_column_on_a_degenerate_form(self, scale):
        # K3 + <0>: scaling the radical's basis vector keeps the form
        L = direct_sum(K3, diagonal_lattice((0,)))
        m = identity_matrix(L.rank)[:-1] + ((0,) * K3.rank + (scale,),)
        expected = None if scale in (1, -1) else f"det = {scale}, expected 1 or -1"
        assert isometry_violation(L, m) == dense_violation(L, m) == expected


class TestOneCombinePerMovedColumn:
    """The scan forms a column of gram . M only for a moved column."""

    @staticmethod
    def combine_calls(monkeypatch, L, m):
        calls = []
        combine = core._combine

        def counted(*args):
            calls.append(args[0])
            return combine(*args)

        monkeypatch.setattr(core, "_combine", counted)
        assert isometry_violation(L, m) is None
        return len(calls)

    def test_identity(self, monkeypatch):
        assert self.combine_calls(monkeypatch, D2.full, identity_matrix(D2.lattice.rank)) == 0

    def test_lift_of_one_reflection(self, monkeypatch):
        rng = random.Random(22)
        for _ in range(10):
            r = random_norm_pm2_vector(K3, rng)
            lift = natural_lift(D2, reflection_isometry(K3, r)).matrix
            moved = sum(1 for x in mat_vec(K3.gram, r) if x)
            assert len(moved_columns(lift)) == moved
            assert self.combine_calls(monkeypatch, D2.full, lift) == moved

    def test_dense(self, monkeypatch):
        m = every_column_moved(D2.full, random.Random(22))
        assert self.combine_calls(monkeypatch, D2.full, m) == D2.lattice.rank


class TestFormOracles:
    """Pairings, reflections, restricted Grams and complements all apply the
    Gram matrix through its cached sparse rows; each must equal its dense
    textbook formula, on degenerate forms too."""

    @exact
    @given(lattices(), st.data())
    def test_pairing(self, L, data):
        x, y = (tuple(data.draw(entries) for _ in range(L.rank)) for _ in range(2))
        got = pairing(L, x, y)
        assert got == reference_pairing(L.gram, x, y) == pairing(L, y, x)
        assert norm(L, x) == reference_pairing(L.gram, x, x)
        # only a nonzero rational entry can make the value a Fraction
        if all(type(v) is int for v in x + y if v):
            assert type(got) is int

    @exact
    @given(lattices(), st.data())
    def test_pairing_with_zero_vectors(self, L, data):
        ints = tuple(data.draw(big) for _ in range(L.rank))
        halves = (Fraction(1, 2),) * L.rank
        for zero in ((0,) * L.rank, (Fraction(0),) * L.rank):
            for other in ((0,) * L.rank, (Fraction(0),) * L.rank, ints):
                for got in (pairing(L, zero, other), pairing(L, other, zero)):
                    assert got == 0 and type(got) is int
            assert pairing(L, zero, halves) == pairing(L, halves, zero) == 0

    @exact
    @given(lattices(), st.data())
    def test_pairing_value_and_type_do_not_depend_on_the_order(self, L, data):
        x, y = (tuple(data.draw(entries) for _ in range(L.rank)) for _ in range(2))
        got = pairing(L, x, y)
        back = pairing(L, y, x)
        assert got == back and type(got) is type(back)
        # a Fraction exactly when some nonzero entry of x or y is one
        rational = any(type(v) is Fraction for v in x + y if v)
        assert type(got) is (Fraction if rational else int)

    def test_a_rational_entry_against_a_zero_image_makes_a_fraction(self):
        U = hyperbolic_plane()
        half = (Fraction(1, 2), Fraction(1, 2))
        for got in (pairing(U, half, (0, 0)), pairing(U, (0, 0), half)):
            assert got == 0 and type(got) is Fraction
        L = diagonal_lattice((1, 1))
        for got in (pairing(L, (0, 1), (Fraction(1, 2), 0)),
                    pairing(L, (Fraction(1, 2), 0), (0, 1))):
            assert got == 0 and type(got) is Fraction

    def test_a_zero_rational_entry_does_not_make_a_fraction(self):
        L = Lattice.from_gram(((0, 3, 2), (3, 0, 0), (2, 0, 0)))
        got = pairing(L, (3, 0, 2), (Fraction(0), -1, 0))
        assert got == -9 and type(got) is int

    @exact
    @given(lattices(), st.data())
    def test_reflection(self, L, data):
        v = tuple(data.draw(small) for _ in range(L.rank))
        if reference_pairing(L.gram, v, v) == 0:
            with pytest.raises(LatticeError, match="norm zero"):
                reflection_isometry(L, v)
            return
        matrix, message = reference_reflection(L.gram, v)
        if message is not None:
            with pytest.raises(LatticeError) as exc:
                reflection_isometry(L, v)
            assert str(exc.value) == message
        else:
            assert reflection_isometry(L, v).matrix == matrix

    @exact
    @given(lattices(), st.data())
    def test_restricted_gram_and_complement(self, L, data):
        n = L.rank
        count = data.draw(st.integers(0, n + 1))
        rows = [tuple(data.draw(small) for _ in range(n)) for _ in range(count)]
        s = Sublattice(L, hermite_basis(rows, n))
        assert s.gram() == reference_restricted_gram(L.gram, s.basis)
        gb = [tuple(reference_pairing(L.gram, b, e) for e in identity_matrix(n)) for b in s.basis]
        expected = reference_integer_kernel(gb, n) if gb else identity_matrix(n)
        assert orthogonal_complement(L, s).basis == expected

    def test_one_gram_image_per_reflection(self, monkeypatch):
        # q(v) and every 2 q(b_j, v) come from one gram . v
        rng = random.Random(24)
        roots = [random_norm_pm2_vector(K3, rng) for _ in range(5)]
        calls = []
        combine = core._combine

        def counted(*args):
            calls.append(args[0])
            return combine(*args)

        monkeypatch.setattr(core, "_combine", counted)
        for count, root in enumerate(roots, 1):
            reflection_isometry(K3, root)
            assert len(calls) == count

    @pytest.mark.parametrize("index", [-1, 2, 5, 1.0, True, "0", None], ids=repr)
    def test_basis_vector_refusals(self, index):
        with pytest.raises(LatticeError) as exc:
            hyperbolic_plane().basis_vector(index)
        assert str(exc.value) == f"basis index must be an int in range(2), got {index!r}"


class TestTrustedConstructions:
    @exact
    @given(lattices(), st.randoms(use_true_random=False))
    def test_identity_and_reflections(self, L, rng):
        assert isometry_violation(L, identity_isometry(L).matrix) is None
        reflections = [reflection_isometry(L, v) for v in reflection_vectors(L, rng, 3)]
        for r in reflections:
            assert isometry_violation(L, r.matrix) is None
        product = identity_isometry(L)
        for r in reflections:
            product = product * r
            assert isometry_violation(L, product.matrix) is None

    @settings(exact, max_examples=25)
    @given(st.integers(0, 2**32))
    def test_k3_products_lifts_and_extractions(self, seed):
        rng = random.Random(seed)
        a = Isometry(K3, random_reflection_product(K3, rng, max_length=3))
        b = Isometry(K3, random_reflection_product(K3, rng, max_length=3))
        assert isometry_violation(K3, (a * b).matrix) is None
        lift = natural_lift(D2, a * b)
        assert isometry_violation(D2.full, lift.matrix) is None
        assert isometry_violation(D2.full, (lift * natural_lift(D2, b.matrix)).matrix) is None
        block = extract_surface_isometry(D2, lift)
        assert block.matrix == (a * b).matrix and isometry_violation(K3, block.matrix) is None

    @exact
    @given(
        lattices(max_rank=4),
        st.integers(-4, 4).filter(bool),
        st.randoms(use_true_random=False),
    )
    def test_lifts_and_extractions_on_pairs(self, block, corner, rng):
        ambient = direct_sum(block, diagonal_lattice((corner,)))
        pair = ExceptionalPair(ambient, (0,) * block.rank + (1,))
        phi = identity_isometry(block)
        for v in reflection_vectors(block, rng, 2):
            phi = phi * reflection_isometry(block, v)
        lift = natural_lift(pair, phi)
        assert isometry_violation(pair.lattice, lift.matrix) is None
        back = extract_surface_isometry(pair, lift.matrix)
        assert back.matrix == phi.matrix and isometry_violation(pair.surface_block, back.matrix) is None

    @exact
    @given(lattices())
    def test_a_lattice_is_its_gram_matrix(self, L):
        g = [list(row) for row in L.gram]
        assert Lattice(g).rank == len(g) and type(Lattice(g).rank) is int
        assert Lattice.from_gram(g) == Lattice(g) == L
        assert hash(Lattice.from_gram(g)) == hash(Lattice(g)) == hash((L.gram,))

    @exact
    @given(lattices())
    def test_full_sublattice_and_basis_vectors(self, L):
        assert full_sublattice(L) == Sublattice(L, identity_matrix(L.rank))
        assert tuple(map(L.basis_vector, range(L.rank))) == identity_matrix(L.rank)

    def test_douady_unit_vectors(self):
        for D in (D2, D3):
            assert D.k3_sublattice() == Sublattice(D.full, identity_matrix(D.lattice.rank)[:22])
            assert D.delta == (0,) * 22 + (1,) == D.full.basis_vector(K3_RANK)

    def test_surface_block_is_cached(self):
        pair = ExceptionalPair(diagonal_lattice((4, -8)), (0, 1))
        assert pair.surface_block is pair.surface_block


class TestBoundaries:
    def test_douady_lattice_must_have_the_douady_form(self):
        assert DouadyLattice(2) == D2

    def test_public_constructor_still_validates(self):
        lift = natural_lift(D2, reflection_isometry(K3, (1, -1) + (0,) * 20)).matrix
        bad = lift[:-1] + (lift[-1][:-1] + (2,),)
        with pytest.raises(LatticeError):
            Isometry(D2.full, bad)
        for check in (index_invariant, is_natural_on_lattice):
            with pytest.raises(LatticeError):
                check(D2, bad)


# A forged isometry that fixes e = (0, 0, 1) but has a nonzero last row:
# extract_surface_isometry must refuse it instead of building the block.
_FORGED = """
from hilblat import ExceptionalPair, Isometry, LatticeError, diagonal_lattice, extract_surface_isometry
pair = ExceptionalPair(diagonal_lattice((1, 1, -2)), (0, 0, 1))
forged = Isometry._trusted(pair.lattice, ((1, 0, 0), (0, 1, 0), (1, 0, 1)))
try:
    extract_surface_isometry(pair, forged)
except LatticeError as exc:
    print("optimized" if not __debug__ else "debug", "refused:", exc)
"""


class TestShapeCheckWithoutAsserts:
    def test_refused_in_process(self):
        pair = ExceptionalPair(diagonal_lattice((1, 1, -2)), (0, 0, 1))
        forged = Isometry._trusted(pair.lattice, ((1, 0, 0), (0, 1, 0), (1, 0, 1)))
        with pytest.raises(LatticeError, match="block diagonal"):
            extract_surface_isometry(pair, forged)

    def test_refused_under_python_O(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-O", "-c", _FORGED],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("optimized refused:")
        assert "block diagonal" in out.stdout
