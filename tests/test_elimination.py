"""The one fraction-free elimination behind det, signature, sub_signature
and discriminant, checked against the two loops it replaced: the Bareiss
``det`` and the LDL^T over Fraction, kept in ``tests/helpers.py``.

Seeded and database-free, so every run tries the same examples.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import reference_det, reference_inertia
from hilblat import (
    Lattice,
    LatticeError,
    Sublattice,
    det,
    discriminant,
    rank_of,
    signature,
    sub_signature,
)

exact = settings(derandomize=True, database=None, deadline=None, max_examples=200)

small = st.integers(-3, 3)
wide = st.one_of(st.integers(2**40, 2**48), st.integers(-(2**48), -(2**40)))
dense = st.one_of(st.just(0), small, wide)
sparse = st.one_of(st.just(0), st.just(0), st.just(0), small)


@st.composite
def symmetric(draw, entries=dense, max_rank=7, zero_diagonal=False):
    n = draw(st.integers(0, max_rank))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            a[i][j] = a[j][i] = draw(entries)
    return tuple(map(tuple, a))


def _permuted(a, perm):
    return tuple(tuple(a[i][j] for j in perm) for i in perm)


@st.composite
def degenerate(draw):
    """A symmetric matrix with e_n - v in its radical, indices shuffled."""
    g = draw(symmetric(entries=st.one_of(st.just(0), small), max_rank=6))
    n = len(g)
    v = draw(st.lists(small, min_size=n, max_size=n))
    col = [sum(x * y for x, y in zip(row, v)) for row in g]
    corner = sum(x * y for x, y in zip(col, v))
    a = [list(row) + [c] for row, c in zip(g, col)] + [col + [corner]]
    return _permuted(a, draw(st.permutations(range(n + 1))))


@st.composite
def hyperbolic_blocks(draw):
    """Orthogonal sums of U(k), (d) and (0) blocks, indices shuffled."""
    blocks = draw(st.lists(st.one_of(
        st.integers(-4, 4).filter(bool).map(lambda k: ((0, k), (k, 0))),
        st.integers(-4, 4).map(lambda d: ((d,),)),
    ), max_size=4))
    n = sum(map(len, blocks))
    a = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                a[start + i][start + j] = x
        start += len(b)
    return _permuted(a, draw(st.permutations(range(n))))


@st.composite
def square(draw, entries=dense, max_rank=7, singular=False):
    n = draw(st.integers(1 if singular else 0, max_rank))
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if singular:
        i = draw(st.integers(0, n - 1))
        c = draw(st.lists(small, min_size=n, max_size=n))
        a[i] = [sum(c[k] * a[k][j] for k in range(n) if k != i) for j in range(n)]
    return tuple(map(tuple, a))


@st.composite
def skew(draw, max_rank=7):
    """Skew-symmetric matrices: every repair there is a row swap (step 3)."""
    n = draw(st.integers(0, max_rank))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(sparse)
            a[j][i] = -a[i][j]
    return tuple(map(tuple, a))


def _check_form(g):
    L = Lattice.from_gram(g)
    assert signature(L) == reference_inertia(g)
    assert discriminant(L) == det(g) == reference_det(g)


class TestAgainstReference:
    @exact
    @given(symmetric())
    def test_dense_symmetric(self, g):
        _check_form(g)

    @exact
    @given(symmetric(entries=sparse, max_rank=9))
    def test_sparse_symmetric(self, g):
        _check_form(g)

    @exact
    @given(symmetric(entries=st.one_of(sparse, wide), zero_diagonal=True))
    def test_zero_diagonal(self, g):
        _check_form(g)

    @exact
    @given(degenerate())
    def test_degenerate(self, g):
        _check_form(g)
        assert signature(Lattice.from_gram(g)).zero >= 1

    @exact
    @given(hyperbolic_blocks())
    def test_hyperbolic_blocks(self, g):
        _check_form(g)

    @exact
    @given(symmetric(entries=st.one_of(st.just(0), small), max_rank=6), st.data())
    def test_sub_signature(self, g, data):
        L = Lattice.from_gram(g)
        n = L.rank
        assume(n > 0)
        k = data.draw(st.integers(1, n))
        rows = data.draw(st.lists(
            st.lists(st.one_of(small, wide), min_size=n, max_size=n), min_size=k, max_size=k
        ))
        assume(rank_of(rows, n) == k)
        s = Sublattice(L, rows)
        gram = s.gram()
        assert sub_signature(s) == reference_inertia(gram)
        assert s._form[1] == reference_det(gram)

    @exact
    @given(st.one_of(square(), square(singular=True), square(entries=sparse), skew()))
    def test_general_det(self, m):
        assert det(m) == reference_det(m)

    @pytest.mark.parametrize("m, expected", [
        (((0, 1), (-1, 0)), 1),
        (((0, 1, 0), (-1, 0, 2), (0, -2, 0)), 0),
        (((0, 1, 2, 3), (-1, 0, 4, 5), (-2, -4, 0, 6), (-3, -5, -6, 0)), 64),
    ])
    def test_row_swap_repair(self, m, expected):
        # zero diagonal and a[k][j] + a[j][k] = 0: only a row swap repairs
        assert det(m) == reference_det(m) == expected

    def test_u_plus_u(self):
        g = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        assert signature(Lattice.from_gram(g)) == (2, 0, 2) == reference_inertia(g)
        assert det(g) == 1 == reference_det(g)


class TestDetInput:
    @pytest.mark.parametrize("m", [((1.5,),), ((1.5, 0), (0, 2)), (("a",),), ((True,),)])
    def test_non_integer_entries_rejected(self, m):
        with pytest.raises(LatticeError, match="integer entry expected"):
            det(m)

    def test_shape(self):
        assert det([[2, 1], [1, 3]]) == 5
        assert det(()) == 1
        for m in ([[1, 2]], [[1, 2], [3]], [[1.5, 2]]):
            with pytest.raises(LatticeError, match="determinant requires a square matrix"):
                det(m)
