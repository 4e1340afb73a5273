"""Exact linear algebra for integral lattices with symmetric bilinear forms.

Everything is computed with arbitrary-precision integers and exact
rationals; floating point never enters any computation.  Vectors are
coordinate tuples relative to a lattice basis, matrices are tuples of
row tuples.  Degenerate Gram matrices are legal inputs except where an
operation states otherwise.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, compress
from math import prod
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Isometry",
    "Lattice",
    "LatticeError",
    "Matrix",
    "SignatureTriple",
    "Sublattice",
    "Vector",
    "det",
    "diagonal_lattice",
    "direct_sum",
    "discriminant",
    "full_sublattice",
    "hermite_basis",
    "identity_isometry",
    "identity_matrix",
    "integer_kernel",
    "is_isometry",
    "isometry_violation",
    "mat_mul",
    "mat_vec",
    "norm",
    "orthogonal_complement",
    "pairing",
    "rank_of",
    "rational_span_leq",
    "reflection_isometry",
    "rescale",
    "saturate",
    "saturation_basis",
    "signature",
    "sub_signature",
    "transpose",
]

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class LatticeError(ValueError):
    """A mathematical precondition was violated."""


class _Record:
    """Base of the library's value and report types: named fields, equal
    and hashed as the tuple of their values.

    The fields are each subclass's own annotated names, in order, after
    those of its bases.  The constructor takes them by position or by
    keyword, then runs ``__post_init__``, which may normalise a field
    with ``object.__setattr__``; after that, assignment and deletion raise
    AttributeError.  Only instances of one class compare equal.  The repr
    leaves out the fields whose names start with an underscore.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._field_values = get if len(cls._fields) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} fields, got {len(args)}"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(
                    f"{type(self).__name__}() got an unknown or repeated field {name!r}"
                )
            values[name] = value
        if len(values) < len(names):
            missing = ", ".join(name for name in names if name not in values)
            raise TypeError(f"{type(self).__name__}() is missing the fields {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check or normalise the fields; a subclass's own rules go here."""

    @classmethod
    def _trusted(cls, *values):
        """An instance with the field ``values``, in order, made without
        ``__post_init__``: for values the library built itself, which are
        valid and normalised by construction."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(shown)})"


def _is_int(x) -> bool:
    """Whether ``x`` is an int and not a bool: the one integer test behind
    every integer argument and entry the library checks."""
    return isinstance(x, int) and not isinstance(x, bool)


def _of_length(v, n: int, what: str):
    """``v``, unless its length is not ``n``: the one check of a vector's
    length against a rank; ``what`` names ``v`` in the error."""
    if len(v) != n:
        raise LatticeError(f"{what} of length {len(v)} inside Z^{n}")
    return v


def _entry(x) -> int:
    if not _is_int(x):
        raise LatticeError(f"integer entry expected, got {x!r}")
    return x


_EXACT = frozenset({int, Fraction})


def _all_int(entries) -> bool:
    """Whether every entry is exactly an int, so neither a bool nor another
    int subclass: the one type scan at C speed behind every integer row
    and matrix the library reads."""
    types = list(map(type, entries))
    return types.count(int) == len(types)


def _int_row(data) -> Vector:
    """``data`` as an integer tuple.  One type scan accepts a row of exact
    ints; only a row with some other entry is checked entry by entry, so
    an int subclass still passes unchanged and a bad entry gets the same
    message."""
    row = tuple(data)
    if not _all_int(row):
        for x in row:
            _entry(x)
    return row


def as_vector(data: Sequence[int]) -> Vector:
    return _int_row(data)


def as_matrix(data) -> Matrix:
    """``data`` as a tuple of integer row tuples of one length.  The rows
    are read once, and all their entries get one type scan.  Only when it
    finds an entry that is not exactly an int, or when a row cannot be
    read, are the rows read so far checked one by one, as ``as_vector``
    checks a row.  So the first row with a bad entry or that is not
    iterable raises; unequal lengths are checked last."""
    rows = []
    try:
        # extend keeps the rows read before one that is not iterable
        rows.extend(map(tuple, data))
    finally:
        if not _all_int(chain.from_iterable(rows)):
            for row in rows:
                _int_row(row)
    if len(set(map(len, rows))) > 1:
        raise LatticeError("matrix rows have unequal lengths")
    return tuple(rows)


def _exact_vector(data) -> tuple:
    out = tuple(data)
    if not _EXACT.issuperset(map(type, out)):
        for x in out:
            if not (_is_int(x) or isinstance(x, Fraction)):
                raise LatticeError(f"exact integer or rational entry expected, got {x!r}")
    return out


def identity_matrix(n: int) -> Matrix:
    """The n x n identity matrix; ``n`` must be a non-negative int.  An int
    subclass such as an ``IntEnum`` member gets the same cached matrix as
    the plain int."""
    return _identity_matrix(_check_width(n))


@cache
def _identity_matrix(n: int) -> Matrix:
    """identity_matrix without the check, built once per n: for a width the
    library has checked or made itself, such as a lattice's rank."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def _support(m) -> list[list[tuple[int, int]]]:
    """The nonzero entries of each row of ``m``, as (column, value) pairs,
    selected at C speed by ``compress`` on the entries' truth values."""
    return [list(compress(enumerate(row), row)) for row in m]


def _combine(terms, rows, width: int) -> tuple:
    """The sum of x * rows[k] over the sparse terms (k, x), each row given
    by its nonzero (column, value) pairs: the one kernel behind every
    sparse matrix action in the library."""
    acc = [0] * width
    for k, x in terms:
        for j, y in rows[k]:
            acc[j] += x * y
    return tuple(acc)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row-sparse product: row i is the sum of a[i][k] * b[k] over the
    nonzero a[i][k], each b[k] taken on its nonzero entries only.

    Equal to the textbook triple sum; an entry that no nonzero pair of
    factors reaches is the integer 0.  A row of ``a`` that is the unit
    vector e_i, with an int 1, is row i of ``b`` as it is when that row
    holds only ints, since the sum then gives the same entries.  So a
    near-identity left factor costs only its other rows, and only the rows
    of ``b`` that they reach are taken apart; a unit row of ``b`` is taken
    apart without a scan.
    """
    if a and len(a[0]) != len(b):
        raise LatticeError("matrix dimensions do not match")
    width = len(b[0]) if b else 0
    n = len(b)
    unit = _identity_matrix(n)
    b_rows = {}
    out = []
    for i, row in enumerate(a):
        if i < n and row == unit[i] and type(row[i]) is int and _all_int(b[i]):
            out.append(tuple(b[i]))
            continue
        terms = list(compress(enumerate(row), row))
        for k, _ in terms:
            if k not in b_rows:
                r = b[k]
                # the zeros that make r equal to e_k are all falsy
                b_rows[k] = [(k, r[k])] if r == unit[k] else list(compress(enumerate(r), r))
        out.append(_combine(terms, b_rows, width))
    return tuple(out)


def mat_vec(m: Matrix, v: Sequence) -> tuple:
    if m and len(m[0]) != len(v):
        raise LatticeError("matrix and vector dimensions do not match")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


class SignatureTriple(NamedTuple):
    """Counts of positive, zero and negative eigenvalues of a real symmetric form."""

    pos: int
    zero: int
    neg: int


def det(m) -> int:
    """Exact determinant of a square integer matrix (1 for the empty one)."""
    if any(len(row) != len(m) for row in m):
        raise LatticeError("determinant requires a square matrix")
    return _eliminate(as_matrix(m))[1]


def _eliminate(m: Matrix) -> tuple[SignatureTriple, int]:
    """(signature, determinant) of a square integer matrix, without input
    checks: the one elimination behind ``det``, ``signature``,
    ``sub_signature`` and ``discriminant``.

    Fraction-free (Bareiss) elimination: the step at pivot p replaces each
    trailing entry a[i][j] by (p a[i][j] - a[i][k] a[k][j]) / prev, where
    prev is the previous pivot (1 at first), and the last pivot, with the
    sign of the row swaps, is the determinant.  A zero pivot a[k][k] is
    repaired in this order:

    1. swap index k with the first later index j whose diagonal entry is
       nonzero, in rows and columns (a congruence);
    2. else add index j into index k, rows and columns, for the first j with
       a[k][j] + a[j][k] != 0, which makes that sum the pivot (a congruence);
    3. else swap row k with the first later row j with a[j][k] != 0, which
       flips the sign of the determinant.  Only non-symmetric input gets
       here: on a symmetric matrix steps 1 and 2 failing leave row k zero;
    4. else row and column k are zero: index k counts as a zero and is
       skipped, and the determinant is 0.

    A pivot counts as positive or negative as p * prev is.  On a symmetric
    matrix p / prev is the next diagonal entry of an LDL^T of a congruent
    matrix, so the counts are its inertia (Sylvester's law of inertia).

    Every division is exact.  By Sylvester's identity, after the steps on a
    set S of indices each trailing entry (i, j) is the bordered minor
    det A[S + i, S + j] of the current integer matrix A: congruent to the
    input, or after step 3 equal to it up to row order.  A repair at index k
    changes only rows and columns >= k, so it leaves A[S, S] alone, and a
    bordered minor is linear in its last row and in its last column.  So
    repairing the trailing block gives the same entries as repairing A
    first and then eliminating: each quotient is again a minor of an
    integer matrix.  A skipped index stays out of S, and the zero row it
    leaves in the trailing block, whose determinant is det A times a power
    of prev, makes det A = 0.
    """
    a = [list(row) for row in m]
    pos = zero = neg = 0
    sign = prev = 1
    while a:
        if not a[0][0]:
            rest = range(1, len(a))
            if (j := next((j for j in rest if a[j][j]), None)) is not None:
                a[0], a[j] = a[j], a[0]
                for row in a:
                    row[0], row[j] = row[j], row[0]
            elif (j := next((j for j in rest if a[0][j] + a[j][0]), None)) is not None:
                a[0] = [x + y for x, y in zip(a[0], a[j])]
                for row in a:
                    row[0] += row[j]
            elif (j := next((j for j in rest if a[j][0]), None)) is not None:
                a[0], a[j] = a[j], a[0]
                sign = -sign
            else:
                zero += 1
                a = [row[1:] for row in a[1:]]
                continue
        p, *top = a[0]
        # a row with 0 under the pivot is only rescaled, by p / prev
        a = [
            [(p * y - row[0] * z) // prev for y, z in zip(row[1:], top)] if row[0]
            else row[1:] if p == prev
            else [p * y // prev for y in row[1:]]
            for row in a[1:]
        ]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = p
    return SignatureTriple(pos, zero, neg), 0 if zero else sign * prev


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g, for (a, b) != (0, 0)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _reduce(row: list[int], c: int, pivots: dict, cols: list[int]) -> list[int]:
    """``row`` with its entries in the pivot columns after ``c`` reduced
    into [0, pivot), left to right."""
    for col in cols[bisect_right(cols, c):]:
        if row[col]:
            p = pivots[col]
            q = row[col] // p[col]
            if q:
                row = [x - q * y for x, y in zip(row, p)]
    return row


def _hnf(rows) -> tuple[Vector, ...]:
    """Row Hermite normal form of integer rows of one common width.

    The single echelon routine behind ``hermite_basis``, ``rank_of``,
    ``integer_kernel`` and ``saturation_basis``; membership (``_sift``)
    runs its reduction step, ``_reduce``, against a canonical basis.  Rows
    are inserted one at a time (Kannan-Bachem order).  Where a row meets a
    pivot, Euclid on the two rows leaves the gcd in the pivot row and
    clears the row's entry, and each changed row is reduced modulo the
    pivots after it, so its entries in pivot columns stay below those
    pivots instead of growing from column to column.  A final pass reduces
    every pivot row modulo the pivots after it.  No input checks: the rows
    must already be integer tuples or lists of one length.
    """
    pivots: dict[int, list[int]] = {}
    cols: list[int] = []
    for row in rows:
        r = list(row)
        positions = range(len(r))
        c = next(compress(positions, r), None)
        while c is not None:
            p = pivots.get(c)
            if p is None:
                if r[c] < 0:
                    r = [-x for x in r]
                pivots[c] = _reduce(r, c, pivots, cols)
                insort(cols, c)
                break
            a, b = p[c], r[c]
            if b % a:
                g, s, t = _xgcd(a, b)
                a, b = a // g, b // g
                pivots[c] = _reduce([s * x + t * y for x, y in zip(p, r)], c, pivots, cols)
                r = [a * y - b * x for x, y in zip(p, r)]
            else:
                q = b // a
                r = [y - q * x for x, y in zip(p, r)]
            r = _reduce(r, c, pivots, cols)
            # r is zero up to column c
            c = next(compress(positions, r), None)
    for c in reversed(cols):
        pivots[c] = _reduce(pivots[c], c, pivots, cols)
    return tuple(tuple(pivots[c]) for c in cols)


def _kernel(rows, width: int) -> tuple[Vector, ...]:
    """integer_kernel without input checks: the kernel of the HNF of the
    rows, which has the same kernel and at most ``width`` rows."""
    return _kernel_of_hnf(_hnf(rows), width)


def _kernel_of_hnf(h: tuple[Vector, ...], width: int) -> tuple[Vector, ...]:
    """Canonical basis of {x : h . x = 0} for a canonical Hermite basis
    ``h`` of r rows of length ``width``.

    The HNF of [h^T | I] has exactly r rows that are nonzero on the first
    block; the rows after them are (0, x) with h . x = 0, and their tails
    are already the canonical basis of the kernel.
    """
    r = len(h)
    columns = zip(*h) if h else [()] * width
    aug = [column + unit for column, unit in zip(columns, _identity_matrix(width))]
    return tuple(row[r:] for row in _hnf(aug)[r:])


def _saturation(h: tuple[Vector, ...], width: int) -> tuple[Vector, ...]:
    """Canonical basis of the saturation (rational span intersected with
    Z^width) of the span of a canonical Hermite basis ``h``: the kernel
    of its kernel, two echelon passes from [h^T | I].

    When every pivot is 1, ``h`` itself is returned.  The pivot columns
    embed the saturation in Z^r and send the span of ``h`` to a sublattice
    of index P there, the product of the pivots, so the index of the span
    in its saturation divides P; with P = 1 the span is saturated, and its
    canonical basis is ``h``.
    """
    # the first nonzero entry of each row is its pivot
    if all(next(filter(None, row)) == 1 for row in h):
        return h
    return _kernel_of_hnf(_kernel_of_hnf(h, width), width)


def _sift(basis: tuple[Vector, ...], vectors, rational: bool = False) -> bool:
    """Whether every vector lies in the integer span of a canonical Hermite
    basis, or with ``rational`` in its rational span; no input checks.

    Each vector goes through ``_reduce``, the reduction step of ``_hnf``,
    against the pivot rows, left to right.  Among itself and the rows after
    it, the row with pivot column c is the only one nonzero in column c,
    so on a member each floor quotient is the exact coefficient and
    nothing is left.  The remainder is v minus an integer combination of
    the rows, so on a non-member it is never zero.

    Rationally the vector is first scaled by P, the product of the pivots.
    The rows restricted to the pivot columns form a triangular matrix with
    the pivots on its diagonal, so their span there has index P in Z^r and
    contains P times every integer vector.  As that restriction is
    injective on the rational span, P v lies in the integer span exactly
    when v lies in the rational span.
    """
    cols = [next(compress(range(len(row)), row)) for row in basis]
    pivots = dict(zip(cols, basis))
    scale = prod(row[c] for c, row in zip(cols, basis)) if rational else 1
    return not any(any(_reduce([scale * x for x in v], -1, pivots, cols)) for v in vectors)


def _check_width(width) -> int:
    """``width`` as a plain int, unless it is not a non-negative int."""
    if not _is_int(width) or width < 0:
        raise LatticeError(f"width must be a non-negative int, got {width!r}")
    return int(width)


def _rows(vectors: Iterable[Sequence[int]], width: int) -> list[Vector]:
    width = _check_width(width)
    rows = [as_vector(v) for v in vectors]
    for row in rows:
        _of_length(row, width, "vector")
    return rows


def hermite_basis(vectors: Iterable[Sequence[int]], width: int) -> tuple[Vector, ...]:
    """Canonical basis of the integer span of ``vectors`` inside Z^width.

    Row-style Hermite normal form: echelon shape, positive pivots, entries
    above each pivot reduced into [0, pivot), zero rows dropped.  Equal
    spans yield bit-equal results, so bases compare directly.
    """
    return _hnf(_rows(vectors, width))


def rank_of(vectors: Iterable[Sequence[int]], width: int) -> int:
    return len(hermite_basis(vectors, width))


def integer_kernel(matrix, width: int | None = None) -> tuple[Vector, ...]:
    """Canonical basis of {x in Z^n : matrix . x = 0}; always saturated.

    Computed by unimodular row reduction of the transposed matrix
    augmented with an identity block; no modular shortcuts.
    """
    rows = as_matrix(matrix)
    if width is None:
        if not rows:
            raise LatticeError("kernel of an empty matrix needs an explicit width")
        width = len(rows[0])
    else:
        width = _check_width(width)
        if rows and len(rows[0]) != width:
            raise LatticeError("matrix width disagrees with the requested kernel width")
    return _kernel(rows, width)


def saturation_basis(vectors: Iterable[Sequence[int]], width: int) -> tuple[Vector, ...]:
    """Canonical basis of (rational span of ``vectors``) intersected with Z^width."""
    return _saturation(_hnf(_rows(vectors, width)), width)


class Lattice(_Record):
    """A free Z-module of finite rank with an integral symmetric Gram matrix:
    ``Lattice(gram)``, whose rank is the number of rows of ``gram``.

    Rank-0 lattices are legal and act as direct-sum identities.
    """

    gram: Matrix

    def __post_init__(self):
        gram = as_matrix(self.gram)
        k = len(gram)
        if any(len(row) != k for row in gram):
            raise LatticeError(f"Gram matrix must be {k}x{k}")
        if gram != transpose(gram):
            raise LatticeError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    @cached_property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def _form(self) -> tuple[SignatureTriple, int]:
        """(signature, determinant) of the Gram matrix, from one elimination."""
        return _eliminate(self.gram)

    @cached_property
    def _gram_support(self) -> list[list[tuple[int, int]]]:
        """Nonzero entries of each row (equally, by symmetry, each column)."""
        return _support(self.gram)

    @classmethod
    def from_gram(cls, gram) -> "Lattice":
        """``Lattice(gram)``."""
        return cls(gram)

    def basis_vector(self, i: int) -> Vector:
        """The i-th unit vector, row i of ``identity_matrix(rank)``; an
        index that is not an int in range(rank) raises LatticeError."""
        if not _is_int(i) or not 0 <= i < self.rank:
            raise LatticeError(f"basis index must be an int in range({self.rank}), got {i!r}")
        return _identity_matrix(self.rank)[i]


def _gram_images(L: Lattice, vectors) -> list[tuple]:
    """gram . v for each v in ``vectors``, from the cached nonzero entries
    of the Gram matrix's rows (row k is also column k): the one way the
    library applies the form to vectors."""
    return [_combine(terms, L._gram_support, L.rank) for terms in _support(vectors)]


def diagonal_lattice(entries: Sequence[int]) -> Lattice:
    entries = as_vector(entries)
    unit = _identity_matrix(len(entries))
    return Lattice(tuple(tuple(x * u for u in row) for x, row in zip(entries, unit)))


def pairing(L: Lattice, x, y):
    """Evaluate the bilinear form x^T . gram . y; symmetric and exact.

    The result is a Fraction exactly when some nonzero entry of x or of y
    is one, and an int otherwise, whatever the order of x and y.  A vector
    whose length is not the rank raises LatticeError.
    """
    xv, yv = (_of_length(_exact_vector(v), L.rank, "vector") for v in (x, y))
    gy = _gram_images(L, (yv,))[0]
    q = sum(xi * gy[k] for k, xi in compress(enumerate(xv), xv))
    return Fraction(q) if Fraction in map(type, compress(xv + yv, xv + yv)) else q


def norm(L: Lattice, x):
    """q(x) = pairing(L, x, x)."""
    return pairing(L, x, x)


def signature(L: Lattice) -> SignatureTriple:
    """Exact inertia of the form: (positive, zero, negative) eigenvalue counts.

    Read off the signs of the pivots of one fraction-free integer
    elimination (``_eliminate``), shared with ``discriminant``.
    """
    return L._form[0]


def _block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    """The block matrix (a, 0; 0, b) of two square matrices."""
    return tuple(row + (0,) * len(b) for row in a) + tuple((0,) * len(a) + row for row in b)


def direct_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Orthogonal direct sum: block-diagonal Gram matrix."""
    return Lattice(_block_diagonal(l1.gram, l2.gram))


def rescale(L: Lattice, k: int) -> Lattice:
    """Multiply the Gram matrix entrywise by a nonzero integer."""
    if not _is_int(k) or k == 0:
        raise LatticeError("rescaling factor must be a nonzero integer")
    return Lattice(tuple(tuple(k * x for x in row) for row in L.gram))


def discriminant(L: Lattice) -> int:
    """Determinant of the Gram matrix (1 for the rank-0 lattice)."""
    return L._form[1]


class Sublattice(_Record):
    """A finitely generated sublattice, stored on a canonical Hermite basis.

    The public constructor validates and reduces its generators.
    Sublattices the library builds itself (complements, saturations and
    fixed lattices) are canonical by construction and are made by
    ``_trusted``, unchecked: their basis must already be a canonical Hermite
    basis of independent integer row tuples of length ``ambient.rank``.
    """

    ambient: Lattice
    basis: tuple[Vector, ...]

    def __post_init__(self):
        vecs = _rows(self.basis, self.ambient.rank)
        canon = _hnf(vecs)
        if len(canon) != len(vecs):
            raise LatticeError("sublattice generators are linearly dependent")
        object.__setattr__(self, "basis", canon)

    @cached_property
    def saturated(self) -> bool:
        """Whether the integer span equals the intersection of the rational
        span with the ambient lattice; computed on first use."""
        return _saturation(self.basis, self.ambient.rank) == self.basis

    @cached_property
    def _form(self) -> tuple[SignatureTriple, int]:
        """(signature, determinant) of the restricted form, from one
        elimination of ``gram()``; computed on first use."""
        return _eliminate(self.gram())

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> Matrix:
        """Gram matrix of the ambient form restricted to the stored basis."""
        b = self.basis
        return mat_mul(_gram_images(self.ambient, b), transpose(b))

    def contains(self, v) -> bool:
        """Integral membership in the integer span, by one sift of ``v``
        against the canonical basis."""
        return _sift(self.basis, _rows([v], self.ambient.rank))

    def rational_span_contains(self, v) -> bool:
        return _sift(self.basis, _rows([v], self.ambient.rank), rational=True)


def full_sublattice(L: Lattice) -> Sublattice:
    return Sublattice._trusted(L, _identity_matrix(L.rank))


def _check_on(L: Lattice, x, role: str) -> None:
    """Raise unless the sublattice, isometry or group ``x`` is on ``L``;
    ``role`` names ``x`` in the error."""
    if x.ambient != L:
        verb = "lives in" if isinstance(x, Sublattice) else "acts on"
        raise LatticeError(f"{role} {verb} a different lattice")


def sub_signature(s: Sublattice) -> SignatureTriple:
    """Signature of the ambient form restricted to the sublattice."""
    return s._form[0]


def rational_span_leq(inner: Sublattice, outer: Sublattice) -> bool:
    """Whether the rational span of ``inner`` sits inside that of ``outer``."""
    _check_on(outer.ambient, inner, "sublattice")
    return _sift(outer.basis, inner.basis, rational=True)


def orthogonal_complement(L: Lattice, s: Sublattice) -> Sublattice:
    """Everything in L orthogonal to ``s``; always saturated."""
    _check_on(L, s, "sublattice")
    return Sublattice._trusted(L, _kernel(_gram_images(L, s.basis), L.rank))


def saturate(L: Lattice, s: Sublattice) -> Sublattice:
    """Primitive closure: (rational span of s) intersected with L.

    The kernel of the kernel of the canonical basis, except that a basis
    whose pivots are all 1 is already saturated and is kept as it is.
    """
    _check_on(L, s, "sublattice")
    return Sublattice._trusted(L, _saturation(s.basis, L.rank))


def isometry_violation(L: Lattice, matrix) -> str | None:
    """First violated isometry condition, or None when the matrix is one.

    The entries q(f(b_i), f(b_j)) of M^T . gram . M are compared with the
    Gram matrix for i <= j in row order, then |det M| = 1 is checked.  A
    pair of basis vectors both fixed by M (b_j is fixed when column j of M
    is the unit vector e_j) is skipped: its entry is q(b_i, b_j), the expected value,
    so the first violation is the same as in the full scan.  For the other
    pairs the product is formed sparsely, column j of gram . M from the
    nonzero entries of the Gram matrix and of column j, for the moved j
    only; a pair with one fixed vector reads its entry off the other
    vector's column.  On a nondegenerate form
    M^T . gram . M = gram already forces det(M)^2 = 1, so the determinant
    of M is only computed when det(gram) = 0.  Both determinants come from
    ``_eliminate``; the lattice's is computed once and kept with its
    signature.
    """
    return _violation(L, as_matrix(matrix))


def _violation(L: Lattice, m: Matrix) -> str | None:
    """isometry_violation on a matrix that has been through as_matrix."""
    n = L.rank
    # as_matrix has made every row as long as the first
    if len(m) != n or (m and len(m[0]) != n):
        raise LatticeError("matrix size does not match the lattice rank")
    # column j of M is e_j unless j is moved; only a moved column gets its
    # support and its column of gram . M (row k of the Gram matrix is also
    # its column k)
    columns = transpose(m)
    unit = _identity_matrix(n)
    moved = [j for j in range(n) if columns[j] != unit[j]]
    supports = [None] * n
    gm_columns = [None] * n
    for j, col in zip(moved, _support([columns[j] for j in moved])):
        supports[j] = col
        gm_columns[j] = _combine(col, L._gram_support, n)
    gram = L.gram
    later = moved  # the moved j >= i
    for i in range(n):
        expected = gram[i]
        col = supports[i]
        if col is None:
            # f(b_i) = b_i, so q(f(b_i), f(b_j)) = (gram . M)[i][j]
            for j in later:
                got = gm_columns[j][i]
                if got != expected[j]:
                    return _pair_message(i, j, got, expected[j])
            continue
        gm_i = gm_columns[i]
        for j in range(i, n):
            gm = gm_columns[j]
            if gm is None:
                # f(b_j) = b_j, and gram is symmetric
                got = gm_i[j]
            else:
                got = 0
                for k, x in col:
                    got += x * gm[k]
            if got != expected[j]:
                return _pair_message(i, j, got, expected[j])
        later = later[1:]  # drops i, the first moved j >= i
    if L._form[1] == 0:
        d = _eliminate(m)[1]
        if d not in (1, -1):
            return f"det = {d}, expected 1 or -1"
    return None


def _pair_message(i: int, j: int, got: int, expected: int) -> str:
    return f"q(f(b{i}), f(b{j})) = {got}, expected q(b{i}, b{j}) = {expected}"


def is_isometry(L: Lattice, matrix) -> bool:
    """True iff M^T . gram . M = gram and |det M| = 1."""
    return isometry_violation(L, matrix) is None


class Isometry(_Record):
    """A Gram-preserving integer matrix acting on lattice coordinates.

    Column j is the image of the j-th basis vector.  The public constructor
    validates the matrix; so does every function that accepts a raw
    matrix, through ``_isometry_matrix``.  Isometries the library builds
    itself (products, the identity, reflections, natural lifts and
    extracted surface blocks) are isometries by construction and are made
    by ``_trusted``, unchecked: their matrix must already be a tuple of
    integer row tuples.
    """

    ambient: Lattice
    matrix: Matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", _isometry_matrix(self.ambient, self.matrix))

    def apply(self, v) -> Vector:
        return mat_vec(self.matrix, _of_length(as_vector(v), self.ambient.rank, "vector"))

    def __mul__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        _check_on(self.ambient, other, "isometry")
        return Isometry._trusted(self.ambient, mat_mul(self.matrix, other.matrix))


def _isometry_matrix(L: Lattice, f, role: str = "isometry") -> Matrix:
    """The matrix of ``f`` on ``L``: an Isometry's own matrix, or a raw
    matrix taken through as_matrix once and checked once.

    ``role`` names ``f`` in the errors ("isometry" or "generator").
    """
    if isinstance(f, Isometry):
        _check_on(L, f, role)
        return f.matrix
    m = as_matrix(f)
    problem = _violation(L, m)
    if problem is not None:
        subject = "" if role == "isometry" else f"{role} is "
        raise LatticeError(f"{subject}not an isometry: {problem}")
    return m


def identity_isometry(L: Lattice) -> Isometry:
    return Isometry._trusted(L, _identity_matrix(L.rank))


def reflection_isometry(L: Lattice, v) -> Isometry:
    """The involution x -> x - (2 q(x,v) / q(v)) v fixing v-perp pointwise.

    Requires q(v) != 0 and q(v) | 2 q(x,v) for every basis vector x, which
    holds automatically when q(v) is 1, -1, 2 or -2.
    """
    vec = _of_length(as_vector(v), L.rank, "vector")
    # gram . v, applied once: q(v) = v . (gram . v), and 2 q(b_j, v) is
    # twice its entry j
    gv = _gram_images(L, (vec,))[0]
    qv = sum(x * y for x, y in zip(vec, gv))
    if qv == 0:
        raise LatticeError("cannot reflect in a vector of norm zero")
    # column j is e_j - c_j v with c_j = 2 q(b_j, v) / q(v), so row i is
    # e_i - v_i c
    twice = [2 * q_jv for q_jv in gv]
    for t in twice:
        if t % qv:
            raise LatticeError(
                f"reflection in {vec} is not integral: q(v) = {qv} does not divide {t}"
            )
    c = [t // qv for t in twice]
    rows = (tuple(u - x * t for u, t in zip(e, c)) for e, x in zip(_identity_matrix(L.rank), vec))
    return Isometry._trusted(L, tuple(rows))
