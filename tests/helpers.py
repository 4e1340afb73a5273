"""Shared randomized generators for the test suite (always seeded)."""

from fractions import Fraction

from hilblat import (
    Lattice,
    LatticeError,
    SignatureTriple,
    Sublattice,
    det,
    identity_matrix,
    mat_mul,
    norm,
    rank_of,
    reflection_isometry,
)


def random_norm_pm2_vector(L, rng, max_entry=2, max_support=3):
    """A random vector of norm +2 or -2, by rejection sampling."""
    while True:
        coords = [0] * L.rank
        for _ in range(rng.randint(1, max_support)):
            coords[rng.randrange(L.rank)] = rng.randint(-max_entry, max_entry)
        if norm(L, coords) in (2, -2):
            return tuple(coords)


def random_reflection_product(L, rng, max_length=6):
    """Matrix of a random product of reflections in norm +-2 vectors."""
    m = identity_matrix(L.rank)
    for _ in range(rng.randint(1, max_length)):
        v = random_norm_pm2_vector(L, rng)
        m = mat_mul(m, reflection_isometry(L, v).matrix)
    return m


def random_symmetric_gram(rng, rank, lo=-3, hi=3):
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            g[i][j] = g[j][i] = rng.randint(lo, hi)
    return tuple(tuple(row) for row in g)


def random_nondegenerate_lattice(rng, min_rank=1, max_rank=6, lo=-3, hi=3):
    while True:
        rank = rng.randint(min_rank, max_rank)
        g = random_symmetric_gram(rng, rank, lo, hi)
        if det(g) != 0:
            return Lattice(g)


def random_sublattice(L, rng, allow_unsaturated=True):
    """A random sublattice with independent generators, sometimes rescaled
    to exercise saturation."""
    n = L.rank
    k = rng.randint(1, n)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if rank_of(rows, n) != k:
            continue
        if allow_unsaturated and rng.randint(0, 1):
            i = rng.randrange(k)
            rows[i] = [2 * x for x in rows[i]]
        return Sublattice(L, rows)


def random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(
        tuple(signs[i] if perm[i] == j else 0 for j in range(n)) for i in range(n)
    )


def abstract_matrix_closure(gens, n, cap):
    """Closure of integer matrices under products; None when cap is exceeded.

    Unlike hilblat.closure this does not require a Gram matrix, so it can
    be used to build invariant forms from scratch.
    """
    ident = identity_matrix(n)
    elements = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = mat_mul(a, g)
                if c not in elements:
                    if len(elements) >= cap:
                        return None
                    elements.add(c)
                    fresh.append(c)
        frontier = fresh
    return elements


def reference_index_norm_solutions(n, d2, bound):
    """The box search that index_norm_solutions used before solving for mu
    by an integer square root; a test-only reference, quadratic in bound."""
    qe = -8 * (n - 1)
    out = []
    for lam in range(-bound, bound + 1):
        rest = qe - qe * lam * lam
        for mu in range(-bound, bound + 1):
            if mu * mu * d2 == rest:
                out.append((lam, mu))
    return tuple(sorted(out))


def reference_hermite_basis(vectors, width):
    """The column-by-column Euclid elimination that hermite_basis used
    before the single echelon routine; a test-only reference.  Its
    integers grow quickly on dense input, so keep the input small."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(width):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0 and (
                pivot is None or abs(rows[i][col]) < abs(rows[pivot][col])
            ):
                pivot = i
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        while True:
            clear = True
            for i in range(rank + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[rank][col]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
                    if rows[i][col] != 0:
                        rows[rank], rows[i] = rows[i], rows[rank]
                        clear = False
            if clear:
                break
        if rows[rank][col] < 0:
            rows[rank] = [-x for x in rows[rank]]
        for i in range(rank):
            q = rows[i][col] // rows[rank][col]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return tuple(tuple(row) for row in rows[:rank])


def reference_integer_kernel(rows, width):
    """The elimination of [A^T | I] that integer_kernel used before the
    single echelon routine, finished by reference_hermite_basis; a
    test-only reference."""
    m = len(rows)
    aug = [
        [rows[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(width)]
        for j in range(width)
    ]
    rank = 0
    for col in range(m):
        pivot = None
        for i in range(rank, width):
            if aug[i][col] != 0 and (
                pivot is None or abs(aug[i][col]) < abs(aug[pivot][col])
            ):
                pivot = i
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        while True:
            clear = True
            for i in range(rank + 1, width):
                if aug[i][col] != 0:
                    q = aug[i][col] // aug[rank][col]
                    aug[i] = [x - q * y for x, y in zip(aug[i], aug[rank])]
                    if aug[i][col] != 0:
                        aug[rank], aug[i] = aug[i], aug[rank]
                        clear = False
            if clear:
                break
        rank += 1
    return reference_hermite_basis([row[m:] for row in aug[rank:]], width)


def _reference_entry(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise LatticeError(f"integer entry expected, got {x!r}")
    return x


def reference_as_vector(data):
    """The per-entry conversion that as_vector used before its one type
    scan per row; a test-only reference."""
    return tuple(_reference_entry(x) for x in data)


def reference_as_matrix(data):
    """The per-entry conversion that as_matrix used before its one type
    scan per row; a test-only reference."""
    rows = tuple(tuple(_reference_entry(x) for x in row) for row in data)
    if len({len(row) for row in rows}) > 1:
        raise LatticeError("matrix rows have unequal lengths")
    return rows


def reference_exact_vector(data):
    """The per-entry check that pairing used on its vectors before the one
    type scan; a test-only reference."""
    out = tuple(data)
    for x in out:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise LatticeError(f"exact integer or rational entry expected, got {x!r}")
    return out


def reference_mat_mul(a, b):
    """The rule of the row-sparse product before it copied unit rows: each
    entry is the sum, from the int 0, of the products a[i][k] * b[k][j]
    whose two factors are nonzero; a test-only reference."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def reference_support(m):
    """The comprehension that listed each row's nonzero (column, value)
    pairs before compress; a test-only reference."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def reference_det(m):
    """The Bareiss loop that det used before the shared elimination, with
    row swaps only; a test-only reference."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise LatticeError("determinant requires a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def reference_inertia(gram):
    """The symmetric LDL^T over Fraction that signature and sub_signature
    used before the shared elimination; a test-only reference."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = zero = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                for k in range(n):
                    a[i][k] += a[off][k]
                for row in a:
                    row[i] += row[off]
        p = a[i][i]
        for k in range(i + 1, n):
            if a[k][i]:
                f = a[k][i] / p
                for m in range(i, n):
                    a[k][m] -= f * a[i][m]
                for m in range(i, n):
                    a[m][k] -= f * a[m][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
    return SignatureTriple(pos, zero, neg)


def reference_pairing(gram, x, y):
    """The dense double sum of x_i gram_ij y_j over every i and j; a
    test-only reference."""
    n = len(gram)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))


def reference_restricted_gram(gram, basis):
    """The dense product B . gram . B^T; a test-only reference."""
    return tuple(tuple(reference_pairing(gram, b, c) for c in basis) for b in basis)


def reference_reflection(gram, v):
    """(matrix, None) of the reflection x -> x - (2 q(x, v) / q(v)) v by the
    textbook formula, column j being e_j - (2 q(b_j, v) / q(v)) v, or
    (None, message) for the first j where q(v) does not divide 2 q(b_j, v);
    q(v) must be nonzero.  A test-only reference."""
    n = len(gram)
    qv = reference_pairing(gram, v, v)
    columns = []
    for j in range(n):
        twice = 2 * sum(gram[j][k] * v[k] for k in range(n))
        if twice % qv:
            return None, (
                f"reflection in {tuple(v)} is not integral: "
                f"q(v) = {qv} does not divide {twice}"
            )
        columns.append([(1 if i == j else 0) - twice // qv * v[i] for i in range(n)])
    return tuple(tuple(columns[j][i] for j in range(n)) for i in range(n)), None


def reference_douady_gram(n):
    """The 23 x 23 Gram matrix of H^2(S^[n], Z) = U^3 + E8(-1)^2 + <-2(n-1)>,
    written out entry by entry: hyperbolic planes on (0, 1), (2, 3) and
    (4, 5), then two negated E8 Cartan matrices in Bourbaki order (the chain
    1-3-4-5-6-7-8 with node 2 on node 4), then q(delta) = -2(n-1).  A
    test-only reference."""
    g = [[0] * 23 for _ in range(23)]
    for i in (0, 2, 4):
        g[i][i + 1] = g[i + 1][i] = 1
    for start in (6, 14):
        for i in range(8):
            g[start + i][start + i] = -2
        for a, b in ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
            g[start + a - 1][start + b - 1] = g[start + b - 1][start + a - 1] = 1
    g[22][22] = -2 * (n - 1)
    return tuple(map(tuple, g))
