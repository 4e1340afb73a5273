"""Plain-integer arithmetic for the benchmark's oracles.

Nothing here imports hilblat: every expected value the benchmark checks a
program output against is computed with these few routines, written apart
from the program, or is known by construction.  Matrices are tuples of
row tuples; column j of an isometry is the image of the j-th basis vector,
as in hilblat.
"""

from __future__ import annotations

import math
from functools import cache

# Dynkin diagram of E8 in Bourbaki numbering (nodes 1..8, node 2 hangs off
# node 4), written 0-indexed.
E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))
K3_RANK = 22
E8_OFFSETS = (6, 14)


@cache
def identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def form(g, x, y) -> int:
    """x^T G y, over the nonzero entries only."""
    ys = [(j, b) for j, b in enumerate(y) if b]
    return sum(a * g[i][j] * b for i, a in enumerate(x) if a for j, b in ys)


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k : k + len(row)] = row
        k += len(b)
    return tuple(tuple(row) for row in out)


def e8_minus_gram():
    g = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in E8_EDGES:
        g[i][j] = g[j][i] = 1
    return tuple(tuple(row) for row in g)


U_GRAM = ((0, 1), (1, 0))
K3_GRAM = block_diagonal(U_GRAM, U_GRAM, U_GRAM, e8_minus_gram(), e8_minus_gram())


def douady_gram(n: int):
    return block_diagonal(K3_GRAM, ((-2 * (n - 1),),))


def preserves_form(m, g) -> bool:
    """M^T G M == G, entry by entry in plain integers."""
    cols = transpose(m)
    n = len(g)
    return len(m) == n and all(
        form(g, cols[i], cols[j]) == g[i][j] for i in range(n) for j in range(i, n)
    )


def det(m) -> int:
    """Bareiss fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def restricted_gram(g, basis):
    return tuple(tuple(form(g, u, v) for v in basis) for u in basis)


def negative_definite(gram) -> bool:
    """Sylvester's criterion: (-1)^k times the k-th leading minor is positive."""
    return all(
        (-1) ** k * det(tuple(row[:k] for row in gram[:k])) > 0
        for k in range(1, len(gram) + 1)
    )


def _reflection_coefficients(g, v):
    """c with s_v = I - v c^T, i.e. c_j = 2 q(e_j, v) / q(v); raises if not integral."""
    qv = form(g, v, v)
    vs = [(k, b) for k, b in enumerate(v) if b]
    twice = [2 * sum(row[k] * b for k, b in vs) for row in g]
    if any(t % qv for t in twice):
        raise ValueError(f"reflection in {v} is not integral")
    return [t // qv for t in twice]


def times_reflection(m, g, v):
    """m . s_v in O(n^2), where s_v: x -> x - (2 q(x, v) / q(v)) v."""
    c = _reflection_coefficients(g, v)
    vs = [(k, b) for k, b in enumerate(v) if b]
    out = []
    for row in m:
        a = sum(row[k] * b for k, b in vs)
        out.append(tuple(x - a * cj for x, cj in zip(row, c)) if a else row)
    return tuple(out)


def reflection_times(g, v, m):
    """s_v . m in O(n^2)."""
    c = _reflection_coefficients(g, v)
    cs = [(k, ck) for k, ck in enumerate(c) if ck]
    cm = [sum(ck * m[k][j] for k, ck in cs) for j in range(len(m[0]))]
    return tuple(tuple(x - vi * y for x, y in zip(row, cm)) if vi else row for row, vi in zip(m, v))


def reflection(g, v):
    """Matrix of s_v; column j is the image of the j-th basis vector."""
    return times_reflection(identity(len(v)), g, v)


def reflection_product(g, roots):
    """P = s_r1 ... s_rk and P^-1 = s_rk ... s_r1."""
    p = p_inv = identity(len(g))
    for r in roots:
        p, p_inv = times_reflection(p, g, r), reflection_times(g, r, p_inv)
    return p, p_inv


def trace(m) -> int:
    return sum(m[i][i] for i in range(len(m)))


def lift(m):
    """Extend a K3 matrix by the identity on the last (delta) coordinate."""
    n = len(m)
    return tuple(row + (0,) for row in m) + ((0,) * n + (1,),)


def norm_solutions(n: int, d2: int, bound: int):
    """(lam, mu) with -8(n-1) = -8(n-1) lam^2 + d2 mu^2, |lam|, |mu| <= bound.

    For each lam, mu^2 is fixed, so one integer square root decides it.
    """
    qe = -8 * (n - 1)
    out = []
    for lam in range(-bound, bound + 1):
        num = qe - qe * lam * lam
        if num % d2:
            continue
        sq = num // d2
        if sq < 0:
            continue
        mu = math.isqrt(sq)
        if mu * mu == sq and mu <= bound:
            out.extend({(lam, -mu), (lam, mu)})
    return tuple(sorted(out))


def random_pm2_vector(g, rng, max_entry=2, max_support=3):
    """A random vector of norm +2 or -2, by rejection sampling.

    The random draws are the same, call for call, as those of
    ``random_norm_pm2_vector`` in tests/helpers.py.
    """
    n = len(g)
    while True:
        coords = [0] * n
        for _ in range(rng.randint(1, max_support)):
            coords[rng.randrange(n)] = rng.randint(-max_entry, max_entry)
        if form(g, coords, coords) in (2, -2):
            return tuple(coords)
