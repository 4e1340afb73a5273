"""The ``naturality`` workload: index and naturality of isometries of
DOUADY(2), DOUADY(3) and rank-2 Picard blocks, by in-process library calls.

Validation of raw and composed matrices does most of the work here.  Raw
input that must be rejected sits beside composed matrices that are
isometries by construction, so a change that validates less shows either
as a gain or as a failed check.
"""

from __future__ import annotations

import random

import exact as X
from tasks import Task, expect, raises

# Validation cost grows with the number of nonzero entries, so every
# generated matrix has a fixed number of reflections and a nonzero count in
# a narrow window: the cost of a round then hardly varies with the seed.
REFLECTIONS = 3
SURFACE_NONZEROS = range(31, 34)  # of 484 entries; the median draw has 32
MOVED_NONZEROS = range(50, 57)  # of 529 entries; the median draw has 53
PER_KIND = 24  # tasks of each kind per DOUADY(n) in one round
PICARD_TASKS = 48
PICARD_BLOCKS = ((2, 4), (2, 12), (2, 28), (3, 8), (3, 24))  # (n, d2) with nontrivial solutions


def nonzeros(m) -> int:
    return sum(1 for row in m for x in row if x)


def surface_isometry(rng):
    """A product of REFLECTIONS reflections in K3 roots with a nonzero count
    in SURFACE_NONZEROS."""
    while True:
        m = X.identity(X.K3_RANK)
        for _ in range(REFLECTIONS):
            m = X.times_reflection(m, X.K3_GRAM, X.random_pm2_vector(X.K3_GRAM, rng))
        if nonzeros(m) in SURFACE_NONZEROS:
            return m


def moved_isometry(rng, n):
    """lift(phi) s_v lift(phi)^-1 = s_(lift(phi) v) with v = 2w + delta and
    w isotropic, with a nonzero count in MOVED_NONZEROS; and -8 phi(w), the
    surface part of its image of e."""
    gram = X.douady_gram(n)
    phi = surface_isometry(rng)
    while True:
        phi_w = X.mat_vec(phi, isotropic_vector(rng))
        g = X.reflection(gram, tuple(2 * x for x in phi_w) + (1,))
        if nonzeros(g) in MOVED_NONZEROS:
            return g, tuple(-8 * x for x in phi_w)


def isotropic_vector(rng):
    """w = u + r: u of norm 2 in one U summand, r a root of one E8(-1)."""
    w = [0] * X.K3_RANK
    k = 2 * rng.randrange(3)
    w[k] = w[k + 1] = rng.choice((1, -1))
    offset = rng.choice(X.E8_OFFSETS)
    e8 = X.e8_minus_gram()
    while True:
        r = X.random_pm2_vector(e8, rng)
        if X.form(e8, r, r) == -2:
            break
    w[offset : offset + 8] = r
    return tuple(w)


def picard_solutions(n, d2, bound=200):
    """Nontrivial (lam, mu) whose involution is integral: q(e) | mu * d2."""
    qe = -8 * (n - 1)
    return [
        (lam, mu)
        for lam, mu in X.norm_solutions(n, d2, bound)
        if abs(lam) != 1 and (mu * d2) % qe == 0
    ]


def picard_involution(n, d2, lam, mu):
    """Involution of the block with basis (h, e): e -> lam e + mu h."""
    qe = -8 * (n - 1)
    return ((-lam, mu), (mu * d2 // qe, lam))


def build(seed: int, hl) -> list[Task]:
    """The round of tasks for one seed; ``hl`` is the imported hilblat."""
    rng = random.Random(f"naturality:{seed}")
    tasks = []
    for n in (2, 3):
        D = hl.douady_lattice(n)
        gram = X.douady_gram(n)
        expect(D.full.gram == gram, f"DOUADY({n}) Gram matrix")
        e = (0,) * X.K3_RANK + (2,)
        for i in range(PER_KIND):
            phi = surface_isometry(rng)
            expect(X.preserves_form(phi, X.K3_GRAM), "surface isometry")
            tasks.append(Task(f"natural/D{n}/{i}", *_natural(hl, D, phi)))

            g, d = moved_isometry(rng, n)
            expect(X.preserves_form(g, gram), "non-natural isometry")
            expect(X.mat_vec(g, e) == d + (-2,), "s_(2w+delta) sends e to -e - 8w")
            tasks.append(Task(f"non-natural/D{n}/{i}", *_non_natural(hl, D, g, d)))

            # Perturbing the delta-delta corner breaks only q(f(delta)), the
            # last pairing checked, so every rejection costs a full check.
            phi = surface_isometry(rng)
            bad = X.lift(phi)
            bad = bad[:-1] + (bad[-1][:-1] + (1 + rng.choice((1, -1)),),)
            expect(not X.preserves_form(bad, gram), "perturbed matrix")
            tasks.append(Task(f"perturbed/D{n}/{i}", *_perturbed(hl, D, bad)))

            psi1, psi2 = surface_isometry(rng), surface_isometry(rng)
            expect(X.preserves_form(psi1, X.K3_GRAM) and X.preserves_form(psi2, X.K3_GRAM), "psi")
            tasks.append(Task(f"composed/D{n}/{i}", *_composed(hl, D, g, psi1, psi2)))
    solutions = {block: picard_solutions(*block) for block in PICARD_BLOCKS}
    for i in range(PICARD_TASKS):
        n, d2 = PICARD_BLOCKS[i % len(PICARD_BLOCKS)]
        lam, mu = (-3, 4) if i == 0 else rng.choice(solutions[n, d2])  # (-3, 4): Beauville
        m = picard_involution(n, d2, lam, mu)
        gram = ((d2, 0), (0, -8 * (n - 1)))
        expect(X.preserves_form(m, gram) and X.mat_mul(m, m) == X.identity(2), "Picard involution")
        pair = hl.ExceptionalPair(hl.Lattice.from_gram(gram), (0, 1))
        tasks.append(Task(f"picard/{n},{d2}/{lam},{mu}", *_picard(hl, pair, m, lam, mu)))
    rng.shuffle(tasks)
    return tasks


def _natural(hl, D, phi):
    def run():
        f = hl.natural_lift(D, phi)
        return (
            hl.index_invariant(D, f),
            hl.is_natural_on_lattice(D, f),
            hl.extract_surface_isometry(D, f).matrix,
        )

    def check(out):
        expect(out == (1, True, phi), "a natural lift has index 1 and extracts to its input")

    return run, check


def _non_natural(hl, D, g, d):
    def run():
        return (
            hl.index_invariant(D, g),
            tuple(hl.pullback_decomposition(D, g)),
            hl.is_natural_on_lattice(D, g),
            raises(hl.LatticeError, hl.extract_surface_isometry, D, g),
        )

    def check(out):
        expect(out == (-1, (-1, d), False, True), "s_(2w+delta) has index -1, f(e) = -e - 8 phi(w)")

    return run, check


def _perturbed(hl, D, bad):
    def run():
        return (
            raises(hl.LatticeError, hl.index_invariant, D, bad),
            raises(hl.LatticeError, hl.is_natural_on_lattice, D, bad),
        )

    def check(out):
        expect(out == (True, True), "a perturbed matrix is rejected")

    return run, check


def _composed(hl, D, g, psi1, psi2):
    def run():
        h = hl.natural_lift(D, psi1) * hl.Isometry(D.full, g) * hl.natural_lift(D, psi2)
        return hl.index_invariant(D, h), hl.is_natural_on_lattice(D, h)

    def check(out):
        expect(out == (-1, False), "the index is invariant under natural lifts")

    return run, check


def _picard(hl, pair, m, lam, mu):
    def run():
        return (
            hl.index_invariant(pair, m),
            hl.pullback_decomposition(pair, m).d,
            hl.is_natural_on_lattice(pair, m),
        )

    def check(out):
        expect(out == (lam, (mu,), False), "the involution has index lam and f(e) = lam e + mu h")

    return run, check
