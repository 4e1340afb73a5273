"""The K3 lattice, its rank-23 extension for Douady spaces of n points,
and the invariants attached to the exceptional divisor class.

Every function here works on an ExceptionalPair: a lattice with a
designated exceptional class e in its last coordinate, orthogonal to the
rest.  An isometry is natural exactly when it fixes e, in which case it
splits as a block matrix (surface part, identity).  DouadyLattice is the
full case: the K3 lattice extended by a primitive class delta with
q(delta) = -2(n-1) and e = 2*delta, so q(e) = -8(n-1).  A Picard block
such as the rank-2 quartic one is another case.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

from .core import (
    Isometry,
    Lattice,
    LatticeError,
    Matrix,
    Sublattice,
    Vector,
    _block_diagonal,
    _exact_vector,
    _identity_matrix,
    _is_int,
    _isometry_matrix,
    _of_length,
    _Record,
    as_vector,
    diagonal_lattice,
    direct_sum,
    norm,
    pairing,
    rescale,
    signature,
)

__all__ = [
    "K3_RANK",
    "DouadyLattice",
    "ExceptionalPair",
    "KahlerCandidateReport",
    "PullbackDecomposition",
    "beauville_fixture",
    "delta_class",
    "douady_lattice",
    "e8_lattice",
    "e8_minus",
    "e_class",
    "extract_surface_isometry",
    "hyperbolic_plane",
    "index_invariant",
    "index_norm_solutions",
    "iota",
    "is_natural_on_lattice",
    "k3_lattice",
    "kahler_candidate_check",
    "natural_lift",
    "psi_first_chern",
    "pullback_decomposition",
    "same_positive_cone_component",
]

K3_RANK = 22

# Dynkin diagram of E8: chain 1-3-4-5-6-7-8 with node 2 attached to node 4
# (0-indexed below).
_E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


@cache
def hyperbolic_plane() -> Lattice:
    """The even unimodular rank-2 lattice U with Gram [[0,1],[1,0]]."""
    return Lattice(((0, 1), (1, 0)))


@cache
def e8_lattice() -> Lattice:
    """The positive-definite E8 root lattice (Cartan-matrix Gram, determinant 1)."""
    gram = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        gram[i][j] = gram[j][i] = -1
    return Lattice(gram)


@cache
def e8_minus() -> Lattice:
    return rescale(e8_lattice(), -1)


@cache
def k3_lattice() -> Lattice:
    """The rank-22 even unimodular lattice of signature (3, 0, 19).

    Fixed basis order: three hyperbolic planes followed by two copies of
    the negated E8 lattice.
    """
    blocks = [hyperbolic_plane()] * 3 + [e8_minus()] * 2
    L = blocks[0]
    for block in blocks[1:]:
        L = direct_sum(L, block)
    return L


def _points(n) -> int:
    """``n`` as an exact int, so that an int subclass shares its cache entry
    and repr with the int."""
    if not _is_int(n) or n < 2:
        raise LatticeError("the number of points n must be an integer >= 2")
    return int(n)


class ExceptionalPair(_Record):
    """A lattice with a designated exceptional class e in its last coordinate.

    The class must be a nonzero multiple of the last basis vector, which
    must be orthogonal to the other basis vectors and of nonzero norm; the
    other basis vectors span the surface block.  DouadyLattice is the case
    of the full rank-23 lattice with e = 2*delta; a Picard block such as
    the rank-2 quartic one is another.
    """

    lattice: Lattice
    e: Vector

    def __post_init__(self):
        n = self.lattice.rank
        vec = _of_length(as_vector(self.e), n, "exceptional class")
        if n == 0 or any(vec[:-1]) or vec[-1] == 0:
            raise LatticeError(
                "exceptional class must be a nonzero multiple of the last basis vector"
            )
        gram = self.lattice.gram
        if gram[-1][-1] == 0 or any(gram[-1][j] for j in range(n - 1)):
            raise LatticeError(
                "the exceptional coordinate must be orthogonal to the rest "
                "and of nonzero norm"
            )
        object.__setattr__(self, "e", vec)

    @cached_property
    def surface_block(self) -> Lattice:
        return Lattice(tuple(row[:-1] for row in self.lattice.gram[:-1]))


class DouadyLattice(ExceptionalPair):
    """Second-cohomology lattice of the Douady space of n points on a K3
    surface: ``DouadyLattice(n)`` is the K3 lattice extended by Z*delta in
    the last coordinate, with q(delta) = -2(n-1) and exceptional class
    e = 2*delta."""

    n: int

    def __init__(self, n: int):
        n = _points(n)
        full = Lattice(_block_diagonal(k3_lattice().gram, ((-2 * (n - 1),),)))
        super().__init__(full, (0,) * K3_RANK + (2,), n)

    @property
    def full(self) -> Lattice:
        """The whole rank-23 lattice; the same as ``lattice``."""
        return self.lattice

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def delta_index(self) -> int:
        """Basis position of the distinguished class delta."""
        return K3_RANK

    @property
    def delta(self) -> Vector:
        return _identity_matrix(self.rank)[K3_RANK]

    def k3_sublattice(self) -> Sublattice:
        # the first K3_RANK unit vectors are already a canonical Hermite basis
        return Sublattice._trusted(self.lattice, _identity_matrix(self.rank)[:K3_RANK])


def douady_lattice(n: int) -> DouadyLattice:
    """``DouadyLattice(n)``, the rank-23 lattice for the Douady space of n
    points (n >= 2), built once per n."""
    # checked before the cache, so that 2.0, True or an unhashable value is
    # refused with LatticeError whatever has been built
    return _douady_lattice(_points(n))


_douady_lattice = cache(DouadyLattice)


def _target(D) -> tuple[Lattice, Vector]:
    if isinstance(D, ExceptionalPair):
        return D.lattice, D.e
    raise LatticeError("expected a Douady lattice or an exceptional pair")


def iota(D: ExceptionalPair, v) -> Vector:
    """Pairing-preserving embedding of a surface class: pad with a zero
    exceptional coordinate.  The class must have one coordinate fewer than
    the ambient rank, else LatticeError: "surface class of length 5
    inside Z^22"."""
    amb, _ = _target(D)
    return _of_length(as_vector(v), amb.rank - 1, "surface class") + (0,)


def e_class(D: ExceptionalPair) -> Vector:
    """Coordinates of the exceptional divisor class e."""
    return _target(D)[1]


def delta_class(D: DouadyLattice) -> Vector:
    """Coordinates of the primitive class delta = e / 2."""
    if not isinstance(D, DouadyLattice):
        raise LatticeError("delta is integral only on the full Douady lattice")
    return D.delta


def _image_of_e(D: ExceptionalPair, f) -> tuple[Matrix, Vector, Vector]:
    """(matrix of f, e, f(e)).  Since e is e[-1] times the last basis
    vector, f(e) is e[-1] times the last column of the matrix."""
    amb, e = _target(D)
    m = _isometry_matrix(amb, f)
    return m, e, tuple(e[-1] * row[-1] for row in m)


def index_invariant(D: ExceptionalPair, f) -> Fraction:
    """The index q(f(e), e) / q(e) of an isometry, as an exact rational.

    Equals 1 for every natural isometry; invariant under composition with
    isometries fixing e on either side.  Read off the pullback
    decomposition: the last coordinate is orthogonal to the rest, so the
    index is f(e)[-1] / e[-1].
    """
    return pullback_decomposition(D, f).lam


class PullbackDecomposition(NamedTuple):
    """f(e) written as lam * e + iota(d) with d in the surface block."""

    lam: Fraction
    d: Vector


def pullback_decomposition(D: ExceptionalPair, f) -> PullbackDecomposition:
    """Split the image of e along the exceptional line and the surface block."""
    _, e, fe = _image_of_e(D, f)
    return PullbackDecomposition(Fraction(fe[-1], e[-1]), fe[:-1])


def natural_lift(D: ExceptionalPair, phi) -> Isometry:
    """Extend an isometry of the surface block by the identity on delta.

    An injective group homomorphism; every lift fixes delta and has
    index 1.
    """
    amb, _ = _target(D)
    m = _isometry_matrix(D.surface_block, phi)
    return Isometry._trusted(amb, _block_diagonal(m, ((1,),)))


def is_natural_on_lattice(D: ExceptionalPair, f) -> bool:
    """Lattice-level naturality criterion: the exceptional class is fixed.

    On the full Douady lattice this is f(delta) = delta; a natural isometry
    then stabilizes the embedded K3 block and splits as (surface part, id).
    """
    _, e, fe = _image_of_e(D, f)
    return fe == e


def extract_surface_isometry(D: ExceptionalPair, f) -> Isometry:
    """Recover the surface-block isometry of a natural isometry.

    Inverse to natural_lift; raises when the exceptional class is moved.
    """
    m, e, fe = _image_of_e(D, f)
    if fe != e:
        raise LatticeError(
            f"the exceptional class is not fixed (image {fe}); "
            "no surface isometry to extract"
        )
    # f(e) = e with e[-1] != 0 already makes the last column the last unit
    # vector.  Preserving e-perp makes the last row vanish off the corner;
    # that is checked for an Isometry built by _trusted, which nothing
    # validated.  The block is then an isometry of the surface block, so it
    # is built without a second check.
    if any(m[-1][:-1]):
        raise LatticeError(
            "a natural isometry must be block diagonal (surface part, 1)"
        )
    return Isometry._trusted(D.surface_block, tuple(row[:-1] for row in m[:-1]))


def psi_first_chern(D: DouadyLattice, c, k: int = 1) -> Vector:
    """Chern class k*n*iota(c) - e of the determinant bundle attached to a
    surface line bundle with first Chern class c, twisted down by the
    exceptional divisor.

    ``c`` must have K3_RANK coordinates and ``k`` must be a positive int
    (not a bool); otherwise LatticeError."""
    if not isinstance(D, DouadyLattice):
        raise LatticeError("this Chern-class formula needs the full Douady lattice")
    if not _is_int(k) or k < 1:
        raise LatticeError("the exponent k must be a positive integer")
    cv = _of_length(as_vector(c), K3_RANK, "surface class")
    return tuple(k * D.n * x for x in cv) + (-2,)


def index_norm_solutions(
    n: int, d2: int, bound: int
) -> tuple[tuple[int, int], ...]:
    """All integer pairs (lam, mu) with -8(n-1) = -8(n-1)*lam^2 + mu^2*d2
    and |lam|, |mu| <= bound.

    This is the norm equation satisfied by an isometry with
    f(e) = lam*e + mu*iota(d), d a generator of a rank-1 Picard block with
    d^2 = d2.  Each lam fixes mu^2 = 8(n-1)(lam^2 - 1)/d2, so one integer
    square root per lam finds mu up to sign, in time linear in ``bound``.
    The result is sorted and always contains (1, 0) and (-1, 0); for
    d2 > 0 no solution has lam = 0.
    """
    _points(n)
    if not _is_int(d2) or d2 == 0:
        raise LatticeError("d2 must be a nonzero integer")
    if not _is_int(bound) or bound < 1:
        raise LatticeError("bound must be a positive integer")
    out = []
    for lam in range(-bound, bound + 1):
        square, r = divmod(8 * (n - 1) * (lam * lam - 1), d2)
        if r or square < 0:
            continue
        mu = math.isqrt(square)
        if mu * mu == square and mu <= bound:
            out.extend([(lam, -mu), (lam, mu)] if mu else [(lam, 0)])
    return tuple(out)


def same_positive_cone_component(L: Lattice, x, y) -> bool:
    """Whether two positive-norm vectors lie in the same component of {q > 0}.

    Requires signature (1, 0, k): the positive-norm locus is then the
    disjoint union of two opposite open convex cones, and lying in a common
    one is equivalent to q(x, y) > 0.
    """
    sig = signature(L)
    if sig.pos != 1 or sig.zero != 0:
        raise LatticeError(f"signature (1, 0, k) required, got {tuple(sig)}")
    if norm(L, x) <= 0 or norm(L, y) <= 0:
        raise LatticeError("both vectors must have positive norm")
    return pairing(L, x, y) > 0


class KahlerCandidateReport(_Record):
    """Truth values of the three lattice-level conditions a Kaehler class
    must satisfy, for a class omega = iota(omega_0) + lam * e.

    Passing all three is necessary, never sufficient: whether a class is
    actually Kaehler is analytic and out of reach of lattice arithmetic.
    """

    e_coefficient: Fraction
    q_total: Fraction
    q_against_e: Fraction
    q_surface_part: Fraction
    positive_norm: bool
    positive_against_e: bool
    surface_part_positive: bool

    @property
    def all_conditions_hold(self) -> bool:
        return (
            self.positive_norm
            and self.positive_against_e
            and self.surface_part_positive
        )


def kahler_candidate_check(D: ExceptionalPair, omega) -> KahlerCandidateReport:
    """Evaluate the Kaehler-candidate conditions on a rational class.

    The class is given in ambient coordinates and decomposed as
    iota(omega_0) + lam * e.  Reported conditions: q(omega) > 0;
    q(omega, e) > 0, which is equivalent to lam < 0 since q(e) < 0; and
    q(omega_0) > 0, which q(omega) > 0 forces via
    q(omega) = q(omega_0) + lam^2 q(e).
    """
    amb, e = _target(D)
    vec = _of_length(_exact_vector(omega), amb.rank, "class")
    lam = Fraction(vec[-1], e[-1])
    omega0 = vec[:-1]
    q_total = Fraction(pairing(amb, vec, vec))
    q_e = Fraction(pairing(amb, vec, e))
    block = D.surface_block
    q_surface = Fraction(pairing(block, omega0, omega0))
    return KahlerCandidateReport(
        e_coefficient=lam,
        q_total=q_total,
        q_against_e=q_e,
        q_surface_part=q_surface,
        positive_norm=q_total > 0,
        positive_against_e=q_e > 0,
        surface_part_positive=q_surface > 0,
    )


def beauville_fixture() -> tuple[ExceptionalPair, Matrix]:
    """Rank-2 Picard block of the Douady space of 2 points on a generic
    quartic surface, with the Beauville involution.

    Basis (h, e): h the hyperplane class with h^2 = 4, e the exceptional
    class with q(e) = -8.  The involution sends h to 3h - 2e and e to
    4h - 3e; it is an isometry of index -3 and is not natural.
    """
    pair = ExceptionalPair(diagonal_lattice((4, -8)), (0, 1))
    involution = ((3, 4), (-2, -3))
    return pair, involution
