"""Finite groups of lattice isometries: closure, fixed and coinvariant
sublattices, and signature-type classification of Picard blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import sub
from typing import Optional

from .core import (
    Isometry,
    Lattice,
    LatticeError,
    Matrix,
    SignatureTriple,
    Sublattice,
    Vector,
    _combine,
    _hnf,
    _isometry_matrix,
    _kernel,
    _support,
    as_matrix,
    discriminant,
    identity_matrix,
    mat_mul,
    orthogonal_complement,
    rational_span_leq,
    sub_signature,
    transpose,
)
from .douady import ExceptionalPair

__all__ = [
    "IsometryGroup",
    "NSClassification",
    "NSType",
    "PairReport",
    "SymplecticActionReport",
    "acts_trivially_on",
    "classify_ns_type",
    "closure",
    "coinvariant_sublattice",
    "invariant_sublattice",
    "is_negative_definite",
    "ns_classification",
    "symplectic_action_report",
    "transcendental_sublattice",
    "verify_pair_properties",
]

DEFAULT_CLOSURE_CAP = 10_000


def _plain_lattice(target) -> Lattice:
    if isinstance(target, ExceptionalPair):
        return target.lattice
    if isinstance(target, Lattice):
        return target
    raise LatticeError("expected a lattice (possibly with exceptional structure)")


@dataclass(frozen=True, eq=False)
class IsometryGroup:
    """A finite isometry group, held as the permutations it induces on the
    orbit of the basis vectors.

    Each element is the tuple of the orbit indices of its columns, so the
    order and membership are read off these tuples.  The sorted tuple of
    element matrices is built only when ``elements`` is first read.  The
    fixed sublattice and the orthogonal complement of that are likewise
    computed once, on first use, and shared by every reader.

    Two groups are equal when they act on the same lattice, have the same
    order, and every generator of one is an element of the other; the hash
    is that of the lattice and the order.  Comparing or hashing groups
    builds no element matrix.
    """

    ambient: Lattice
    generators: tuple[Matrix, ...]
    # orbit point -> its index, in index order
    _index: dict[Vector, int] = field(repr=False)
    _tuples: frozenset[tuple[int, ...]] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self._tuples)

    @cached_property
    def elements(self) -> tuple[Matrix, ...]:
        """Every element's matrix, sorted for determinism."""
        points = list(self._index)
        return tuple(sorted(tuple(zip(*map(points.__getitem__, a))) for a in self._tuples))

    @cached_property
    def _invariant(self) -> Sublattice:
        """Saturated sublattice of vectors fixed by every group element.

        Computed as the integer kernel of the stacked matrices g - I over
        the generators only: a vector fixed by all generators is fixed by
        the whole group.
        """
        n = self.ambient.rank
        identity = identity_matrix(n)
        rows = [
            tuple(map(sub, row, unit))
            for g in self.generators
            for row, unit in zip(g, identity)
        ]
        return Sublattice._trusted(self.ambient, _kernel(rows, n))

    @cached_property
    def _coinvariant(self) -> Sublattice:
        """Orthogonal complement of the fixed sublattice; saturated and G-stable."""
        return orthogonal_complement(self.ambient, self._invariant)

    def __contains__(self, g) -> bool:
        """Whether ``g``, an Isometry or a raw integer matrix, is an element.

        An Isometry of another lattice, or a matrix of the wrong shape, is
        not; a raw matrix with a bad entry raises.
        """
        if isinstance(g, Isometry):
            if g.ambient != self.ambient:
                return False
            m = g.matrix
        else:
            m = as_matrix(g)
        n = self.ambient.rank
        if len(m) != n or (m and len(m[0]) != n):
            return False
        # a column outside the orbit maps to None, which no element holds
        return tuple(map(self._index.get, zip(*m))) in self._tuples

    def __eq__(self, other):
        if not isinstance(other, IsometryGroup):
            return NotImplemented
        # <gens of other> <= self and |other| = |self| give other = self
        return (
            self.ambient == other.ambient
            and self.order == other.order
            and all(g in self for g in other.generators)
        )

    def __hash__(self):
        return hash((self.ambient, self.order))


def closure(target, generators, cap: int = DEFAULT_CLOSURE_CAP) -> IsometryGroup:
    """Enumerate the group generated by the given isometries.

    The group acts faithfully on the orbit O of the basis vectors, since
    column j of g is g(e_j).  Each generator becomes a permutation of O:
    the image g(v) of an orbit point is the core sparse kernel's sum of
    v_j times column j of g over the nonzero v_j.  Each element is stored
    as the n-tuple of the orbit indices of its columns, so that a product
    with a generator is n list lookups.  The breadth-first search runs on
    these tuples, and the group keeps them: no matrix is built here, and
    ``elements`` builds the matrices from the tuples on first read.

    Raises once the orbit of one basis vector, or the number of elements,
    would exceed ``cap``; either signals an infinite or oversized group,
    since |G| >= |G e_j|.  ``cap`` must be a positive ``int`` (not a
    ``bool``).
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise LatticeError(f"the enumeration cap must be a positive integer, got {cap!r}")
    L = _plain_lattice(target)
    n = L.rank
    gens = [_isometry_matrix(L, g, "generator") for g in generators]
    too_big = f"group order exceeds the enumeration cap {cap}"
    # Sparse columns: the dense mat_vec made the closures of a
    # fixed-lattice round 3x slower.
    columns = [_support(transpose(g)) for g in gens]
    points = list(identity_matrix(n))
    index = {v: k for k, v in enumerate(points)}
    images = [None] * n
    # Each queue holds only points first reached from its root, so it lies
    # in that root's orbit and its length bounds |G| from below.
    for root in range(n):
        queue = [root]
        for k in queue:
            support = [(j, x) for j, x in enumerate(points[k]) if x]
            images[k] = image = []
            for cols in columns:
                w = _combine(support, cols, n)
                m = index.get(w)
                if m is None:
                    if len(queue) >= cap:
                        raise LatticeError(too_big)
                    m = index[w] = len(points)
                    points.append(w)
                    images.append(None)
                    queue.append(m)
                image.append(m)
    steps = [perm.__getitem__ for perm in zip(*images)]
    ident = tuple(range(n))
    elements = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for step in steps:
                c = tuple(map(step, a))
                if c not in elements:
                    if len(elements) >= cap:
                        raise LatticeError(too_big)
                    elements.add(c)
                    fresh.append(c)
        frontier = fresh
    return IsometryGroup(L, tuple(gens), index, frozenset(elements))


def invariant_sublattice(G: IsometryGroup) -> Sublattice:
    """Saturated sublattice of vectors fixed by every group element."""
    return G._invariant


def coinvariant_sublattice(G: IsometryGroup) -> Sublattice:
    """Orthogonal complement of the fixed sublattice; saturated and G-stable."""
    return G._coinvariant


@dataclass(frozen=True)
class PairReport:
    """Checks on the fixed sublattice and its orthogonal complement."""

    invariant: Sublattice
    coinvariant: Sublattice
    intersection_trivial: bool
    invariant_gram_det: int
    coinvariant_gram_det: int

    @property
    def invariant_nondegenerate(self) -> bool:
        return self.invariant_gram_det != 0

    @property
    def coinvariant_nondegenerate(self) -> bool:
        return self.coinvariant_gram_det != 0

    @property
    def all_pass(self) -> bool:
        return (
            self.intersection_trivial
            and self.invariant_nondegenerate
            and self.coinvariant_nondegenerate
        )


def verify_pair_properties(G: IsometryGroup) -> PairReport:
    """Verify that the fixed sublattice meets its orthogonal complement only
    in zero and that both restricted Gram matrices are nondegenerate.

    All three hold for any finite isometry group of a nondegenerate
    lattice; rank-0 pieces pass vacuously (empty determinant is 1).
    """
    if discriminant(G.ambient) == 0:
        raise LatticeError("ambient Gram matrix must be nondegenerate")
    inv, co = G._invariant, G._coinvariant
    trivial = len(_hnf(inv.basis + co.basis)) == inv.rank + co.rank
    return PairReport(inv, co, trivial, inv._form[1], co._form[1])


def transcendental_sublattice(L: Lattice, ns: Sublattice) -> Sublattice:
    """Orthogonal complement of a Neron-Severi block; always saturated."""
    return orthogonal_complement(L, ns)


class NSType(Enum):
    """Signature pattern of a Picard block of rank r."""

    HYPERBOLIC = "Hyperbolic"  # (1, 0, r-1)
    PARABOLIC = "Parabolic"  # (0, 1, r-1)
    ELLIPTIC = "Elliptic"  # (0, 0, r)


@dataclass(frozen=True)
class NSClassification:
    ns_type: NSType
    ns_signature: SignatureTriple
    tr_signature: SignatureTriple
    expected_tr_signature: tuple[int, int, int]
    companion_ok: bool
    transcendental: Sublattice


def ns_classification(L: Lattice, ns: Sublattice) -> NSClassification:
    """Classify a Neron-Severi block by the signature of the restricted form.

    Also computes the orthogonal complement and compares its signature with
    the companion pattern expected in an ambient lattice of signature
    (3, 0, b-3) and rank b: hyperbolic -> (2, 0, b-r-2), parabolic ->
    (2, 1, b-r-3), elliptic -> (3, 0, b-r-3).  A mismatch is flagged, not
    an error; a block signature matching none of the three patterns is an
    error.
    """
    if discriminant(L) == 0:
        raise LatticeError("ambient lattice must be nondegenerate")
    if ns.ambient != L:
        raise LatticeError("sublattice does not live in this lattice")
    rho = ns.rank
    ns_sig = sub_signature(ns)
    if ns_sig == (1, 0, rho - 1):
        kind = NSType.HYPERBOLIC
    elif ns_sig == (0, 1, rho - 1):
        kind = NSType.PARABOLIC
    elif ns_sig == (0, 0, rho):
        kind = NSType.ELLIPTIC
    else:
        raise LatticeError(
            f"signature {tuple(ns_sig)} matches no Picard-block pattern"
        )
    tr = orthogonal_complement(L, ns)
    tr_sig = sub_signature(tr)
    b = L.rank
    expected = {
        NSType.HYPERBOLIC: (2, 0, b - rho - 2),
        NSType.PARABOLIC: (2, 1, b - rho - 3),
        NSType.ELLIPTIC: (3, 0, b - rho - 3),
    }[kind]
    return NSClassification(
        ns_type=kind,
        ns_signature=ns_sig,
        tr_signature=tr_sig,
        expected_tr_signature=expected,
        companion_ok=tuple(tr_sig) == expected,
        transcendental=tr,
    )


def classify_ns_type(L: Lattice, ns: Sublattice) -> NSType:
    """Hyperbolic, Parabolic or Elliptic, per the restricted-form signature."""
    return ns_classification(L, ns).ns_type


def _generator_images(G: IsometryGroup, s: Sublattice, unstable: str) -> list[Matrix]:
    """g(basis of s), one stacked matrix per generator g; raises with the
    message ``unstable`` unless every image lies in s.

    Stability is one echelon call on the basis and all images together:
    the span grows, and the canonical basis changes, iff an image is
    outside s.
    """
    images = [mat_mul(s.basis, transpose(g)) for g in G.generators]
    if _hnf([*s.basis, *(v for image in images for v in image)]) != s.basis:
        raise LatticeError(unstable)
    return images


def acts_trivially_on(G: IsometryGroup, s: Sublattice) -> bool:
    """Whether every group element fixes the sublattice pointwise.

    The sublattice must at least be stable (mapped into itself by every
    generator); otherwise the question is ill-posed and an error is
    raised.
    """
    if s.ambient != G.ambient:
        raise LatticeError("sublattice lives in a different lattice")
    images = _generator_images(G, s, "sublattice is not stable under the group")
    return all(image == s.basis for image in images)


def is_negative_definite(s: Sublattice) -> bool:
    """True iff the restricted form has signature (0, 0, rank)."""
    return sub_signature(s) == (0, 0, s.rank)


@dataclass(frozen=True)
class SymplecticActionReport:
    """Verification record for a group action modeling a symplectic
    automorphism group at the lattice level.

    A failed line means the supplied action does not model a symplectic
    action, not that a theorem failed; whether a group really is
    symplectic is analytic and not decidable here.  The definiteness field
    is None in the hyperbolic case, where no claim is made.
    """

    ns_type: NSType
    fixes_transcendental_pointwise: bool
    transcendental_in_invariant: bool
    coinvariant_in_ns: bool
    coinvariant_negative_definite: Optional[bool]
    coinvariant_signature: SignatureTriple

    @property
    def all_verified(self) -> bool:
        checks = [
            self.fixes_transcendental_pointwise,
            self.transcendental_in_invariant,
            self.coinvariant_in_ns,
        ]
        if self.coinvariant_negative_definite is not None:
            checks.append(self.coinvariant_negative_definite)
        return all(checks)


def symplectic_action_report(
    target, G: IsometryGroup, ns: Sublattice
) -> SymplecticActionReport:
    """Check the lattice-level conclusions expected of a symplectic action.

    Given a group acting on the ambient lattice and a Neron-Severi block
    stable under it, reports whether (1) the transcendental block is fixed
    pointwise, (2) it sits inside the fixed sublattice while the
    coinvariant sublattice sits inside the Neron-Severi block, and (3) in
    the parabolic and elliptic cases, whether the coinvariant sublattice is
    negative definite.  The coinvariant signature is always reported.
    """
    amb = _plain_lattice(target)
    if G.ambient != amb:
        raise LatticeError("group acts on a different lattice")
    if ns.ambient != amb:
        raise LatticeError("sublattice lives in a different lattice")
    _generator_images(G, ns, "the Neron-Severi block is not stable under the group")
    cls = ns_classification(amb, ns)
    tr = cls.transcendental
    inv, co = G._invariant, G._coinvariant
    negdef = (
        is_negative_definite(co)
        if cls.ns_type in (NSType.PARABOLIC, NSType.ELLIPTIC)
        else None
    )
    return SymplecticActionReport(
        ns_type=cls.ns_type,
        # tr = NS-perp is G-stable because NS is, so this cannot raise
        fixes_transcendental_pointwise=acts_trivially_on(G, tr),
        transcendental_in_invariant=rational_span_leq(tr, inv),
        coinvariant_in_ns=rational_span_leq(co, ns),
        coinvariant_negative_definite=negdef,
        coinvariant_signature=sub_signature(co),
    )
