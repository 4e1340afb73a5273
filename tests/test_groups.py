import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilblat.core as core
import hilblat.groups as groups
from helpers import (
    abstract_matrix_closure,
    random_nondegenerate_lattice,
    random_signed_permutation,
    random_sublattice,
    random_symmetric_gram,
)
from hilblat import (
    Lattice,
    LatticeError,
    NSType,
    Sublattice,
    acts_trivially_on,
    classify_ns_type,
    closure,
    coinvariant_sublattice,
    diagonal_lattice,
    direct_sum,
    det,
    douady_lattice,
    full_sublattice,
    hermite_basis,
    hyperbolic_plane,
    identity_isometry,
    identity_matrix,
    integer_kernel,
    invariant_sublattice,
    is_isometry,
    is_negative_definite,
    k3_lattice,
    mat_mul,
    mat_vec,
    natural_lift,
    norm,
    ns_classification,
    orthogonal_complement,
    rational_span_leq,
    reflection_isometry,
    symplectic_action_report,
    transcendental_sublattice,
    verify_pair_properties,
)

U = hyperbolic_plane()
SWAP = ((0, 1), (1, 0))
K3 = k3_lattice()
E8_BLOCKS = (range(6, 14), range(14, 22))  # the two E8(-1) summands of K3
CAP_MESSAGE = "group order exceeds the enumeration cap {}"
UNSTABLE = "sublattice is not stable under the group"
UNSTABLE_NS = "the Neron-Severi block is not stable under the group"


class TestClosure:
    def test_no_generators(self):
        for L in (U, K3):
            G = closure(L, [])
            assert G.order == 1
            assert G.elements == (identity_matrix(L.rank),)
            assert G.generators == ()

    def test_swap_generates_order_two(self):
        assert closure(U, [SWAP]).order == 2

    def test_every_element_is_an_isometry(self):
        rng = random.Random(69)
        for _ in range(5):
            G, L = _random_isometry_group(rng)
            assert all(is_isometry(L, g) for g in G.elements)

    def test_commuting_swaps(self):
        UU = direct_sum(U, U)
        s1 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        s2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        assert closure(UU, [s1, s2]).order == 4

    def test_generator_order_irrelevant(self):
        UU = direct_sum(U, U)
        s1 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        s2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        G, H = closure(UU, [s1, s2]), closure(UU, [s2, s1])
        assert G.elements == H.elements
        # the orbit is indexed in a different order, yet the groups are equal
        assert G == H and hash(G) == hash(H)
        assert G != closure(UU, [s1]) and G != closure(direct_sum(UU, U), [])

    def test_closed_under_inverse(self):
        G = closure(U, [SWAP, ((-1, 0), (0, -1))])
        for g in G.elements:
            assert any(
                tuple(
                    tuple(sum(g[i][k] * h[k][j] for k in range(2)) for j in range(2))
                    for i in range(2)
                )
                == identity_matrix(2)
                for h in G.elements
            )

    def test_cap_exceeded(self):
        pell = ((3, 4), (2, 3))  # infinite order on diag(1, -2)
        # two (-2)-roots of U + U with q(a, b) = -2: a translation of infinite order
        a = (1, -1) + (0,) * 20
        b = (2, 0, 1, -1) + (0,) * 18
        dihedral = [reflection_isometry(K3, a), reflection_isometry(K3, b)]
        cases = [(diagonal_lattice((1, -2)), [pell], 64)]
        cases += [(K3, dihedral, cap) for cap in (1, 64, 10_000)]
        for L, gens, cap in cases:
            with pytest.raises(LatticeError) as err:
                closure(L, gens, cap=cap)
            assert str(err.value) == CAP_MESSAGE.format(cap)

    def test_non_isometry_generator(self):
        with pytest.raises(LatticeError):
            closure(U, [((1, 1), (0, 1))])

    @pytest.mark.parametrize("gens", [[SWAP], []])
    @pytest.mark.parametrize("cap", ["3", 1.5, True, False, 0, -1, None])
    def test_cap_must_be_a_positive_int(self, gens, cap):
        message = f"the enumeration cap must be a positive integer, got {cap!r}"
        with pytest.raises(LatticeError) as err:
            closure(U, gens, cap=cap)
        assert str(err.value) == message


def _e(i):
    return tuple(1 if k == i else 0 for k in range(22))


def _block_root(rng, block):
    """A simple root of one E8(-1) summand, or half the time a random
    vector of norm -2 supported in it."""
    if rng.randint(0, 1):
        return _e(rng.choice(block))
    while True:
        v = [0] * 22
        for _ in range(rng.randint(1, 3)):
            v[rng.choice(block)] = rng.randint(-2, 2)
        if norm(K3, v) == -2:
            return tuple(v)


def _mixing_reflection(rng):
    """Reflection in a norm +-2 vector with entries in at least two of the
    summands U, U, U, E8(-1), E8(-1)."""
    summand = (0, 0, 1, 1, 2, 2) + (3,) * 8 + (4,) * 8
    while True:
        v = [0] * 22
        for _ in range(rng.randint(2, 4)):
            v[rng.randrange(22)] = rng.randint(-2, 2)
        if norm(K3, v) in (2, -2) and len({summand[i] for i in range(22) if v[i]}) > 1:
            return reflection_isometry(K3, v).matrix


class TestPermutationClosure:
    """closure enumerates through the permutation action on the orbit of
    the basis vectors; the breadth-first matrix products of
    abstract_matrix_closure are the oracle."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(
        st.integers(0, 2**32),
        st.sampled_from([2, 3, 4]),
        st.booleans(),
        st.integers(0, 2),
        st.sampled_from([None, 2, 3]),
        st.sampled_from([-1, 0, 1000]),
    )
    def test_matches_matrix_product_oracle(self, seed, roots, both, mixing, lift, excess):
        """Weyl groups of up to four roots in one or both E8(-1) summands,
        conjugated by reflections that mix summands and sometimes lifted to
        DOUADY(n); the cap is set just below, at or far above the order."""
        rng = random.Random(seed)
        blocks = E8_BLOCKS if both else E8_BLOCKS[:1]
        gens = [
            reflection_isometry(K3, _block_root(rng, rng.choice(blocks))).matrix
            for _ in range(roots)
        ]
        for _ in range(mixing):
            r = _mixing_reflection(rng)
            gens = [mat_mul(r, mat_mul(g, r)) for g in gens]
        target = K3
        if lift is not None:
            target = douady_lattice(lift)
            gens = [natural_lift(target, g).matrix for g in gens]
        # four roots span at most D4, whose Weyl group has order 192
        expected = abstract_matrix_closure(gens, len(gens[0]), cap=400)
        cap = len(expected) + excess
        if excess < 0:
            with pytest.raises(LatticeError) as err:
                closure(target, gens, cap)
            assert str(err.value) == CAP_MESSAGE.format(cap)
        else:
            G = closure(target, gens, cap)
            assert G.elements == tuple(sorted(expected))
            assert G.generators == tuple(gens)

    @pytest.mark.parametrize("lift", [None, 2])
    def test_order_equal_to_cap_passes(self, lift):
        gens = [reflection_isometry(K3, _e(i)).matrix for i in (7, 8, 9, 10)]  # W(D4)
        target = K3
        if lift is not None:
            target = douady_lattice(lift)
            gens = [natural_lift(target, g).matrix for g in gens]
        G = closure(target, gens, cap=192)
        assert G.elements == tuple(sorted(abstract_matrix_closure(gens, len(gens[0]), 192)))
        with pytest.raises(LatticeError) as err:
            closure(target, gens, cap=191)
        assert str(err.value) == CAP_MESSAGE.format(191)

    def test_rank_zero_lattice(self):
        L = Lattice(())
        for gens in ([], [()], [(), ()]):
            G = closure(L, gens)
            assert G.order == 1
            assert () in G and [] in G
            assert ((),) not in G and ((1,),) not in G
            assert "elements" not in G.__dict__
            assert G.elements == ((),)

    def test_membership(self):
        gens = [reflection_isometry(K3, _e(i)) for i in (6, 8)]  # W(A2)
        G = closure(K3, gens)
        assert all(g in G for g in G.elements)
        assert [list(row) for row in G.elements[0]] in G
        assert ((0, 1), (1, 0)) not in G
        assert tuple(tuple(-x for x in row) for row in identity_matrix(22)) not in G
        with pytest.raises(LatticeError):
            ((0.5,),) in G
        # a ragged raw matrix has the wrong shape, unless an entry is bad
        trivial = closure(U, [])
        assert ((1,), (0, 1)) not in trivial and ((1, 0), (0, 1, 0)) not in trivial
        for bad in (((1,), (0, 1.0)), ((1, 0), (0, 1), (True,))):
            with pytest.raises(LatticeError, match=r"^integer entry expected, got "):
                bad in trivial

    def test_isometry_membership(self):
        r6, r8 = (reflection_isometry(K3, _e(i)) for i in (6, 8))
        G = closure(K3, [r6, r8])
        assert r6 in G and r6 * r8 * r6 in G
        assert reflection_isometry(K3, _e(10)) not in G
        # an isometry of another lattice is not a member, whatever its matrix
        D = douady_lattice(2)
        assert reflection_isometry(D.full, _e(6) + (0,)) not in G
        assert identity_isometry(U) not in closure(K3, [])
        assert identity_isometry(U) in closure(U, [])

    def test_non_members_with_every_column_in_the_orbit(self):
        G = closure(K3, [reflection_isometry(K3, _e(i)) for i in (6, 8)])
        r6 = reflection_isometry(K3, _e(6)).matrix
        for a, b in ((0, 1), (0, 6), (6, 8), (7, 8)):
            for g in (identity_matrix(22), r6):
                # g with columns a and b swapped: the same orbit points
                cols = list(zip(*g))
                cols[a], cols[b] = cols[b], cols[a]
                assert tuple(zip(*cols)) not in G
        assert "elements" not in G.__dict__

    def test_column_outside_the_orbit_and_wrong_shapes(self):
        G = closure(K3, [reflection_isometry(K3, _e(i)) for i in (6, 8)])
        shear = [list(row) for row in identity_matrix(22)]
        shear[1][0] = 1  # column 0 becomes e_0 + e_1, outside the orbit
        assert shear not in G
        assert tuple(tuple(2 * x for x in row) for row in identity_matrix(22)) not in G
        for m in (identity_matrix(21), identity_matrix(23), SWAP, (), ((),), ((1, 2), (3,)),
                  identity_matrix(22)[:21], tuple(row[:21] for row in identity_matrix(22))):
            assert m not in G
        with pytest.raises(LatticeError):
            [[True] * 22] * 22 in G
        assert "elements" not in G.__dict__

    def test_no_matrix_products(self, monkeypatch):
        D = douady_lattice(2)
        weyl = [reflection_isometry(K3, _e(i)).matrix for i in (6, 8, 9, 10, 14)]
        lifts = [natural_lift(D, g).matrix for g in weyl]  # W(A4) x W(A1)
        calls = []
        real = core.mat_mul

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(core, "mat_mul", counted)
        monkeypatch.setattr(groups, "mat_mul", counted, raising=False)
        assert closure(K3, weyl).order == 240
        assert closure(D, lifts).order == 240
        assert calls == []


class TestLazyElements:
    """closure keeps each element as the tuple of the orbit indices of its
    columns; the matrices are built only when G.elements is read."""

    def test_readers_leave_elements_unbuilt(self):
        D = douady_lattice(2)
        gens = [natural_lift(D, reflection_isometry(K3, _e(i))).matrix for i in (6, 8)]
        G = closure(D.full, gens)  # W(A2) on two roots of E8(-1)
        ns = Sublattice(D.full, [_e(6) + (0,), _e(8) + (0,), D.delta])
        assert G.order == 6
        assert invariant_sublattice(G).rank == 21
        assert coinvariant_sublattice(G).rank == 2
        assert verify_pair_properties(G).all_pass
        assert symplectic_action_report(D, G, ns).all_verified
        assert gens[0] in G and mat_mul(gens[0], gens[1]) in G
        assert identity_matrix(23) in G and SWAP not in G
        assert "elements" not in G.__dict__
        assert len(G.elements) == 6 and "elements" in G.__dict__

    def test_repr_leaves_out_the_orbit(self):
        G = closure(U, [SWAP])
        assert "_index" not in repr(G) and "_tuples" not in repr(G)
        assert "elements" not in G.__dict__


def _identity_pool():
    """Isometries of U + U + <-2> + <-2>, on the basis (e1, f1, e2, f2, d1, d2)."""
    L = direct_sum(direct_sum(U, U), diagonal_lattice((-2, -2)))

    def permutation(*images):
        return tuple(tuple(int(images[j] == i) for j in range(6)) for i in range(6))

    negate_d1 = tuple(
        tuple(-x if i == j == 4 else x for j, x in enumerate(row))
        for i, row in enumerate(identity_matrix(6))
    )
    pool = [
        permutation(1, 0, 2, 3, 4, 5),  # swap e1, f1
        permutation(0, 1, 3, 2, 4, 5),  # swap e2, f2
        permutation(2, 3, 0, 1, 4, 5),  # swap the two planes
        permutation(0, 1, 2, 3, 5, 4),  # swap d1, d2
        negate_d1,
        tuple(tuple(-x for x in row) for row in identity_matrix(6)),
        reflection_isometry(L, (1, 1, 0, 0, 0, 0)).matrix,  # e1 -> -f1
        reflection_isometry(L, (1, 0, 0, 0, 1, 0)).matrix,  # in the root e1 + d1
    ]
    return L, pool


def _padded(L, gens, pad, before):
    """L with ``pad`` extra coordinates of norm -2 that every generator
    fixes, placed before or after L's own."""
    if not pad:
        return L, gens
    k, n = pad, L.rank
    P = diagonal_lattice((-2,) * k)

    def extend(g):
        ident = identity_matrix(k)
        if before:
            return tuple(r + (0,) * n for r in ident) + tuple((0,) * k + r for r in g)
        return tuple(r + (0,) * k for r in g) + tuple((0,) * n + r for r in ident)

    return (direct_sum(P, L) if before else direct_sum(L, P)), [extend(g) for g in gens]


def _swap_columns(m, a, b):
    cols = list(zip(*m))
    cols[a], cols[b] = cols[b], cols[a]
    return tuple(zip(*cols))


class TestClosureAgainstOracle:
    """closure searches only the orbits of the moved basis vectors and keeps
    each element on the moved positions; on order, elements, membership,
    == and hash it agrees with the matrix-product closure of
    abstract_matrix_closure, including for groups that fix basis vectors."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 2), st.booleans())
    def test_matches_matrix_product_oracle(self, seed, count, pad, before):
        rng = random.Random(seed)
        L0, pool = _identity_pool()
        gens0 = rng.sample(pool, count)
        other0 = rng.sample(pool, rng.randint(0, 3))
        L, gens = _padded(L0, gens0, pad, before)
        _, other = _padded(L0, other0, pad, before)
        n = L.rank
        expected = abstract_matrix_closure(gens, n, cap=64)
        if expected is None:  # the root reflection can make the group infinite
            with pytest.raises(LatticeError) as err:
                closure(L, gens, cap=64)
            assert str(err.value) == CAP_MESSAGE.format(64)
            return
        G = closure(L, gens, cap=64)
        assert G.order == len(expected)
        assert G.elements == tuple(sorted(expected))
        # members, non-members from a larger group, and matrices with two
        # columns swapped (fixed or moved) are classified as the oracle does
        larger = abstract_matrix_closure(gens + other, n, cap=64) or set()
        candidates = list(expected | larger)
        for m in rng.sample(candidates, min(len(candidates), 12)):
            a, b = rng.sample(range(n), 2)
            for x in (m, _swap_columns(m, a, b)):
                assert (x in G) == (x in expected)
        # another generating set of the same group, and another group
        H = closure(L, gens[::-1] + [mat_mul(g, h) for g, h in zip(gens, gens[1:])], cap=64)
        assert G == H and hash(G) == hash(H)
        K_elements = abstract_matrix_closure(other, n, cap=64)
        if K_elements is not None:
            K = closure(L, other, cap=64)
            assert (G == K) == (K_elements == expected) == (K == G)
            if G == K:
                assert hash(G) == hash(K)

    @pytest.mark.parametrize("pad", [0, 1, 3])
    def test_no_generators(self, pad):
        L, _ = _padded(Lattice(()), [], pad, True)
        G = closure(L, [])
        expected = abstract_matrix_closure([], L.rank, cap=1)
        assert G.order == 1 and G.elements == tuple(expected)
        assert identity_matrix(L.rank) in G and G == closure(L, [identity_matrix(L.rank)])
        if pad > 1:
            assert _swap_columns(identity_matrix(pad), 0, 1) not in G


class TestGroupIdentity:
    """Two groups are equal when they share the lattice, the order and each
    other's generators; neither == nor hash reads G.elements."""

    def test_agrees_with_the_element_matrices(self):
        L, pool = _identity_pool()
        rng = random.Random(14)
        groups_ = []
        for _ in range(40):
            gens = rng.sample(pool, rng.randint(0, 3))
            try:
                groups_.append(closure(L, gens, cap=64))
            except LatticeError:  # the root reflection can make it infinite
                continue
        tally = {True: 0, False: 0}
        for G, H in itertools.product(groups_, repeat=2):
            equal = G == H
            assert (G != H) is not equal
            if equal:
                assert hash(G) == hash(H)
            if G.order == H.order:
                tally[equal] += 1
            assert equal == (G.elements == H.elements)
        # both outcomes occur among groups of equal order
        assert tally[True] > len(groups_) and tally[False] > 0

    def test_distinct_groups_of_equal_order(self):
        UU = direct_sum(U, U)
        s1 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        s2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        G, H = closure(UU, [s1]), closure(UU, [s2])
        assert G.order == H.order == 2
        assert G != H and not G == H and len({G, H}) == 2
        assert G == closure(UU, [s1, s1]) and G.__eq__(U) is NotImplemented

    def test_comparing_and_hashing_leave_elements_unbuilt(self):
        L, pool = _identity_pool()
        G, H = closure(L, pool[:3]), closure(L, pool[2::-1])
        K = closure(L, pool[3:5])
        assert G == H and not G != H and G != K
        assert hash(G) == hash(H) and len({G, H, K}) == 2
        assert all("elements" not in X.__dict__ for X in (G, H, K))


class TestLargeGroups:
    """Orders far above the fixed-lattice groups, read off the index tuples;
    neither test reads G.elements."""

    def test_weyl_a6_on_the_first_e8(self):
        gens = [reflection_isometry(K3, _e(i)).matrix for i in (6, 8, 9, 10, 11, 12)]
        G = closure(K3, gens)
        assert G.order == 5040
        for a, b in itertools.combinations(gens, 2):
            assert mat_mul(a, b) in G
        assert mat_mul(gens[0], mat_mul(gens[3], gens[5])) in G
        assert reflection_isometry(K3, _e(7)).matrix not in G
        assert "elements" not in G.__dict__

    def test_weyl_e6_at_its_order(self):
        gens = [reflection_isometry(K3, _e(i)).matrix for i in range(6, 12)]
        G = closure(K3, gens, cap=51840)
        assert G.order == 51840
        assert "elements" not in G.__dict__
        with pytest.raises(LatticeError) as err:
            closure(K3, gens, cap=51839)
        assert str(err.value) == CAP_MESSAGE.format(51839)

    def test_weyl_e6_equals_itself_with_generators_reversed(self):
        gens = [reflection_isometry(K3, _e(i)).matrix for i in range(6, 12)]
        G, H = closure(K3, gens, cap=51840), closure(K3, gens[::-1], cap=51840)
        assert G == H and hash(G) == hash(H)
        assert "elements" not in G.__dict__ and "elements" not in H.__dict__


class TestInvariantSublattice:
    def test_trivial_group_fixes_everything(self):
        G = closure(U, [])
        assert invariant_sublattice(G) == full_sublattice(U)

    def test_swap(self):
        G = closure(U, [SWAP])
        inv = invariant_sublattice(G)
        assert inv.basis == ((1, 1),)
        assert norm(U, inv.basis[0]) == 2

    def test_lift_group_fixes_delta(self):
        D = douady_lattice(2)
        K3 = k3_lattice()
        refl = reflection_isometry(K3, (1, 1) + (0,) * 20)
        G = closure(D.full, [natural_lift(D, refl).matrix])
        assert invariant_sublattice(G).contains(D.delta)

    def test_matches_average_projector_oracle(self):
        rng = random.Random(61)
        for _ in range(8):
            G, L = _random_isometry_group(rng)
            inv = invariant_sublattice(G)
            total = [
                [sum(g[i][j] for g in G.elements) for j in range(L.rank)]
                for i in range(L.rank)
            ]
            for i in range(L.rank):
                total[i][i] -= G.order
            oracle = integer_kernel(tuple(tuple(r) for r in total), L.rank)
            assert oracle == inv.basis


class TestCoinvariantSublattice:
    def test_trivial_group(self):
        assert coinvariant_sublattice(closure(U, [])).rank == 0

    def test_swap(self):
        co = coinvariant_sublattice(closure(U, [SWAP]))
        assert co.basis == ((1, -1),)
        assert norm(U, co.basis[0]) == -2

    def test_rank_additivity(self):
        rng = random.Random(67)
        for _ in range(8):
            G, L = _random_isometry_group(rng)
            assert (
                invariant_sublattice(G).rank + coinvariant_sublattice(G).rank
                == L.rank
            )

    def test_both_sublattices_saturated_and_stable(self):
        rng = random.Random(68)
        for _ in range(8):
            G, L = _random_isometry_group(rng)
            inv = invariant_sublattice(G)
            co = coinvariant_sublattice(G)
            assert inv.saturated and co.saturated
            for sub in (inv, co):
                for g in G.elements:
                    for v in sub.basis:
                        image = tuple(
                            sum(g[i][j] * v[j] for j in range(L.rank))
                            for i in range(L.rank)
                        )
                        assert sub.contains(image)


class TestVerifyPairProperties:
    def test_swap_passes(self):
        rep = verify_pair_properties(closure(U, [SWAP]))
        assert rep.all_pass
        assert rep.invariant_gram_det == 2
        assert rep.coinvariant_gram_det == -2

    def test_trivial_group_vacuous(self):
        rep = verify_pair_properties(closure(U, []))
        assert rep.coinvariant.rank == 0
        assert rep.all_pass

    def test_sign_flip_block(self):
        L = direct_sum(U, diagonal_lattice((-2,)))
        flip = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
        rep = verify_pair_properties(closure(L, [flip]))
        assert rep.invariant.basis == ((1, 0, 0), (0, 1, 0))
        assert rep.coinvariant.basis == ((0, 0, 1),)
        assert rep.all_pass

    def test_degenerate_ambient_rejected(self):
        L = Lattice.from_gram([[0, 0], [0, 2]])
        with pytest.raises(LatticeError):
            verify_pair_properties(closure(L, []))


class TestTranscendental:
    def test_empty_picard_block(self):
        assert transcendental_sublattice(U, Sublattice(U, [])) == full_sublattice(U)

    def test_delta_complement_is_embedded_k3(self):
        D = douady_lattice(2)
        tr = transcendental_sublattice(D.full, Sublattice(D.full, [D.delta]))
        expected = tuple(D.full.basis_vector(i) for i in range(22))
        assert tr.basis == expected

    def test_diagonal_example(self):
        L = diagonal_lattice((4, -2, 2))
        ns = Sublattice(L, [(1, 0, 0), (0, 1, 0)])
        assert transcendental_sublattice(L, ns).basis == ((0, 0, 1),)


class TestClassification:
    def test_hyperbolic_fixture(self):
        L = diagonal_lattice((4, -2))
        assert classify_ns_type(L, full_sublattice(L)) is NSType.HYPERBOLIC

    def test_parabolic_fixture(self):
        # restricted Gram of the isotropic line is [[0]]
        assert classify_ns_type(U, Sublattice(U, [(1, 0)])) is NSType.PARABOLIC

    def test_elliptic_fixture(self):
        L = diagonal_lattice((-2,))
        assert classify_ns_type(L, full_sublattice(L)) is NSType.ELLIPTIC

    def test_companion_patterns_in_rank_23(self):
        D = douady_lattice(2)
        positive = (1, 2) + (0,) * 21  # q = 4
        isotropic = (1,) + (0,) * 22  # q = 0
        cases = [
            (positive, NSType.HYPERBOLIC, (2, 0, 20)),
            (isotropic, NSType.PARABOLIC, (2, 1, 19)),
            (D.delta, NSType.ELLIPTIC, (3, 0, 19)),
        ]
        for vector, expected_type, expected_tr in cases:
            cls = ns_classification(D.full, Sublattice(D.full, [vector]))
            assert cls.ns_type is expected_type
            assert tuple(cls.tr_signature) == expected_tr
            assert cls.companion_ok

    @pytest.mark.parametrize("pos, zero, neg", list(itertools.product(range(3), repeat=3)))
    @pytest.mark.parametrize("extra", [(), (2, 2, -2), (2, 2, 2, -2)])
    def test_agrees_with_the_two_tables(self, pos, zero, neg, extra):
        # one isotropic line from each of `zero` copies of U, then pos lines
        # of norm 2 and neg of norm -2, in an ambient widened by `extra`
        L = diagonal_lattice((2,) * pos + (-2,) * neg + extra)
        for _ in range(zero):
            L = direct_sum(U, L)
        rows = [L.basis_vector(2 * i) for i in range(zero)]
        rows += [L.basis_vector(2 * zero + i) for i in range(pos + neg)]
        ns = Sublattice(L, rows)
        rho, b, sig = len(rows), L.rank, (pos, zero, neg)
        if sig == (1, 0, rho - 1):
            kind = NSType.HYPERBOLIC
        elif sig == (0, 1, rho - 1):
            kind = NSType.PARABOLIC
        elif sig == (0, 0, rho):
            kind = NSType.ELLIPTIC
        else:
            with pytest.raises(LatticeError, match="matches no Picard-block pattern"):
                ns_classification(L, ns)
            return
        expected = {
            NSType.HYPERBOLIC: (2, 0, b - rho - 2),
            NSType.PARABOLIC: (2, 1, b - rho - 3),
            NSType.ELLIPTIC: (3, 0, b - rho - 3),
        }[kind]
        cls = ns_classification(L, ns)
        assert cls.ns_type is kind and cls.ns_signature == sig
        assert cls.expected_tr_signature == expected
        assert cls.companion_ok == (tuple(cls.tr_signature) == expected)

    def test_pattern_mismatch_is_an_error(self):
        L = diagonal_lattice((1, 1))
        with pytest.raises(LatticeError):
            classify_ns_type(L, full_sublattice(L))

    def test_degenerate_ambient_rejected(self):
        L = Lattice.from_gram([[0]])
        with pytest.raises(LatticeError):
            classify_ns_type(L, full_sublattice(L))

    def test_hyperbolic_iff_positive_vector_and_nondegenerate(self):
        rng = random.Random(71)
        for _ in range(25):
            L = diagonal_lattice(
                tuple(rng.choice((-4, -2, 2, 4)) for _ in range(rng.randint(1, 4)))
            )
            ns = full_sublattice(L)
            try:
                kind = classify_ns_type(L, ns)
            except LatticeError:
                sig = tuple(x for x in (L.gram[i][i] for i in range(L.rank)))
                assert sum(1 for x in sig if x > 0) > 1
                continue
            has_positive = any(L.gram[i][i] > 0 for i in range(L.rank))
            nondeg = det(L.gram) != 0
            assert (kind is NSType.HYPERBOLIC) == (has_positive and nondeg)


class TestActsTrivially:
    def test_on_own_invariants(self):
        G = closure(U, [SWAP])
        assert acts_trivially_on(G, invariant_sublattice(G))

    def test_on_antiinvariant_line(self):
        G = closure(U, [SWAP])
        assert not acts_trivially_on(G, Sublattice(U, [(1, -1)]))

    def test_trivial_group(self):
        G = closure(U, [])
        assert acts_trivially_on(G, Sublattice(U, [(1, 0)]))

    def test_unstable_sublattice_rejected(self):
        G = closure(U, [SWAP])
        with pytest.raises(LatticeError, match=f"^{UNSTABLE}$"):
            acts_trivially_on(G, Sublattice(U, [(1, 0)]))


class TestSymplecticActionLaw:
    """On K3, L^G is saturated and a stable NS has a stable complement T, so
    G fixes T pointwise iff T lies in L^G iff L_G = (L^G)-perp lies in NS:
    the report's three conclusions always agree."""

    def test_three_conclusions_agree(self):
        rng = random.Random(23)
        seen = {True: 0, False: 0}
        for _ in range(200):
            roots = [_e(i) for i in rng.sample(rng.choice(E8_BLOCKS), rng.randint(1, 3))]
            G = closure(K3, [reflection_isometry(K3, r).matrix for r in roots])
            # NS inside L^G, or reaching out of it through some of the roots
            rows = rng.sample(invariant_sublattice(G).basis, rng.randint(1, 4))
            rows += rng.sample(roots, rng.randint(0, len(roots)))
            try:
                rep = symplectic_action_report(K3, G, Sublattice(K3, rows))
            except LatticeError:
                continue  # an unstable block, or a signature of no Picard block
            value = rep.fixes_transcendental_pointwise
            assert rep.transcendental_in_invariant == rep.coinvariant_in_ns == value
            seen[value] += 1
        assert seen[True] and seen[False]


class TestStabilityChecks:
    """acts_trivially_on and the stability check of symplectic_action_report
    against the per-vector checks: g(v) in s, and g(v) == v, for every
    generator g and basis vector v of s."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["invariant", "coinvariant", "full", "orbit", "random"]),
    )
    def test_matches_per_vector_oracle(self, seed, kind):
        rng = random.Random(seed)
        G, L = _random_isometry_group(rng)
        s = _sublattice_of_kind(G, L, kind, rng)
        stable = all(s.contains(mat_vec(g, v)) for g in G.generators for v in s.basis)
        fixed = all(mat_vec(g, v) == v for g in G.generators for v in s.basis)
        assert stable or kind == "random"
        if stable:
            assert acts_trivially_on(G, s) == fixed
        else:
            with pytest.raises(LatticeError, match=f"^{UNSTABLE}$"):
                acts_trivially_on(G, s)
        try:
            rep = symplectic_action_report(L, G, s)
        except LatticeError as exc:
            # a stable block may still match no Picard-block pattern
            assert (str(exc) == UNSTABLE_NS) == (not stable)
            return
        assert stable
        tr = transcendental_sublattice(L, s)
        assert rep.fixes_transcendental_pointwise == all(
            mat_vec(g, v) == v for g in G.generators for v in tr.basis
        )

    def test_one_sift_and_no_echelon_call_per_stability_check(self, monkeypatch):
        D = douady_lattice(2)
        gens = [natural_lift(D, reflection_isometry(K3, _e(i))).matrix for i in (6, 8)]
        G = closure(D.full, gens)  # W(A2) on two roots of E8(-1)
        ns = Sublattice(D.full, [_e(6) + (0,), _e(8) + (0,), D.delta])
        inv = invariant_sublattice(G)
        tr = transcendental_sublattice(D.full, ns)
        hnf_calls, sift_calls, contains_calls = [], [], []
        real_hnf, real_sift = core._hnf, groups._sift
        real_contains = core.Sublattice.contains

        def hnf(rows):
            hnf_calls.append(rows)
            return real_hnf(rows)

        def sift(basis, vectors, rational=False):
            sift_calls.append((basis, vectors, rational))
            return real_sift(basis, vectors, rational)

        def contains(s, v):
            contains_calls.append(v)
            return real_contains(s, v)

        monkeypatch.setattr(core, "_hnf", hnf)
        monkeypatch.setattr(groups, "_hnf", hnf)
        monkeypatch.setattr(groups, "_sift", sift)
        monkeypatch.setattr(core.Sublattice, "contains", contains)
        assert not acts_trivially_on(G, ns)
        assert hnf_calls == [] and len(sift_calls) == 1
        # a pointwise-fixed block needs neither a sift nor an echelon call
        sift_calls.clear()
        assert acts_trivially_on(G, inv) and acts_trivially_on(G, tr)
        assert hnf_calls == [] and sift_calls == []
        rep = symplectic_action_report(D, G, ns)
        assert rep.fixes_transcendental_pointwise and rep.all_verified
        # the block's stability check; NS-perp is fixed pointwise
        assert len(sift_calls) == 1 and not sift_calls[0][2]
        assert contains_calls == []


class TestOnePairPerGroup:
    """L^G and L_G are derived once per group and shared by all readers."""

    def test_each_reader_sees_the_same_pair(self):
        G = closure(U, [SWAP])
        rep = verify_pair_properties(G)
        assert invariant_sublattice(G) is rep.invariant
        assert coinvariant_sublattice(G) is rep.coinvariant

    def test_two_kernels_across_the_four_readers(self, monkeypatch):
        D = douady_lattice(2)
        gens = [natural_lift(D, reflection_isometry(K3, _e(i))).matrix for i in (6, 8)]
        G = closure(D.full, gens)  # W(A2) on two roots of E8(-1)
        ns = Sublattice(D.full, [_e(6) + (0,), _e(8) + (0,), D.delta])
        calls = []
        real = core._kernel

        def kernel(rows, width):
            calls.append(rows)
            return real(rows, width)

        monkeypatch.setattr(core, "_kernel", kernel)
        monkeypatch.setattr(groups, "_kernel", kernel)
        # L_G takes no kernel and does not wait for L^G
        co = coinvariant_sublattice(G)
        assert calls == [] and "_invariant" not in G.__dict__
        # L^G takes one, on the stacked g - I
        inv = invariant_sublattice(G)
        assert calls == [
            [
                tuple(g[i][j] - (1 if i == j else 0) for j in range(23))
                for g in gens for i in range(23)
            ]
        ]
        rep = verify_pair_properties(G)
        assert rep.all_pass and rep.invariant is inv and rep.coinvariant is co
        assert symplectic_action_report(D, G, ns).all_verified
        # the second and last kernel is the transcendental block NS-perp
        assert len(calls) == 2
        assert invariant_sublattice(G) is inv and coinvariant_sublattice(G) is co
        assert (inv.rank, co.rank) == (21, 2)


def _permutation_matrix(images):
    """The matrix sending basis vector j to basis vector images[j]."""
    n = len(images)
    return tuple(tuple(int(images[j] == i) for j in range(n)) for i in range(n))


def _swap_blocks(a, b, size):
    images = list(range(22))
    images[a : a + size], images[b : b + size] = range(b, b + size), range(a, a + size)
    return _permutation_matrix(images)


def _paper_groups():
    """The finite groups of the paper's last section on K3 in the standard
    marking, as (name, generators): the Nikulin involution swapping the two
    E8(-1) summands, S3 permuting the three U summands, the Weyl groups of
    A2, A3, A4 and D4 in the first E8(-1), and those of A2, A3 and A4
    acting on both summands alike next to the Nikulin involution."""
    nikulin = _swap_blocks(*(b.start for b in E8_BLOCKS), 8)
    # simple roots of E8 numbered as in douady._E8_EDGES
    nodes = {"A2": (0, 2), "A3": (0, 2, 3), "A4": (0, 2, 3, 4), "D4": (1, 2, 3, 4)}

    def reflection(*coords):
        m = identity_matrix(22)
        for c in coords:
            m = mat_mul(m, reflection_isometry(K3, _e(c)).matrix)
        return m

    first, second = (b.start for b in E8_BLOCKS)
    out = [("nikulin", [nikulin]), ("S3-on-U", [_swap_blocks(0, 2, 2), _swap_blocks(2, 4, 2)])]
    out += [(f"W({k})", [reflection(first + i) for i in v]) for k, v in nodes.items()]
    out += [
        (f"W({k})xnikulin", [reflection(first + i, second + i) for i in nodes[k]] + [nikulin])
        for k in ("A2", "A3", "A4")
    ]
    return out


PAPER_GROUPS = _paper_groups()


def _group_of_family(family, rng):
    """A group from one of the families the other tests build: random
    signed permutations on an averaged Gram matrix, the isometry pool of
    U + U + <-2> + <-2> with padding, or Weyl groups of roots of E8(-1)
    conjugated by mixing reflections and sometimes lifted to DOUADY(n)."""
    if family == "random":
        return _random_isometry_group(rng)[0]
    if family == "pool":
        L0, pool = _identity_pool()
        gens = rng.sample(pool, rng.randint(0, 3))
        L, gens = _padded(L0, gens, rng.randint(0, 2), rng.randint(0, 1))
        if abstract_matrix_closure(gens, L.rank, cap=64) is None:
            gens = gens[:1]  # a root reflection pair can make the group infinite
        return closure(L, gens, cap=64)
    blocks = E8_BLOCKS if rng.randint(0, 1) else E8_BLOCKS[:1]
    gens = [
        reflection_isometry(K3, _block_root(rng, rng.choice(blocks))).matrix
        for _ in range(rng.randint(1, 3))
    ]
    for _ in range(rng.randint(0, 2)):
        r = _mixing_reflection(rng)
        gens = [mat_mul(r, mat_mul(g, r)) for g in gens]
    lift = rng.choice([None, 2, 3])
    if lift is None:
        return closure(K3, gens)
    D = douady_lattice(lift)
    return closure(D.full, [natural_lift(D, g).matrix for g in gens])


class TestCoinvariantFromImages:
    """On a nondegenerate ambient L_G is the saturation of the images of the
    g - 1; it equals the orthogonal complement of L^G bit for bit."""

    @staticmethod
    def _assert_complement(G):
        co = coinvariant_sublattice(G)  # computed before L^G
        assert co.basis == orthogonal_complement(G.ambient, invariant_sublattice(G)).basis

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(0, 2**32), st.sampled_from(["random", "pool", "weyl"]))
    def test_equals_the_complement_of_the_invariants(self, seed, family):
        self._assert_complement(_group_of_family(family, random.Random(seed)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(range(len(PAPER_GROUPS))),
        st.sampled_from([None, 2, 3]),
        st.integers(0, 8),
        st.integers(0, 2),
    )
    def test_paper_groups_in_generic_markings(self, seed, which, lift, summand_depth, mixing):
        """The paper's groups conjugated by reflections in roots inside one
        summand and in vectors that mix summands, on K3, DOUADY(2) and
        DOUADY(3)."""
        rng = random.Random(seed)
        _, gens = PAPER_GROUPS[which]
        summands = ((0, 1), (2, 3), (4, 5)) + tuple(tuple(b) for b in E8_BLOCKS)
        for _ in range(summand_depth):
            v = [0] * 22
            while norm(K3, v) not in (2, -2):
                v = [0] * 22
                for i in rng.sample(rng.choice(summands), 2):
                    v[i] = rng.randint(-2, 2)
            r = reflection_isometry(K3, v).matrix
            gens = [mat_mul(r, mat_mul(g, r)) for g in gens]
        for _ in range(mixing):
            r = _mixing_reflection(rng)
            gens = [mat_mul(r, mat_mul(g, r)) for g in gens]
        if lift is None:
            G = closure(K3, gens)
        else:
            D = douady_lattice(lift)
            G = closure(D.full, [natural_lift(D, g).matrix for g in gens])
        self._assert_complement(G)

    @pytest.mark.parametrize("name, gens", PAPER_GROUPS, ids=[n for n, _ in PAPER_GROUPS])
    def test_paper_groups_in_the_standard_marking(self, name, gens):
        G = closure(K3, gens)
        self._assert_complement(G)
        co = coinvariant_sublattice(G)
        assert co.rank == 22 - invariant_sublattice(G).rank
        assert is_negative_definite(co) == (name != "S3-on-U")

    def test_degenerate_ambient_takes_the_complement(self, monkeypatch):
        L = direct_sum(U, Lattice(((0,),)))  # U + <0>
        G = closure(L, [((0, 1, 0), (1, 0, 0), (0, 0, 1))])  # the U swap
        calls = []
        real = groups.orthogonal_complement

        def complement(L, s):
            calls.append(s)
            return real(L, s)

        monkeypatch.setattr(groups, "orthogonal_complement", complement)
        co = coinvariant_sublattice(G)
        assert calls == [invariant_sublattice(G)]
        # the radical <0> is orthogonal to everything, so it lies in
        # (L^G)-perp, while the image of g - 1 is the line of (1, -1, 0)
        assert co.basis == ((1, -1, 0), (0, 0, 1))
        assert hermite_basis([(-1, 1, 0)], 3) != co.basis


class TestFactsReadOnce:
    """verify_pair_properties reads intersection_trivial off det(q|L^G), and
    symplectic_action_report computes its three containment fields as one."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(0, 2**32), st.sampled_from(["random", "pool", "weyl"]))
    def test_intersection_trivial_equals_the_rank_test(self, seed, family):
        G = _group_of_family(family, random.Random(seed))
        rep = verify_pair_properties(G)
        inv, co = rep.invariant, rep.coinvariant
        rank = len(core._hnf(inv.basis + co.basis))
        assert rep.intersection_trivial == (rank == inv.rank + co.rank)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(0, 2**32))
    def test_a_sublattice_meets_its_complement_in_its_radical(self, seed):
        """The lemma behind the field, on any sublattice S of a
        nondegenerate lattice: S meets S-perp only in zero iff det(q|S) != 0;
        degenerate S included."""
        rng = random.Random(seed)
        L = random_nondegenerate_lattice(rng, max_rank=4, lo=-2, hi=2)
        if rng.randint(0, 2):
            s = random_sublattice(L, rng)
        else:  # an isotropic line when there is one
            vectors = itertools.product(range(-2, 3), repeat=L.rank)
            v = next((v for v in vectors if any(v) and not norm(L, v)), L.basis_vector(0))
            s = Sublattice(L, [v])
        perp = orthogonal_complement(L, s)
        rank = len(core._hnf(s.basis + perp.basis))
        assert (rank == s.rank + perp.rank) == (det(s.gram()) != 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["random", "weyl"]),
        st.sampled_from(["invariant", "coinvariant", "full", "orbit"]),
    )
    def test_containment_fields_equal_the_separate_checks(self, seed, family, kind):
        rng = random.Random(seed)
        G = _group_of_family(family, rng)
        L = G.ambient
        ns = _sublattice_of_kind(G, L, kind, rng)
        try:
            rep = symplectic_action_report(L, G, ns)
        except LatticeError:
            return  # a stable block may match no Picard-block pattern
        tr = transcendental_sublattice(L, ns)
        inv, co = invariant_sublattice(G), coinvariant_sublattice(G)
        assert rep.fixes_transcendental_pointwise == acts_trivially_on(G, tr)
        assert rep.transcendental_in_invariant == rational_span_leq(tr, inv)
        assert rep.coinvariant_in_ns == rational_span_leq(co, ns)

    def test_containment_fields_take_both_values(self):
        D = douady_lattice(2)
        gens = [natural_lift(D, reflection_isometry(K3, _e(i))).matrix for i in (6, 8)]
        G = closure(D.full, gens)
        inside = Sublattice(D.full, [_e(6) + (0,), _e(8) + (0,), D.delta])
        outside = Sublattice(D.full, [D.delta])
        for ns, value in ((inside, True), (outside, False)):
            rep = symplectic_action_report(D, G, ns)
            fields = (
                rep.fixes_transcendental_pointwise,
                rep.transcendental_in_invariant,
                rep.coinvariant_in_ns,
            )
            assert fields == (value,) * 3


class TestNegativeDefinite:
    def test_rank_one(self):
        L = diagonal_lattice((-2,))
        assert is_negative_definite(full_sublattice(L))

    def test_hyperbolic_plane(self):
        assert not is_negative_definite(full_sublattice(U))

    def test_rank_zero_vacuous(self):
        assert is_negative_definite(Sublattice(U, []))

    def test_agrees_with_bounded_search(self):
        rng = random.Random(73)
        height = 5
        for _ in range(20):
            rank = rng.randint(1, 3)
            L = Lattice.from_gram(random_symmetric_gram(rng, rank, lo=-4, hi=4))
            sub = full_sublattice(L)
            sampled_all_negative = all(
                norm(L, v) < 0
                for v in itertools.product(range(-height, height + 1), repeat=rank)
                if any(v)
            )
            assert is_negative_definite(sub) == sampled_all_negative


class TestSymplecticActionReport:
    def test_root_reflection_models_symplectic_profile(self):
        D = douady_lattice(2)
        K3 = k3_lattice()
        root = tuple(1 if i == 6 else 0 for i in range(22))  # E8(-1) root, q = -2
        ns = Sublattice(D.full, [root + (0,), D.delta])
        lift = natural_lift(D, reflection_isometry(K3, root))
        G = closure(D.full, [lift.matrix])
        rep = symplectic_action_report(D, G, ns)
        assert rep.ns_type is NSType.ELLIPTIC
        assert rep.fixes_transcendental_pointwise
        assert rep.transcendental_in_invariant
        assert rep.coinvariant_in_ns
        assert rep.coinvariant_negative_definite
        assert rep.all_verified

    def test_trivial_group_passes_vacuously(self):
        D = douady_lattice(2)
        ns = Sublattice(D.full, [D.delta])
        rep = symplectic_action_report(D, closure(D.full, []), ns)
        assert rep.all_verified
        assert rep.coinvariant_signature == (0, 0, 0)

    def test_transcendental_moving_group_is_reported(self):
        D = douady_lattice(2)
        K3 = k3_lattice()
        root = tuple(1 if i == 6 else 0 for i in range(22))
        ns = Sublattice(D.full, [D.delta])  # reflection moves ns-perp
        lift = natural_lift(D, reflection_isometry(K3, root))
        G = closure(D.full, [lift.matrix])
        rep = symplectic_action_report(D, G, ns)
        assert not rep.fixes_transcendental_pointwise
        assert not rep.all_verified

    def test_unstable_ns_rejected(self):
        G = closure(U, [SWAP])
        with pytest.raises(LatticeError, match=f"^{UNSTABLE_NS}$"):
            symplectic_action_report(U, G, Sublattice(U, [(1, 0)]))

    def test_hyperbolic_case_makes_no_definiteness_claim(self):
        L = diagonal_lattice((4, -2))
        G = closure(L, [])
        rep = symplectic_action_report(L, G, full_sublattice(L))
        assert rep.ns_type is NSType.HYPERBOLIC
        assert rep.coinvariant_negative_definite is None


def _random_isometry_group(rng):
    """A small isometry group: signed permutations acting on an averaged
    invariant Gram matrix, sometimes extended by an integral reflection."""
    while True:
        rank = rng.randint(2, 6)
        gens = [random_signed_permutation(rng, rank) for _ in range(rng.randint(1, 2))]
        elements = abstract_matrix_closure(gens, rank, cap=8)
        if elements is None:
            continue
        seed = random_symmetric_gram(rng, rank, lo=-2, hi=2)
        gram = [[0] * rank for _ in range(rank)]
        for g in elements:
            for i in range(rank):
                for j in range(rank):
                    s = sum(
                        g[k][i] * seed[k][m] * g[m][j]
                        for k in range(rank)
                        for m in range(rank)
                    )
                    gram[i][j] += s
        gram = tuple(tuple(row) for row in gram)
        if det(gram) == 0:
            continue
        L = Lattice(gram)
        if rng.randint(0, 1):
            vec = tuple(rng.randint(-1, 1) for _ in range(rank))
            q = norm(L, vec)
            if q != 0 and all(
                (2 * sum(gram[i][j] * vec[j] for j in range(rank))) % q == 0
                for i in range(rank)
            ):
                gens = gens + [reflection_isometry(L, vec).matrix]
        try:
            return closure(L, gens, cap=8), L
        except LatticeError:
            continue


def _sublattice_of_kind(G, L, kind, rng):
    """A G-stable sublattice (invariant, coinvariant, full, or spanned by
    the orbit of a random vector) or a random, usually unstable, one."""
    if kind == "invariant":
        return invariant_sublattice(G)
    if kind == "coinvariant":
        return coinvariant_sublattice(G)
    if kind == "full":
        return full_sublattice(L)
    if kind == "orbit":
        v = tuple(rng.randint(-2, 2) for _ in range(L.rank))
        return Sublattice(L, hermite_basis([mat_vec(g, v) for g in G.elements], L.rank))
    return random_sublattice(L, rng)
