import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_nondegenerate_lattice,
    random_sublattice,
    random_symmetric_gram,
)
from hilblat import (
    Isometry,
    Lattice,
    LatticeError,
    Sublattice,
    det,
    diagonal_lattice,
    direct_sum,
    discriminant,
    e8_lattice,
    e8_minus,
    full_sublattice,
    hermite_basis,
    hyperbolic_plane,
    identity_matrix,
    integer_kernel,
    isometry_violation,
    mat_mul,
    norm,
    orthogonal_complement,
    pairing,
    reflection_isometry,
    rescale,
    saturate,
    saturation_basis,
    signature,
    transpose,
)

U = hyperbolic_plane()


class TestPairing:
    def test_gram_entry(self):
        assert pairing(U, (1, 0), (0, 1)) == 1

    def test_expanded_form(self):
        # (e+f)^2 = e^2 + 2ef + f^2 = 0 + 2 + 0
        assert pairing(U, (1, 1), (1, 1)) == 2

    def test_rank_one(self):
        m2 = diagonal_lattice((-2,))
        assert pairing(m2, (1,), (1,)) == -2

    def test_symmetric_and_bilinear(self):
        rng = random.Random(11)
        for _ in range(40):
            L = Lattice.from_gram(random_symmetric_gram(rng, rng.randint(1, 5)))
            x, y, z = (
                tuple(rng.randint(-4, 4) for _ in range(L.rank)) for _ in range(3)
            )
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            assert pairing(L, x, y) == pairing(L, y, x)
            combo = tuple(a * xi + b * yi for xi, yi in zip(x, y))
            assert pairing(L, combo, z) == a * pairing(L, x, z) + b * pairing(L, y, z)

    def test_dimension_mismatch(self):
        with pytest.raises(LatticeError):
            pairing(U, (1, 0, 0), (0, 1))

    def test_rejects_floats(self):
        with pytest.raises(LatticeError):
            pairing(U, (1.0, 0), (0, 1))


class TestSignature:
    def test_hyperbolic_plane(self):
        assert signature(U) == (1, 0, 1)

    def test_e8_minus(self):
        assert signature(e8_minus()) == (0, 0, 8)

    def test_zero_form(self):
        assert signature(Lattice.from_gram([[0] * 3] * 3)) == (0, 3, 0)

    def test_counts_sum_to_rank(self):
        rng = random.Random(23)
        for _ in range(50):
            rank = rng.randint(0, 6)
            L = Lattice.from_gram(random_symmetric_gram(rng, rank))
            sig = signature(L)
            assert sig.pos + sig.zero + sig.neg == rank

    def test_additive_on_direct_sums(self):
        rng = random.Random(5)
        for _ in range(30):
            l1 = Lattice.from_gram(random_symmetric_gram(rng, rng.randint(1, 4)))
            l2 = Lattice.from_gram(random_symmetric_gram(rng, rng.randint(1, 4)))
            s1, s2 = signature(l1), signature(l2)
            assert signature(direct_sum(l1, l2)) == (
                s1.pos + s2.pos,
                s1.zero + s2.zero,
                s1.neg + s2.neg,
            )

    def test_degenerate_with_off_diagonal_rescue(self):
        # zero diagonal everywhere, nonzero off-diagonal entry
        L = Lattice.from_gram([[0, 3], [3, 0]])
        assert signature(L) == (1, 0, 1)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(1, 6), st.integers(0, 2**32))
    def test_invariant_under_unimodular_congruence(self, rank, seed):
        """Sylvester's law of inertia: signature(P^T G P) = signature(G) for
        unimodular P, degenerate forms included."""
        rng = random.Random(seed)
        gram = random_symmetric_gram(rng, rank, lo=-3, hi=3)
        p = [list(row) for row in identity_matrix(rank)]
        for _ in range(rng.randint(1, 3 * rank)):
            i, j = rng.randrange(rank), rng.randrange(rank)
            if i == j:
                p[i] = [-x for x in p[i]]
            else:
                c = rng.choice((-2, -1, 1, 2))
                p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        p = tuple(tuple(row) for row in p)
        assert abs(det(p)) == 1
        moved = mat_mul(mat_mul(transpose(p), gram), p)
        assert signature(Lattice.from_gram(moved)) == signature(Lattice.from_gram(gram))


class TestDirectSumRescale:
    def test_two_planes(self):
        L = direct_sum(U, U)
        assert L.rank == 4
        assert signature(L) == (2, 0, 2)

    def test_rank_zero_identity(self):
        zero = Lattice.from_gram([])
        assert direct_sum(U, zero) == U
        assert direct_sum(zero, U) == U

    def test_block_gram(self):
        L = direct_sum(diagonal_lattice((4,)), diagonal_lattice((-8,)))
        assert L.gram == ((4, 0), (0, -8))

    @pytest.mark.parametrize("n1, n2", list(itertools.product(range(4), repeat=2)))
    def test_entrywise(self, n1, n2):
        rng = random.Random(10 * n1 + n2)
        g1, g2 = random_symmetric_gram(rng, n1), random_symmetric_gram(rng, n2)

        def entry(i, j):
            if i < n1 and j < n1:
                return g1[i][j]
            if i >= n1 and j >= n1:
                return g2[i - n1][j - n1]
            return 0

        n = n1 + n2
        expected = tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))
        L = direct_sum(Lattice.from_gram(g1), Lattice.from_gram(g2))
        assert L.rank == n and L.gram == expected

    def test_rescale_e8(self):
        assert signature(rescale(e8_lattice(), -1)) == (0, 0, 8)

    def test_rescale_by_one(self):
        assert rescale(U, 1) == U

    def test_rescale_builds_delta_norm(self):
        n = 2
        assert rescale(diagonal_lattice((1,)), -2 * (n - 1)) == diagonal_lattice((-2,))

    def test_rescale_zero_rejected(self):
        with pytest.raises(LatticeError):
            rescale(U, 0)


class TestHermiteBasis:
    def test_canonical_form(self):
        assert hermite_basis([(2, 1), (0, 3)], 2) == ((2, 1), (0, 3))
        assert hermite_basis([(0, 3), (2, 4)], 2) == ((2, 1), (0, 3))

    def test_invariant_under_row_operations(self):
        rng = random.Random(77)
        for case in range(44):
            # the last four are dense and square at width 23
            n = rng.randint(1, 5) if case < 40 else 23
            k = rng.randint(1, n) if case < 40 else n
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            base = hermite_basis(rows, n)
            shuffled = [list(r) for r in rows]
            for _ in range(6):
                i, j = rng.randrange(len(shuffled)), rng.randrange(len(shuffled))
                if i != j:
                    c = rng.randint(-3, 3)
                    shuffled[i] = [
                        x + c * y for x, y in zip(shuffled[i], shuffled[j])
                    ]
                rng.shuffle(shuffled)
            assert hermite_basis(shuffled, n) == base

    def test_drops_zero_rows(self):
        assert hermite_basis([(0, 0), (1, 2)], 2) == ((1, 2),)


class TestIntegerKernel:
    def test_sum_condition(self):
        assert integer_kernel([[1, 1]]) == ((1, -1),)

    def test_identity_has_trivial_kernel(self):
        assert integer_kernel(identity_matrix(2)) == ()

    def test_rational_kernel_intersected_with_lattice(self):
        assert integer_kernel([[2, 4]]) == ((2, -1),)

    def test_kernel_is_saturated(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = rng.randint(1, 3)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            ker = integer_kernel(rows, n)
            assert saturation_basis(ker, n) == ker


class TestOrthogonalComplement:
    def test_single_condition_in_plane(self):
        S = Sublattice(U, [(1, 1)])
        assert orthogonal_complement(U, S).basis == ((1, -1),)

    def test_full_lattice_has_trivial_complement(self):
        assert orthogonal_complement(U, full_sublattice(U)).rank == 0

    def test_result_is_saturated(self):
        rng = random.Random(9)
        for _ in range(30):
            L = random_nondegenerate_lattice(rng, max_rank=5)
            S = random_sublattice(L, rng)
            assert orthogonal_complement(L, S).saturated

    def test_double_complement_is_saturation(self):
        rng = random.Random(41)
        for _ in range(50):
            L = random_nondegenerate_lattice(rng, max_rank=6)
            S = random_sublattice(L, rng)
            double = orthogonal_complement(L, orthogonal_complement(L, S))
            assert double.basis == saturate(L, S).basis

    def test_agrees_with_bounded_enumeration(self):
        # enumerate every orthogonal point up to the height of the claimed
        # basis: the claimed vectors must reappear, and nothing outside
        # their span may appear
        rng = random.Random(55)
        checked = 0
        attempts = 0
        while checked < 12:
            attempts += 1
            assert attempts < 300
            L = random_nondegenerate_lattice(rng, min_rank=2, max_rank=4)
            S = random_sublattice(L, rng)
            comp = orthogonal_complement(L, S)
            height = max(
                [1] + [abs(x) for row in comp.basis for x in row]
            )
            if height > 6:
                continue
            for v in comp.basis:
                assert all(pairing(L, v, s) == 0 for s in S.basis)
            points = [
                coords
                for coords in itertools.product(
                    range(-height, height + 1), repeat=L.rank
                )
                if any(coords)
                and all(pairing(L, coords, s) == 0 for s in S.basis)
            ]
            for p in points:
                assert comp.rational_span_contains(p)
            assert len(hermite_basis(points, L.rank)) == comp.rank
            checked += 1

    def test_wrong_ambient_rejected(self):
        S = Sublattice(U, [(1, 1)])
        with pytest.raises(LatticeError):
            orthogonal_complement(diagonal_lattice((2, 2)), S)


class TestSaturate:
    def test_primitive_closure(self):
        assert saturate(U, Sublattice(U, [(2, 0)])).basis == ((1, 0),)

    def test_idempotent(self):
        S = saturate(U, Sublattice(U, [(2, 2)]))
        assert saturate(U, S) == S

    def test_divides_out_content(self):
        assert saturate(U, Sublattice(U, [(2, 2)])).basis == ((1, 1),)

    def test_flag_matches(self):
        assert not Sublattice(U, [(2, 0)]).saturated
        assert Sublattice(U, [(1, 0)]).saturated


class TestIsometry:
    def test_identity(self):
        assert isometry_violation(U, identity_matrix(2)) is None

    def test_swap_preserves_plane(self):
        assert isometry_violation(U, ((0, 1), (1, 0))) is None

    def test_quartic_involution(self):
        L = diagonal_lattice((4, -8))
        m = ((3, 4), (-2, -3))
        # column norms and pairing: 9*4+4*(-8)=4, 16*4+9*(-8)=-8, 12*4+6*(-8)=0
        assert isometry_violation(L, m) is None

    def test_violation_reported(self):
        msg = isometry_violation(U, ((1, 1), (0, 1)))
        assert msg is not None and "expected" in msg

    def test_determinant_enforced_on_degenerate_form(self):
        L = Lattice.from_gram([[0]])
        assert isometry_violation(L, ((2,),)) is not None

    def test_shape_mismatch_raises(self):
        with pytest.raises(LatticeError):
            isometry_violation(U, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


class TestReflection:
    def test_swap_from_root(self):
        assert reflection_isometry(U, (1, -1)).matrix == ((0, 1), (1, 0))

    def test_involution(self):
        rng = random.Random(2)
        for _ in range(20):
            L = random_nondegenerate_lattice(rng, max_rank=4)
            v = next(
                (
                    vec
                    for vec in itertools.product(range(-2, 3), repeat=L.rank)
                    if norm(L, vec) in (1, -1, 2, -2)
                ),
                None,
            )
            if v is None:
                continue
            r = reflection_isometry(L, v).matrix
            assert mat_mul(r, r) == identity_matrix(L.rank)

    def test_e8_minus_roots(self):
        L = e8_minus()
        for i in range(8):
            v = L.basis_vector(i)
            assert norm(L, v) == -2
            assert isometry_violation(L, reflection_isometry(L, v).matrix) is None

    def test_isotropic_vector_rejected(self):
        with pytest.raises(LatticeError):
            reflection_isometry(U, (1, 0))

    def test_integrality_failure(self):
        L = diagonal_lattice((1, 3))
        with pytest.raises(LatticeError):
            reflection_isometry(L, (1, 1))  # q(v)=4 does not divide 2*q(e1,v)=2


class TestDiscriminant:
    def test_plane(self):
        assert discriminant(U) == -1

    def test_rank_zero(self):
        assert discriminant(Lattice.from_gram([])) == 1

    def test_matches_block_product(self):
        L = direct_sum(diagonal_lattice((4,)), diagonal_lattice((-8,)))
        assert discriminant(L) == -32

    def test_bareiss_matches_cofactor_expansion(self):
        rng = random.Random(19)

        def cofactor_det(m):
            n = len(m)
            if n == 0:
                return 1
            if n == 1:
                return m[0][0]
            total = 0
            for j in range(n):
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * m[0][j] * cofactor_det(minor)
            return total

        for _ in range(30):
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert det(tuple(tuple(r) for r in m)) == cofactor_det(m)


class TestSublattice:
    def test_canonical_under_reordering(self):
        a = Sublattice(U, [(1, 1), (0, 2)])
        b = Sublattice(U, [(0, 2), (1, 3)])
        assert a.basis == b.basis

    def test_dependent_generators_rejected(self):
        with pytest.raises(LatticeError):
            Sublattice(U, [(1, 1), (2, 2)])

    def test_zero_generator_rejected(self):
        with pytest.raises(LatticeError):
            Sublattice(U, [(0, 0)])

    def test_rank_zero_is_saturated(self):
        S = Sublattice(U, [])
        assert S.rank == 0 and S.saturated

    def test_contains(self):
        S = Sublattice(U, [(2, 0)])
        assert S.contains((4, 0))
        assert not S.contains((1, 0))
        assert S.rational_span_contains((1, 0))


class TestValueContract:
    """Lattice, Sublattice and Isometry are equal exactly when their fields
    are, and hash their field tuple."""

    def test_lattice(self):
        a, b = Lattice(((0, 1), (1, 0))), Lattice.from_gram([[0, 1], [1, 0]])
        signature(a)  # a cached form is not part of the value
        assert a == b and hash(a) == hash(b) and a == U
        assert hash(a) == hash((a.gram,))
        assert a != Lattice(((0, 1), (1, 2))) and a != Lattice(((0,),))
        assert a.__eq__(object()) is NotImplemented

    def test_sublattice(self):
        a = Sublattice(U, [(0, 2), (1, 3)])
        b = Sublattice._trusted(U, a.basis)
        assert a == b and hash(a) == hash(b)
        assert a == Sublattice(U, [(1, 1), (0, 2)])
        assert hash(a) == hash((a.ambient, a.basis))
        assert a != Sublattice(U, [(1, 1), (0, 1)])
        assert a != Sublattice(rescale(U, 2), a.basis)
        assert a.__eq__(object()) is NotImplemented

    def test_isometry(self):
        swap = ((0, 1), (1, 0))
        a, b = Isometry(U, [[0, 1], [1, 0]]), Isometry._trusted(U, swap)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.ambient, a.matrix))
        assert a != Isometry(U, identity_matrix(2))
        assert a != Isometry(rescale(U, 2), swap)
        assert a.__eq__(object()) is NotImplemented

    @pytest.mark.parametrize("rank, gram", [(2.0, ((1, 0), (0, 1))), (True, ((1,),))])
    def test_rank_is_an_int(self, rank, gram):
        # the rank is read off the Gram matrix, so no lattice carries a rank
        # such as 2.0 or True that equals its row count without being an int
        L = Lattice(gram)
        assert L.rank == rank and type(L.rank) is int
        assert repr(L) == f"Lattice(gram={L.gram!r})"

    def test_a_non_square_gram_names_its_row_count(self):
        for gram, k in ((((1, 2),), 1), (((1,), (2,)), 2), (((),), 1)):
            with pytest.raises(LatticeError, match=rf"^Gram matrix must be {k}x{k}$"):
                Lattice(gram)

    def test_types_never_compare_equal(self):
        L = Lattice(())
        values = [L, Sublattice(L, []), Isometry(L, ())]
        for x, y in itertools.permutations(values, 2):
            assert x != y and x.__eq__(y) is NotImplemented
