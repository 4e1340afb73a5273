import random
import re
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_norm_pm2_vector,
    random_reflection_product,
    reference_douady_gram,
    reference_index_norm_solutions,
)
from hilblat import (
    DouadyLattice,
    ExceptionalPair,
    LatticeError,
    beauville_fixture,
    delta_class,
    diagonal_lattice,
    discriminant,
    douady_lattice,
    e_class,
    extract_surface_isometry,
    identity_matrix,
    index_invariant,
    index_norm_solutions,
    iota,
    is_isometry,
    is_natural_on_lattice,
    k3_lattice,
    kahler_candidate_check,
    mat_mul,
    mat_vec,
    natural_lift,
    norm,
    orthogonal_complement,
    pairing,
    psi_first_chern,
    pullback_decomposition,
    reflection_isometry,
    same_positive_cone_component,
    signature,
)

K3 = k3_lattice()
D2 = douady_lattice(2)


class TestK3Lattice:
    def test_signature(self):
        assert signature(K3) == (3, 0, 19)

    def test_discriminant(self):
        assert discriminant(K3) == -1

    def test_even(self):
        assert all(K3.gram[i][i] % 2 == 0 for i in range(22))

    def test_rank(self):
        assert K3.rank == 22


class TestDouadyLattice:
    def test_delta_and_e_norms(self):
        assert norm(D2.full, D2.delta) == -2
        assert norm(D2.full, D2.e) == -8

    def test_signature_n2(self):
        assert signature(D2.full) == (3, 0, 20)

    def test_e_norm_n5(self):
        D5 = douady_lattice(5)
        assert norm(D5.full, D5.e) == -32

    def test_signature_range(self):
        for n in range(2, 11):
            D = douady_lattice(n)
            assert signature(D.full) == (3, 0, 20)
            assert norm(D.full, D.e) == -8 * (n - 1)
            assert norm(D.full, D.delta) == -2 * (n - 1)

    def test_n_below_two_rejected(self):
        with pytest.raises(LatticeError):
            douady_lattice(1)

    def test_built_once_per_n(self):
        assert douady_lattice(2) is douady_lattice(2)
        assert douady_lattice(3) is not douady_lattice(2)
        # 2.0 and True equal 2 and hash like it, yet stay refused once
        # DOUADY(2) is cached; so does a value the cache could not hash
        for bad in (2.0, True, [2], "2"):
            with pytest.raises(LatticeError):
                douady_lattice(bad)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_built_from_n_alone(self, n):
        D = DouadyLattice(n)
        assert D.full.gram == reference_douady_gram(n) and D.n == n
        assert D.e == tuple(2 * x for x in D.delta)
        assert D == douady_lattice(n) and type(douady_lattice(n)) is DouadyLattice

    @pytest.mark.parametrize("n", [1, True, 2.0], ids=repr)
    def test_constructor_refuses_what_douady_lattice_refuses(self, n):
        with pytest.raises(LatticeError, match=r"^the number of points n must be an integer >= 2$"):
            DouadyLattice(n)

    def test_an_int_subclass_shares_the_cache_entry_and_repr(self):
        Points = IntEnum("Points", {"TWO": 2})
        assert douady_lattice(Points.TWO) is douady_lattice(2)
        assert repr(DouadyLattice(Points.TWO)) == repr(D2)
        assert type(DouadyLattice(Points.TWO).n) is int

    def test_discriminant(self):
        assert discriminant(D2.full) == 2

    def test_k3_block_complement_is_delta_line(self):
        comp = orthogonal_complement(D2.full, D2.k3_sublattice())
        assert comp.basis == (D2.delta,)

    def test_delta_sits_in_the_last_coordinate(self):
        assert D2.delta_index == 22
        assert D2.delta[D2.delta_index] == 1
        assert all(x == 0 for x in D2.delta[: D2.delta_index])


class TestIota:
    def test_zero(self):
        assert iota(D2, (0,) * 22) == (0,) * 23

    def test_preserves_norms(self):
        rng = random.Random(31)
        for _ in range(20):
            v = tuple(rng.randint(-3, 3) for _ in range(22))
            w = tuple(rng.randint(-3, 3) for _ in range(22))
            assert pairing(D2.full, iota(D2, v), iota(D2, w)) == pairing(K3, v, w)

    def test_orthogonal_to_delta(self):
        rng = random.Random(32)
        for _ in range(10):
            v = tuple(rng.randint(-3, 3) for _ in range(22))
            assert pairing(D2.full, iota(D2, v), D2.delta) == 0

    def test_length_checked(self):
        with pytest.raises(LatticeError):
            iota(D2, (0,) * 21)


class TestEClass:
    def test_e_is_twice_delta(self):
        e = e_class(D2)
        d = delta_class(D2)
        assert tuple(2 * x for x in d) == e

    def test_norms(self):
        assert norm(D2.full, e_class(D2)) == -8
        D3 = douady_lattice(3)
        assert norm(D3.full, e_class(D3)) == -16


class TestIndexInvariant:
    def test_identity(self):
        assert index_invariant(D2, identity_matrix(23)) == 1

    def test_natural_lifts_have_index_one(self):
        rng = random.Random(101)
        for _ in range(10):
            phi = random_reflection_product(K3, rng)
            assert index_invariant(D2, natural_lift(D2, phi)) == 1

    def test_quartic_involution(self):
        pair, involution = beauville_fixture()
        assert is_isometry(pair.lattice, involution)
        assert index_invariant(pair, involution) == -3

    def test_non_isometry_rejected(self):
        with pytest.raises(LatticeError):
            index_invariant(D2, tuple(tuple(2 * x for x in r) for r in identity_matrix(23)))


class TestPullbackDecomposition:
    def test_identity(self):
        dec = pullback_decomposition(D2, identity_matrix(23))
        assert dec.lam == 1 and dec.d == (0,) * 22

    def test_lift(self):
        rng = random.Random(13)
        phi = random_reflection_product(K3, rng)
        dec = pullback_decomposition(D2, natural_lift(D2, phi))
        assert dec.lam == 1 and dec.d == (0,) * 22

    def test_quartic_involution(self):
        pair, involution = beauville_fixture()
        dec = pullback_decomposition(pair, involution)
        assert dec.lam == -3 and dec.d == (4,)

    def test_reconstructs_image(self):
        """Index, pullback and naturality against the dense image f(e) =
        M . e, also for classes e = k * (last basis vector) with k not 1 or
        2, where f(e) is k times the last column."""
        rng = random.Random(14)
        d2_matrices = [random_reflection_product(D2.full, rng, max_length=4) for _ in range(10)]
        quartic, involution = beauville_fixture()
        flip = ((1, 0), (0, -1))
        picard = [involution, flip, mat_mul(involution, flip), identity_matrix(2)]
        cases = [
            (D2, d2_matrices),
            (ExceptionalPair(D2.full, (0,) * 22 + (-3,)), d2_matrices),
            (ExceptionalPair(quartic.lattice, (0, 3)), picard),
            (ExceptionalPair(quartic.lattice, (0, -1)), picard),
        ]
        for pair, matrices in cases:
            L, e = pair.lattice, pair.e
            for m in matrices:
                fe = mat_vec(m, e)
                dec = pullback_decomposition(pair, m)
                assert index_invariant(pair, m) == Fraction(pairing(L, fe, e), norm(L, e))
                assert dec.lam == index_invariant(pair, m)
                assert dec.d == fe[:-1]
                assert dec.d + (dec.lam * e[-1],) == fe
                assert is_natural_on_lattice(pair, m) == (fe == e)
                if fe != e:
                    with pytest.raises(LatticeError, match=rf"\(image {re.escape(str(fe))}\)"):
                        extract_surface_isometry(pair, m)

    def test_half_integral_at_worst(self):
        rng = random.Random(15)
        for _ in range(25):
            m = random_reflection_product(D2.full, rng)
            lam = index_invariant(D2, m)
            assert (2 * lam).denominator == 1


class TestNaturalLift:
    def test_identity_lifts_to_identity(self):
        assert natural_lift(D2, identity_matrix(22)).matrix == identity_matrix(23)

    def test_group_homomorphism(self):
        rng = random.Random(17)
        for _ in range(10):
            a = random_reflection_product(K3, rng, max_length=3)
            b = random_reflection_product(K3, rng, max_length=3)
            lifted_product = natural_lift(D2, mat_mul(a, b))
            product_of_lifts = mat_mul(
                natural_lift(D2, a).matrix, natural_lift(D2, b).matrix
            )
            assert lifted_product.matrix == product_of_lifts

    def test_swap_reflection_lift(self):
        swap = reflection_isometry(K3, (1, -1) + (0,) * 20)
        lift = natural_lift(D2, swap)
        assert lift.apply(D2.delta) == D2.delta
        assert index_invariant(D2, lift) == 1

    @pytest.mark.parametrize(
        "D", [D2, douady_lattice(3), beauville_fixture()[0]],
        ids=["DOUADY(2)", "DOUADY(3)", "beauville"],
    )
    def test_rows_are_padded_surface_rows(self, D):
        # (phi, 1): each row of phi gets a 0, then the unit row of e is appended
        r = D.surface_block.rank
        phis = [identity_matrix(r), tuple(tuple(-x for x in row) for row in identity_matrix(r))]
        if D.surface_block == K3:
            rng = random.Random(29)
            phis += [random_reflection_product(K3, rng, max_length=3) for _ in range(3)]
        for phi in phis:
            padded = tuple(row + (0,) for row in phi) + ((0,) * r + (1,),)
            assert natural_lift(D, phi).matrix == padded


class TestNaturalityCriterion:
    def test_lift_is_natural(self):
        rng = random.Random(19)
        phi = random_reflection_product(K3, rng)
        assert is_natural_on_lattice(D2, natural_lift(D2, phi))

    def test_quartic_involution_not_natural(self):
        pair, involution = beauville_fixture()
        assert not is_natural_on_lattice(pair, involution)

    def test_identity_natural(self):
        assert is_natural_on_lattice(D2, identity_matrix(23))


class TestExtractSurfaceIsometry:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(10):
            phi = random_reflection_product(K3, rng)
            assert extract_surface_isometry(D2, natural_lift(D2, phi)).matrix == phi

    def test_identity(self):
        assert (
            extract_surface_isometry(D2, identity_matrix(23)).matrix
            == identity_matrix(22)
        )

    def test_moved_exceptional_class_rejected(self):
        pair, involution = beauville_fixture()
        with pytest.raises(LatticeError):
            extract_surface_isometry(pair, involution)


class TestPsiFirstChern:
    def test_zero_class(self):
        out = psi_first_chern(D2, (0,) * 22, k=1)
        assert out == tuple(-x for x in e_class(D2))
        assert norm(D2.full, out) == -8

    def test_degree_four_class(self):
        c = (1, 2) + (0,) * 20  # q(c) = 4 in the first hyperbolic plane
        assert norm(K3, c) == 4
        out = psi_first_chern(D2, c, k=1)
        assert norm(D2.full, out) == 16 - 8

    def test_delta_coefficient_always_minus_two(self):
        rng = random.Random(29)
        for _ in range(10):
            c = tuple(rng.randint(-2, 2) for _ in range(22))
            k = rng.randint(1, 4)
            assert psi_first_chern(D2, c, k)[-1] == -2

    def test_bad_exponent(self):
        with pytest.raises(LatticeError):
            psi_first_chern(D2, (0,) * 22, k=0)


class TestIndexNormSolutions:
    def test_degree_four_box(self):
        expected = {
            (1, 0), (-1, 0),
            (3, 4), (3, -4), (-3, 4), (-3, -4),
            (17, 24), (17, -24), (-17, 24), (-17, -24),
        }
        got = index_norm_solutions(2, 4, 30)
        assert set(got) == expected and len(got) == 10

    def test_every_solution_satisfies_equation(self):
        for n, d2 in ((2, 4), (3, 2), (2, -2), (4, 6)):
            for lam, mu in index_norm_solutions(n, d2, 25):
                assert -8 * (n - 1) == -8 * (n - 1) * lam * lam + mu * mu * d2

    def test_no_zero_index_for_positive_square(self):
        for d2 in (2, 4, 6):
            assert all(lam != 0 for lam, _ in index_norm_solutions(2, d2, 40))

    def test_negative_square_allows_zero(self):
        got = index_norm_solutions(2, -2, 2)
        assert {(1, 0), (-1, 0), (0, 2), (0, -2)} <= set(got)

    def test_symmetry(self):
        got = set(index_norm_solutions(2, 4, 30))
        assert all((-lam, mu) in got and (lam, -mu) in got for lam, mu in got)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_box_search(self, n):
        for d2 in (1, -1, 2, -2, -12, 4, 8, 12, 24, 28):
            for bound in (1, 7, 60):
                assert index_norm_solutions(n, d2, bound) == (
                    reference_index_norm_solutions(n, d2, bound)
                ), (d2, bound)
        for d2 in (4, -2, 28):
            assert index_norm_solutions(n, d2, 300) == (
                reference_index_norm_solutions(n, d2, 300)
            ), d2

    def test_large_bound(self):
        # n = 2, d2 = 4 is lam^2 - 2(mu/2)^2 = 1, solved by powers of 3 + 2*sqrt(2)
        got = index_norm_solutions(2, 4, 10**5)
        assert [s for s in got if s[0] > 0 and s[1] > 0] == [
            (3, 4), (17, 24), (99, 140), (577, 816), (3363, 4756), (19601, 27720),
        ]

    def test_bad_arguments(self):
        with pytest.raises(LatticeError):
            index_norm_solutions(1, 4, 30)
        with pytest.raises(LatticeError):
            index_norm_solutions(2, 0, 30)
        with pytest.raises(LatticeError):
            index_norm_solutions(2, 4, 0)


class TestPositiveCone:
    LORENTZ = diagonal_lattice((4, -2))

    def test_reflexive(self):
        assert same_positive_cone_component(self.LORENTZ, (1, 0), (1, 0))

    def test_antipodal(self):
        assert not same_positive_cone_component(self.LORENTZ, (1, 0), (-1, 0))

    def test_mixed_vector(self):
        # q((1,1)) = 2 > 0 and q((1,0),(1,1)) = 4 > 0
        assert same_positive_cone_component(self.LORENTZ, (1, 0), (1, 1))

    def test_transitive_on_samples(self):
        rng = random.Random(37)
        positives = []
        while len(positives) < 30:
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            if norm(self.LORENTZ, v) > 0:
                positives.append(v)
        for _ in range(100):
            x, y, z = rng.choice(positives), rng.choice(positives), rng.choice(positives)
            if same_positive_cone_component(
                self.LORENTZ, x, y
            ) and same_positive_cone_component(self.LORENTZ, y, z):
                assert same_positive_cone_component(self.LORENTZ, x, z)

    def test_signature_precondition(self):
        with pytest.raises(LatticeError):
            same_positive_cone_component(diagonal_lattice((2, 2)), (1, 0), (0, 1))

    def test_positive_norm_precondition(self):
        with pytest.raises(LatticeError):
            same_positive_cone_component(self.LORENTZ, (0, 1), (1, 0))


class TestKahlerCandidate:
    def test_embedded_surface_class_rejected(self):
        omega0 = (1, 2) + (0,) * 20  # q = 4 > 0
        report = kahler_candidate_check(D2, iota(D2, omega0))
        assert report.q_against_e == 0
        assert not report.positive_against_e
        assert not report.all_conditions_hold

    def test_exceptional_class_rejected(self):
        report = kahler_candidate_check(D2, e_class(D2))
        assert not report.positive_norm
        assert not report.all_conditions_hold

    def test_accepted_candidate(self):
        omega0 = (1, 2) + (0,) * 20
        omega = omega0 + (Fraction(-1, 2),)  # iota(omega0) - (1/4) e
        report = kahler_candidate_check(D2, omega)
        assert report.e_coefficient == Fraction(-1, 4)
        assert report.q_total == Fraction(7, 2)
        assert report.q_surface_part == 4
        assert report.all_conditions_hold

    def test_malformed_length(self):
        with pytest.raises(LatticeError):
            kahler_candidate_check(D2, (0,) * 22)

    def test_float_rejected(self):
        with pytest.raises(LatticeError):
            kahler_candidate_check(D2, (0.5,) + (0,) * 22)


class TestCompositionInvariance:
    def test_index_unchanged_by_exceptional_fixing_factors(self):
        rng = random.Random(43)
        for _ in range(12):
            a = natural_lift(
                D2, random_reflection_product(K3, rng, max_length=4)
            ).matrix
            b = random_reflection_product(D2.full, rng, max_length=4)
            lam_b = index_invariant(D2, b)
            assert index_invariant(D2, mat_mul(a, b)) == lam_b
            assert index_invariant(D2, mat_mul(b, a)) == lam_b

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.integers(2, 5), st.integers(0, 2**32))
    def test_index_unchanged_by_natural_lifts_on_either_side(self, n, seed):
        rng = random.Random(seed)
        D = douady_lattice(n)
        f = random_reflection_product(D.full, rng, max_length=4)
        left, right = (
            natural_lift(D, random_reflection_product(K3, rng, max_length=3)).matrix
            for _ in range(2)
        )
        lam = index_invariant(D, f)
        assert index_invariant(D, mat_mul(left, f)) == lam
        assert index_invariant(D, mat_mul(f, right)) == lam
        assert index_invariant(D, mat_mul(left, mat_mul(f, right))) == lam


def test_reflection_vectors_exist_in_ambient():
    # sanity of the sampling helper on both lattices used above
    rng = random.Random(47)
    for L in (K3, D2.full):
        for _ in range(5):
            v = random_norm_pm2_vector(L, rng)
            assert norm(L, v) in (2, -2)
