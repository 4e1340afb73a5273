"""Acceptance suite: every criterion exact (tolerance zero), one printed
pass/fail line per criterion.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines."""

import random
from fractions import Fraction
from pathlib import Path

from helpers import (
    abstract_matrix_closure,
    random_nondegenerate_lattice,
    random_norm_pm2_vector,
    random_signed_permutation,
    random_sublattice,
    random_symmetric_gram,
)
from hilblat import (
    Lattice,
    LatticeError,
    NSType,
    Sublattice,
    beauville_fixture,
    closure,
    coinvariant_sublattice,
    det,
    diagonal_lattice,
    discriminant,
    douady_lattice,
    extract_surface_isometry,
    full_sublattice,
    hermite_basis,
    identity_matrix,
    index_invariant,
    index_norm_solutions,
    integer_kernel,
    invariant_sublattice,
    hyperbolic_plane,
    iota,
    is_natural_on_lattice,
    isometry_violation,
    k3_lattice,
    kahler_candidate_check,
    mat_mul,
    natural_lift,
    norm,
    ns_classification,
    orthogonal_complement,
    pairing,
    pullback_decomposition,
    reflection_isometry,
    same_positive_cone_component,
    saturate,
    signature,
)
from hilblat.cli import main

DATA = Path(__file__).parent / "data"


def _report(number, description, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_quartic_involution_fixture():
    pair, involution = beauville_fixture()
    ok = (
        pair.lattice.gram == ((4, 0), (0, -8))
        and isometry_violation(pair.lattice, involution) is None
        and index_invariant(pair, involution) == Fraction(-3)
        and not is_natural_on_lattice(pair, involution)
    )
    _report(1, "rank-2 involution fixture: isometry, index -3, not natural", ok)


def test_criterion_2_lattice_constants():
    K3 = k3_lattice()
    ok = signature(K3) == (3, 0, 19) and discriminant(K3) == -1
    for n in range(2, 11):
        D = douady_lattice(n)
        ok = (
            ok
            and signature(D.full) == (3, 0, 20)
            and norm(D.full, D.e) == -8 * (n - 1)
            and norm(D.full, D.delta) == -2 * (n - 1)
        )
    _report(2, "lattice constants: signatures, discriminant, q(e), q(delta)", ok)


def test_criterion_3_natural_lift_round_trip():
    rng = random.Random(2024)
    K3 = k3_lattice()
    D = douady_lattice(2)
    good = 0
    for _ in range(100):
        phi = identity_matrix(22)
        for _ in range(rng.randint(1, 6)):
            v = random_norm_pm2_vector(K3, rng)
            phi = mat_mul(phi, reflection_isometry(K3, v).matrix)
        lift = natural_lift(D, phi)
        dec = pullback_decomposition(D, lift)
        if (
            lift.apply(D.delta) == D.delta
            and index_invariant(D, lift) == 1
            and dec.lam == 1
            and dec.d == (0,) * 22
            and extract_surface_isometry(D, lift).matrix == phi
        ):
            good += 1
    _report(3, f"natural-lift round trip on 100 reflection products ({good}/100)", good == 100)


def test_criterion_4_index_composition_invariance():
    rng = random.Random(777)
    K3 = k3_lattice()
    D = douady_lattice(2)
    good = 0
    for _ in range(50):
        phi = identity_matrix(22)
        for _ in range(rng.randint(1, 4)):
            phi = mat_mul(
                phi, reflection_isometry(K3, random_norm_pm2_vector(K3, rng)).matrix
            )
        a = natural_lift(D, phi).matrix  # fixes e
        b = identity_matrix(23)
        for _ in range(rng.randint(1, 4)):
            b = mat_mul(
                b,
                reflection_isometry(
                    D.full, random_norm_pm2_vector(D.full, rng)
                ).matrix,
            )
        lam = index_invariant(D, b)
        if index_invariant(D, mat_mul(a, b)) == lam == index_invariant(D, mat_mul(b, a)):
            good += 1
    _report(4, f"index invariance under e-fixing factors ({good}/50)", good == 50)


def test_criterion_5_norm_equation_solver():
    expected = {
        (1, 0), (-1, 0),
        (3, 4), (3, -4), (-3, 4), (-3, -4),
        (17, 24), (17, -24), (-17, 24), (-17, -24),
    }
    got = index_norm_solutions(2, 4, 30)
    ok = set(got) == expected and len(got) == 10
    # independent check: substitute into the reduced equation 2 lam^2 - mu^2 = 2
    ok = ok and all(2 * lam * lam - mu * mu == 2 for lam, mu in got)
    for d2 in (2, 4, 6):
        ok = ok and all(lam != 0 for lam, _ in index_norm_solutions(2, d2, 40))
    _report(5, "norm-equation solutions for (2, 4, 30) and no-zero-index check", ok)


def test_criterion_6_invariant_lattice_oracle():
    rng = random.Random(606)
    good = 0
    produced = 0
    while produced < 30:
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
                    gram[i][j] += sum(
                        g[k][i] * seed[k][m] * g[m][j]
                        for k in range(rank)
                        for m in range(rank)
                    )
        gram = tuple(tuple(row) for row in gram)
        if det(gram) == 0:
            continue
        L = Lattice(gram)
        if rng.randint(0, 1):
            vec = tuple(rng.randint(-1, 1) for _ in range(rank))
            q = norm(L, vec)
            if q != 0 and all(
                (2 * pairing(L, L.basis_vector(i), vec)) % q == 0
                for i in range(rank)
            ):
                gens = gens + [reflection_isometry(L, vec).matrix]
        try:
            G = closure(L, gens, cap=8)
        except LatticeError:
            continue
        produced += 1
        inv = invariant_sublattice(G)
        co = coinvariant_sublattice(G)
        # oracle: integral 1-eigenspace of the averaged action, i.e. the
        # saturated kernel of (sum of all elements) - |G| * I
        total = [
            [sum(g[i][j] for g in G.elements) for j in range(rank)]
            for i in range(rank)
        ]
        for i in range(rank):
            total[i][i] -= G.order
        oracle = integer_kernel(tuple(tuple(r) for r in total), rank)
        if (
            oracle == inv.basis
            and inv.rank + co.rank == rank
            and len(hermite_basis(inv.basis + co.basis, rank)) == inv.rank + co.rank
            and det(inv.gram()) != 0
            and det(co.gram()) != 0
        ):
            good += 1
    _report(6, f"invariant sublattice vs averaged-projector oracle ({good}/30)", good == 30)


def test_criterion_7_double_complement_law():
    rng = random.Random(707)
    good = 0
    for _ in range(50):
        L = random_nondegenerate_lattice(rng, max_rank=6)
        S = random_sublattice(L, rng)
        double = orthogonal_complement(L, orthogonal_complement(L, S))
        if double.basis == saturate(L, S).basis:
            good += 1
    _report(7, f"complement of complement equals saturation ({good}/50)", good == 50)


def test_criterion_8_type_classification():
    lorentz = diagonal_lattice((4, -2))
    negline = diagonal_lattice((-2,))
    U = hyperbolic_plane()
    ok = (
        ns_classification(lorentz, full_sublattice(lorentz)).ns_type
        is NSType.HYPERBOLIC
        and ns_classification(U, Sublattice(U, [(1, 0)])).ns_type is NSType.PARABOLIC
        and ns_classification(negline, full_sublattice(negline)).ns_type
        is NSType.ELLIPTIC
    )
    D = douady_lattice(2)
    embeddings = [
        ((1, 2) + (0,) * 21, NSType.HYPERBOLIC, (2, 0, 20)),
        ((1,) + (0,) * 22, NSType.PARABOLIC, (2, 1, 19)),
        (D.delta, NSType.ELLIPTIC, (3, 0, 19)),
    ]
    for vector, expected_type, expected_tr in embeddings:
        cls = ns_classification(D.full, Sublattice(D.full, [vector]))
        ok = (
            ok
            and cls.ns_type is expected_type
            and tuple(cls.tr_signature) == expected_tr
            and cls.companion_ok
        )
    _report(8, "type fixtures and companion signatures in the rank-23 lattice", ok)


def test_criterion_9_cone_predicates():
    lorentz = diagonal_lattice((4, -2))
    rng = random.Random(909)
    positives = []
    while len(positives) < 40:
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        if norm(lorentz, v) > 0:
            positives.append(v)
    ok = True
    checked_triples = 0
    while checked_triples < 100:
        x, y, z = (rng.choice(positives) for _ in range(3))
        ok = ok and same_positive_cone_component(lorentz, x, x)
        ok = ok and not same_positive_cone_component(
            lorentz, x, tuple(-c for c in x)
        )
        if same_positive_cone_component(
            lorentz, x, y
        ) and same_positive_cone_component(lorentz, y, z):
            ok = ok and same_positive_cone_component(lorentz, x, z)
        checked_triples += 1
    D = douady_lattice(2)
    omega0 = (1, 2) + (0,) * 20  # q = 4
    rejected_embedded = kahler_candidate_check(D, iota(D, omega0))
    rejected_exceptional = kahler_candidate_check(D, D.e)
    accepted = kahler_candidate_check(D, omega0 + (Fraction(-1, 2),))
    ok = (
        ok
        and rejected_embedded.q_against_e == 0
        and not rejected_embedded.all_conditions_hold
        and not rejected_exceptional.positive_norm
        and not rejected_exceptional.all_conditions_hold
        and accepted.q_total == Fraction(7, 2)
        and accepted.all_conditions_hold
    )
    _report(9, "cone-component predicate and Kaehler-candidate conditions", ok)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    workspace = str(DATA / "workspace.json")
    golden = (DATA / "report_golden.txt").read_text(encoding="utf-8")

    assert main(["report", "--workspace", workspace]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--workspace", workspace]) == 0
    second = capsys.readouterr().out

    ok = first == second == golden

    # exit-code contract on malformed inputs
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    ok = ok and main(["report", "--workspace", str(broken)]) == 2
    capsys.readouterr()
    ok = ok and main(["signature", "no_such_lattice"]) == 2
    capsys.readouterr()
    ok = ok and main(["index", "quartic", "quartic_shear", "--workspace", workspace]) == 3
    capsys.readouterr()
    _report(10, "byte-identical golden report and exit-code contract", ok)
