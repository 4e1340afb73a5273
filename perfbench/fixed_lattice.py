"""The ``fixed-lattice`` workload: invariant and coinvariant lattices of the
finite groups of the paper's last section acting on K3, by in-process
library calls.

Closure (matrix products and hashing) and the echelon and signature
kernels do the work here; validation runs only once per generator.
"""

from __future__ import annotations

import random

import exact as X
from tasks import Task, expect

CONJUGATING_REFLECTIONS = 8  # depth of the generic marking
NIKULIN_INVARIANT = (14, -256)  # rank and Gram determinant, Nikulin 1979 / Morrison 1984
NIKULIN_COINVARIANT = (8, 256)  # E8(-2), negative definite

# Root subsystems of the first E8(-1), by Dynkin nodes (E8_EDGES numbering).
ROOT_SYSTEMS = {"A2": (0, 2), "A3": (0, 2, 3), "A4": (0, 2, 3, 4), "D4": (1, 2, 3, 4)}
WEYL_ORDERS = {"A2": 6, "A3": 24, "A4": 120, "D4": 192}

# The hanging case: Nikulin conjugated by 12 reflections drawn by
# random.Random(1) with at most 4 nonzero entries of size at most 2.
# invariant_sublattice does not finish on it; see the README.
HANG_SEED, HANG_REFLECTIONS, HANG_SUPPORT = 1, 12, 4


def _permutation(perm):
    """Matrix sending basis vector j to basis vector perm[j]."""
    n = len(perm)
    return tuple(tuple(int(perm[j] == i) for j in range(n)) for i in range(n))


def _swap_blocks(a, b, size):
    perm = list(range(X.K3_RANK))
    for i in range(size):
        perm[a + i], perm[b + i] = b + i, a + i
    return _permutation(perm)


NIKULIN = _swap_blocks(X.E8_OFFSETS[0], X.E8_OFFSETS[1], 8)


def _simple_reflection(nodes_offsets):
    """Reflection in an E8(-1) basis root, applied in each listed copy."""
    m = X.identity(X.K3_RANK)
    for coord in nodes_offsets:
        root = tuple(int(i == coord) for i in range(X.K3_RANK))
        m = X.mat_mul(m, X.reflection(X.K3_GRAM, root))
    return m


def standard_groups():
    """(name, generators, order, invariant rank) in the standard marking."""
    out = [
        ("nikulin", [NIKULIN], 2, 14),
        ("S3-on-U", [_swap_blocks(0, 2, 2), _swap_blocks(2, 4, 2)], 6, 18),
    ]
    first, second = X.E8_OFFSETS
    for name, nodes in ROOT_SYSTEMS.items():
        gens = [_simple_reflection([first + k]) for k in nodes]
        out.append((f"W({name})", gens, WEYL_ORDERS[name], 22 - len(nodes)))
    for name in ("A2", "A3", "A4"):
        nodes = ROOT_SYSTEMS[name]
        gens = [_simple_reflection([first + k, second + k]) for k in nodes] + [NIKULIN]
        out.append((f"W({name})xnikulin", gens, 2 * WEYL_ORDERS[name], 14 - len(nodes)))
    return out


# Summands of K3 as (first coordinate, rank): three U, two E8(-1).
SUMMANDS = ((0, 2), (2, 2), (4, 2), (6, 8), (14, 8))


def conjugator(rng, count, draw_root):
    """P and P^-1 for a product P of ``count`` reflections in drawn roots."""
    return X.reflection_product(X.K3_GRAM, [draw_root(rng) for _ in range(count)])


def summand_root(rng):
    """A root inside one summand: the generic marking keeps the summands."""
    offset, size = rng.choice(SUMMANDS)
    sub = tuple(row[offset : offset + size] for row in X.K3_GRAM[offset : offset + size])
    root = X.random_pm2_vector(sub, rng)
    return (0,) * offset + root + (0,) * (X.K3_RANK - offset - size)


def _hang_root(rng):
    return X.random_pm2_vector(X.K3_GRAM, rng, max_support=HANG_SUPPORT)


def build(seed: int, hl) -> list[Task]:
    rng = random.Random(f"fixed-lattice:{seed}")
    K3 = hl.k3_lattice()
    expect(K3.gram == X.K3_GRAM, "K3 Gram matrix")
    sessions = []
    for name, gens, order, inv_rank in standard_groups():
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        x = (a, b) * 3 + (0,) * 16  # positive, fixed by every group here
        n = rng.choice((2, 3))
        p, p_inv = conjugator(rng, CONJUGATING_REFLECTIONS, summand_root)
        for marking, conj, conj_inv in (("standard", None, None), ("generic", p, p_inv)):
            g = gens if conj is None else [X.mat_mul(conj, X.mat_mul(m, conj_inv)) for m in gens]
            y = x if conj is None else X.mat_vec(conj, x)
            for m in g:
                expect(X.preserves_form(m, X.K3_GRAM), f"{name} generator")
            expect(all(X.mat_vec(m, y) == y for m in g), f"{name} fixes the positive class")
            sessions.append(_group_steps(hl, K3, f"{name}/{marking}", g, y, n, order, inv_rank))
    sessions.append([_hang_task(hl, K3)])
    rng.shuffle(sessions)
    return [task for steps in sessions for task in steps]


def _hang_task(hl, K3):
    p, p_inv = conjugator(random.Random(HANG_SEED), HANG_REFLECTIONS, _hang_root)
    g = X.mat_mul(p, X.mat_mul(NIKULIN, p_inv))
    expect(X.preserves_form(g, X.K3_GRAM), "hanging-case generator")

    def run():
        G = hl.closure(K3, [g])
        return hl.invariant_sublattice(G), hl.coinvariant_sublattice(G)

    return Task("nikulin/hanging-marking", run, lambda out: _check_nikulin(*out))


def _check_nikulin(inv, co):
    inv_gram = X.restricted_gram(X.K3_GRAM, inv.basis)
    co_gram = X.restricted_gram(X.K3_GRAM, co.basis)
    expect((inv.rank, X.det(inv_gram)) == NIKULIN_INVARIANT, "Nikulin invariant lattice")
    expect((co.rank, X.det(co_gram)) == NIKULIN_COINVARIANT, "Nikulin coinvariant lattice")
    expect(X.negative_definite(co_gram), "E8(-2) is negative definite")


def _group_steps(hl, K3, label, gens, x, n, order, inv_rank):
    """Four consecutive tasks on one group; later steps use earlier results."""
    D = hl.douady_lattice(n)
    lifted = [X.lift(m) for m in gens]
    state = {}

    def enumerate_group():
        G = state["G"] = hl.closure(K3, gens)
        return G

    def check_group(G):
        expect(G.order == order, "group order")
        expect(sum(X.trace(m) for m in G.elements) == inv_rank * order, "rank = mean trace")

    def invariants():
        G = state["G"]
        co = state["co"] = hl.coinvariant_sublattice(G)
        return hl.invariant_sublattice(G), co, hl.verify_pair_properties(G)

    def check_invariants(out):
        inv, co, rep = out
        expect(inv.rank == inv_rank and co.rank == X.K3_RANK - inv_rank, "ranks")
        expect(all(X.mat_vec(m, v) == v for m in gens for v in inv.basis), "invariant is fixed")
        expect(
            all(X.form(X.K3_GRAM, u, v) == 0 for u in inv.basis for v in co.basis),
            "coinvariant is orthogonal to the invariant",
        )
        inv_det = X.det(X.restricted_gram(X.K3_GRAM, inv.basis))
        co_gram = state["co_gram"] = X.restricted_gram(X.K3_GRAM, co.basis)
        co_det = X.det(co_gram)
        expect(abs(inv_det) == abs(co_det), "|disc| agree in a unimodular lattice")
        expect(rep.all_pass, "pair properties")
        expect((rep.invariant_gram_det, rep.coinvariant_gram_det) == (inv_det, co_det), "pair dets")
        if label.startswith("nikulin/"):
            _check_nikulin(inv, co)

    def symplectic():
        ns = hl.saturate(K3, hl.Sublattice(K3, state["co"].basis + (x,)))
        try:
            return hl.symplectic_action_report(K3, state["G"], ns)
        except hl.LatticeError as exc:
            return exc

    def check_symplectic(report):
        if X.negative_definite(state["co_gram"]):
            expect(not isinstance(report, Exception) and report.all_verified, "symplectic report")
        else:  # the coinvariant has a positive direction, so NS has two
            expect(isinstance(report, hl.LatticeError), "NS of signature (3, 0, 2) is refused")

    def lift():
        GD = hl.closure(D.full, lifted)
        return GD.order, hl.coinvariant_sublattice(GD).basis

    def check_lift(out):
        co = state["co"]
        state.clear()  # keep the heap the same size from one group to the next
        expect(out == (order, tuple(v + (0,) for v in co.basis)), "coinvariant of the lift = iota(coinvariant)")

    steps = ((enumerate_group, check_group), (invariants, check_invariants),
             (symplectic, check_symplectic), (lift, check_lift))
    return [Task(f"{label}/{run.__name__}", run, check) for run, check in steps]
