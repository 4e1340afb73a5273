"""DouadyLattice is a case of ExceptionalPair, and a raw matrix is checked
once at the boundary.

Every douady function must give the same result on douady_lattice(n) as
on the plain pair (D.full, D.e).  The counting tests wrap the core check
and ``as_matrix`` and assert that each raw matrix goes through each of
them once per library call and once per CLI command or report item.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilblat.core as core
from helpers import random_reflection_product
from hilblat import (
    K3_RANK,
    DouadyLattice,
    ExceptionalPair,
    Isometry,
    LatticeError,
    closure,
    douady_lattice,
    extract_surface_isometry,
    index_invariant,
    iota,
    is_natural_on_lattice,
    k3_lattice,
    kahler_candidate_check,
    natural_lift,
    pullback_decomposition,
    reflection_isometry,
)
from hilblat.cli import main

DATA = Path(__file__).parent / "data"
K3 = k3_lattice()
exact = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except LatticeError as exc:
        return "error", str(exc)


def moving_reflection(D):
    """Reflection in v = b0 + (n-2) b1 + delta, of norm -2.  It sends delta
    to delta + q(delta) v, so its index is 3 - 2n."""
    v = (1, D.n - 2) + (0,) * (K3_RANK - 2) + (1,)
    return reflection_isometry(D.full, v)


class TestDouadyIsAPair:
    def test_douady_lattice_is_an_exceptional_pair(self):
        D = douady_lattice(3)
        assert isinstance(D, ExceptionalPair)
        assert D.lattice is D.full and D.e == (0,) * K3_RANK + (2,)
        assert D.surface_block == K3 and D.lattice.rank == 23 and D.delta[K3_RANK] == 1
        assert D == DouadyLattice(3) and hash(D) == hash(DouadyLattice(3))
        assert D != douady_lattice(2) and D != ExceptionalPair(D.full, D.e)

    @exact
    @given(st.integers(2, 4), st.integers(0, 2**32))
    def test_every_function_agrees(self, n, seed):
        rng = random.Random(seed)
        D = douady_lattice(n)
        pair = ExceptionalPair(D.full, D.e)
        phi = Isometry(K3, random_reflection_product(K3, rng, max_length=3))
        lift = natural_lift(D, phi)
        moved = lift * moving_reflection(D)
        surface = tuple(rng.randint(-3, 3) for _ in range(K3_RANK))
        omega = surface + (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),)
        calls = [(natural_lift, phi), (natural_lift, phi.matrix), (iota, surface),
                 (kahler_candidate_check, omega)]
        for f in (lift, moved):
            for fn in (index_invariant, pullback_decomposition, is_natural_on_lattice,
                       extract_surface_isometry):
                calls += [(fn, f), (fn, f.matrix)]
        for fn, arg in calls:
            assert outcome(fn, D, arg) == outcome(fn, pair, arg), fn.__name__
        assert is_natural_on_lattice(D, lift) and not is_natural_on_lattice(D, moved)
        assert index_invariant(D, moved) == 3 - 2 * n


@pytest.fixture
def checks(monkeypatch):
    """Record every matrix given to the core isometry check and to as_matrix."""
    seen = {"checked": [], "converted": []}
    violation, as_matrix = core._violation, core.as_matrix

    def counted_violation(L, m):
        seen["checked"].append(m)
        return violation(L, m)

    def counted_as_matrix(data):
        seen["converted"].append(data)
        return as_matrix(data)

    monkeypatch.setattr(core, "_violation", counted_violation)
    monkeypatch.setattr(core, "as_matrix", counted_as_matrix)
    return seen


class TestOneCheckPerRawMatrix:
    def test_douady_functions(self, checks):
        D = douady_lattice(2)
        D.surface_block  # built once, outside the count
        rng = random.Random(7)
        phi = random_reflection_product(K3, rng, max_length=3)
        f = natural_lift(D, phi).matrix
        g = (natural_lift(D, phi) * moving_reflection(D)).matrix
        calls = [(natural_lift, phi)] + [
            (fn, m)
            for fn in (index_invariant, pullback_decomposition, is_natural_on_lattice,
                       extract_surface_isometry)
            for m in (f, g)
        ]
        for fn, raw in calls:
            checks["checked"].clear()
            checks["converted"].clear()
            outcome(fn, D, raw)
            assert checks["checked"] == [raw], fn.__name__
            assert checks["converted"] == [raw], fn.__name__

    def test_constructor_and_closure(self, checks):
        U = k3_lattice()
        swap = reflection_isometry(U, (1, -1) + (0,) * 20).matrix
        Isometry(U, swap)
        assert checks["checked"] == checks["converted"] == [swap]
        checks["checked"].clear()
        closure(U, [swap, Isometry._trusted(U, swap)])
        assert checks["checked"] == [swap]

    @pytest.mark.parametrize("workspace", ["workspace.json", "douady_workspace.json"])
    def test_cli_commands(self, checks, capsys, workspace):
        path = str(DATA / workspace)
        data = json.loads((DATA / workspace).read_text(encoding="utf-8"))
        pairs = {name: "e" in value if isinstance(value, dict) else value.startswith("DOUADY")
                 for name, value in data["lattices"].items()}
        for name, iso in data["isometries"].items():
            if not pairs[iso["lattice"]]:
                continue
            matrix = tuple(tuple(row) for row in iso["matrix"])
            for command in ("index", "natural-check"):
                checks["checked"].clear()
                main([command, iso["lattice"], name, "--workspace", path])
                assert checks["checked"] == [matrix], (command, name)
        capsys.readouterr()

    @pytest.mark.parametrize("workspace", ["workspace.json", "douady_workspace.json"])
    def test_report_items(self, checks, capsys, workspace):
        data = json.loads((DATA / workspace).read_text(encoding="utf-8"))
        isometries = data["isometries"]
        # once for the isometry's own item, once per group that it generates
        expected = Counter(tuple(tuple(r) for r in iso["matrix"]) for iso in isometries.values())
        for group in data.get("groups", {}).values():
            for gen in group["generators"]:
                expected[tuple(tuple(r) for r in isometries[gen]["matrix"])] += 1
        checks["checked"].clear()
        assert main(["report", "--workspace", str(DATA / workspace)]) == 0
        capsys.readouterr()
        assert Counter(checks["checked"]) == expected
