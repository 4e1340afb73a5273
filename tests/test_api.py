"""The public names of the package: what ``from hilblat import *`` gives,
and the README's library tour, which uses them."""

import re
from pathlib import Path

import hilblat
from hilblat import core, douady, groups, workspace

# Every public name, in order: core, douady, groups, workspace.
PUBLIC = [
    # core
    "Isometry", "Lattice", "LatticeError", "Matrix", "SignatureTriple", "Sublattice",
    "Vector", "det", "diagonal_lattice", "direct_sum", "discriminant",
    "full_sublattice", "hermite_basis", "identity_isometry", "identity_matrix",
    "integer_kernel", "isometry_violation", "mat_mul", "mat_vec", "norm",
    "orthogonal_complement", "pairing", "rational_span_leq", "reflection_isometry",
    "rescale", "saturate", "saturation_basis", "signature", "sub_signature",
    "transpose",
    # douady
    "K3_RANK", "DouadyLattice", "ExceptionalPair", "KahlerCandidateReport",
    "PullbackDecomposition", "beauville_fixture", "douady_lattice", "e8_lattice",
    "e8_minus", "extract_surface_isometry", "hyperbolic_plane", "index_invariant",
    "index_norm_solutions", "iota", "is_natural_on_lattice", "k3_lattice",
    "kahler_candidate_check", "natural_lift", "psi_first_chern",
    "pullback_decomposition", "same_positive_cone_component",
    # groups
    "IsometryGroup", "NSClassification", "NSType", "PairReport",
    "SymplecticActionReport", "acts_trivially_on", "closure",
    "coinvariant_sublattice", "invariant_sublattice", "is_negative_definite",
    "ns_classification", "symplectic_action_report", "verify_pair_properties",
    # workspace
    "Workspace", "WorkspaceError", "load_workspace", "parse_workspace",
]


def test_public_names_in_order():
    assert len(PUBLIC) == 68
    assert hilblat.__all__ == PUBLIC
    assert len(set(hilblat.__all__)) == len(hilblat.__all__)


def test_every_public_name_resolves():
    namespace = {}
    exec("from hilblat import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    for name in PUBLIC:
        assert namespace[name] is getattr(hilblat, name)


def test_each_module_declares_its_own_names():
    modules = (core, douady, groups, workspace)
    joined = [name for module in modules for name in module.__all__]
    # PUBLIC has no repeats, so the modules' lists are disjoint
    assert joined == PUBLIC
    for module in modules:
        for name in module.__all__:
            assert getattr(hilblat, name) is getattr(module, name)


# Each of these restated another name, which is the one to use:
# len(hermite_basis(vs, w)), isometry_violation(L, m) is None, D.e, D.delta,
# ns_classification(L, ns).ns_type and orthogonal_complement(L, ns).
DELETED = ["rank_of", "is_isometry", "e_class", "delta_class", "classify_ns_type",
           "transcendental_sublattice"]


def test_deleted_aliases_are_gone():
    for module in (hilblat, core, douady, groups):
        assert [name for name in DELETED if hasattr(module, name)] == []


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
