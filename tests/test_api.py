"""The public names of the package: what ``from hilblat import *`` gives."""

import hilblat
from hilblat import core, douady, groups, workspace

# Every public name, in order: core, douady, groups, workspace.
PUBLIC = [
    # core
    "Isometry", "Lattice", "LatticeError", "Matrix", "SignatureTriple", "Sublattice",
    "Vector", "det", "diagonal_lattice", "direct_sum", "discriminant",
    "full_sublattice", "hermite_basis", "identity_isometry", "identity_matrix",
    "integer_kernel", "is_isometry", "isometry_violation", "mat_mul", "mat_vec",
    "norm", "orthogonal_complement", "pairing", "rank_of", "rational_span_leq",
    "reflection_isometry", "rescale", "saturate", "saturation_basis", "signature",
    "sub_signature", "transpose",
    # douady
    "K3_RANK", "DouadyLattice", "ExceptionalPair", "KahlerCandidateReport",
    "PullbackDecomposition", "beauville_fixture", "delta_class", "douady_lattice",
    "e8_lattice", "e8_minus", "e_class", "extract_surface_isometry",
    "hyperbolic_plane", "index_invariant", "index_norm_solutions", "iota",
    "is_natural_on_lattice", "k3_lattice", "kahler_candidate_check", "natural_lift",
    "psi_first_chern", "pullback_decomposition", "same_positive_cone_component",
    # groups
    "IsometryGroup", "NSClassification", "NSType", "PairReport",
    "SymplecticActionReport", "acts_trivially_on", "classify_ns_type", "closure",
    "coinvariant_sublattice", "invariant_sublattice", "is_negative_definite",
    "ns_classification", "symplectic_action_report", "transcendental_sublattice",
    "verify_pair_properties",
    # workspace
    "Workspace", "WorkspaceError", "load_workspace", "parse_workspace",
]


def test_public_names_in_order():
    assert len(PUBLIC) == 74
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
