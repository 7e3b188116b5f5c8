"""Exact finite group actions, invariant submodular set functions,
fragments, atoms, and growth-theorem checkers."""

from .actions import (ActionProfile, GroupAction, OrbitDecomposition,
                      conjugation_action, coset_action, left_translation_action,
                      natural_action)
from .config import cap, snapshot
from .errors import (CapacityError, DomainError, InvariantError,
                     StructuralError)
from .groups import (CosetDecomposition, FiniteGroup, Subgroup, affine_gl1,
                     alternating, cyclic, dihedral, direct_product,
                     from_generators, symmetric)
from .linalg import (LatticeFunction, LatticeMinimizationResult,
                     Representation, Subspace, actor_growth_linear,
                     check_lattice_submodular, enumerate_subspaces,
                     gaussian_binomial, grassmannian, minimize_on_lattice,
                     permutation_representation,
                     representation_from_generator_matrices, subspace_count)
from .perms import Permutation, from_cycles, identity
from .rationals import exact_fraction, format_fraction
from .search import (FAMILIES, PREDICATES, SearchRecord, SearchResult,
                     build_action, build_group, build_representation, search)
from .setfuncs import (CoreResult, Exhaustiveness, MinimizationResult,
                       MuResult, PropertyReport, SetFunction, actor_growth,
                       check_invariance, check_submodular, core_set,
                       cut_function, group_image_ratio, identity_atom,
                       min_image_ratio, minimize_nonempty, target_growth)
from .theorems import (STATEMENT_IDS, CheckReport, check_fragment_bounds,
                       check_freiman, check_hamidoune, check_kneser,
                       check_murphy, check_ruzsa_triple, check_small_growth,
                       check_tao_small_doubling, find_petridis_witness,
                       find_taod_witness, kneser_example_instance)

__version__ = "0.1.0"

__all__ = [
    "ActionProfile", "CapacityError", "CheckReport", "CoreResult",
    "CosetDecomposition", "DomainError", "Exhaustiveness", "FAMILIES",
    "FiniteGroup", "GroupAction", "InvariantError", "LatticeFunction",
    "LatticeMinimizationResult", "MinimizationResult", "MuResult",
    "OrbitDecomposition", "PREDICATES", "Permutation",
    "PropertyReport", "Representation", "STATEMENT_IDS", "SearchRecord",
    "SearchResult", "SetFunction", "StructuralError", "Subgroup",
    "Subspace", "actor_growth", "actor_growth_linear", "affine_gl1",
    "alternating", "build_action", "build_group",
    "build_representation", "cap", "check_fragment_bounds",
    "check_freiman", "check_hamidoune", "check_invariance",
    "check_kneser", "check_lattice_submodular",
    "check_murphy", "check_ruzsa_triple", "check_small_growth",
    "check_submodular", "check_tao_small_doubling",
    "conjugation_action", "core_set", "coset_action", "cut_function",
    "cyclic", "dihedral", "direct_product", "enumerate_subspaces",
    "exact_fraction", "find_petridis_witness", "find_taod_witness",
    "format_fraction", "from_cycles", "from_generators",
    "gaussian_binomial", "grassmannian", "group_image_ratio", "identity",
    "identity_atom",
    "kneser_example_instance", "left_translation_action",
    "min_image_ratio", "minimize_nonempty", "minimize_on_lattice",
    "natural_action", "permutation_representation",
    "representation_from_generator_matrices", "search",
    "snapshot", "subspace_count", "symmetric",
    "target_growth",
]
