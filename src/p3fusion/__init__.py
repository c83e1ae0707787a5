"""Exact computations with fusion systems on extraspecial groups of order p**3.

Constructs the six systems in which every order-p^2 subgroup is radical,
their unique minimal characteristic bisets and idempotent coefficients, and
the permutation realization of the fusion action.
"""

from .biset import (
    BisetClass,
    FormalBiset,
    biset_class,
    brute_force_fixed_points,
    count_fixed_points,
    is_left_stable,
    is_right_stable,
    opposite,
    restrict_left,
)
from .fusion import (
    FusionClass,
    FusionMorphism,
    FusionSystem,
    FusionSystemSpec,
    LambdaSets,
    MatrixGL2,
    aut_F_V,
    build_out_F,
    builtin_systems,
    fusion_system,
    lambda_sets,
    lift_matrix_to_aut,
    resolve_system,
)
from .group import (
    GroupElement,
    GroupMorphism,
    Subgroup,
    ambient_group,
    conjugation_morphism,
)
from .idempotent import verify_idempotent_stability
from .realize import BisetIndex, check_transitivity, perm_from_morphism
from .solver import SolverResult, exoticity_bound, minimal_biset, verify_table

__version__ = "0.1.0"

__all__ = [
    "BisetClass", "FormalBiset", "biset_class",
    "brute_force_fixed_points", "count_fixed_points",
    "is_left_stable", "is_right_stable", "opposite", "restrict_left",
    "FusionClass", "FusionMorphism", "FusionSystem", "FusionSystemSpec",
    "LambdaSets", "MatrixGL2", "aut_F_V", "build_out_F",
    "builtin_systems", "fusion_system",
    "lambda_sets", "lift_matrix_to_aut", "resolve_system",
    "GroupElement", "GroupMorphism", "Subgroup", "ambient_group",
    "conjugation_morphism",
    "verify_idempotent_stability",
    "BisetIndex", "check_transitivity", "perm_from_morphism",
    "SolverResult", "exoticity_bound", "minimal_biset", "verify_table",
]
