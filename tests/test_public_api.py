"""The names the package exports stay fixed."""

import types

import gradedsupport

PUBLIC_NAMES = [
    "CapacityError", "DegreeSet", "EquivalenceReport", "GF", "GradedAlgebra",
    "GradedGroup", "GradedModule", "GradedSupportError",
    "GradingViolationError", "InternalConsistencyError",
    "IntervalDecomposition", "IntervalTranslation", "KilledAlgebra",
    "LabelError", "LabeledSpace", "LiftReport", "Matrix", "PipelineReport",
    "PreconditionError", "PrimeField", "QQ", "RationalField", "SchemaError",
    "ShapeError", "Subspace", "UnsupportedFormError", "Verdict",
    "WindowViolationError", "WindowedMap", "Z", "Zn", "algebras_equal",
    "certified_isomorphism", "check_and_lift", "closure_under_action",
    "delta_map", "enumerate_ring_supporting", "equivalence_harness",
    "free_module", "generated_submodule", "generic_pair_algebra",
    "group_algebra", "hom_space_basis", "hom_space_dim", "image",
    "in_lifted_category", "is_cogenerated_in", "is_generated_in",
    "is_generated_in_degrees_01", "is_left_modular", "is_left_premodular",
    "is_pseudomorphism", "is_right_modular", "is_right_premodular",
    "is_ring_supporting", "is_translation_of_interval", "kernel",
    "kill_support_algebra", "kill_support_module", "koszul_pipeline",
    "lift_module", "liftability_check", "liftability_check_interval",
    "matched_pairs", "matched_tensor", "modules_equal", "n_homogeneous_dual",
    "preimage_subgroup", "preimage_subspace", "present_module",
    "projective_module", "quiver_algebra", "quotient_module", "quotient_set",
    "quotient_with_maps", "random_category_module", "random_killed_module",
    "random_presented_module", "reduce_mod_stabilizer", "regrade_algebra",
    "regrade_module", "regraded_interval_conditions", "regular_module",
    "same_set", "shift_module", "stabilizer", "structure_decompose",
    "submodule_from_subspaces", "subspace_contains", "subspace_intersect",
    "subspace_sum", "torsion_quotient", "torsion_submodule",
    "truncated_polynomial", "un_regrade_module", "validate_algebra",
    "validate_module", "zero_sum_pair_algebra",
]


def test_public_names_are_frozen():
    # submodules become attributes once anything imports them, so skip them
    exported = sorted(n for n, v in vars(gradedsupport).items()
                      if not n.startswith("_")
                      and not isinstance(v, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)
