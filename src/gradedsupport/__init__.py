"""Support-killing, regrading, and lifting for group-graded algebras.

The package computes with finitely supported Z- and Z/n-graded algebras and
modules over exact fields (Q and GF(p)):

- ring-supporting subsets and (pre)modular pairs of degree sets, including
  exhaustive enumeration modulo n (`subsets`)
- graded algebras and modules, their equality and validation
  (`graded_objects`)
- the support-killing functors A -> A_U and M -> M_S, and submodules,
  quotients, torsion and graded Hom (`graded_core`)
- regrading along windowed pseudomorphisms and the interval delta map
  (`regrade_maps`, `regrading`)
- liftability criteria, certified lifts, and the hom-dimension equivalence
  harness (`lifting`)
- stock algebras: group algebras, truncated polynomials, path algebras,
  n-homogeneous duals (`constructions`)
- JSON schemas (`serialize`) and a CLI (`gradedsupport ...`).
"""

from .errors import (CapacityError, GradedSupportError, GradingViolationError,
                     InternalConsistencyError, LabelError, PreconditionError,
                     SchemaError, ShapeError, UnsupportedFormError,
                     WindowViolationError)
from .exactlin import (GF, LabeledSpace, Matrix, PrimeField, QQ,
                       RationalField, Subspace, kernel, image,
                       matched_pairs, matched_tensor, subspace_contains,
                       subspace_intersect, subspace_sum)
from .subsets import (DegreeSet, GradedGroup, IntervalDecomposition,
                      IntervalTranslation, Verdict, Z, Zn,
                      enumerate_ring_supporting, is_left_modular,
                      is_left_premodular, is_right_modular,
                      is_right_premodular, is_ring_supporting,
                      is_translation_of_interval, quotient_set,
                      reduce_mod_stabilizer, same_set, stabilizer,
                      structure_decompose)
from .regrade_maps import (WindowedMap, delta_map, is_pseudomorphism,
                           preimage_subgroup)
from .graded_core import (GradedAlgebra, GradedModule, KilledAlgebra,
                          algebras_equal, closure_under_action,
                          generated_submodule, hom_space_basis,
                          hom_space_dim, is_cogenerated_in, is_generated_in,
                          is_generated_in_degrees_01, kill_support_algebra,
                          kill_support_module, modules_equal,
                          preimage_subspace, quotient_module,
                          quotient_with_maps,
                          regrade_algebra, regrade_module, shift_module,
                          submodule_from_subspaces, torsion_quotient,
                          torsion_submodule, un_regrade_module,
                          validate_algebra, validate_module)
from .constructions import (free_module, generic_pair_algebra, group_algebra,
                            n_homogeneous_dual, present_module,
                            projective_module, quiver_algebra,
                            regular_module, truncated_polynomial,
                            zero_sum_pair_algebra)
from .lifting import (EquivalenceReport, LiftReport, PipelineReport,
                      certified_isomorphism, check_and_lift,
                      equivalence_harness, in_lifted_category,
                      koszul_pipeline, lift_module, liftability_check,
                      liftability_check_interval, random_category_module,
                      random_killed_module, random_presented_module,
                      regraded_interval_conditions)

__version__ = "0.1.0"
