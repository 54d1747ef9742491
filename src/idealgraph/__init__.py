"""Inclusion graphs of left ideals of finite semigroups.

Parse a finite semigroup, enumerate its nontrivial left ideals, build the
graph of strict containments, compute exact invariants, realize the
structural constructions on the Boolean model, and verify the whole theory
with an executable check suite.
"""

from .catalog import (cyclic_group, left_zero, null_semigroup, rectangular_band,
                      right_zero, right_zero_with_identity)
from .constructions import (LayerGraph, LayerMatching, canonical_dominating_set,
                            canonical_maximum_chain, layer_graph, layer_matching,
                            normalize_independent_set, perfect_matching)
from .errors import (CorpusLoadError, IdealGraphError, NotAPermutationError,
                     NotAssociativeError, NotIndependentError, OutOfRangeError,
                     TableSyntaxError, TooLargeError, TruncatedFamilyError,
                     UnknownVertexError)
from .graph import (DenseGraph, InclusionGraph, build_boolean, build_from_family,
                    dense_from_edges, export_graph, minimal_ideal_coordinates)
from .invariants import (InvariantReport, PlanarityResult, chromatic_number,
                         clique_number, compute_report, connectivity,
                         domination_number, girth, independence_number,
                         maximum_matching, perfectness, planarity,
                         structural_flags)
from .semigroup import (CayleyTable, IdealFamily, LClass, LeftIdeal,
                        enumerate_left_ideals, is_completely_simple,
                        is_left_ideal, is_maximal_left_ideal, l_classes,
                        parse_cayley_table, principal_left_ideal,
                        serialize_cayley_table)
from .symmetry import (AutGroupReport, GraphAutomorphism, automorphism_group,
                       complement_automorphism, compose, decompose_boolean,
                       relabel_automorphism, transitivity)
from .theorems import SuiteResult, TheoremCheck, run_suite

__version__ = "0.1.0"
