"""Inclusion graphs of left ideals of finite semigroups.

Parse a finite semigroup, enumerate its nontrivial left ideals, build the
graph of strict containments, compute exact invariants, realize the
structural constructions on the Boolean model, and verify the whole theory
with an executable check suite.

The public names below load on first use (PEP 562), so importing the
package, or one command of the CLI, compiles only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "catalog": ("cyclic_group", "left_zero", "null_semigroup", "rectangular_band",
                    "right_zero", "right_zero_with_identity"),
        "boolean": ("LayerMatching", "canonical_dominating_set", "canonical_maximum_chain",
                    "layer_matching", "normalize_independent_set", "perfect_matching"),
        "errors": ("CorpusLoadError", "IdealGraphError", "NotAPermutationError",
                   "NotAssociativeError", "NotIndependentError", "OutOfRangeError",
                   "TableSyntaxError", "TooLargeError", "TruncatedFamilyError",
                   "UnknownVertexError"),
        "graph": ("DenseGraph", "InclusionGraph", "build_boolean", "build_from_family",
                  "build_from_table", "export_graph"),
        "invariants": ("PlanarityResult", "chromatic_number",
                       "clique_number", "compute_report", "connectivity",
                       "domination_number", "girth", "independence_number",
                       "maximum_matching", "perfectness", "planarity",
                       "structural_flags"),
        "report": ("InvariantReport",),
        "semigroup": ("CayleyTable", "IdealFamily", "JoinIrreducibles", "LClass",
                      "LeftIdeal", "enumerate_left_ideals", "is_completely_simple",
                      "is_left_ideal", "is_maximal_left_ideal", "join_irreducibles",
                      "l_classes", "parse_cayley_table", "principal_left_ideal",
                      "serialize_cayley_table"),
        "symmetry": ("AutGroupReport", "GraphAutomorphism", "automorphism_group",
                     "complement_automorphism", "compose", "decompose_boolean",
                     "relabel_automorphism", "transitivity"),
        "theorems": ("SuiteResult", "TheoremCheck", "run_suite"),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
