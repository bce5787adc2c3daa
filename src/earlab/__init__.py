"""Certified constructions on strong digraphs with long-ear decompositions.

The library builds ear decompositions, classifies digraphs by minimum ear
length, and produces verified certificates: Seymour vertices, longest-path
transversals, small quasi-kernels, kernel propagation across ears, proper
3-colorings, and oriented colorings into a distinguished 6-vertex
tournament.  Exhaustive oracles cross-check every construction at small
orders.
"""

from .coloring import (DichromaticBounds, VertexMapping, dichromatic_bounds,
                       proper_3_coloring, verify_homomorphism, verify_proper)
from .constructions import (CertifiedSet, ExtensionCandidate, ExtensionReport,
                            cycle_quasi_kernel_indices,
                            find_quasi_kernel_obstruction,
                            le2_quasi_kernel_obstruction,
                            longest_path_transversal,
                            quasi_kernel_ear_indices, seymour_vertex,
                            small_quasi_kernel)
from .digraph import (Digraph, NeighborhoodReport, SetPredicates,
                      digraph_from_json, is_asymmetrical, is_kernel,
                      is_nonseparable, is_quasi_kernel, is_strong,
                      neighborhoods, parse_digraph, serialize_digraph,
                      serialize_edge_list, set_predicates)
from .ears import (DecompositionReport, Ear, EarDecomposition,
                   find_ear_decomposition, find_le_decomposition,
                   generate_random_le, validate_decomposition)
from .errors import (BudgetExceededError, CapExceededError, EarlabError,
                     InvalidInputError, ParseError, PropertyFailedError,
                     VerificationError)
from .kernels import (KernelObstruction, KernelTrace, StageEntry,
                      extend_case, extend_kernel, restrict_condition,
                      restrict_kernel, trace_kernels)
from .oracles import (OracleReport, chromatic_oracles, kernel_oracle,
                      longest_path_oracle, oriented_chromatic_oracle,
                      quasi_kernel_oracle)
from .oriented import (CensusResult, TightInstance, build_G,
                       cycle_homomorphism, extend_homomorphism,
                       find_tight_le3_instance, gi_lower_bound_check,
                       oriented_coloring_le3, tournament_T,
                       uniqueness_census, validate_reference_walks,
                       verify_walk_property, walk_catalog)
from .tournaments import (Tournament, automorphism_count, find_homomorphism,
                          is_homomorphism, tournament_reps)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CapExceededError", "CensusResult",
    "CertifiedSet", "DecompositionReport", "DichromaticBounds", "Digraph",
    "Ear", "EarDecomposition", "EarlabError", "ExtensionCandidate",
    "ExtensionReport", "InvalidInputError", "KernelObstruction",
    "KernelTrace", "NeighborhoodReport", "OracleReport", "ParseError",
    "PropertyFailedError", "SetPredicates", "StageEntry", "TightInstance",
    "Tournament", "VerificationError", "VertexMapping",
    "automorphism_count", "build_G", "chromatic_oracles",
    "cycle_homomorphism", "cycle_quasi_kernel_indices",
    "dichromatic_bounds", "digraph_from_json", "extend_case",
    "extend_homomorphism", "extend_kernel",
    "find_ear_decomposition", "find_homomorphism",
    "find_le_decomposition", "find_quasi_kernel_obstruction",
    "find_tight_le3_instance", "generate_random_le",
    "gi_lower_bound_check", "is_asymmetrical", "is_homomorphism",
    "is_kernel", "is_nonseparable", "is_quasi_kernel", "is_strong",
    "kernel_oracle", "le2_quasi_kernel_obstruction",
    "longest_path_oracle", "longest_path_transversal", "neighborhoods",
    "oriented_chromatic_oracle", "oriented_coloring_le3", "parse_digraph",
    "proper_3_coloring", "quasi_kernel_ear_indices", "quasi_kernel_oracle",
    "restrict_condition", "restrict_kernel",
    "serialize_digraph", "serialize_edge_list", "set_predicates",
    "seymour_vertex", "small_quasi_kernel", "tournament_T",
    "tournament_reps", "trace_kernels", "uniqueness_census",
    "validate_decomposition", "validate_reference_walks",
    "verify_homomorphism", "verify_proper", "verify_walk_property",
    "walk_catalog",
]
