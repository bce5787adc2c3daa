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
from .constructions import (CertifiedSet, cycle_quasi_kernel_indices,
                            longest_path_transversal,
                            quasi_kernel_ear_indices, seymour_vertex,
                            small_quasi_kernel)
from .digraph import (Digraph, NeighborhoodReport, SetPredicates,
                      digraph_from_json, is_asymmetrical, is_kernel,
                      is_nonseparable, is_quasi_kernel, is_strong,
                      neighborhoods, parse_digraph, serialize_digraph,
                      set_predicates)
from .ears import (DecompositionReport, EarDecomposition,
                   find_ear_decomposition, find_le_decomposition,
                   generate_random_le, validate_decomposition)
from .errors import (BudgetExceededError, CapExceededError, EarlabError,
                     InvalidInputError, ParseError, PropertyFailedError,
                     VerificationError)
from .kernels import (KernelObstruction, extend_case, extend_kernel,
                      restrict_condition, restrict_kernel, trace_kernels)
from .oracles import (OracleReport, chromatic_oracles, kernel_oracle,
                      longest_path_oracle, oriented_chromatic_oracle,
                      quasi_kernel_oracle)
from .oriented import (build_G, extend_homomorphism, oriented_coloring_le3,
                       tournament_T, uniqueness_census,
                       validate_reference_walks, verify_walk_property,
                       walk_catalog)
from .tournaments import Tournament, find_homomorphism, tournament_reps

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CapExceededError", "CertifiedSet",
    "DecompositionReport", "DichromaticBounds", "Digraph",
    "EarDecomposition", "EarlabError", "InvalidInputError",
    "KernelObstruction", "NeighborhoodReport", "OracleReport", "ParseError",
    "PropertyFailedError", "SetPredicates", "Tournament",
    "VerificationError", "VertexMapping", "build_G", "chromatic_oracles",
    "cycle_quasi_kernel_indices",
    "dichromatic_bounds", "digraph_from_json", "extend_case",
    "extend_homomorphism", "extend_kernel",
    "find_ear_decomposition", "find_homomorphism",
    "find_le_decomposition",
    "generate_random_le", "is_asymmetrical",
    "is_kernel", "is_nonseparable", "is_quasi_kernel", "is_strong",
    "kernel_oracle",
    "longest_path_oracle", "longest_path_transversal", "neighborhoods",
    "oriented_chromatic_oracle", "oriented_coloring_le3", "parse_digraph",
    "proper_3_coloring", "quasi_kernel_ear_indices", "quasi_kernel_oracle",
    "restrict_condition", "restrict_kernel",
    "serialize_digraph", "set_predicates",
    "seymour_vertex", "small_quasi_kernel", "tournament_T",
    "tournament_reps", "trace_kernels", "uniqueness_census",
    "validate_decomposition", "validate_reference_walks",
    "verify_homomorphism", "verify_proper", "verify_walk_property",
    "walk_catalog",
]
