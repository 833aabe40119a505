"""Randomized graph states: construction, entanglement diagnostics, thresholds."""

from .errors import GraphSpecError, SizeLimitError
from .graph import (Graph, generate, min_vertex_cover, parse_graph,
                    serialize_graph, symmetric_difference)
from .state import (GraphStateVector, closed_form_overlap_sq, empty_overlap,
                    graph_state_vector, overlap)
from .density import (Bipartition, DensityMatrix, export_density, negativity,
                      numerical_rank, partial_transpose, randomize,
                      randomized_bell, subgraph_mixture,
                      subgraph_space_dimension)
from .witness import (WitnessEvaluation, approx_overlap, approx_overlap_2level,
                      find_threshold, gme_threshold, gme_witness_value,
                      overlap_linear_closed, overlap_star_closed,
                      randomization_overlap)
from .lhv import (LhvAssignment, StabilizerElement, apply_stabilizer,
                  bell_expectation_lhv, bell_operator_matrix, lhv_bound,
                  lhv_threshold, lhv_witness_value, stabilizer_element)
from .sampler import (PreparationSample, empirical_state, sample_preparation,
                      sample_to_json)

__all__ = [
    "Bipartition", "DensityMatrix", "Graph", "GraphSpecError",
    "GraphStateVector", "LhvAssignment", "PreparationSample",
    "SizeLimitError", "StabilizerElement", "WitnessEvaluation",
    "apply_stabilizer", "approx_overlap", "approx_overlap_2level",
    "bell_expectation_lhv", "bell_operator_matrix", "closed_form_overlap_sq",
    "empirical_state", "empty_overlap", "export_density", "find_threshold",
    "generate", "gme_threshold", "gme_witness_value", "graph_state_vector",
    "lhv_bound", "lhv_threshold", "lhv_witness_value", "min_vertex_cover",
    "negativity", "numerical_rank", "overlap", "overlap_linear_closed",
    "overlap_star_closed", "parse_graph", "partial_transpose",
    "randomization_overlap", "randomize", "randomized_bell",
    "sample_preparation", "sample_to_json", "serialize_graph",
    "stabilizer_element", "subgraph_mixture", "subgraph_space_dimension",
    "symmetric_difference",
]
