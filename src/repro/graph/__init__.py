"""Graph substrate: data structure, traversal, triangles, generators, I/O.

This subpackage is self-contained (no dependency on the truss or CTC layers)
and provides everything the paper's algorithms need from a graph library.
"""

from repro.graph.components import (
    UnionFind,
    connected_component_containing,
    connected_components,
    is_connected,
    largest_component,
    nodes_are_connected,
)
from repro.graph.properties import (
    arboricity_upper_bound,
    average_degree,
    degeneracy,
    degree_histogram,
    edge_density,
    graph_summary,
)
from repro.graph.csr import CSRGraph
from repro.graph.csr_bfs import (
    csr_diameter,
    fold_query_distance,
    masked_bfs,
    masked_query_distances,
)
from repro.graph.csr_triangles import (
    TriangleIncidence,
    csr_triangle_incidence,
    csr_triangle_supports,
    subset_incidence,
    triangle_nodes,
)
from repro.graph.delta import GraphDelta
from repro.graph.keys import EdgeKey, edge_key
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.traversal import (
    bfs_distances,
    bfs_layers,
    diameter,
    eccentricity,
    graph_query_distance,
    query_distances,
    shortest_path,
    shortest_path_length,
)
from repro.graph.triangles import (
    all_edge_supports,
    average_clustering_coefficient,
    edge_support,
    iter_triangles,
    triangle_count,
)
from repro.graph.views import DeletionView, filter_edges_by, induced_subgraph

__all__ = [
    "UndirectedGraph",
    "CSRGraph",
    "masked_bfs",
    "masked_query_distances",
    "csr_diameter",
    "fold_query_distance",
    "TriangleIncidence",
    "csr_triangle_incidence",
    "csr_triangle_supports",
    "subset_incidence",
    "triangle_nodes",
    "GraphDelta",
    "EdgeKey",
    "edge_key",
    "UnionFind",
    "connected_components",
    "connected_component_containing",
    "is_connected",
    "largest_component",
    "nodes_are_connected",
    "bfs_distances",
    "bfs_layers",
    "shortest_path",
    "shortest_path_length",
    "eccentricity",
    "diameter",
    "query_distances",
    "graph_query_distance",
    "edge_support",
    "all_edge_supports",
    "iter_triangles",
    "triangle_count",
    "average_clustering_coefficient",
    "edge_density",
    "average_degree",
    "degree_histogram",
    "degeneracy",
    "arboricity_upper_bound",
    "graph_summary",
    "DeletionView",
    "induced_subgraph",
    "filter_edges_by",
]
