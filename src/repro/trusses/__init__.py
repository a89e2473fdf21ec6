"""Truss machinery: decomposition, the truss index, FindG0 and maintenance.

Decomposition and support counting each exist in two drop-in-equivalent
flavours: the dict path (any :class:`~repro.graph.simple_graph.UndirectedGraph`)
and the array path over a frozen :class:`~repro.graph.csr.CSRGraph` snapshot
(:mod:`repro.trusses.csr_decomposition`); ``truss_decomposition`` dispatches
on the input type.
"""

from repro.trusses.csr_decomposition import (
    CSRDecomposition,
    csr_decompose,
    csr_edge_supports,
    csr_truss_decomposition,
    peel_incidence,
)
from repro.trusses.decomposition import (
    graph_trussness,
    k_truss_subgraph,
    max_trussness,
    maximal_k_truss_edges,
    truss_decomposition,
    vertex_trussness,
)
from repro.trusses.incremental import incremental_truss_update
from repro.trusses.extraction import (
    find_connected_truss_at_k,
    find_maximal_connected_truss,
    validate_query,
)
from repro.trusses.index import TrussIndex
from repro.trusses.kcore import (
    core_decomposition,
    degeneracy_core,
    k_core_subgraph,
    minimum_degree,
)
from repro.trusses.maintenance import KTrussMaintainer

__all__ = [
    "truss_decomposition",
    "CSRDecomposition",
    "csr_decompose",
    "csr_edge_supports",
    "csr_truss_decomposition",
    "peel_incidence",
    "incremental_truss_update",
    "vertex_trussness",
    "graph_trussness",
    "max_trussness",
    "maximal_k_truss_edges",
    "k_truss_subgraph",
    "TrussIndex",
    "find_maximal_connected_truss",
    "find_connected_truss_at_k",
    "validate_query",
    "KTrussMaintainer",
    "core_decomposition",
    "k_core_subgraph",
    "degeneracy_core",
    "minimum_degree",
]
