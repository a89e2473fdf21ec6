"""repro: Closest Truss Community search in networks.

A from-scratch Python reproduction of

    Xin Huang, Laks V.S. Lakshmanan, Jeffrey Xu Yu, Hong Cheng.
    "Approximate Closest Community Search in Networks."  PVLDB 2015.

The package provides the graph substrate (mutable :class:`UndirectedGraph`
store plus frozen :class:`CSRGraph` read snapshots), truss machinery, the
three CTC search algorithms (Basic, BulkDelete, LCTC), the baselines the
paper compares against (Truss, MDC, QDC), a cached read-optimized
:class:`CTCEngine` for serving repeated queries, synthetic datasets with
ground-truth communities, quality metrics, and the experiment harness that
regenerates every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import UndirectedGraph, search
>>> graph = UndirectedGraph([(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)])
>>> result = search(graph, [1, 2], method="bulk-delete")
>>> result.trussness
4
"""

from repro.ctc.api import available_methods, build_engine, build_index, search
from repro.ctc.basic import BasicCTC
from repro.engine import CTCEngine
from repro.ctc.bulk_delete import BulkDeleteCTC
from repro.ctc.local import LocalCTC
from repro.ctc.result import CommunityResult
from repro.exceptions import (
    ConfigurationError,
    GraphError,
    NoCommunityFoundError,
    QueryError,
    ReproError,
)
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.index import TrussIndex

__version__ = "1.10.0"

__all__ = [
    "__version__",
    "UndirectedGraph",
    "CSRGraph",
    "TrussIndex",
    "CTCEngine",
    "search",
    "build_index",
    "build_engine",
    "GraphDelta",
    "available_methods",
    "CommunityResult",
    "BasicCTC",
    "BulkDeleteCTC",
    "LocalCTC",
    "ReproError",
    "GraphError",
    "QueryError",
    "NoCommunityFoundError",
    "ConfigurationError",
]
