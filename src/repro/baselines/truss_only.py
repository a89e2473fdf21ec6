"""The ``Truss`` baseline: return ``G0`` with no free-rider removal.

The paper uses this baseline (Algorithm 2 alone) as the reference point for
the free-rider analysis: Figures 5-10 report the percentage of ``G0`` nodes
each CTC method keeps, and Figure 12(c) reports the raw node/edge counts of
``Truss`` versus ``LCTC`` communities.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence

from repro.ctc.kernels import split_dispatch
from repro.ctc.kernels import truss_search as _kernel_truss_search
from repro.ctc.result import CommunityResult
from repro.graph.traversal import graph_query_distance
from repro.trusses.extraction import find_maximal_connected_truss
from repro.trusses.index import TrussIndex

__all__ = ["TrussOnly"]


class TrussOnly:
    """Return the maximal connected k-truss ``G0`` containing the query.

    Accepts a :class:`TrussIndex` (dict path) or an
    :class:`~repro.engine.EngineSnapshot` (CSR-native FindG0 kernel).
    """

    method_name = "truss"

    def __init__(self, index: TrussIndex) -> None:
        self._kernel, self._index = split_dispatch(index)

    def search(self, query: Sequence[Hashable]) -> CommunityResult:
        """Run FindG0 and wrap the result."""
        if self._kernel is not None:
            return _kernel_truss_search(self._kernel, query)
        start_time = time.perf_counter()
        community, k = find_maximal_connected_truss(self._index, query)
        query_nodes = tuple(dict.fromkeys(query))
        elapsed = time.perf_counter() - start_time
        return CommunityResult(
            graph=community,
            query=query_nodes,
            trussness=k,
            method=self.method_name,
            query_distance=graph_query_distance(community, query_nodes),
            elapsed_seconds=elapsed,
            iterations=0,
        )
