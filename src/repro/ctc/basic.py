"""Algorithm 1 (``Basic``): the greedy 2-approximation for CTC search.

Outline (Section 4.1 of the paper):

1. ``G0`` <- maximal connected k-truss containing ``Q`` with the largest k
   (Algorithm 2, via the truss index).
2. Repeat while ``Q`` is still connected in the working graph: compute the
   query distance of every vertex, peel the single farthest vertex ``u*``,
   and restore the k-truss property (Algorithm 3).
3. Return the intermediate graph with the smallest *graph query distance*.

Theorem 3 shows the result R satisfies ``diam(R) <= 2 diam(H*)`` for any
optimal CTC ``H*`` while having the same (maximum) trussness.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence

from repro.ctc.kernels import basic_search as _kernel_basic_search
from repro.ctc.kernels import split_dispatch
from repro.ctc.query_distance import compute_snapshot
from repro.ctc.result import CommunityResult
from repro.graph.components import nodes_are_connected
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.extraction import find_maximal_connected_truss
from repro.trusses.index import TrussIndex
from repro.trusses.maintenance import KTrussMaintainer

__all__ = ["BasicCTC"]


class BasicCTC:
    """Greedy single-vertex peeling CTC search (the paper's ``Basic``).

    Parameters
    ----------
    index:
        A :class:`TrussIndex` over the graph to be searched (building the
        index once and reusing it across queries mirrors the paper's setup;
        Table 3 measures index construction separately from query time) —
        **or** an :class:`~repro.engine.EngineSnapshot`, in which case the
        search runs on the snapshot's CSR-native kernels
        (:mod:`repro.ctc.kernels`) instead of the dict path; both paths
        return identical communities.
    max_iterations:
        Safety cap on peeling iterations; ``None`` means no cap.  The paper's
        experiments impose a one-hour wall-clock cap instead — callers that
        want that behaviour can use ``time_budget_seconds``.
    time_budget_seconds:
        Optional wall-clock budget; when exceeded the best community found so
        far is returned and ``extras["timed_out"]`` is set.
    """

    method_name = "basic"

    def __init__(
        self,
        index: TrussIndex,
        max_iterations: int | None = None,
        time_budget_seconds: float | None = None,
    ) -> None:
        self._kernel, self._index = split_dispatch(index)
        self._max_iterations = max_iterations
        self._time_budget = time_budget_seconds

    # ------------------------------------------------------------------
    def _kernel_search(self, query: Sequence[Hashable]) -> CommunityResult:
        """Run this algorithm's CSR-native kernel (the snapshot path)."""
        return _kernel_basic_search(
            self._kernel,
            query,
            max_iterations=self._max_iterations,
            time_budget_seconds=self._time_budget,
        )

    def search(self, query: Sequence[Hashable]) -> CommunityResult:
        """Run the search for ``query`` and return the community found."""
        if self._kernel is not None:
            return self._kernel_search(query)
        start_time = time.perf_counter()
        initial_truss, k = find_maximal_connected_truss(self._index, query)
        query_nodes = tuple(dict.fromkeys(query))

        best_graph, best_distance, iterations, timed_out = self._peel(
            initial_truss, k, query_nodes, start_time
        )
        elapsed = time.perf_counter() - start_time
        result = CommunityResult(
            graph=best_graph,
            query=query_nodes,
            trussness=k,
            method=self.method_name,
            query_distance=best_distance,
            elapsed_seconds=elapsed,
            iterations=iterations,
            extras={
                "g0_nodes": initial_truss.number_of_nodes(),
                "g0_edges": initial_truss.number_of_edges(),
                "timed_out": timed_out,
            },
        )
        return result

    # ------------------------------------------------------------------
    def peel(
        self,
        initial_truss: UndirectedGraph,
        k: int,
        query_nodes: tuple[Hashable, ...],
        start_time: float | None = None,
    ) -> tuple[UndirectedGraph, float, int, bool]:
        """Run the greedy peeling loop on an explicit starting truss.

        This is the shared engine behind ``Basic``/``BulkDelete`` and is also
        used by LCTC to shrink its locally-explored truss.  Returns a tuple
        ``(best_graph, best_query_distance, iterations, timed_out)``.
        """
        if start_time is None:
            start_time = time.perf_counter()
        return self._peel(initial_truss, k, query_nodes, start_time)

    def _peel(
        self,
        initial_truss: UndirectedGraph,
        k: int,
        query_nodes: tuple[Hashable, ...],
        start_time: float,
    ) -> tuple[UndirectedGraph, float, int, bool]:
        maintainer = KTrussMaintainer(initial_truss, k)
        best_graph = initial_truss.copy()
        best_distance = float("inf")
        iterations = 0
        timed_out = False

        while nodes_are_connected(maintainer.graph, query_nodes):
            snapshot = compute_snapshot(maintainer.graph, query_nodes)
            current_distance = snapshot.graph_query_distance
            # Record the best feasible intermediate graph (Algorithm 1, line 10).
            if current_distance < best_distance:
                best_distance = current_distance
                best_graph = maintainer.snapshot()
            if self._time_budget is not None and (
                time.perf_counter() - start_time > self._time_budget
            ):
                timed_out = True
                break
            if self._max_iterations is not None and iterations >= self._max_iterations:
                break
            victims = self._select_victims(snapshot)
            if not victims:
                break
            maintainer.delete_vertices(victims)
            iterations += 1
        return best_graph, best_distance, iterations, timed_out

    # ------------------------------------------------------------------
    def _select_victims(self, snapshot) -> set[Hashable]:
        """Return the vertices to peel this iteration (Basic: the single farthest)."""
        farthest = snapshot.farthest_vertex()
        if farthest is None:
            return set()
        # Peeling a vertex at distance 0 means everything left is a query
        # node or at distance 0 from all of them; stop instead of thrashing.
        if snapshot.distances[farthest] <= 0:
            return set()
        return {farthest}
