"""MDC baseline: minimum-degree community search (Sozio & Gionis, KDD 2010).

The "Cocktail Party" model finds a connected subgraph containing the query
nodes that maximises the *minimum degree*, optionally subject to a distance
constraint (every node within a hop bound of the query) and a size
constraint.  The classic greedy algorithm peels the minimum-degree
non-query vertex while the query stays connected and returns the best
intermediate graph.

The paper (Section 6, Exp-3) compares CTC/LCTC against MDC "with the
distance and size constraints", attributing MDC's lower F1 to those fixed
constraints; this implementation exposes both knobs so the Figure 12
comparison can be reproduced.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence

from repro.ctc.result import CommunityResult
from repro.exceptions import NoCommunityFoundError
from repro.graph.components import connected_component_containing, nodes_are_connected
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.traversal import graph_query_distance, query_distances
from repro.trusses.extraction import validate_query

__all__ = ["MinimumDegreeCommunity"]


class MinimumDegreeCommunity:
    """Greedy minimum-degree community search with distance/size constraints.

    Parameters
    ----------
    graph:
        The full network.
    distance_bound:
        Keep only nodes whose query distance is at most this bound before
        peeling (the paper's MDC uses a fixed distance constraint).  ``None``
        disables the restriction.
    size_bound:
        Upper bound on the number of nodes of the returned community;
        intermediate graphs larger than the bound are not eligible answers.
        ``None`` disables the restriction.
    """

    method_name = "mdc"

    def __init__(
        self,
        graph: UndirectedGraph,
        distance_bound: int | None = 2,
        size_bound: int | None = 200,
    ) -> None:
        self._graph = graph
        self._distance_bound = distance_bound
        self._size_bound = size_bound

    # ------------------------------------------------------------------
    def search(self, query: Sequence[Hashable]) -> CommunityResult:
        """Run the greedy peeling and return the best minimum-degree community."""
        start_time = time.perf_counter()
        query_nodes = tuple(validate_query(self._graph, query))

        working = self._initial_subgraph(query_nodes)
        if not nodes_are_connected(working, query_nodes):
            raise NoCommunityFoundError(
                "query nodes are not connected within the MDC distance bound"
            )
        # Restrict to the component containing the query.
        component = connected_component_containing(working, query_nodes[0])
        working = working.subgraph(component)

        best_graph = working.copy()
        best_min_degree = -1
        query_set = set(query_nodes)
        iterations = 0

        while nodes_are_connected(working, query_nodes):
            current_min_degree = min(
                (working.degree(node) for node in working.nodes()), default=0
            )
            eligible_size = (
                self._size_bound is None or working.number_of_nodes() <= self._size_bound
            )
            if eligible_size and current_min_degree > best_min_degree:
                best_min_degree = current_min_degree
                best_graph = working.copy()
            victim = self._minimum_degree_victim(working, query_set)
            if victim is None:
                break
            working.remove_node(victim)
            # Keep only the component still containing the query (removing a
            # cut vertex can strand irrelevant fragments).
            if query_nodes[0] in working and nodes_are_connected(working, query_nodes):
                component = connected_component_containing(working, query_nodes[0])
                if len(component) < working.number_of_nodes():
                    working = working.subgraph(component)
            iterations += 1

        elapsed = time.perf_counter() - start_time
        return CommunityResult(
            graph=best_graph,
            query=query_nodes,
            trussness=2,
            method=self.method_name,
            query_distance=graph_query_distance(best_graph, query_nodes),
            elapsed_seconds=elapsed,
            iterations=iterations,
            extras={"min_degree": best_min_degree},
        )

    # ------------------------------------------------------------------
    def _initial_subgraph(self, query_nodes: Sequence[Hashable]) -> UndirectedGraph:
        """Apply the distance constraint around the query."""
        if self._distance_bound is None:
            return self._graph.copy()
        distances = query_distances(self._graph, query_nodes)
        keep = [
            node for node, distance in distances.items() if distance <= self._distance_bound
        ]
        return self._graph.subgraph(keep)

    @staticmethod
    def _minimum_degree_victim(
        graph: UndirectedGraph, query_set: set[Hashable]
    ) -> Hashable | None:
        """Return the minimum-degree vertex that is not a query node (deterministic ties)."""
        best_node: Hashable | None = None
        best_key: tuple[int, str] | None = None
        for node in graph.nodes():
            if node in query_set:
                continue
            key = (graph.degree(node), repr(node))
            if best_key is None or key < best_key:
                best_key = key
                best_node = node
        return best_node
