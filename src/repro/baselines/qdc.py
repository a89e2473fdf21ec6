"""QDC baseline: query-biased densest connected subgraph (Wu et al., PVLDB 2015).

QDC shifts the densest-subgraph objective toward the query by weighting each
node with the reciprocal of its *proximity* to the query (computed by random
walk with restart), then maximising the query-biased edge density

    rho_Q(H) = |E(H)| / sum_{v in H} w(v),          w(v) = 1 / pi(v),

so that distant, low-proximity nodes are expensive to include.  The standard
peeling scheme for (weighted) densest subgraph applies: repeatedly remove the
vertex with the smallest degree-to-weight contribution and keep the best
intermediate subgraph; finally report the connected component containing the
query (Wu et al. note the unrestricted optimum can split the query across
components — the weakness Section 7.2 of the CTC paper points out).

This is a faithful re-implementation of the published objective, not a port
of the authors' code; it plays the same role in the Figure 12 quality
comparison.
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

__all__ = ["QueryBiasedDensestCommunity", "random_walk_proximity"]


def random_walk_proximity(
    graph: UndirectedGraph,
    query: Sequence[Hashable],
    restart_probability: float = 0.2,
    iterations: int = 30,
) -> dict[Hashable, float]:
    """Return random-walk-with-restart proximity of every node to the query.

    Power iteration of ``pi = c * r + (1 - c) * W^T pi`` where ``r`` is the
    uniform restart vector over the query nodes and ``W`` the row-normalised
    adjacency.  A small floor keeps weights finite for unreachable nodes.
    """
    nodes = list(graph.nodes())
    if not nodes:
        return {}
    restart = {node: 0.0 for node in nodes}
    for node in query:
        restart[node] = 1.0 / len(query)
    proximity = dict(restart)
    for _ in range(iterations):
        nxt = {node: restart_probability * restart[node] for node in nodes}
        for node in nodes:
            mass = proximity[node]
            degree = graph.degree(node)
            if degree == 0 or mass == 0.0:
                continue
            share = (1.0 - restart_probability) * mass / degree
            for neighbor in graph.neighbors(node):
                nxt[neighbor] += share
        proximity = nxt
    floor = 1e-12
    return {node: max(value, floor) for node, value in proximity.items()}


class QueryBiasedDensestCommunity:
    """Greedy peeling for the query-biased densest connected subgraph.

    Parameters
    ----------
    graph:
        The full network.
    restart_probability:
        Restart probability of the proximity random walk.
    neighborhood_bound:
        To keep the peeling tractable on large graphs the search is confined
        to nodes within this hop distance of the query (the query-biased
        weights make farther nodes essentially never worth including anyway).
        ``None`` disables the restriction.
    """

    method_name = "qdc"

    def __init__(
        self,
        graph: UndirectedGraph,
        restart_probability: float = 0.2,
        neighborhood_bound: int | None = 3,
    ) -> None:
        self._graph = graph
        self._restart_probability = restart_probability
        self._neighborhood_bound = neighborhood_bound

    # ------------------------------------------------------------------
    def search(self, query: Sequence[Hashable]) -> CommunityResult:
        """Run the peeling and return the best query-biased-density community."""
        start_time = time.perf_counter()
        query_nodes = tuple(validate_query(self._graph, query))

        working = self._initial_subgraph(query_nodes)
        if not nodes_are_connected(working, query_nodes):
            raise NoCommunityFoundError(
                "query nodes are not connected within the QDC neighbourhood bound"
            )
        component = connected_component_containing(working, query_nodes[0])
        working = working.subgraph(component)

        proximity = random_walk_proximity(
            working, query_nodes, restart_probability=self._restart_probability
        )
        weights = {node: 1.0 / proximity[node] for node in working.nodes()}

        best_nodes = working.node_set()
        best_density = self._biased_density(working, weights)
        query_set = set(query_nodes)
        iterations = 0

        while nodes_are_connected(working, query_nodes):
            density = self._biased_density(working, weights)
            if density > best_density:
                best_density = density
                best_nodes = working.node_set()
            victim = self._cheapest_victim(working, weights, query_set)
            if victim is None:
                break
            working.remove_node(victim)
            iterations += 1

        best_graph = self._graph.subgraph(best_nodes)
        # Report the connected component containing the query (QDC's optimum
        # may be disconnected; CTC's critique hinges on exactly this).
        if query_nodes[0] in best_graph and nodes_are_connected(best_graph, query_nodes):
            component = connected_component_containing(best_graph, query_nodes[0])
            best_graph = best_graph.subgraph(component)

        elapsed = time.perf_counter() - start_time
        return CommunityResult(
            graph=best_graph,
            query=query_nodes,
            trussness=2,
            method=self.method_name,
            query_distance=graph_query_distance(best_graph, query_nodes)
            if all(best_graph.has_node(node) for node in query_nodes)
            else float("inf"),
            elapsed_seconds=elapsed,
            iterations=iterations,
            extras={"query_biased_density": best_density},
        )

    # ------------------------------------------------------------------
    def _initial_subgraph(self, query_nodes: Sequence[Hashable]) -> UndirectedGraph:
        if self._neighborhood_bound is None:
            return self._graph.copy()
        distances = query_distances(self._graph, query_nodes)
        keep = [
            node
            for node, distance in distances.items()
            if distance <= self._neighborhood_bound
        ]
        return self._graph.subgraph(keep)

    @staticmethod
    def _biased_density(graph: UndirectedGraph, weights: dict[Hashable, float]) -> float:
        total_weight = sum(weights[node] for node in graph.nodes())
        if total_weight <= 0:
            return 0.0
        return graph.number_of_edges() / total_weight

    @staticmethod
    def _cheapest_victim(
        graph: UndirectedGraph, weights: dict[Hashable, float], query_set: set[Hashable]
    ) -> Hashable | None:
        """Return the non-query vertex with the smallest degree-per-weight contribution."""
        best_node: Hashable | None = None
        best_key: tuple[float, str] | None = None
        for node in graph.nodes():
            if node in query_set:
                continue
            weight = weights.get(node, 1.0)
            key = (graph.degree(node) / weight if weight else float("inf"), repr(node))
            if best_key is None or key < best_key:
                best_key = key
                best_node = node
        return best_node
