"""The compact truss index of Section 4.3.

The index stores, for every vertex, its adjacency list sorted by *decreasing
edge trussness*, together with the positions at which each distinct trussness
level starts, a hash table of edge trussness values, and the vertex trussness
(the trussness of the first edge in the sorted list).  With it, FindG0
(Algorithm 2) can enumerate all incident edges of a vertex whose trussness
lies in a level range in time proportional to the number of such edges, and
k-truss extraction never rescans low-trussness edges.

Construction cost is the truss decomposition, O(rho * m), plus an
O(m log d_max) sort — matching Remark 1 of the paper up to the sort factor.
Passing a precomputed ``edge_trussness`` dict skips the decomposition; this
is how :class:`~repro.engine.CTCEngine` assembles indexes from the CSR
fast-path decomposition.

The ``edge_trussness`` map consumed and stored here is keyed by
:func:`repro.graph.keys.edge_key`; that module documents the key contract.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Hashable, Iterator

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph.keys import EdgeKey, edge_key
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.decomposition import truss_decomposition

__all__ = ["TrussIndex"]


class TrussIndex:
    """Precomputed edge/vertex trussness with trussness-sorted adjacency.

    Parameters
    ----------
    graph:
        The graph to index.  The index keeps a reference to it; the graph
        must not be mutated while the index is in use (the CTC algorithms
        never mutate the original graph — they peel copies or views).
    edge_trussness:
        Optional precomputed edge trussness map (to share a decomposition
        across several indexes in benchmarks); computed if omitted.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> index = TrussIndex(complete_graph(5))
    >>> index.vertex_trussness(0)
    5
    """

    def __init__(
        self,
        graph: UndirectedGraph,
        edge_trussness: dict[EdgeKey, int] | None = None,
    ) -> None:
        self._graph = graph
        self._edge_trussness: dict[EdgeKey, int] = (
            dict(edge_trussness) if edge_trussness is not None else truss_decomposition(graph)
        )
        # Adjacency sorted by decreasing trussness; parallel list of the
        # (negated) trussness values for binary-searching level boundaries.
        self._sorted_adjacency: dict[Hashable, list[Hashable]] = {}
        self._sorted_levels: dict[Hashable, list[int]] = {}
        self._vertex_trussness: dict[Hashable, int] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for node in self._graph.nodes():
            incident = [
                (self._edge_trussness[edge_key(node, other)], other)
                for other in self._graph.neighbors(node)
            ]
            incident.sort(key=lambda pair: (-pair[0], repr(pair[1])))
            self._sorted_adjacency[node] = [other for _, other in incident]
            self._sorted_levels[node] = [-value for value, _ in incident]
            self._vertex_trussness[node] = incident[0][0] if incident else 1

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def graph(self) -> UndirectedGraph:
        """The indexed graph."""
        return self._graph

    def edge_trussness(self, u: Hashable, v: Hashable) -> int:
        """Return the trussness of edge ``(u, v)``."""
        try:
            return self._edge_trussness[edge_key(u, v)]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def all_edge_trussness(self) -> dict[EdgeKey, int]:
        """Return a copy of the full edge-trussness map."""
        return dict(self._edge_trussness)

    def vertex_trussness(self, node: Hashable) -> int:
        """Return the trussness of ``node`` (max over incident edge trussness)."""
        try:
            return self._vertex_trussness[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def max_trussness(self) -> int:
        """Return ``tau_bar(empty set)``, the maximum edge trussness (2 if no edges)."""
        if not self._edge_trussness:
            return 2
        return max(self._edge_trussness.values())

    def trussness_levels(self) -> list[int]:
        """Return the distinct trussness levels present, in decreasing order."""
        return sorted(set(self._edge_trussness.values()), reverse=True)

    # ------------------------------------------------------------------
    # level-range adjacency scans (the index's whole purpose)
    # ------------------------------------------------------------------
    def incident_edges_at_least(self, node: Hashable, k: int) -> Iterator[tuple[Hashable, int]]:
        """Yield ``(neighbor, trussness)`` for incident edges with trussness >= k.

        Because the adjacency is sorted by decreasing trussness this touches
        only the qualifying prefix.
        """
        neighbors = self._sorted_adjacency.get(node)
        if neighbors is None:
            raise NodeNotFoundError(node)
        levels = self._sorted_levels[node]
        # levels holds negated trussness in increasing order; entries <= -k
        # correspond to trussness >= k.
        stop = bisect_right(levels, -k)
        for position in range(stop):
            yield neighbors[position], -levels[position]

    def incident_edges_in_range(
        self, node: Hashable, low: int, high: float
    ) -> Iterator[tuple[Hashable, int]]:
        """Yield incident edges with ``low <= trussness < high`` (Algorithm 2, line 9)."""
        neighbors = self._sorted_adjacency.get(node)
        if neighbors is None:
            raise NodeNotFoundError(node)
        levels = self._sorted_levels[node]
        start = 0 if high == float("inf") else bisect_left(levels, -(int(high) - 1))
        stop = bisect_right(levels, -low)
        for position in range(start, stop):
            yield neighbors[position], -levels[position]

    def next_level_below(self, node: Hashable, k: int) -> int | None:
        """Return the largest incident-edge trussness strictly below ``k``.

        This is the ``l = max{tau(v, u) | tau(v, u) < k}`` computation of
        Algorithm 2 (lines 12-13): the next level at which vertex ``node``
        has unexplored incident edges.  ``None`` when no such edge exists.
        """
        levels = self._sorted_levels.get(node)
        if levels is None:
            raise NodeNotFoundError(node)
        # Want the first entry with trussness < k, i.e. negated value > -k.
        position = bisect_right(levels, -k)
        if position >= len(levels):
            return None
        return -levels[position]

    # ------------------------------------------------------------------
    # size accounting (Table 3)
    # ------------------------------------------------------------------
    def size_in_entries(self) -> int:
        """Return the number of stored entries (adjacency slots + edge hash + vertex map).

        Table 3 of the paper reports the index size in megabytes of the C++
        layout; a language-neutral proxy is the entry count, which is
        ``2m (sorted adjacency) + m (edge hash) + n (vertex trussness)``.
        """
        adjacency_entries = sum(len(neighbors) for neighbors in self._sorted_adjacency.values())
        return adjacency_entries + len(self._edge_trussness) + len(self._vertex_trussness)

    def __repr__(self) -> str:
        return (
            f"TrussIndex(nodes={self._graph.number_of_nodes()}, "
            f"edges={len(self._edge_trussness)}, max_trussness={self.max_trussness()})"
        )
