"""k-truss maintenance under vertex/edge deletions (Algorithm 3).

The greedy CTC algorithms peel vertices from the working graph; afterwards
the graph may no longer be a k-truss (some edges may have lost triangles) or
may disconnect the query.  Algorithm 3 restores the k-truss property by a
cascade: every edge whose support drops below ``k - 2`` is queued for
removal, removing it decrements the support of the other two edges of each of
its triangles, and so on until a fixed point.  Finally isolated vertices are
dropped.

:class:`KTrussMaintainer` owns a mutable working copy of ``G0`` together
with its edge-support table, so that the cascade runs in time proportional to
the number of triangles destroyed rather than recomputing supports from
scratch each iteration (this is what makes Algorithms 1 and 4 practical;
see Section 4.2 "Maintenance of k-truss" and the complexity discussion in
Section 4.4).

The ``_support`` table is keyed by :func:`repro.graph.keys.edge_key`; that
module documents the key contract.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

from repro.graph.keys import EdgeKey, edge_key
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.triangles import all_edge_supports

__all__ = ["KTrussMaintainer"]


class KTrussMaintainer:
    """Maintains a k-truss under batched vertex deletions.

    Parameters
    ----------
    graph:
        The starting k-truss (typically ``G0`` from FindG0).  The
        maintainer works on a private copy; the caller's graph is never
        mutated.
    k:
        The trussness level to maintain: after every deletion batch, each
        surviving edge has support >= ``k - 2`` within the surviving graph.
    """

    def __init__(self, graph: UndirectedGraph, k: int) -> None:
        self._graph = graph.copy()
        self._k = k
        self._support: dict[EdgeKey, int] = all_edge_supports(self._graph)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> UndirectedGraph:
        """The live working graph (mutated in place by deletions)."""
        return self._graph

    @property
    def k(self) -> int:
        """The trussness level being maintained."""
        return self._k

    def support(self, u: Hashable, v: Hashable) -> int:
        """Return the current support of edge ``(u, v)``."""
        return self._support[edge_key(u, v)]

    def snapshot(self) -> UndirectedGraph:
        """Return an immutable copy of the current working graph."""
        return self._graph.copy()

    # ------------------------------------------------------------------
    def delete_vertices(self, vertices: Iterable[Hashable]) -> tuple[set[Hashable], set[EdgeKey]]:
        """Delete ``vertices`` and restore the k-truss property (Algorithm 3).

        Returns the set of all vertices removed (requested ones plus cascade
        casualties) and the set of all edges removed.  Vertices not present
        are ignored, so the caller can pass stale candidate sets.
        """
        removal_queue: deque[EdgeKey] = deque()
        queued: set[EdgeKey] = set()
        removed_edges: set[EdgeKey] = set()
        removed_vertices: set[Hashable] = set()

        # Seed the cascade with every edge incident to a deleted vertex
        # (Algorithm 3, lines 1-3).
        for vertex in vertices:
            if not self._graph.has_node(vertex):
                continue
            removed_vertices.add(vertex)
            for neighbor in self._graph.neighbors(vertex):
                key = edge_key(vertex, neighbor)
                if key not in queued:
                    queued.add(key)
                    removal_queue.append(key)

        # Cascade (Algorithm 3, lines 4-9).
        while removal_queue:
            u, v = removal_queue.popleft()
            if not self._graph.has_edge(u, v):
                continue
            for w in self._graph.common_neighbors(u, v):
                for key in (edge_key(u, w), edge_key(v, w)):
                    if key in queued:
                        continue
                    self._support[key] -= 1
                    if self._support[key] < self._k - 2:
                        queued.add(key)
                        removal_queue.append(key)
            self._graph.remove_edge(u, v)
            self._support.pop(edge_key(u, v), None)
            removed_edges.add(edge_key(u, v))

        # Drop isolated vertices (Algorithm 3, line 10) plus the explicitly
        # requested vertices themselves.
        for vertex in list(removed_vertices):
            if self._graph.has_node(vertex):
                self._graph.remove_node(vertex)
        for vertex in list(self._graph.nodes()):
            if self._graph.degree(vertex) == 0:
                self._graph.remove_node(vertex)
                removed_vertices.add(vertex)
        return removed_vertices, removed_edges

    def delete_vertex(self, vertex: Hashable) -> tuple[set[Hashable], set[EdgeKey]]:
        """Delete a single vertex (Algorithm 1 uses ``Vd = {u*}``)."""
        return self.delete_vertices([vertex])

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Return ``True`` if every surviving edge has support >= k - 2.

        Recomputes supports from scratch; intended for tests and assertions,
        not for use inside the peeling loop.
        """
        fresh = all_edge_supports(self._graph)
        return all(value >= self._k - 2 for value in fresh.values())

    def __repr__(self) -> str:
        return (
            f"KTrussMaintainer(k={self._k}, nodes={self._graph.number_of_nodes()}, "
            f"edges={self._graph.number_of_edges()})"
        )
