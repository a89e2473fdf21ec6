"""Read-only subgraph views.

The greedy CTC algorithms conceptually work on a *sequence* of shrinking
graphs ``G0 ⊃ G1 ⊃ ... ⊃ Gl``.  Materialising each ``Gi`` would be wasteful;
Section 4.4 of the paper notes that an implementation should only record the
removals.  :class:`DeletionView` provides exactly that: a view over a frozen
base graph plus a set of deleted nodes and edges, supporting the same
read-side API as :class:`UndirectedGraph` (neighbours, degree, membership,
edges) without copying.

:func:`induced_subgraph` and :func:`filter_edges_by` are convenience wrappers
for callers of the package; no algorithm in it uses them.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator

from repro.exceptions import NodeNotFoundError
from repro.graph.keys import edge_key
from repro.graph.simple_graph import UndirectedGraph

__all__ = ["DeletionView", "induced_subgraph", "filter_edges_by"]


class DeletionView:
    """A live view of ``base`` minus a growing set of deleted nodes/edges.

    The view is cheap to create and cheap to roll forward (record another
    deletion); it never mutates the base graph.  ``materialize()`` produces a
    standalone :class:`UndirectedGraph` snapshot when one is needed (e.g. to
    return the final community to the caller).
    """

    __slots__ = ("_base", "_deleted_nodes", "_deleted_edges", "_num_edges")

    def __init__(self, base: UndirectedGraph) -> None:
        self._base = base
        self._deleted_nodes: set[Hashable] = set()
        self._deleted_edges: set[tuple[Hashable, Hashable]] = set()
        self._num_edges = base.number_of_edges()

    # -- mutation of the *view* ---------------------------------------
    def delete_node(self, node: Hashable) -> None:
        """Mark ``node`` (and implicitly its incident edges) as deleted."""
        if not self.has_node(node):
            raise NodeNotFoundError(node)
        self._num_edges -= sum(1 for _ in self.neighbors(node))
        self._deleted_nodes.add(node)

    def delete_edge(self, u: Hashable, v: Hashable) -> None:
        """Mark edge ``(u, v)`` as deleted (endpoints stay)."""
        if self.has_edge(u, v):
            self._deleted_edges.add(edge_key(u, v))
            self._num_edges -= 1

    # -- read API -------------------------------------------------------
    def has_node(self, node: Hashable) -> bool:
        return node not in self._deleted_nodes and self._base.has_node(node)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        if u in self._deleted_nodes or v in self._deleted_nodes:
            return False
        if edge_key(u, v) in self._deleted_edges:
            return False
        return self._base.has_edge(u, v)

    def neighbors(self, node: Hashable) -> Iterator[Hashable]:
        if not self.has_node(node):
            raise NodeNotFoundError(node)
        for other in self._base.neighbors(node):
            if other not in self._deleted_nodes and edge_key(node, other) not in self._deleted_edges:
                yield other

    def degree(self, node: Hashable) -> int:
        return sum(1 for _ in self.neighbors(node))

    def nodes(self) -> Iterator[Hashable]:
        for node in self._base.nodes():
            if node not in self._deleted_nodes:
                yield node

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        for u, v in self._base.edges():
            if self.has_edge(u, v):
                yield edge_key(u, v)

    def number_of_nodes(self) -> int:
        return self._base.number_of_nodes() - len(self._deleted_nodes)

    def number_of_edges(self) -> int:
        return self._num_edges

    def __contains__(self, node: Hashable) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[Hashable]:
        return self.nodes()

    def __len__(self) -> int:
        return self.number_of_nodes()

    # -- snapshots --------------------------------------------------------
    def materialize(self) -> UndirectedGraph:
        """Return a standalone copy of the current (post-deletion) graph."""
        snapshot = UndirectedGraph()
        for node in self.nodes():
            snapshot.add_node(node)
        for u, v in self.edges():
            snapshot.add_edge(u, v)
        return snapshot

    def deleted_nodes(self) -> set[Hashable]:
        """Return a copy of the deleted-node set."""
        return set(self._deleted_nodes)

    def __repr__(self) -> str:
        return (
            f"DeletionView(nodes={self.number_of_nodes()}, edges={self.number_of_edges()}, "
            f"deleted_nodes={len(self._deleted_nodes)})"
        )


def induced_subgraph(graph: UndirectedGraph, nodes: Iterable[Hashable]) -> UndirectedGraph:
    """Return the induced subgraph on ``nodes`` (alias of ``graph.subgraph``)."""
    return graph.subgraph(nodes)


def filter_edges_by(
    graph: UndirectedGraph,
    predicate: Callable[[Hashable, Hashable], bool],
) -> UndirectedGraph:
    """Return the subgraph containing exactly the edges satisfying ``predicate``.

    All endpoints of surviving edges are kept; isolated nodes are dropped.
    LCTC uses this with ``predicate = trussness(e) >= k_t`` to restrict the
    expansion to high-trussness edges.
    """
    filtered = UndirectedGraph()
    for u, v in graph.edges():
        if predicate(u, v):
            filtered.add_edge(u, v)
    return filtered
