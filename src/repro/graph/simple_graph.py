"""An undirected simple graph backed by adjacency sets.

This is the graph substrate that every other subsystem of the library builds
on.  The paper's algorithms (truss decomposition, the truss index, FindG0,
k-truss maintenance, the CTC search algorithms) all need the same small set
of primitives:

* O(1) amortised edge insertion / deletion,
* O(1) adjacency tests and degree queries,
* iteration over nodes, edges and neighbourhoods,
* cheap copies and induced subgraphs, and
* canonical edge keys so that per-edge attributes such as *support* and
  *trussness* can be stored in plain dictionaries.

Nodes may be any hashable object (ints for the synthetic benchmarks, strings
for the DBLP-style case study).  Edges are unordered pairs of distinct nodes;
self-loops and parallel edges are rejected because the k-truss model of the
paper is defined on simple graphs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TypeVar

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.keys import edge_key

Node = TypeVar("Node", bound=Hashable)

__all__ = ["UndirectedGraph", "edge_key"]


class UndirectedGraph:
    """A mutable, undirected, simple graph.

    The adjacency structure is a ``dict`` mapping every node to the ``set``
    of its neighbours.  The edge count is tracked incrementally so that
    ``number_of_edges`` is O(1).

    Examples
    --------
    >>> g = UndirectedGraph()
    >>> g.add_edge(1, 2)
    >>> g.add_edge(2, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.number_of_edges()
    2
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, edges: Iterable[tuple[Hashable, Hashable]] | None = None) -> None:
        self._adj: dict[Hashable, set[Hashable]] = {}
        self._num_edges: int = 0
        if edges is not None:
            self.add_edges_from(edges)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adjacency: Mapping[Hashable, Iterable[Hashable]]) -> "UndirectedGraph":
        """Build a graph from a node -> neighbours mapping.

        Every node in the mapping is added even if it has no neighbours, so
        isolated nodes survive the round trip.
        """
        graph = cls()
        for node, neighbors in adjacency.items():
            graph.add_node(node)
            for other in neighbors:
                graph.add_edge(node, other)
        return graph

    def copy(self) -> "UndirectedGraph":
        """Return a deep copy of the adjacency structure (nodes are shared)."""
        clone = UndirectedGraph()
        clone._adj = {node: set(neighbors) for node, neighbors in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    @classmethod
    def _from_trusted_parts(
        cls, adjacency: dict[Hashable, set[Hashable]], num_edges: int
    ) -> "UndirectedGraph":
        """Adopt a pre-built adjacency structure *without* per-edge validation.

        Internal bulk-construction seam for the array side
        (:meth:`~repro.graph.csr.CSRGraph.thaw`, which thaws snapshots and
        materializes kernel communities): ``adjacency`` must already be a
        symmetric simple-graph ``node -> neighbour set`` mapping with
        ``num_edges`` distinct undirected edges, and ownership transfers to
        the new graph.  Going through :meth:`add_edge` instead costs two
        dict probes, two set adds and a counter bump per edge — the
        dominant cost of materializing large communities.
        """
        graph = cls()
        graph._adj = adjacency
        graph._num_edges = num_edges
        return graph

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(self, node: Hashable) -> None:
        """Add ``node`` if not already present (no-op otherwise)."""
        if node not in self._adj:
            self._adj[node] = set()

    def add_nodes_from(self, nodes: Iterable[Hashable]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and all its incident edges.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        try:
            neighbors = self._adj.pop(node)
        except KeyError:
            raise NodeNotFoundError(node) from None
        for other in neighbors:
            self._adj[other].discard(node)
        self._num_edges -= len(neighbors)

    def remove_nodes_from(self, nodes: Iterable[Hashable]) -> None:
        """Remove every node in ``nodes``; missing nodes are ignored."""
        for node in nodes:
            if node in self._adj:
                self.remove_node(node)

    def has_node(self, node: Hashable) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        return node in self._adj

    def nodes(self) -> Iterator[Hashable]:
        """Iterate over the nodes of the graph."""
        return iter(self._adj)

    def node_set(self) -> set[Hashable]:
        """Return a fresh set of all nodes."""
        return set(self._adj)

    def number_of_nodes(self) -> int:
        """Return the number of nodes."""
        return len(self._adj)

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Add the undirected edge ``(u, v)``, creating endpoints as needed.

        Adding an existing edge is a no-op.  Self-loops are rejected because
        truss support is undefined on them.
        """
        if u == v:
            raise GraphError(f"self-loop ({u!r}, {v!r}) not allowed in a simple graph")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1

    def add_edges_from(self, edges: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Add every edge in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Remove the edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        """
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    def remove_edges_from(self, edges: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Remove every edge in ``edges``; missing edges are ignored."""
        for u, v in edges:
            if self.has_edge(u, v):
                self.remove_edge(u, v)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Return ``True`` if the edge ``(u, v)`` is present."""
        neighbors = self._adj.get(u)
        return neighbors is not None and v in neighbors

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Iterate over each edge exactly once, in canonical key order per edge."""
        seen: set[Hashable] = set()
        for node, neighbors in self._adj.items():
            for other in neighbors:
                if other not in seen:
                    yield edge_key(node, other)
            seen.add(node)

    def edge_set(self) -> set[tuple[Hashable, Hashable]]:
        """Return a fresh set of canonical edge keys."""
        return set(self.edges())

    def number_of_edges(self) -> int:
        """Return the number of edges."""
        return self._num_edges

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def neighbors(self, node: Hashable) -> set[Hashable]:
        """Return the *live* neighbour set of ``node``.

        The returned set is the internal adjacency set; callers must not
        mutate it.  Use ``set(graph.neighbors(v))`` for a private copy.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Hashable) -> int:
        """Return the degree of ``node``."""
        return len(self.neighbors(node))

    def degrees(self) -> dict[Hashable, int]:
        """Return a dict mapping every node to its degree."""
        return {node: len(neighbors) for node, neighbors in self._adj.items()}

    def max_degree(self) -> int:
        """Return the maximum degree, or 0 for an empty graph."""
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj.values())

    def common_neighbors(self, u: Hashable, v: Hashable) -> set[Hashable]:
        """Return the set of nodes adjacent to both ``u`` and ``v``."""
        first = self.neighbors(u)
        second = self.neighbors(v)
        if len(first) > len(second):
            first, second = second, first
        return {w for w in first if w in second}

    # ------------------------------------------------------------------
    # subgraphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Hashable]) -> "UndirectedGraph":
        """Return the subgraph induced on ``nodes`` as a new graph.

        Nodes that are not in the graph are silently ignored so callers can
        pass candidate sets without pre-filtering.
        """
        keep = {node for node in nodes if node in self._adj}
        sub = UndirectedGraph()
        for node in keep:
            sub.add_node(node)
            for other in self._adj[node]:
                if other in keep:
                    sub.add_edge(node, other)
        return sub

    def edge_subgraph(self, edges: Iterable[tuple[Hashable, Hashable]]) -> "UndirectedGraph":
        """Return the subgraph consisting exactly of ``edges`` (and their endpoints)."""
        sub = UndirectedGraph()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            sub.add_edge(u, v)
        return sub

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, node: Hashable) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.node_set() == other.node_set() and self.edge_set() == other.edge_set()

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("UndirectedGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )
