"""Incremental truss maintenance on CSR snapshots (the dynamic-graph fast path).

The paper's system is explicitly dynamic: Section 4.2 maintains a k-truss
under deletions (Algorithm 3), and the authors' earlier maintenance work
(reference [20]) shows that under a single edge change the trussness of
every *other* edge moves by at most one, and only within a triangle-connected
neighbourhood of the change.  This module mirrors those insertion/deletion
algorithms on the array representation: given an old
:class:`~repro.graph.csr.CSRGraph` with its per-edge-id trussness array and
a :class:`~repro.graph.csr.CSRPatch`, it produces the new trussness array by
re-evaluating only the affected region instead of re-running the
O(rho * m) decomposition.

Algorithm
---------
The engine of the update is the *local fixpoint characterization* of
trussness: ``t(e)`` is the unique greatest function satisfying

    ``t(e) = 2 + H({ min(t(e1), t(e2)) - 2  for triangles (e, e1, e2) })``

where ``H`` is the h-index (the largest ``s`` such that at least ``s``
values are ``>= s``).  Starting from any pointwise *upper bound* of the true
trussness and repeatedly lowering edges to their operator value converges to
the exact trussness; edges whose triangle neighbourhood never changes are
never re-evaluated, which is what makes the update local.

* **Deletions** (batch): removing edges can only lower trussness, so the
  carried-over old values are already a valid upper bound.  The worklist is
  seeded with every surviving edge that lost a triangle and drained to the
  fixpoint.
* **Insertions** (one at a time, mirroring the single-edge maintenance
  theorem): inserting one edge raises any existing edge's trussness by at
  most one, and only edges level-``k`` triangle-connected to the new edge
  can rise.  A BFS collects that candidate region, candidates are raised by
  one (the new edge to its own upper bound), and the same downward fixpoint
  drain — restricted to the candidates — settles the exact values.

Each inserted edge is activated against the already-settled graph, so a
batch of insertions costs one local pass per edge, exactly like replaying
the paper's single-edge maintenance.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph, CSRPatch

__all__ = ["incremental_truss_update"]


class _LazyAdjacency:
    """Per-node ``{neighbour id: edge id}`` maps, built from CSR rows on demand.

    Building every map up front costs O(m) per update; a local update only
    ever touches a handful of nodes, so maps are materialized lazily.
    """

    __slots__ = ("_csr", "_maps")

    def __init__(self, csr: CSRGraph) -> None:
        self._csr = csr
        self._maps: dict[int, dict[int, int]] = {}

    def __call__(self, node: int) -> dict[int, int]:
        cached = self._maps.get(node)
        if cached is None:
            start, stop = int(self._csr.indptr[node]), int(self._csr.indptr[node + 1])
            cached = dict(
                zip(
                    self._csr.indices[start:stop].tolist(),
                    self._csr.slot_edge[start:stop].tolist(),
                )
            )
            self._maps[node] = cached
        return cached


def _h_index_plus_two(values_desc: list[int]) -> int:
    """Return ``2 + H`` for trussness values sorted in decreasing order.

    ``H`` is the largest ``s`` with at least ``s`` values ``>= s + 2`` —
    the fixpoint operator's right-hand side.
    """
    h = 0
    for count, value in enumerate(values_desc, start=1):
        if value - 2 >= count:
            h = count
        else:
            break
    return 2 + h


def incremental_truss_update(
    old_csr: CSRGraph,
    old_trussness: np.ndarray,
    patch: CSRPatch,
) -> np.ndarray:
    """Return the per-edge-id trussness array of a patched snapshot.

    ``old_trussness`` is the per-edge-id trussness of ``old_csr``;
    ``patch`` is the output of ``old_csr.apply_delta(...)``.  The returned
    array is indexed by the **new** snapshot's edge ids and equals a full
    ``csr_truss_decomposition(patch.csr)`` recomputation.

    Every triangle lookup — the fixpoint operator, the drain's neighbour
    notification, the insertion pass's candidate BFS and the deletion
    pass's seeding — intersects the two endpoints' ``{neighbour: edge id}``
    maps (:class:`_LazyAdjacency`), materialized only for the nodes the
    update touches.  The snapshot's triangle incidence is not read:
    walking its rows instead was measured on the same patches of the
    eight-copy ``dblp8`` graph and was not faster — 1,000 removals took
    465 ms against 435 ms here, 1,000 friend-of-friend inserts 457 ms
    against 409 ms, and four-edge deltas tied (3.80 vs 3.78 ms; 2-core
    host, medians).
    """
    new_csr = patch.csr
    num_edges = new_csr.number_of_edges()
    origin = patch.edge_origin
    carried_mask = origin >= 0

    carried = np.full(num_edges, -1, dtype=np.int64)
    carried[carried_mask] = old_trussness[origin[carried_mask]]
    trussness = carried.tolist()
    inserted = np.nonzero(~carried_mask)[0]
    for edge in inserted.tolist():
        trussness[edge] = 2  # placeholder until the edge is activated

    active = carried_mask.copy()
    adjacency = _LazyAdjacency(new_csr)
    edge_u = new_csr.edge_u
    edge_v = new_csr.edge_v

    def active_triangles(edge: int) -> list[tuple[int, int]]:
        """The other two corners of every active triangle through ``edge``."""
        first = adjacency(int(edge_u[edge]))
        second = adjacency(int(edge_v[edge]))
        if len(first) > len(second):
            first, second = second, first
        pairs = []
        for node, other_first in first.items():
            other_second = second.get(node)
            if other_second is None:
                continue
            if active[other_first] and active[other_second]:
                pairs.append((other_first, other_second))
        return pairs

    def operator_value(edge: int) -> int:
        """Evaluate the fixpoint operator at ``edge`` over *active* triangles."""
        values = []
        for one, two in active_triangles(edge):
            t1, t2 = trussness[one], trussness[two]
            values.append(t1 if t1 < t2 else t2)
        values.sort(reverse=True)
        return _h_index_plus_two(values)

    def drain(worklist: deque[int], members: set[int] | None) -> None:
        """Lower worklist edges to their operator value until the fixpoint.

        ``members`` restricts re-evaluation to a candidate set (insertion
        pass); ``None`` means every active edge may be re-evaluated
        (deletion pass).
        """
        queued = set(worklist)
        while worklist:
            edge = worklist.popleft()
            queued.discard(edge)
            value = operator_value(edge)
            before = trussness[edge]
            if value >= before:
                continue
            trussness[edge] = value
            # A neighbour's triangle count at its own level only drops if
            # this edge fell from >= that level to below it.
            for pair in active_triangles(edge):
                for neighbor in pair:
                    if (
                        value < trussness[neighbor] <= before
                        and neighbor not in queued
                        and (members is None or neighbor in members)
                    ):
                        queued.add(neighbor)
                        worklist.append(neighbor)

    # ------------------------------------------------------------------
    # Deletion pass: seed with surviving edges that lost a triangle.
    # ------------------------------------------------------------------
    if patch.removed_edge_ids.size:
        new_of_old = patch.new_ids_of_old()
        old_adjacency = _LazyAdjacency(old_csr)
        seeds = set()
        for old_edge in patch.removed_edge_ids.tolist():
            first = old_adjacency(int(old_csr.edge_u[old_edge]))
            second = old_adjacency(int(old_csr.edge_v[old_edge]))
            if len(first) > len(second):
                first, second = second, first
            for node, other_first in first.items():
                other_second = second.get(node)
                if other_second is None:
                    continue
                for old_neighbor in (other_first, other_second):
                    new_neighbor = int(new_of_old[old_neighbor])
                    if new_neighbor >= 0:
                        seeds.add(new_neighbor)
        if seeds:
            drain(deque(sorted(seeds)), None)

    # ------------------------------------------------------------------
    # Insertion pass: activate one edge at a time against settled values.
    # ------------------------------------------------------------------
    for new_edge in inserted.tolist():
        active[new_edge] = True
        triangles = active_triangles(new_edge)

        minima = sorted(
            (min(trussness[e1], trussness[e2]) for e1, e2 in triangles), reverse=True
        )
        # Existing edges can rise by at most one, so the new edge's final
        # trussness is bounded by the operator value over *raised* values —
        # itself at most one above the value over current ones — and by its
        # support.
        upper = min(_h_index_plus_two(minima) + 1, 2 + len(triangles))

        # Candidate region: edges level-k triangle-connected to the new edge.
        candidates: set[int] = set()
        frontier: deque[int] = deque()
        for e1, e2 in triangles:
            for edge, witness in ((e1, e2), (e2, e1)):
                if (
                    edge not in candidates
                    and trussness[edge] + 1 <= upper
                    and trussness[witness] >= trussness[edge]
                ):
                    candidates.add(edge)
                    frontier.append(edge)
        while frontier:
            edge = frontier.popleft()
            level = trussness[edge]
            for one, two in active_triangles(edge):
                for neighbor, witness in ((one, two), (two, one)):
                    if (
                        neighbor not in candidates
                        and trussness[neighbor] == level
                        and trussness[witness] >= level
                    ):
                        candidates.add(neighbor)
                        frontier.append(neighbor)

        for edge in candidates:
            trussness[edge] += 1
        trussness[new_edge] = upper
        members = candidates | {new_edge}
        drain(deque(sorted(members)), members)

    return np.asarray(trussness, dtype=np.int64)
