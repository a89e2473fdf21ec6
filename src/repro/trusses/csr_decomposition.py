"""Array-based support counting and truss decomposition on a CSR snapshot.

These are the fast-path twins of :func:`repro.graph.triangles.all_edge_supports`
and :func:`repro.trusses.decomposition.truss_decomposition`: same peeling
semantics (Wang & Cheng, PVLDB 2012; the paper's reference [29], used by
Remark 1), but operating on the dense integer ids of a
:class:`~repro.graph.csr.CSRGraph` instead of tuple-keyed dicts.  Two
execution strategies implement the same decomposition:

* the **level-synchronous vector peel** (``method="vector"``, the default
  for non-tiny graphs): triangles are enumerated once, in bulk, by
  :mod:`repro.graph.csr_triangles`, and then whole *frontiers* of edges are
  peeled per round — at level ``k``, every surviving edge with support
  ``<= k - 2`` is removed at once, its triangles die in one gather, and the
  surviving edges' supports drop by one ``np.bincount``.  Trussness is
  order-independent within a level (removing any qualifying edge never lifts
  another qualifying edge back above the threshold), so the frontier rounds
  produce **bit-identical** trussness to the sequential peel — the property
  suite (``tests/trusses/test_csr_equivalence.py``) enforces it;
* the **sequential bucket queue** (``method="bucket"``): the classic O(m)
  bin-sort peel over Python lists, retained as the small-graph fallback —
  below a few thousand edges the fixed cost of the numpy passes exceeds the
  whole Python peel.

``method="auto"`` (every caller's default, the engine's full rebuilds
included) picks between them by edge count
(:data:`DEFAULT_VECTOR_THRESHOLD`); only the equivalence tests and the
rebuild benchmark pin one.

One deliberate difference from textbook peeling, shared by both strategies:
a decrement never pushes an edge's support below the level currently being
peeled.  The bucket queue clamps explicitly to keep its sorted array valid;
the vector peel achieves the same effect by assigning the *round's* level to
every frontier edge regardless of how far its support undershot.  This is
harmless because trussness is non-decreasing along the peel — an edge whose
support would fall below the current level is peeled at that level anyway.

Both strategies return per-edge-id ``numpy`` arrays; use
:meth:`CSRGraph.edge_key_of` (or the dispatching wrappers in
:mod:`repro.trusses.decomposition` and :mod:`repro.graph.triangles`) to
convert back to canonical-edge-key dicts interchangeable with the dict path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import (
    TriangleIncidence,
    csr_triangle_incidence,
    csr_triangle_supports,
)

__all__ = [
    "CSRDecomposition",
    "DEFAULT_VECTOR_THRESHOLD",
    "IncidencePeelState",
    "csr_decompose",
    "csr_edge_supports",
    "csr_truss_decomposition",
    "peel_incidence",
]

#: ``method="auto"`` uses the level-synchronous vector peel at or above this
#: many edges and the sequential bucket queue below it (the numpy passes have
#: a fixed cost the tiny-graph Python peel undercuts; the measured crossover
#: sits around a couple hundred edges).
DEFAULT_VECTOR_THRESHOLD = 256


@dataclass(frozen=True)
class CSRDecomposition:
    """The full output of one decomposition pass over a snapshot.

    Bundles the artifacts a full rebuild produces anyway so downstream
    consumers (:class:`~repro.engine.EngineSnapshot`, the LCTC kernel's
    local re-decomposition, incremental deletion seeding) share them instead
    of recomputing: per-edge ``trussness``, the initial per-edge
    ``supports``, and — when the vector strategy ran — the
    :class:`~repro.graph.csr_triangles.TriangleIncidence` it enumerated
    (``None`` from the bucket path, which never materializes triangles).
    ``method`` records the strategy that actually executed (``"vector"`` or
    ``"bucket"``), after ``"auto"`` resolution.
    """

    trussness: np.ndarray
    supports: np.ndarray
    incidence: TriangleIncidence | None
    method: str


def _resolve_method(csr: CSRGraph, method: str) -> str:
    if method == "auto":
        return "vector" if csr.number_of_edges() >= DEFAULT_VECTOR_THRESHOLD else "bucket"
    if method not in ("vector", "bucket"):
        raise ValueError(
            f"decomposition method must be 'auto', 'vector' or 'bucket', got {method!r}"
        )
    return method


def _adjacency_maps(csr: CSRGraph) -> list[dict[int, int]]:
    """Return per-node ``{neighbour id: edge id}`` maps from the CSR arrays."""
    indptr, indices, slot_edge = csr.indptr, csr.indices, csr.slot_edge
    neighbor_list = indices.tolist()
    edge_list = slot_edge.tolist()
    boundaries = indptr.tolist()
    return [
        dict(
            zip(
                neighbor_list[boundaries[u]:boundaries[u + 1]],
                edge_list[boundaries[u]:boundaries[u + 1]],
            )
        )
        for u in range(csr.number_of_nodes())
    ]


def _supports_list(
    adjacency: list[dict[int, int]], edge_u: list[int], edge_v: list[int]
) -> list[int]:
    """Support per edge id, via C-speed keys-view intersection per edge."""
    supports = [0] * len(edge_u)
    for edge in range(len(edge_u)):
        supports[edge] = len(
            adjacency[edge_u[edge]].keys() & adjacency[edge_v[edge]].keys()
        )
    return supports


def csr_edge_supports(csr: CSRGraph) -> np.ndarray:
    """Return the support of every edge as an ``int64`` array indexed by edge id.

    Large snapshots (>= :data:`DEFAULT_VECTOR_THRESHOLD` edges) count all
    supports at once with the vectorized triangle enumerator of
    :mod:`repro.graph.csr_triangles` (one ``np.bincount`` over the triangle
    array); small ones visit each edge ``(u, v)`` and intersect the
    endpoints' ``{neighbour: edge id}`` maps with a C-speed dict keys-view
    ``&``, so the total cost is one hash-set intersection per edge.
    """
    if csr.number_of_edges() >= DEFAULT_VECTOR_THRESHOLD:
        return csr_triangle_supports(csr)
    supports = _supports_list(
        _adjacency_maps(csr), csr.edge_u.tolist(), csr.edge_v.tolist()
    )
    return np.asarray(supports, dtype=np.int64)


class IncidencePeelState:
    """Mutable scratch of a scatter/scan peel over one :class:`TriangleIncidence`.

    Bundles the alive flags, the live support array and the round-lifetime
    dedup scratch that every incidence-driven peel needs, plus the one
    frontier-round primitive they share, :meth:`drop_frontier`.  Two peels
    run on it: the level-synchronous full decomposition
    (:func:`peel_incidence`, threshold follows the rising level ``k - 2``)
    and Algorithm 3's deletion cascade in the query-time peel engine
    (:mod:`repro.ctc.kernels.peeling`, threshold pinned at ``k - 3`` —
    "support strictly below ``k - 2``" — for the community's fixed ``k``).

    Attributes
    ----------
    support:
        Live per-edge support (a mutable copy of ``incidence.supports``),
        decremented as triangles die.
    edge_alive, triangle_alive:
        Boolean alive flags.  :meth:`drop_frontier` expects the caller to
        have flagged the frontier's edges dead already (the two peels
        record different things at that moment — trussness vs. nothing).
    """

    __slots__ = (
        "incidence",
        "support",
        "edge_alive",
        "triangle_alive",
        "_inc_counts",
        "_triangle_flag",
        "_edge_flag",
        "_iota",
        "_empty",
    )

    def __init__(self, incidence: TriangleIncidence) -> None:
        self.incidence = incidence
        self.support = incidence.supports.copy()
        self.edge_alive = np.ones(int(incidence.supports.size), dtype=bool)
        self.triangle_alive = np.ones(incidence.num_triangles, dtype=bool)
        self._inc_counts = np.diff(incidence.inc_indptr)
        # Scratch flags for sort-free dedup: scatter ids in, nonzero-scan the
        # (sorted) distinct ids out, reset only the touched entries.  np.unique
        # would sort each round's casualty list; the scan is linear and the
        # arrays are round-lifetime only.
        self._triangle_flag = np.zeros(incidence.num_triangles, dtype=bool)
        self._edge_flag = np.zeros(int(incidence.supports.size), dtype=bool)
        # One reusable iota covering the largest possible gather (every
        # incidence slot); rounds slice views off it instead of re-running
        # np.arange.
        self._iota = np.arange(incidence.inc_triangles.size, dtype=np.int64)
        self._empty = np.zeros(0, dtype=np.int64)

    def dedup_edges(self, edge_ids: np.ndarray) -> np.ndarray:
        """Return the distinct ids of ``edge_ids``, sorted, via the flag scratch.

        The same sort-free scatter/scan the rounds use internally, exposed
        for callers assembling a *seed* frontier (e.g. the edges incident
        to a peeled vertex, which meet at shared endpoints).
        """
        if edge_ids.size == 0:
            return self._empty
        self._edge_flag[edge_ids] = True
        distinct = np.nonzero(self._edge_flag)[0]
        self._edge_flag[distinct] = False
        return distinct

    def drop_frontier(self, frontier: np.ndarray, threshold: int) -> np.ndarray:
        """Kill the frontier's triangles; return the next frontier, deduped.

        ``frontier`` (distinct edge ids, already flagged dead in
        ``edge_alive`` by the caller) takes its incident still-alive
        triangles down with it; every dead triangle decrements its
        surviving corner edges' supports, and the distinct survivors whose
        support fell to ``<= threshold`` come back as the next frontier.
        """
        incidence = self.incidence
        # Inline segment gather of the frontier's incidence rows (see
        # TriangleIncidence.triangles_of_edges; one repeat + one arange).
        counts = self._inc_counts[frontier]
        total = int(counts.sum())
        if total == 0:
            return self._empty
        offsets = np.cumsum(counts) - counts
        gather = (
            np.repeat(incidence.inc_indptr[frontier] - offsets, counts)
            + self._iota[:total]
        )
        casualties = incidence.inc_triangles[gather]
        casualties = casualties[self.triangle_alive[casualties]]
        if casualties.size == 0:
            return self._empty
        # A triangle touching two frontier edges is gathered twice; the flag
        # scatter collapses it so it dies (and decrements) exactly once.
        self._triangle_flag[casualties] = True
        dead = np.nonzero(self._triangle_flag)[0]
        self._triangle_flag[dead] = False
        self.triangle_alive[dead] = False
        corners = incidence.edges[dead].ravel()
        corners = corners[self.edge_alive[corners]]
        if corners.size == 0:
            return self._empty
        # A corner listed once per dead triangle containing it is exactly
        # the decrement bincount must apply — no dedup here.
        self.support -= np.bincount(corners, minlength=self.support.size)
        qualifying = corners[self.support[corners] <= threshold]
        if qualifying.size == 0:
            return self._empty
        # Same scatter/scan dedup as the triangle flags: the next frontier
        # must list each edge once (remaining-count and gather volume both
        # depend on it).
        self._edge_flag[qualifying] = True
        next_frontier = np.nonzero(self._edge_flag)[0]
        self._edge_flag[next_frontier] = False
        return next_frontier


def peel_incidence(incidence: TriangleIncidence) -> np.ndarray:
    """Level-synchronously peel a triangle-incidence structure to trussness.

    The decomposition engine of the vector strategy, factored out so it can
    run on *any* incidence structure — the whole snapshot's
    (:func:`csr_decompose`) or a subgraph restriction produced by
    :func:`~repro.graph.csr_triangles.subset_incidence` (the LCTC kernel's
    local re-decomposition).  Per level ``k``, the whole frontier of
    surviving edges with support ``<= k - 2`` is peeled per round until the
    level is exhausted; triangles with a peeled edge die and decrement their
    surviving edges' supports in bulk (the :class:`IncidencePeelState`
    round primitive).  Returns the ``int64`` trussness array, one entry per
    edge of the incidence's graph (every value ``>= 2``; triangle-free
    edges get exactly 2).
    """
    num_edges = int(incidence.supports.size)
    trussness = np.full(num_edges, 2, dtype=np.int64)
    if num_edges == 0:
        return trussness
    state = IncidencePeelState(incidence)
    support = state.support
    edge_alive = state.edge_alive
    remaining = num_edges
    k = 2
    # Support only ever *drops*, so after the level-opening full scan every
    # later frontier of the level hides among the edges just decremented —
    # cascade rounds touch O(affected) edges, not O(m).
    frontier = np.nonzero(support <= 0)[0]
    while remaining:
        if frontier.size == 0:
            # Level exhausted: jump straight to the next occupied support bin
            # (trussness is non-decreasing, so no level can appear below it).
            floor = int(np.min(support, where=edge_alive, initial=num_edges))
            k = max(k + 1, floor + 2)
            frontier = np.nonzero(edge_alive & (support <= k - 2))[0]
            continue
        trussness[frontier] = k
        edge_alive[frontier] = False
        remaining -= int(frontier.size)
        if remaining == 0:
            break
        frontier = state.drop_frontier(frontier, k - 2)
    return trussness


def _bucket_truss_decomposition(
    csr: CSRGraph, supports: list[int], adjacency: list[dict[int, int]] | None = None
) -> np.ndarray:
    """The sequential bin-sort bucket-queue peel (the small-graph fallback).

    ``adjacency`` lets the caller share the maps the support count already
    built (they are consumed destructively, so a shared instance must not be
    reused afterwards).
    """
    num_edges = csr.number_of_edges()
    if adjacency is None:
        adjacency = _adjacency_maps(csr)
    edge_u = csr.edge_u.tolist()
    edge_v = csr.edge_v.tolist()

    # Bin-sort bucket queue over plain Python lists (scalar indexing into
    # numpy arrays is far slower than list indexing on this hot path).
    # sorted_edges holds edge ids ordered by current support, pos is the
    # inverse permutation, bin_start[s] is the first position of support s.
    current = list(supports)
    max_support = max(current)
    counts = [0] * (max_support + 1)
    for value in current:
        counts[value] += 1
    bin_start = [0] * (max_support + 1)
    running = 0
    for value in range(max_support + 1):
        bin_start[value] = running
        running += counts[value]
    sorted_edges: list[int] = [0] * num_edges
    fill = list(bin_start)
    for edge in range(num_edges):
        position = fill[current[edge]]
        sorted_edges[position] = edge
        fill[current[edge]] += 1
    pos: list[int] = [0] * num_edges
    for position, edge in enumerate(sorted_edges):
        pos[edge] = position

    trussness = [0] * num_edges
    k = 2
    for i in range(num_edges):
        edge = sorted_edges[i]
        level = current[edge]
        if level + 2 > k:
            k = level + 2
        trussness[edge] = k

        u, v = edge_u[edge], edge_v[edge]
        adj_u = adjacency[u]
        adj_v = adjacency[v]
        del adj_u[v]
        del adj_v[u]
        if len(adj_u) > len(adj_v):
            adj_u, adj_v = adj_v, adj_u
        for w, first in adj_u.items():
            second = adj_v.get(w)
            if second is None:
                continue
            # Clamp: never decrement below the level currently being peeled
            # (see module docstring).
            value = current[first]
            if value > level:
                position = pos[first]
                front = bin_start[value]
                other = sorted_edges[front]
                if other != first:
                    sorted_edges[front] = first
                    sorted_edges[position] = other
                    pos[first] = front
                    pos[other] = position
                bin_start[value] = front + 1
                current[first] = value - 1
            value = current[second]
            if value > level:
                position = pos[second]
                front = bin_start[value]
                other = sorted_edges[front]
                if other != second:
                    sorted_edges[front] = second
                    sorted_edges[position] = other
                    pos[second] = front
                    pos[other] = position
                bin_start[value] = front + 1
                current[second] = value - 1
    return np.asarray(trussness, dtype=np.int64)


def csr_decompose(
    csr: CSRGraph,
    *,
    method: str = "auto",
    supports: np.ndarray | None = None,
    incidence: TriangleIncidence | None = None,
) -> CSRDecomposition:
    """Decompose ``csr`` and return every artifact of the pass.

    ``method`` selects the strategy (``"auto"``, ``"vector"`` or
    ``"bucket"``; see the module docstring).  ``supports`` and ``incidence``
    let callers that already hold those artifacts (an
    :class:`~repro.engine.EngineSnapshot`, a repeated benchmark run) skip
    recomputing them; when omitted they are built here and returned, so
    downstream consumers can share them instead of rebuilding — the fix for
    the historical double support computation on full builds.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> result = csr_decompose(CSRGraph.from_graph(complete_graph(4)))
    >>> result.method, result.trussness.tolist(), result.supports.tolist()
    ('bucket', [4, 4, 4, 4, 4, 4], [2, 2, 2, 2, 2, 2])
    """
    num_edges = csr.number_of_edges()
    resolved = _resolve_method(csr, method)
    if num_edges == 0:
        return CSRDecomposition(
            trussness=np.zeros(0, dtype=np.int64),
            supports=np.zeros(0, dtype=np.int64),
            incidence=incidence,
            method=resolved,
        )
    if resolved == "vector":
        if incidence is None:
            incidence = csr_triangle_incidence(csr)
        return CSRDecomposition(
            trussness=peel_incidence(incidence),
            supports=incidence.supports,
            incidence=incidence,
            method=resolved,
        )
    adjacency = _adjacency_maps(csr)
    if supports is None:
        support_list = _supports_list(adjacency, csr.edge_u.tolist(), csr.edge_v.tolist())
        supports = np.asarray(support_list, dtype=np.int64)
    else:
        supports = np.asarray(supports, dtype=np.int64)
        support_list = supports.tolist()
    return CSRDecomposition(
        trussness=_bucket_truss_decomposition(csr, support_list, adjacency),
        supports=supports,
        incidence=incidence,
        method=resolved,
    )


def csr_truss_decomposition(
    csr: CSRGraph, *, method: str = "auto", supports: np.ndarray | None = None
) -> np.ndarray:
    """Return the trussness of every edge as an ``int64`` array indexed by edge id.

    Drop-in equivalent (modulo key representation) to
    :func:`repro.trusses.decomposition.truss_decomposition`: values are
    ``>= 2`` and edges in no triangle get exactly 2.  Thin wrapper over
    :func:`csr_decompose` for callers that only want the trussness array;
    ``method`` / ``supports`` are forwarded as-is.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> csr = CSRGraph.from_graph(complete_graph(4))
    >>> sorted(set(csr_truss_decomposition(csr).tolist()))
    [4]
    """
    return csr_decompose(csr, method=method, supports=supports).trussness
