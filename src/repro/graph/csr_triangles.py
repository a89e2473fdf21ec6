"""Vectorized forward triangle enumeration on sorted CSR rows.

The sequential truss routines count and re-count triangles edge by edge
through Python dict probes; this module enumerates every triangle of a
:class:`~repro.graph.csr.CSRGraph` **once**, in bulk, with numpy primitives,
and materializes the two artifacts the level-synchronous decomposition
(:mod:`repro.trusses.csr_decomposition`) peels on:

* a flat **triangle array** ``edges`` of shape ``(T, 3)`` holding the three
  edge ids of each triangle, and
* a **triangle-incidence CSR** (``inc_indptr`` / ``inc_triangles``) mapping
  every edge id to the ids of the triangles containing it, so "kill the
  triangles through this frontier of edges" is one segmented gather (plus a
  scatter/scan dedup on the consumer side) instead of per-edge
  adjacency-map intersections.

Enumeration uses the standard forward orientation on the *node-id* order:
each triangle ``u < v < w`` is produced exactly once from its lowest edge
``(u, v)`` by scanning the forward slice of ``v``'s sorted row (neighbours
``w > v``) and testing ``w in N(u)`` with one batched ``np.searchsorted``
against the globally sorted composite key ``row * n + neighbour`` — the CSR
layout concatenates sorted rows in row order, so that key array is strictly
increasing and a single binary search resolves membership *and* yields the
slot (hence the edge id) of ``(u, w)``.  Candidate batches are bounded by
``candidate_budget`` slots so peak memory stays flat on skewed graphs.

Per-edge supports fall out as one ``np.bincount`` over the triangle array —
the same values as :func:`repro.trusses.csr_decomposition.csr_edge_supports`,
without any per-edge Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph, CSRPatch

__all__ = [
    "TriangleIncidence",
    "csr_triangle_incidence",
    "csr_triangle_supports",
    "patch_incidence",
    "subset_incidence",
    "triangle_nodes",
]

#: Upper bound on the number of candidate (edge, third-node) pairs expanded
#: per enumeration batch; bounds peak memory on skewed degree distributions.
DEFAULT_CANDIDATE_BUDGET = 1 << 20


@dataclass(frozen=True)
class TriangleIncidence:
    """Flat triangle enumeration plus per-edge triangle-incidence CSR.

    Attributes
    ----------
    edges:
        ``int64`` array of shape ``(T, 3)``; row ``t`` holds the edge ids
        ``(e_uv, e_uw, e_vw)`` of triangle ``u < v < w``.  Each triangle of
        the graph appears exactly once.
    supports:
        ``int64`` array of length ``m``: the triangle count of every edge
        (its k-truss *support*), equal to the number of rows of ``edges``
        mentioning it.
    inc_indptr, inc_triangles:
        CSR mapping edge ids to triangle ids: edge ``e`` lies in triangles
        ``inc_triangles[inc_indptr[e]:inc_indptr[e + 1]]`` (so
        ``inc_triangles`` has length ``3 * T`` and
        ``inc_indptr[e + 1] - inc_indptr[e] == supports[e]``).
    """

    edges: np.ndarray
    supports: np.ndarray
    inc_indptr: np.ndarray
    inc_triangles: np.ndarray

    @property
    def num_triangles(self) -> int:
        """The number of triangles ``T``."""
        return int(self.edges.shape[0])

    def triangles_of_edges(self, edge_ids: np.ndarray) -> np.ndarray:
        """Return the (non-unique) triangle ids incident to ``edge_ids``.

        One vectorized gather of the incidence rows of every listed edge; a
        triangle appears once per listed edge it contains, so callers that
        need distinct triangles apply ``np.unique`` on the result.
        """
        starts = self.inc_indptr[edge_ids]
        counts = self.inc_indptr[edge_ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        # Segment gather: repeat each segment's (start - preceding total) and
        # add a global arange — one repeat instead of two.
        offsets = np.cumsum(counts) - counts
        gather = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
        return self.inc_triangles[gather]


def _incidence_from_triangles(edges: np.ndarray, num_edges: int) -> TriangleIncidence:
    """Assemble the incidence CSR and supports from a ``(T, 3)`` triangle array."""
    flat = edges.ravel(order="F")  # all e_uv, then all e_uw, then all e_vw
    num_triangles = edges.shape[0]
    counts = np.bincount(flat, minlength=num_edges) if flat.size else np.zeros(
        num_edges, dtype=np.int64
    )
    inc_indptr = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(counts, out=inc_indptr[1:])
    # Group the entries by edge with a *stable* sort, so every row lists its
    # triangles by (corner, triangle id): part of the contract, because
    # patch_incidence splices rows in that order.  numpy radix-sorts 16-bit
    # keys, so edge ids are sorted one 16-bit digit at a time, least
    # significant first: one pass up to 65,536 edges, two up to 2**32.
    order = np.argsort(flat.astype(np.uint16), kind="stable")
    shift = 16
    while (num_edges - 1) >> shift > 0:
        digit = (flat[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    inc_triangles = (order % num_triangles) if num_triangles else order
    return TriangleIncidence(
        edges=edges,
        supports=counts.astype(np.int64, copy=False),
        inc_indptr=inc_indptr,
        inc_triangles=inc_triangles.astype(np.int64, copy=False),
    )


def _enumerate_triangles(csr: CSRGraph, candidate_budget: int) -> np.ndarray:
    """Enumerate every triangle of ``csr`` as a ``(T, 3)`` edge-id array."""
    num_nodes = csr.number_of_nodes()
    num_edges = csr.number_of_edges()
    if num_edges == 0:
        return np.zeros((0, 3), dtype=np.int64)

    indptr, indices, slot_edge = csr.indptr, csr.indices, csr.slot_edge
    degrees = np.diff(indptr)
    row_of_slot = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    # Forward slice of each sorted row: the suffix of neighbours > the node.
    forward = indices > row_of_slot
    forward_count = np.bincount(row_of_slot[forward], minlength=num_nodes)
    forward_start = indptr[1:] - forward_count
    # Rows are concatenated in row order and sorted within, so this composite
    # key array is strictly increasing: one searchsorted resolves membership
    # of any (node, neighbour) pair and yields its slot.
    all_keys = row_of_slot * num_nodes + indices

    edge_u, edge_v = csr.edge_u, csr.edge_v
    cand_counts = forward_count[edge_v]
    cum = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(cand_counts, out=cum[1:])

    parts: list[np.ndarray] = []
    lo = 0
    while lo < num_edges:
        hi = int(np.searchsorted(cum, cum[lo] + candidate_budget, side="right")) - 1
        hi = min(max(hi, lo + 1), num_edges)
        counts = cand_counts[lo:hi]
        total = int(cum[hi] - cum[lo])
        if total == 0:
            lo = hi
            continue
        starts = forward_start[edge_v[lo:hi]]
        offsets = np.cumsum(counts) - counts
        gather = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
        # Candidate triangles of edge (u, v): third node w > v from v's
        # forward slice; (v, w) is the slot itself, (u, w) is the probe.
        w = indices[gather]
        e_uv = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
        probe = np.repeat(edge_u[lo:hi], counts) * num_nodes + w
        pos = np.searchsorted(all_keys, probe)
        pos = np.minimum(pos, all_keys.size - 1)
        hit = np.nonzero(all_keys[pos] == probe)[0]
        if hit.size:
            batch = np.empty((hit.size, 3), dtype=np.int64)
            batch[:, 0] = e_uv[hit]
            batch[:, 1] = slot_edge[pos[hit]]
            batch[:, 2] = slot_edge[gather[hit]]
            parts.append(batch)
        lo = hi

    if len(parts) == 1:
        return parts[0]
    if parts:
        return np.concatenate(parts, axis=0)
    return np.zeros((0, 3), dtype=np.int64)


def csr_triangle_incidence(
    csr: CSRGraph, *, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
) -> TriangleIncidence:
    """Enumerate every triangle of ``csr`` and build its incidence structure.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> inc = csr_triangle_incidence(CSRGraph.from_graph(complete_graph(4)))
    >>> inc.num_triangles, sorted(set(inc.supports.tolist()))
    (4, [2])
    """
    return _incidence_from_triangles(
        _enumerate_triangles(csr, candidate_budget), csr.number_of_edges()
    )


def csr_triangle_supports(
    csr: CSRGraph, *, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
) -> np.ndarray:
    """Return per-edge triangle counts (supports) without incidence assembly.

    For callers that only need the support array (e.g. bulk support
    counting), this skips the incidence-CSR grouping sort that
    :func:`csr_triangle_incidence` pays — one enumeration pass plus one
    ``np.bincount``.
    """
    triangles = _enumerate_triangles(csr, candidate_budget)
    if triangles.size == 0:
        return np.zeros(csr.number_of_edges(), dtype=np.int64)
    return np.bincount(
        triangles.ravel(), minlength=csr.number_of_edges()
    ).astype(np.int64, copy=False)


def subset_incidence(
    incidence: TriangleIncidence, parent_edge_ids: np.ndarray
) -> TriangleIncidence:
    """Restrict ``incidence`` to the subgraph induced by ``parent_edge_ids``.

    ``parent_edge_ids`` must be sorted and unique; local edge ``e`` of the
    result corresponds to ``parent_edge_ids[e]``, which is exactly the
    edge-id contract of :meth:`CSRGraph.edge_subgraph`.  The kept triangles
    are those with **all three** edges selected — i.e. the triangles of the
    edge subgraph — gathered locally through the incidence CSR, which is how
    the LCTC kernel re-decomposes its expansion without re-enumerating
    triangles from scratch.  The per-element work is proportional to the
    selected edges' triangle degrees; the sort-free dedup and edge
    translation do pay two O(parent)-sized scratch initializations (a
    ``bool`` per parent triangle, an ``int64`` per parent edge), a trade
    that beats sorting the candidate list at every scale measured here.
    """
    selected = np.asarray(parent_edge_ids, dtype=np.int64)
    num_local = int(selected.size)
    candidates = incidence.triangles_of_edges(selected)
    if candidates.size == 0:
        return _incidence_from_triangles(np.zeros((0, 3), dtype=np.int64), num_local)
    # Scatter/scan dedup (a triangle is gathered once per selected edge it
    # contains) — linear, and the scan yields the ids already sorted.
    flag = np.zeros(incidence.num_triangles, dtype=bool)
    flag[candidates] = True
    candidates = np.nonzero(flag)[0]
    # Parent-to-local edge translation through one lookup table; a corner
    # outside the selection maps to -1 and disqualifies its triangle.
    local_of = np.full(incidence.supports.size, -1, dtype=np.int64)
    local_of[selected] = np.arange(num_local, dtype=np.int64)
    local = local_of[incidence.edges[candidates]]
    present = (local >= 0).all(axis=1)
    return _incidence_from_triangles(np.ascontiguousarray(local[present]), num_local)


def _triangles_of_edges_local(csr: CSRGraph, edge_ids: np.ndarray) -> np.ndarray:
    """Enumerate every triangle of ``csr`` containing a listed edge, canonically.

    The local counterpart of :func:`_enumerate_triangles`: instead of scanning
    every forward row slice, each listed edge ``(u, v)`` intersects its
    endpoints' sorted rows with one ``searchsorted`` (shorter row probed into
    the longer), so the work is proportional to the touched rows' degrees.
    Rows are canonicalized to ``(e_uv, e_uw, e_vw)`` — which is simply
    ascending edge-id order, because edge ids are row-major over ``u < v <
    w`` — deduplicated (a triangle containing several listed edges is found
    once per listed edge), and returned sorted by ``(first, second)`` edge
    id, the exact order the full enumeration produces.
    """
    indptr, indices, slot_edge = csr.indptr, csr.indices, csr.slot_edge
    parts: list[np.ndarray] = []
    for edge, u, v in zip(
        edge_ids.tolist(), csr.edge_u[edge_ids].tolist(), csr.edge_v[edge_ids].tolist()
    ):
        if indptr[u + 1] - indptr[u] > indptr[v + 1] - indptr[v]:
            u, v = v, u
        a0, a1 = int(indptr[u]), int(indptr[u + 1])
        b0, b1 = int(indptr[v]), int(indptr[v + 1])
        row_a, row_b = indices[a0:a1], indices[b0:b1]
        if row_a.size == 0 or row_b.size == 0:
            continue
        pos = np.minimum(np.searchsorted(row_b, row_a), row_b.size - 1)
        hit = row_b[pos] == row_a  # common neighbours of u and v
        if not hit.any():
            continue
        batch = np.empty((int(np.count_nonzero(hit)), 3), dtype=np.int64)
        batch[:, 0] = edge
        batch[:, 1] = slot_edge[a0:a1][hit]
        batch[:, 2] = slot_edge[b0:b1][pos[hit]]
        parts.append(batch)
    if not parts:
        return np.zeros((0, 3), dtype=np.int64)
    rows = np.concatenate(parts, axis=0)
    rows.sort(axis=1)
    _, first = np.unique(rows[:, 0] * csr.number_of_edges() + rows[:, 1], return_index=True)
    return rows[first]


def patch_incidence(
    incidence: TriangleIncidence,
    patch: CSRPatch,
    new_csr: CSRGraph | None = None,
) -> TriangleIncidence:
    """Carry ``incidence`` across a :class:`~repro.graph.csr.CSRPatch`.

    ``incidence`` must describe the snapshot ``patch`` was applied to; the
    result is **bit-identical** to ``csr_triangle_incidence(patch.csr)`` —
    same triangle array (content *and* order), supports, and incidence CSR —
    but is assembled locally instead of re-enumerating the graph:

    1. the triangles *lost* to the delta are the ones incident to a removed
       edge: one gather over the removed edges' incidence rows;
    2. the triangles the delta *created* — each contains at least one
       inserted edge — are enumerated via local ``searchsorted``
       intersections on the inserted edges' rows only;
    3. when the patch keeps edge order (every edge-only delta and every
       monotone node remap, see :meth:`CSRPatch.preserves_edge_order`), the
       old structure is spliced: each old triangle id maps to its new id
       through offsets that change only at the lost ids and where fresh
       rows go in, the surviving rows are block-copied through the patch's
       edge map with the fresh rows inserted, per-edge supports become
       carried support − lost + fresh, and the incidence rows are one
       gather of the old entries through the triangle map with the lost
       entries dropped and each fresh entry inserted at its
       ``(corner, triangle id)`` rank in its edge's row;
    4. otherwise (a node remap that flips the ids into ``repr`` order), the
       survivors' remapped rows are re-canonicalized, merged with the fresh
       rows, and handed to the same assembly a fresh enumeration uses.

    The splice's per-patch cost is a few linear passes over the triangle
    array and the incidence entries plus work proportional to the delta's
    touched rows — no sort over all ``3T`` entries, and never the graph's
    candidate pair set, which full enumeration scans.

    ``new_csr`` defaults to ``patch.csr``; passing it explicitly merely
    documents which snapshot the result belongs to.
    """
    if new_csr is None:
        new_csr = patch.csr
    inserted = patch.inserted_edge_ids()
    if patch.node_remap is None and not patch.removed_edge_ids.size and not inserted.size:
        return incidence  # empty delta: the structure is exactly current

    if patch.removed_edge_ids.size and incidence.num_triangles:
        lost = np.unique(incidence.triangles_of_edges(patch.removed_edge_ids))
    else:
        lost = np.zeros(0, dtype=np.int64)
    fresh = (
        _triangles_of_edges_local(new_csr, inserted)
        if inserted.size
        else np.zeros((0, 3), dtype=np.int64)
    )
    # The surviving rows, remapped to new edge ids (flat, three per row).
    surviving = np.take(patch.new_of_old, incidence.edges.ravel())
    if lost.size:
        surviving = np.delete(surviving, (3 * lost[:, None] + np.arange(3)).ravel())
    surviving = surviving.reshape(-1, 3)
    if patch.preserves_edge_order():
        return _splice_incidence(incidence, patch, lost, surviving, fresh)

    # A non-monotonic node remap reorders edge ids, so both the corner order
    # within each row and the row order must be re-canonicalized.
    num_new_edges = new_csr.number_of_edges()
    surviving.sort(axis=1)
    order = np.argsort(surviving[:, 0] * num_new_edges + surviving[:, 1], kind="stable")
    _, merged = _merge_fresh_rows(np.take(surviving, order, axis=0), fresh)
    return _incidence_from_triangles(merged, num_new_edges)


def _merge_fresh_rows(
    surviving: np.ndarray, fresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two disjoint canonical triangle runs; return ``(before, merged)``.

    ``before[j]`` is the number of surviving rows that precede fresh row
    ``j``.  Both runs are C-contiguous ``(T, 3)`` arrays sorted by row;
    viewing each row as one record of three ``int64`` fields makes
    ``searchsorted`` compare rows lexicographically, with no key array
    built over the survivors.
    """
    record = np.dtype([("e0", np.int64), ("e1", np.int64), ("e2", np.int64)])
    before = np.searchsorted(
        surviving.view(record).ravel(), np.ascontiguousarray(fresh).view(record).ravel()
    )
    merged = np.insert(surviving.ravel(), np.repeat(3 * before, 3), fresh.ravel())
    return before, merged.reshape(-1, 3)


def _splice_incidence(
    incidence: TriangleIncidence,
    patch: CSRPatch,
    lost: np.ndarray,
    surviving: np.ndarray,
    fresh: np.ndarray,
) -> TriangleIncidence:
    """Splice ``incidence`` across an order-preserving patch (step 3 above).

    ``lost`` holds the sorted old ids of the lost triangles, ``surviving``
    the other old rows remapped to new edge ids (still canonical and in
    order, because the edge map is monotone), ``fresh`` the created rows.
    """
    num_new_edges = patch.csr.number_of_edges()
    num_old = incidence.num_triangles
    before, edges = _merge_fresh_rows(surviving, fresh)
    fresh_ids = before + np.arange(before.size, dtype=np.int64)

    # Old triangle id -> new id: an offset that steps down after each lost
    # id and up at each fresh row's splice point; -1 for the lost ids.
    # Survivor ``i`` has old id ``i + #{k : lost[k] - k <= i}``.
    spliced_at = before + np.searchsorted(lost - np.arange(lost.size), before, side="right")
    points = np.concatenate([lost + 1, spliced_at])
    steps = np.concatenate([np.full(lost.size, -1), np.ones(before.size, dtype=np.int64)])
    order = np.argsort(points, kind="stable")
    offsets = np.zeros(points.size + 1, dtype=np.int64)
    np.cumsum(steps[order], out=offsets[1:])
    tri_map = np.repeat(offsets, np.diff(points[order], prepend=0, append=num_old))
    tri_map += np.arange(num_old, dtype=np.int64)
    tri_map[lost] = -1

    # Supports: carried support - lost + fresh, per edge (an inserted
    # edge's origin, -1, reads the appended 0).
    lost_corners = patch.new_of_old[incidence.edges[lost].ravel()]
    supports = (
        np.take(np.append(incidence.supports, 0), patch.edge_origin)
        - np.bincount(lost_corners[lost_corners >= 0], minlength=num_new_edges)
        + np.bincount(fresh.ravel(), minlength=num_new_edges)
    )
    inc_indptr = np.zeros(num_new_edges + 1, dtype=np.int64)
    np.cumsum(supports, out=inc_indptr[1:])

    # Surviving entries: every old entry through the triangle map, lost ones
    # dropped.  Rows stay in edge order and, within a row, in (corner,
    # triangle id) order, because both maps are monotone.
    entries = np.take(tri_map, incidence.inc_triangles)
    if lost.size:
        entries = entries[entries >= 0]
    if fresh_ids.size:
        slots, values = _fresh_entry_slots(edges, fresh, fresh_ids, entries, inc_indptr)
        entries = np.insert(entries, slots, values)
    return TriangleIncidence(
        edges=edges, supports=supports, inc_indptr=inc_indptr, inc_triangles=entries
    )


def _fresh_entry_slots(
    edges: np.ndarray,
    fresh: np.ndarray,
    fresh_ids: np.ndarray,
    entries: np.ndarray,
    inc_indptr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Return where each fresh incidence entry goes into ``entries``, and its value.

    ``entries`` holds the surviving incidence rows; ``inc_indptr`` is the
    final row layout, fresh entries included.  A fresh entry of edge ``e``
    goes in at its ``(corner, triangle id)`` rank among ``e``'s surviving
    entries.  Only the rows that receive fresh entries are read: their
    surviving entries are gathered, given their corners and keyed ``(row,
    corner, triangle id)`` — ascending along the gather — so one
    ``searchsorted`` ranks every fresh entry.  The entries come back sorted
    by that key, so fresh entries bound for one slot (the end of one row
    and the start of the next, say) go in in row order.
    """
    num_triangles = edges.shape[0]
    rows, fresh_row = np.unique(fresh.ravel(), return_inverse=True)
    row_stride = 3 * num_triangles
    fresh_keys = np.sort(
        fresh_row * row_stride
        + np.tile(np.arange(3, dtype=np.int64), fresh_ids.size) * num_triangles
        + np.repeat(fresh_ids, 3)
    )
    fresh_row = fresh_keys // row_stride

    # Each touched row's surviving entries: where they start in ``entries``
    # (the row's final start less the fresh entries of earlier rows) and
    # how many there are.
    fresh_before = np.searchsorted(fresh_row, np.arange(rows.size + 1))
    starts = inc_indptr[rows] - fresh_before[:-1]
    counts = inc_indptr[rows + 1] - inc_indptr[rows] - np.diff(fresh_before)
    offsets = np.cumsum(counts) - counts
    total = int(offsets[-1] + counts[-1])
    gather = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
    owner = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    tri = entries[gather]
    # Triangle rows are sorted, so an edge's corner is the count of smaller ids.
    corner = (edges[tri] < rows[owner][:, None]).sum(axis=1)
    surv_keys = owner * row_stride + corner * num_triangles + tri
    slots = starts[fresh_row] + np.searchsorted(surv_keys, fresh_keys) - offsets[fresh_row]
    return slots, fresh_keys % num_triangles


def triangle_nodes(csr: CSRGraph, incidence: TriangleIncidence | None = None) -> np.ndarray:
    """Return the node-id triples ``(u < v < w)`` of every triangle of ``csr``.

    The array twin of :func:`repro.graph.triangles.iter_triangles` (which
    yields label triples in peel order): row ``t`` of the result holds the
    sorted dense ids of triangle ``t`` of ``incidence`` (enumerated on the
    fly when not supplied).
    """
    if incidence is None:
        incidence = csr_triangle_incidence(csr)
    edges = incidence.edges
    # Triangle rows are (e_uv, e_uw, e_vw) with u < v < w, so u and v are
    # the endpoints of the first edge and w is the upper end of the last.
    return np.stack(
        [csr.edge_u[edges[:, 0]], csr.edge_v[edges[:, 0]], csr.edge_v[edges[:, 2]]],
        axis=1,
    )
