"""Masked frontier BFS on CSR rows: the traversal kernel of the array engines.

The CTC algorithms' array-side traversals — per-iteration query distances
inside the peel loop (Algorithms 1 and 4), the ``connect_G(Q)`` check,
FindG0's level probes and component extraction, and the diameters the
experiments report — are unweighted BFS's over some edge restriction of one
frozen :class:`~repro.graph.csr.CSRGraph`.  This module runs them
level-synchronously on the CSR arrays (GraphBLAS-style push traversal): per
round the whole frontier's adjacency rows are gathered with one
``np.repeat`` slice expansion (the same segment-gather idiom as
:mod:`repro.graph.csr_triangles`), masked, deduplicated with visited flags,
and scattered into the distance array — no per-node Python loop.

Two restrictions are supported:

* ``edge_alive`` — a boolean mask over *edge ids* (via the CSR's parallel
  ``slot_edge`` array); dead edges are never traversed.  This is how the
  peel engine (:mod:`repro.ctc.kernels.peeling`) walks its working subgraph
  without materializing it, and how FindG0 restricts to ``{tau(e) >= k}``.
* ``until_reached`` — stop at the end of the round in which every listed
  node has been reached (FindG0's early-exit connectivity probes).

Distances are ``int64`` with ``-1`` marking unreachable nodes;
:func:`fold_query_distance` folds per-source distance arrays into the
paper's ``dist(v, Q) = max_q dist(v, q)`` with ``inf`` for unreachable.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "masked_bfs",
    "fold_query_distance",
    "masked_query_distances",
    "csr_diameter",
]

_INF = float("inf")


def masked_bfs(
    csr: CSRGraph,
    sources: np.ndarray | Sequence[int],
    *,
    edge_alive: np.ndarray | None = None,
    until_reached: np.ndarray | Sequence[int] | None = None,
) -> np.ndarray:
    """Multi-source frontier BFS over ``csr``; returns the distance array.

    Parameters
    ----------
    csr:
        The snapshot whose rows are traversed.
    sources:
        Node ids seeding layer 0.  Duplicates are harmless; an empty source
        set returns an all-unreachable result.
    edge_alive:
        Optional boolean mask over edge ids; slot ``s`` is traversable only
        if ``edge_alive[csr.slot_edge[s]]``.
    until_reached:
        Optional node ids; the BFS stops at the end of the round in which
        all of them have been reached (their recorded distances are final —
        later rounds cannot change them).

    Returns
    -------
    numpy.ndarray
        ``int64``, one entry per node: hop distance from the nearest
        source, ``-1`` if unreachable (or not reached before an
        ``until_reached`` stop).
    """
    indptr, indices, slot_edge = csr.indptr, csr.indices, csr.slot_edge
    num_nodes = int(indptr.size) - 1
    dist = np.full(num_nodes, -1, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    if frontier.size == 0:
        return dist
    dist[frontier] = 0

    targets: np.ndarray | None = None
    if until_reached is not None:
        targets = np.asarray(until_reached, dtype=np.int64)

    # Dedup scratch; allocated once per call, reset only at the touched
    # entries each round.
    seen_flag = np.zeros(num_nodes, dtype=bool)
    depth = 0
    while frontier.size:
        if targets is not None and bool((dist[targets] >= 0).all()):
            break
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Segment gather of the frontier's row slices: one repeat + arange.
        offsets = np.cumsum(counts) - counts
        gather = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
        neighbors = indices[gather]
        if edge_alive is not None:
            neighbors = neighbors[edge_alive[slot_edge[gather]]]
        neighbors = neighbors[dist[neighbors] < 0]
        if neighbors.size == 0:
            break
        depth += 1
        # Flag scatter/scan dedup (sorted frontier), as in the truss peel.
        seen_flag[neighbors] = True
        frontier = np.nonzero(seen_flag)[0]
        seen_flag[frontier] = False
        dist[frontier] = depth
    return dist


def fold_query_distance(maxima: np.ndarray, distances: np.ndarray) -> None:
    """Fold one source's BFS ``distances`` into the running ``dist(v, Q)`` maxima.

    ``maxima`` is a float array updated in place: unreachable entries
    (``-1``) count as ``inf``, reachable entries raise the maximum —
    Definition 3's ``max_q dist(v, q)`` one source at a time.
    """
    reached = distances >= 0
    np.maximum(maxima, distances, out=maxima, where=reached)
    maxima[~reached] = _INF


def masked_query_distances(
    csr: CSRGraph,
    query_ids: Sequence[int],
    *,
    edge_alive: np.ndarray | None = None,
) -> np.ndarray:
    """Return ``dist(v, Q)`` for every node as a float array (``inf`` unreachable).

    One masked BFS per query node folded with :func:`fold_query_distance` —
    the array twin of :func:`repro.graph.traversal.query_distances`
    restricted to the alive edges.  Entries of nodes outside the alive
    subgraph are meaningless; callers mask them out.
    """
    maxima = np.zeros(csr.number_of_nodes(), dtype=np.float64)
    for source in query_ids:
        fold_query_distance(maxima, masked_bfs(csr, [source], edge_alive=edge_alive))
    return maxima


def csr_diameter(csr: CSRGraph, sources: Sequence[int] | None = None) -> float:
    """Exact diameter of a snapshot via per-source frontier BFS.

    The array twin of :func:`repro.graph.traversal.diameter`: with
    ``sources=None`` every node seeds one BFS and a disconnected graph
    returns ``inf``; with an explicit source subset the maximum is over
    those sources' eccentricities only and disconnection is not detected.
    Graphs with fewer than two nodes have diameter 0.
    """
    num_nodes = csr.number_of_nodes()
    if num_nodes < 2:
        return 0.0
    chosen = range(num_nodes) if sources is None else sources
    best = 0.0
    for source in chosen:
        distances = masked_bfs(csr, [source])
        if sources is None and bool((distances < 0).any()):
            return _INF
        local = float(distances.max())
        if local > best:
            best = local
    return best
