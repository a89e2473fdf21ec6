"""FindG0 on arrays: maximal connected k-truss containing Q, largest k.

The dict path (:func:`repro.trusses.extraction.find_maximal_connected_truss`)
walks the truss index level by level, BFS-style.  Its *result* is canonical
— ``k`` is the largest trussness threshold at which the query nodes fall in
one connected component of the ``{tau(e) >= k}`` subgraph, and ``G0`` is
exactly that component — so the kernel is free to compute the same object a
cheaper way.  Connectivity of ``Q`` in ``{tau(e) >= k}`` is *monotone* in
``k`` (lowering the threshold only adds edges), which makes the answer a
**binary search over the distinct trussness levels**, each probe one masked
frontier BFS (:mod:`repro.graph.csr_bfs`) restricted to the qualifying
edges with early exit as soon as every query node is reached — O(log
levels) vectorized traversals instead of a per-edge Python sweep.  The
component is then extracted with one more masked frontier BFS over the
``{tau >= k}`` restriction.

Unlike the peel and the decomposition, FindG0 keeps no scalar twin for
small kernels: on the LCTC pipeline's local kernels (a few hundred edges)
a union-find sweep saves 30-50 µs per call, about 0.5% of an LCTC query.
"""

from __future__ import annotations

import numpy as np

from repro.ctc.kernels.context import QueryKernel
from repro.exceptions import NoCommunityFoundError, QueryError
from repro.graph.csr_bfs import masked_bfs

__all__ = ["find_g0", "connected_truss_at_k"]


def _find_level(
    kernel: QueryKernel, query_ids: list[int], upper_bound: int
) -> int | None:
    """The highest level <= ``upper_bound`` connecting ``Q``, or ``None``.

    Binary search over the descending level list, one masked-BFS probe per
    step.
    """
    levels = [level for level in kernel.levels if level <= upper_bound]
    if not levels or not _query_connected_at_k(kernel, query_ids, levels[-1]):
        return None
    # Connectivity is monotone along the (descending) level list: find the
    # first (= highest-k) connected level by binary search.
    low, high = 0, len(levels) - 1
    while low < high:
        middle = (low + high) // 2
        if _query_connected_at_k(kernel, query_ids, levels[middle]):
            high = middle
        else:
            low = middle + 1
    return levels[low]


def _query_connected_at_k(
    kernel: QueryKernel, query_ids: list[int], k: int
) -> bool:
    """Is ``Q`` inside one component of the ``{tau(e) >= k}`` subgraph?

    One masked BFS from the first query node, stopping as soon as every
    other query node has been reached (a query node isolated at this level
    is simply never reached).
    """
    csr = kernel.csr
    others = query_ids[1:]
    result = masked_bfs(
        csr.indptr,
        csr.indices,
        query_ids[:1],
        slot_edge=csr.slot_edge,
        edge_alive=kernel.trussness >= k,
        until_reached=others,
    )
    return bool((result.distances[others] >= 0).all())


def _component_at_k(
    kernel: QueryKernel, root: int, k: int
) -> tuple[list[int], list[int]]:
    """Frontier-BFS the component of ``root`` in the trussness >= k subgraph.

    Returns sorted node ids and sorted edge ids of the component.  An edge
    qualifies iff its trussness is >= ``k`` and one endpoint was visited —
    the BFS traverses exactly the qualifying edges, so a visited endpoint
    implies a visited edge, and one vectorized mask recovers the component's
    edge set without per-edge Python probing.
    """
    csr = kernel.csr
    qualifying = kernel.trussness >= k
    result = masked_bfs(
        csr.indptr,
        csr.indices,
        [root],
        slot_edge=csr.slot_edge,
        edge_alive=qualifying,
    )
    visited = result.distances >= 0
    component_edges = np.nonzero(qualifying & visited[csr.edge_u])[0]
    return np.nonzero(visited)[0].tolist(), component_edges.tolist()


def find_g0(
    kernel: QueryKernel, query_ids: list[int]
) -> tuple[list[int], list[int], int]:
    """Return ``(node_ids, edge_ids, k)`` of the paper's ``G0`` for the query.

    Results are identical to the dict path's
    :func:`~repro.trusses.extraction.find_maximal_connected_truss`
    (node/edge sets and ``k``), modulo the id-vs-label representation.

    Raises
    ------
    NoCommunityFoundError
        If no connected k-truss (k >= 2) contains all query nodes.
    """
    vertex_tau = kernel.vertex_trussness
    upper_bound = min(vertex_tau[node] for node in query_ids)
    if upper_bound < 2:
        # Some query vertex is isolated; a single isolated query node is its
        # own trivial community (k = 2 by convention), mirroring the dict path.
        if len(query_ids) == 1:
            return [query_ids[0]], [], 2
        raise NoCommunityFoundError(
            "a query node is isolated; no connected truss contains the whole query"
        )
    if len(query_ids) == 1:
        # A single node is trivially connected at its own vertex trussness
        # (Lemma 1's upper bound is attained immediately).
        node = query_ids[0]
        component_nodes, component_edges = _component_at_k(kernel, node, upper_bound)
        return component_nodes, component_edges, upper_bound

    answer = _find_level(kernel, query_ids, upper_bound)
    if answer is None:
        raise NoCommunityFoundError(
            f"no connected k-truss (k >= 2) contains all query nodes "
            f"{[kernel.csr.node_label(node) for node in query_ids]!r}"
        )
    component_nodes, component_edges = _component_at_k(kernel, query_ids[0], answer)
    return component_nodes, component_edges, answer


def connected_truss_at_k(
    kernel: QueryKernel, query_ids: list[int], k: int
) -> tuple[list[int], list[int]]:
    """Return the connected k-truss containing the query at the *given* ``k``.

    Array twin of :func:`~repro.trusses.extraction.find_connected_truss_at_k`
    (the Figure 14 "given k" variant): the component of the ``{tau >= k}``
    subgraph containing all query nodes, where query nodes count as present
    even when isolated at that level (a lone query node is its own
    single-node component).

    Raises
    ------
    QueryError
        If ``k < 2``.
    NoCommunityFoundError
        If the query nodes are not connected in the maximal k-truss.
    """
    if k < 2:
        raise QueryError(f"trussness level must be >= 2, got {k}")
    component_nodes, component_edges = _component_at_k(kernel, query_ids[0], k)
    members = set(component_nodes)
    if any(node not in members for node in query_ids[1:]):
        raise NoCommunityFoundError(
            f"query nodes are not connected in the maximal {k}-truss"
        )
    return component_nodes, component_edges
