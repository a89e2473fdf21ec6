"""The shared peel engine of Basic/BulkDelete, array-native on the snapshot.

This is the twin of :meth:`repro.ctc.basic.BasicCTC._peel` +
:class:`~repro.trusses.maintenance.KTrussMaintainer`, and it ships **two**
interchangeable engines behind one ``peel()`` entry point:

* the **array engine** (``engine="array"``, the default at or above
  :data:`DEFAULT_ARRAY_THRESHOLD` working edges): the working subgraph is
  *never materialized* — it lives as node-alive/edge-alive masks over the
  :class:`~repro.ctc.kernels.context.QueryKernel`'s CSR plus a
  :func:`~repro.graph.csr_triangles.subset_incidence` restriction of the
  snapshot's triangle enumeration.  Per iteration, query distances come
  from the masked frontier BFS of :mod:`repro.graph.csr_bfs` (one
  multi-round scatter/gather pass per query node, fused with the
  ``connect_G(Q)`` check), victims fall out of an argmax / threshold mask
  over ``(distance, non-query, repr rank)`` arrays, and Algorithm 3's
  cascade is the same
  :class:`~repro.trusses.csr_decomposition.IncidencePeelState` scatter/scan
  round machinery the level-synchronous full decomposition peels with —
  dead-triangle flag dedup, one ``np.bincount`` support drop per round —
  pinned at the community's fixed threshold ``k - 2``;
* the **dict engine** (``engine="dict"``): the original int-keyed
  adjacency-map implementation, retained as the small-subgraph fallback —
  below a couple hundred edges the fixed cost of the numpy passes exceeds
  the whole Python peel (the same crossover
  :mod:`repro.trusses.csr_decomposition` measured for full rebuilds).

Both engines mirror the dict path's tie-breaks (``repr`` ranks instead of
``repr`` strings), so for the same starting truss all three peel the same
vertices in the same order and return identical best graphs — enforced by
``tests/ctc/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.ctc.kernels.context import QueryKernel
from repro.graph.csr_bfs import fold_query_distance, masked_bfs
from repro.graph.csr_triangles import TriangleIncidence, subset_incidence
from repro.trusses.csr_decomposition import IncidencePeelState

__all__ = [
    "DEFAULT_ARRAY_THRESHOLD",
    "PeelOutcome",
    "peel",
    "basic_selector",
    "bulk_delete_selector",
    "subgraph_adjacency",
    "query_distances",
]

_INF = float("inf")

#: ``engine="auto"`` peels on the array engine at or above this many working
#: edges and on the dict engine below it (the numpy rounds have a fixed cost
#: the tiny-subgraph Python peel undercuts — the same regime split as
#: :data:`repro.trusses.csr_decomposition.DEFAULT_VECTOR_THRESHOLD`).
DEFAULT_ARRAY_THRESHOLD = 256


class PeelOutcome:
    """What one peel run produced (the kernel twin of ``_peel``'s tuple)."""

    __slots__ = ("node_ids", "edge_ids", "query_distance", "iterations", "timed_out")

    def __init__(
        self,
        node_ids: set[int],
        edge_ids: set[int],
        query_distance: float,
        iterations: int,
        timed_out: bool,
    ) -> None:
        self.node_ids = node_ids
        self.edge_ids = edge_ids
        self.query_distance = query_distance
        self.iterations = iterations
        self.timed_out = timed_out


# ----------------------------------------------------------------------
# victim selection (both engines, shared per-run state)
# ----------------------------------------------------------------------
def _top_k_by_distance_rank(
    nodes: np.ndarray, distances: np.ndarray, rank_of: np.ndarray, limit: int
) -> np.ndarray:
    """Exact top-``limit`` of ``nodes`` under the ``(distance, repr rank)`` order.

    ``np.argpartition`` twice instead of a full sort: once on distance to
    find the boundary value, once on rank among the boundary ties.  Ranks
    are unique per node, so the composite key is a total order and the
    selected *set* matches ``sorted(..., reverse=True)[:limit]`` exactly.
    """
    boundary_position = np.argpartition(distances, nodes.size - limit)[nodes.size - limit]
    boundary = distances[boundary_position]
    chosen = nodes[distances > boundary]
    need = limit - int(chosen.size)
    if need > 0:
        ties = nodes[distances == boundary]
        if need < ties.size:
            tie_ranks = rank_of[ties]
            keep = np.argpartition(tie_ranks, ties.size - need)[ties.size - need:]
            ties = ties[keep]
        chosen = np.concatenate([chosen, ties])
    return chosen


class _BasicSelector:
    """Algorithm 1's rule: the single farthest vertex (ties like the dict path).

    Ties on distance prefer non-query vertices, then the largest ``repr``
    rank — matching
    :meth:`~repro.ctc.query_distance.QueryDistanceSnapshot.farthest_vertex`.
    Peeling stops (empty victim set) once the farthest distance is 0.
    """

    __slots__ = ("_query_set", "_query_mask", "_rank", "_rank_array")

    def __init__(self, kernel: QueryKernel, query_ids: list[int]) -> None:
        self._query_set = set(query_ids)
        self._rank = kernel.repr_rank
        self._rank_array = kernel.repr_rank_array
        mask = np.zeros(kernel.csr.number_of_nodes(), dtype=bool)
        mask[np.asarray(query_ids, dtype=np.int64)] = True
        self._query_mask = mask

    def select_table(self, distances: dict[int, float]) -> set[int]:
        rank = self._rank
        query_set = self._query_set
        best_node: int | None = None
        best_key: tuple[float, bool, int] | None = None
        for node, distance in distances.items():
            key = (distance, node not in query_set, rank[node])
            if best_key is None or key > best_key:
                best_key = key
                best_node = node
        if best_node is None or distances[best_node] <= 0:
            return set()
        return {best_node}

    def select_array(self, maxima: np.ndarray, alive_nodes: np.ndarray) -> np.ndarray:
        if alive_nodes.size == 0:
            return alive_nodes
        local = maxima[alive_nodes]
        best = local.max()
        if best <= 0:
            return alive_nodes[:0]
        candidates = alive_nodes[local == best]
        non_query = candidates[~self._query_mask[candidates]]
        if non_query.size:
            candidates = non_query
        return candidates[[np.argmax(self._rank_array[candidates])]]


class _BulkDeleteSelector:
    """Algorithm 4's rule: every vertex at distance >= d - ``threshold_offset``.

    ``d`` is the smallest graph query distance seen so far (per-run state,
    reset per search exactly like ``BulkDeleteCTC``); a finite
    ``batch_limit`` keeps only the vertices ranked farthest by
    ``(distance, repr rank)``, the dict path's tie-break, selected with
    :func:`_top_k_by_distance_rank` instead of a full sort.
    """

    __slots__ = ("_rank", "_rank_array", "_offset", "_limit", "_best_seen")

    def __init__(
        self,
        kernel: QueryKernel,
        query_ids: list[int],
        threshold_offset: int,
        batch_limit: int | None,
    ) -> None:
        del query_ids  # Algorithm 4's bulk set does not exclude query nodes.
        self._rank = kernel.repr_rank
        self._rank_array = kernel.repr_rank_array
        self._offset = threshold_offset
        self._limit = batch_limit
        self._best_seen = _INF

    def select_table(self, distances: dict[int, float]) -> set[int]:
        current = max(distances.values()) if distances else 0.0
        if current <= 0:
            return set()
        if current < self._best_seen:
            self._best_seen = current
        threshold = self._best_seen - self._offset
        if threshold <= 0:
            return set()
        victims = [node for node, distance in distances.items() if distance >= threshold]
        if not victims:
            return set()
        if self._limit is not None and len(victims) > self._limit:
            nodes = np.asarray(victims, dtype=np.int64)
            dist = np.asarray([distances[node] for node in victims], dtype=np.float64)
            return set(
                _top_k_by_distance_rank(nodes, dist, self._rank_array, self._limit).tolist()
            )
        return set(victims)

    def select_array(self, maxima: np.ndarray, alive_nodes: np.ndarray) -> np.ndarray:
        if alive_nodes.size == 0:
            return alive_nodes
        local = maxima[alive_nodes]
        current = float(local.max())
        if current <= 0:
            return alive_nodes[:0]
        if current < self._best_seen:
            self._best_seen = current
        threshold = self._best_seen - self._offset
        if threshold <= 0:
            return alive_nodes[:0]
        hit = local >= threshold
        victims = alive_nodes[hit]
        if self._limit is not None and victims.size > self._limit:
            victims = _top_k_by_distance_rank(
                victims, local[hit], self._rank_array, self._limit
            )
        return victims


#: A victim-selection rule: per iteration, maps the current distances to the
#: vertex set to peel (empty = stop), through whichever of its two views
#: (``select_table`` / ``select_array``) the active engine drives.
VictimSelector = _BasicSelector | _BulkDeleteSelector


def basic_selector(kernel: QueryKernel, query_ids: list[int]) -> VictimSelector:
    """Build Algorithm 1's single-farthest-vertex selection rule."""
    return _BasicSelector(kernel, query_ids)


def bulk_delete_selector(
    kernel: QueryKernel,
    query_ids: list[int],
    threshold_offset: int = 1,
    batch_limit: int | None = None,
) -> VictimSelector:
    """Build Algorithm 4's bulk threshold selection rule."""
    return _BulkDeleteSelector(kernel, query_ids, threshold_offset, batch_limit)


# ----------------------------------------------------------------------
# dict engine (the small-subgraph fallback)
# ----------------------------------------------------------------------
def subgraph_adjacency(
    kernel: QueryKernel, node_ids: list[int], edge_ids: list[int]
) -> dict[int, dict[int, int]]:
    """Build ``{node: {neighbour: edge id}}`` maps for a subgraph."""
    edge_u, edge_v = kernel.edge_u, kernel.edge_v
    adjacency: dict[int, dict[int, int]] = {node: {} for node in node_ids}
    for edge in edge_ids:
        u, v = edge_u[edge], edge_v[edge]
        adjacency[u][v] = edge
        adjacency[v][u] = edge
    return adjacency


def _supports(adjacency: dict[int, dict[int, int]]) -> dict[int, int]:
    """Support of every edge of the subgraph (C-speed keys-view intersection)."""
    supports: dict[int, int] = {}
    for node, row in adjacency.items():
        keys = row.keys()
        for other, edge in row.items():
            if node > other:
                continue
            supports[edge] = len(keys & adjacency[other].keys())
    return supports


def query_distances(
    adjacency: dict[int, dict[int, int]], query_ids: list[int]
) -> dict[int, float]:
    """``dist(v, Q) = max_q dist(v, q)`` for every subgraph node (BFS per q)."""
    maxima: dict[int, float] = {node: 0.0 for node in adjacency}
    for source in query_ids:
        distances = {source: 0}
        queue: deque[int] = deque([source])
        while queue:
            node = queue.popleft()
            next_distance = distances[node] + 1
            for neighbor in adjacency[node]:
                if neighbor not in distances:
                    distances[neighbor] = next_distance
                    queue.append(neighbor)
        for node in maxima:
            distance = distances.get(node, _INF)
            if distance > maxima[node]:
                maxima[node] = distance
    return maxima


def _query_connected(
    adjacency: dict[int, dict[int, int]], query_ids: list[int]
) -> bool:
    """``connect_G(Q)``: all query nodes present and in one component.

    The BFS stops as soon as every query node has been seen — peeling
    shrinks the graph *around* the query, so the queries usually sit close
    together and the component tail never needs walking.
    """
    if any(node not in adjacency for node in query_ids):
        return False
    if len(query_ids) == 1:
        return True
    root = query_ids[0]
    remaining = set(query_ids)
    remaining.discard(root)
    seen = {root}
    queue: deque[int] = deque([root])
    while queue and remaining:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                remaining.discard(neighbor)
                queue.append(neighbor)
    return not remaining


def _cascade_delete(
    kernel: QueryKernel,
    adjacency: dict[int, dict[int, int]],
    supports: dict[int, int],
    alive_edges: set[int],
    victims: set[int],
    k: int,
) -> None:
    """Algorithm 3 on adjacency maps: delete ``victims``, restore the k-truss.

    Mutates ``adjacency``, ``supports`` and ``alive_edges`` in place; the
    fixpoint (the maximal sub-structure where every edge keeps support >=
    k - 2, minus newly isolated vertices) is unique, so any processing
    order matches the dict path's result.
    """
    edge_u, edge_v = kernel.edge_u, kernel.edge_v
    removal_queue: deque[int] = deque()
    queued: set[int] = set()
    present_victims = [node for node in victims if node in adjacency]
    for node in present_victims:
        for edge in adjacency[node].values():
            if edge not in queued:
                queued.add(edge)
                removal_queue.append(edge)

    while removal_queue:
        edge = removal_queue.popleft()
        if edge not in alive_edges:
            continue
        u, v = edge_u[edge], edge_v[edge]
        row_u, row_v = adjacency[u], adjacency[v]
        smaller, larger = (row_u, row_v) if len(row_u) <= len(row_v) else (row_v, row_u)
        for w, first in smaller.items():
            second = larger.get(w)
            if second is None:
                continue
            for side in (first, second):
                if side in queued:
                    continue
                supports[side] -= 1
                if supports[side] < k - 2:
                    queued.add(side)
                    removal_queue.append(side)
        del row_u[v]
        del row_v[u]
        supports.pop(edge, None)
        alive_edges.discard(edge)

    for node in present_victims:
        del adjacency[node]
    for node in [node for node, row in adjacency.items() if not row]:
        del adjacency[node]


def _dict_peel(
    kernel: QueryKernel,
    node_ids: list[int],
    edge_ids: list[int],
    k: int,
    query_ids: list[int],
    selector: VictimSelector,
    start_time: float,
    time_budget: float | None,
    max_iterations: int | None,
    incidence: TriangleIncidence | None,
) -> PeelOutcome:
    """The original adjacency-map peel loop (small working subgraphs)."""
    adjacency = subgraph_adjacency(kernel, node_ids, edge_ids)
    if incidence is not None:
        # The caller's subset incidence already counted every triangle of the
        # working subgraph; seed the support table from it instead of paying
        # the per-edge keys-view intersections again.
        supports = dict(zip(sorted(edge_ids), incidence.supports.tolist()))
    else:
        supports = _supports(adjacency)
    alive_edges = set(edge_ids)
    best_nodes = set(node_ids)
    best_edges = set(edge_ids)
    best_distance = _INF
    iterations = 0
    timed_out = False

    while _query_connected(adjacency, query_ids):
        distances = query_distances(adjacency, query_ids)
        current_distance = max(distances.values()) if distances else 0.0
        if current_distance < best_distance:
            best_distance = current_distance
            best_nodes = set(adjacency)
            best_edges = set(alive_edges)
        if time_budget is not None and time.perf_counter() - start_time > time_budget:
            timed_out = True
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        victims = selector.select_table(distances)
        if not victims:
            break
        _cascade_delete(kernel, adjacency, supports, alive_edges, victims, k)
        iterations += 1
    return PeelOutcome(best_nodes, best_edges, best_distance, iterations, timed_out)


# ----------------------------------------------------------------------
# array engine
# ----------------------------------------------------------------------
def _array_cascade(
    kernel: QueryKernel,
    state: IncidencePeelState,
    sub_edges: np.ndarray,
    local_of_edge: np.ndarray,
    edge_alive_full: np.ndarray,
    node_alive: np.ndarray,
    alive_degree: np.ndarray,
    victims: np.ndarray,
    k: int,
) -> None:
    """Algorithm 3 on masks: delete ``victims``, restore the k-truss property.

    The victims' still-alive incident edges seed the frontier; each round
    kills the frontier (both the local alive flags the incidence peel reads
    and the full-graph mask the BFS reads), drops the dead triangles'
    surviving supports by one bincount, and promotes the edges that fell
    strictly below ``k - 2`` — :meth:`IncidencePeelState.drop_frontier`
    with the threshold pinned at ``k - 3``.  Newly isolated vertices die
    with their last edge, mirroring the adjacency-map cleanup.
    """
    csr = kernel.csr
    indptr = csr.indptr
    starts = indptr[victims]
    counts = indptr[victims + 1] - starts
    total = int(counts.sum())
    if total:
        offsets = np.cumsum(counts) - counts
        gather = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
        incident = csr.slot_edge[gather]
        incident = incident[edge_alive_full[incident]]
        frontier = state.dedup_edges(local_of_edge[incident])
    else:
        frontier = np.zeros(0, dtype=np.int64)

    num_nodes = node_alive.size
    while frontier.size:
        state.edge_alive[frontier] = False
        dead_parent = sub_edges[frontier]
        edge_alive_full[dead_parent] = False
        endpoints = np.concatenate([csr.edge_u[dead_parent], csr.edge_v[dead_parent]])
        alive_degree -= np.bincount(endpoints, minlength=num_nodes)
        frontier = state.drop_frontier(frontier, k - 3)

    node_alive[victims] = False
    # Adjacency-map cleanup twin: every vertex whose row emptied dies too.
    np.logical_and(node_alive, alive_degree > 0, out=node_alive)


def _array_peel(
    kernel: QueryKernel,
    node_ids: list[int],
    edge_ids: list[int],
    k: int,
    query_ids: list[int],
    selector: VictimSelector,
    start_time: float,
    time_budget: float | None,
    max_iterations: int | None,
    incidence: TriangleIncidence | None,
) -> PeelOutcome:
    """The masked peel loop: alive flags + incidence cascade + frontier BFS."""
    csr = kernel.csr
    num_nodes = csr.number_of_nodes()
    num_edges = csr.number_of_edges()
    sub_edges = np.sort(np.asarray(edge_ids, dtype=np.int64))
    if incidence is None:
        incidence = subset_incidence(kernel.ensure_incidence(), sub_edges)
    state = IncidencePeelState(incidence)
    local_of_edge = np.full(num_edges, -1, dtype=np.int64)
    local_of_edge[sub_edges] = np.arange(sub_edges.size, dtype=np.int64)
    edge_alive_full = np.zeros(num_edges, dtype=bool)
    edge_alive_full[sub_edges] = True
    node_alive = np.zeros(num_nodes, dtype=bool)
    node_alive[np.asarray(node_ids, dtype=np.int64)] = True
    alive_degree = np.bincount(
        csr.edge_u[sub_edges], minlength=num_nodes
    ) + np.bincount(csr.edge_v[sub_edges], minlength=num_nodes)
    query = np.asarray(query_ids, dtype=np.int64)

    # Best-graph snapshots stay as arrays until the loop ends (alive_nodes
    # and the boolean-index gather are both fresh arrays each iteration, so
    # no copies are needed); one set conversion happens at return.
    best_nodes_array: np.ndarray | None = None
    best_edges_array: np.ndarray | None = None
    best_distance = _INF
    iterations = 0
    timed_out = False
    maxima = np.zeros(num_nodes, dtype=np.float64)

    while bool(node_alive[query].all()):
        # One BFS per query node; the first doubles as the connect_G(Q)
        # check (all remaining query nodes must be reachable from it), so
        # connectivity costs no extra traversal.
        first = masked_bfs(csr, query[:1], edge_alive=edge_alive_full)
        if query.size > 1 and bool((first[query[1:]] < 0).any()):
            break
        maxima[:] = 0.0
        fold_query_distance(maxima, first)
        for source in query[1:]:
            fold_query_distance(
                maxima, masked_bfs(csr, source[None], edge_alive=edge_alive_full)
            )
        alive_nodes = np.nonzero(node_alive)[0]
        current_distance = float(maxima[alive_nodes].max()) if alive_nodes.size else 0.0
        if current_distance < best_distance:
            best_distance = current_distance
            best_nodes_array = alive_nodes
            best_edges_array = sub_edges[state.edge_alive]
        if time_budget is not None and time.perf_counter() - start_time > time_budget:
            timed_out = True
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        victims = selector.select_array(maxima, alive_nodes)
        if victims.size == 0:
            break
        _array_cascade(
            kernel,
            state,
            sub_edges,
            local_of_edge,
            edge_alive_full,
            node_alive,
            alive_degree,
            victims,
            k,
        )
        iterations += 1
    if best_nodes_array is None:
        best_nodes, best_edges = set(node_ids), set(edge_ids)
    else:
        best_nodes = set(best_nodes_array.tolist())
        best_edges = set(best_edges_array.tolist())
    return PeelOutcome(best_nodes, best_edges, best_distance, iterations, timed_out)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def peel(
    kernel: QueryKernel,
    node_ids: list[int],
    edge_ids: list[int],
    k: int,
    query_ids: list[int],
    select_victims: VictimSelector,
    *,
    start_time: float,
    time_budget: float | None = None,
    max_iterations: int | None = None,
    engine: str = "auto",
    incidence: TriangleIncidence | None = None,
) -> PeelOutcome:
    """Run the greedy peeling loop on an explicit starting truss.

    The loop structure — best-graph tracking, budget checks, victim
    selection, cascade — mirrors :meth:`BasicCTC._peel` statement for
    statement; ``engine`` picks the data representation (``"auto"``,
    ``"array"`` or ``"dict"``; see the module docstring), with identical
    results either way.  ``incidence``, when given, must be the
    :func:`~repro.graph.csr_triangles.subset_incidence` restriction to
    ``sorted(edge_ids)``; callers that already restricted one (the LCTC
    pipeline) thread it through so the peel never re-counts its starting
    supports.
    """
    if engine == "auto":
        engine = "array" if len(edge_ids) >= DEFAULT_ARRAY_THRESHOLD else "dict"
    if engine == "array":
        return _array_peel(
            kernel, node_ids, edge_ids, k, query_ids, select_victims,
            start_time, time_budget, max_iterations, incidence,
        )
    if engine != "dict":
        raise ValueError(
            f"peel engine must be 'auto', 'array' or 'dict', got {engine!r}"
        )
    return _dict_peel(
        kernel, node_ids, edge_ids, k, query_ids, select_victims,
        start_time, time_budget, max_iterations, incidence,
    )
