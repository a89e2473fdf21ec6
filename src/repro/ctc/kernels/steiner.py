"""Truss-distance Steiner trees on the sorted-adjacency arrays.

Array twin of :mod:`repro.ctc.steiner` (Definition 7 + the
Kou–Markowsky–Berman 2-approximation).  The expensive part — the
threshold-sweep BFS that computes exact truss distances — runs as a scalar
queue over the kernel's trussness-sorted rows with int ids; the KMB
scaffolding (metric closure, Kruskal passes, leaf pruning) stays
structurally identical to the dict path, including its ``repr``-keyed sort
orders, because LCTC's downstream expansion is order-sensitive: same
witness paths in, same community out.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

from repro.ctc.kernels.context import QueryKernel
from repro.exceptions import QueryError
from repro.graph.components import UnionFind
from repro.graph.keys import edge_key

__all__ = [
    "truss_distance_between",
    "build_truss_steiner_tree",
    "minimum_trussness_of_tree",
]

_INF = float("inf")


def _restricted_bfs_paths(
    kernel: QueryKernel,
    source: int,
    targets: set[int],
    threshold: int,
    cutoff: float,
) -> dict[int, list[int]]:
    """BFS from ``source`` over edges with trussness >= ``threshold``.

    Returns an id path for every target reached within ``cutoff`` hops.
    Neighbour order is the sorted-adjacency order (decreasing trussness,
    ``repr``-rank ties), so witness paths match the dict path's exactly.
    Each search touches only the nodes it reaches, so its cost follows the
    witness neighbourhood, not the snapshot's size.
    """
    bounds, neighbors, _edges, neg_tau = kernel.sorted_adjacency
    parents: dict[int, int] = {source: -1}
    depth: dict[int, int] = {source: 0}
    remaining = set(targets)
    remaining.discard(source)
    found: dict[int, list[int]] = {}
    if source in targets:
        found[source] = [source]
    queue: deque[int] = deque([source])
    while queue and remaining:
        node = queue.popleft()
        next_depth = depth[node] + 1
        if next_depth > cutoff:
            continue
        start, end = bounds[node], bounds[node + 1]
        stop = bisect_right(neg_tau, -threshold, start, end)
        for slot in range(start, stop):
            neighbor = neighbors[slot]
            if neighbor in parents:
                continue
            parents[neighbor] = node
            depth[neighbor] = next_depth
            if neighbor in remaining:
                remaining.discard(neighbor)
                path = [neighbor]
                current = node
                while current != -1:
                    path.append(current)
                    current = parents[current]
                path.reverse()
                found[neighbor] = path
            queue.append(neighbor)
    return found


def truss_distance_between(
    kernel: QueryKernel, source: int, target: int, gamma: float
) -> tuple[float, list[int] | None]:
    """Return ``(truss distance, witness id path)`` between two node ids.

    The threshold sweep over decreasing trussness levels is exact for the
    min-bottleneck metric (see :mod:`repro.ctc.steiner`); returns
    ``(inf, None)`` when the nodes are disconnected.
    """
    if source == target:
        return 0.0, [source]
    tau_bar = kernel.max_trussness
    best_value = _INF
    best_path: list[int] | None = None
    for threshold in kernel.levels:
        penalty = gamma * (tau_bar - threshold)
        if best_path is not None and penalty + 1 >= best_value:
            break
        cutoff = best_value - penalty if best_value < _INF else _INF
        paths = _restricted_bfs_paths(kernel, source, {target}, threshold, cutoff)
        path = paths.get(target)
        if path is None:
            continue
        value = (len(path) - 1) + penalty
        if value < best_value:
            best_value = value
            best_path = path
    return best_value, best_path


def _edge_repr(kernel: QueryKernel, u: int, v: int) -> str:
    """``repr`` of the canonical label-space edge key (the dict sort key)."""
    return repr(edge_key(kernel.csr.node_label(u), kernel.csr.node_label(v)))


def build_truss_steiner_tree(
    kernel: QueryKernel, terminal_ids: list[int], gamma: float
) -> tuple[set[int], set[int]]:
    """Return ``(node ids, edge ids)`` of a Steiner tree over the terminals.

    Follows Kou–Markowsky–Berman with the truss-distance metric closure,
    reproducing :func:`repro.ctc.steiner.build_truss_steiner_tree` choice
    for choice.  A single terminal yields a single-node, edge-less tree.

    Raises
    ------
    QueryError
        If ``terminal_ids`` is empty or some pair is disconnected.
    """
    terminals = list(dict.fromkeys(terminal_ids))
    if not terminals:
        raise QueryError("cannot build a Steiner tree over an empty terminal set")
    if len(terminals) == 1:
        return {terminals[0]}, set()

    # Metric closure: truss distance + witness path for every terminal pair.
    closure: dict[tuple[int, int], tuple[float, list[int], str]] = {}
    for position, source in enumerate(terminals):
        for target in terminals[position + 1:]:
            value, path = truss_distance_between(kernel, source, target, gamma)
            if path is not None:
                closure[(source, target)] = (value, path, _edge_repr(kernel, source, target))

    # Kruskal MST over the closure (sorted by distance, then key repr).
    union_find = UnionFind(terminals)
    chosen: list[tuple[int, int]] = []
    for pair, (_value, _path, _key) in sorted(
        closure.items(), key=lambda item: (item[1][0], item[1][2])
    ):
        if union_find.union(*pair):
            chosen.append(pair)
    roots = {union_find.find(node) for node in terminals}
    if len(roots) > 1:
        raise QueryError("terminals are not mutually connected; no Steiner tree exists")

    # Expand closure edges back into their witness paths.
    csr = kernel.csr
    expanded_nodes: set[int] = set()
    expanded_edges: set[int] = set()
    for pair in chosen:
        _value, path, _key = closure[pair]
        expanded_nodes.update(path)
        for first, second in zip(path, path[1:]):
            expanded_edges.add(csr.edge_id(first, second))

    # Spanning tree of the expansion (weight = 1 + gamma * (tau_bar - tau)),
    # then prune non-terminal leaves (final KMB step).
    tau = kernel.tau
    tau_bar = kernel.max_trussness
    edge_u, edge_v = kernel.edge_u, kernel.edge_v
    spanning_union = UnionFind(expanded_nodes)
    tree_edges: set[int] = set()
    for edge in sorted(
        expanded_edges,
        key=lambda e: (1.0 + gamma * (tau_bar - tau[e]), _edge_repr(kernel, edge_u[e], edge_v[e])),
    ):
        if spanning_union.union(edge_u[edge], edge_v[edge]):
            tree_edges.add(edge)

    tree_adjacency: dict[int, set[int]] = {node: set() for node in expanded_nodes}
    for edge in tree_edges:
        tree_adjacency[edge_u[edge]].add(edge_v[edge])
        tree_adjacency[edge_v[edge]].add(edge_u[edge])
    terminal_set = set(terminals)
    leaves = deque(
        node for node, row in tree_adjacency.items()
        if len(row) <= 1 and node not in terminal_set
    )
    while leaves:
        node = leaves.popleft()
        if node not in tree_adjacency:
            continue
        for neighbor in tree_adjacency.pop(node):
            row = tree_adjacency[neighbor]
            row.discard(node)
            tree_edges.discard(kernel.csr.edge_id(node, neighbor))
            if len(row) <= 1 and neighbor not in terminal_set:
                leaves.append(neighbor)
    return set(tree_adjacency), tree_edges


def minimum_trussness_of_tree(
    kernel: QueryKernel, tree_nodes: set[int], tree_edges: set[int]
) -> int:
    """``k_t = min_{e in T} tau(e)`` (Algorithm 5, line 2).

    An edge-less tree (single terminal) falls back to that terminal's
    vertex trussness; an empty tree returns 2 — both as in the dict path.
    """
    if not tree_edges:
        if tree_nodes:
            return kernel.vertex_trussness[next(iter(tree_nodes))]
        return 2
    tau = kernel.tau
    return min(tau[edge] for edge in tree_edges)
