"""Truss-distance Steiner trees on the sorted-adjacency arrays.

Array twin of :mod:`repro.ctc.steiner` (Definition 7 + the
Kou–Markowsky–Berman 2-approximation).  The expensive part — the
threshold-sweep BFS that computes exact truss distances — runs as a scalar
queue over the kernel's trussness-sorted rows with int ids, one sweep per
source terminal rather than per terminal pair; the KMB
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
    "truss_distances_from",
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


def truss_distances_from(
    kernel: QueryKernel, source: int, targets: list[int], gamma: float
) -> dict[int, tuple[float, list[int]]]:
    """Return ``{target: (truss distance, witness id path)}`` from ``source``.

    The threshold sweep over decreasing trussness levels is exact for the
    min-bottleneck metric (see :mod:`repro.ctc.steiner`).  One sweep serves
    every target: each level runs one BFS towards the targets still able to
    improve, cut off at the largest of their hop budgets.  A BFS tree up to
    depth ``d`` does not depend on how much deeper the search may go, so
    each target gets the value and witness path a sweep of its own would
    return.  Targets the source cannot reach are left out.
    """
    tau_bar = kernel.max_trussness
    best: dict[int, tuple[float, list[int]]] = {}
    active = set(targets)
    for threshold in kernel.levels:
        penalty = gamma * (tau_bar - threshold)
        # A target stops once no shorter witness can beat its best value.
        active = {
            target for target in active
            if target not in best or penalty + 1 < best[target][0]
        }
        if not active:
            break
        cutoff = max(
            best[target][0] - penalty if target in best else _INF for target in active
        )
        paths = _restricted_bfs_paths(kernel, source, active, threshold, cutoff)
        for target, path in paths.items():
            value = (len(path) - 1) + penalty
            if target not in best or value < best[target][0]:
                best[target] = (value, path)
    return best


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

    # Metric closure: truss distance + witness path for every terminal pair,
    # one threshold sweep per source terminal.
    closure: dict[tuple[int, int], tuple[float, list[int], str]] = {}
    for position, source in enumerate(terminals[:-1]):
        targets = terminals[position + 1:]
        reached = truss_distances_from(kernel, source, targets, gamma)
        for target in targets:
            if target in reached:
                value, path = reached[target]
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
