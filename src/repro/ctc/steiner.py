"""Steiner trees under the *truss distance* (Definition 7).

LCTC (Algorithm 5) seeds its local exploration with a Steiner tree over the
query nodes.  A plain hop-count Steiner tree can run through low-trussness
bridges (the ``(q1, t), (t, q3)`` example of Section 5.2), which would doom
the subsequent expansion to a low-trussness community.  The paper therefore
scores a path ``P`` by

    truss_dist(P) = len(P) + gamma * (tau_bar(empty) - min_{e in P} tau(e))

i.e. hop length plus a penalty for the weakest edge on the path.

Because the penalty depends on the *minimum* edge trussness of the path (not
a per-edge sum), the shortest truss-distance path is computed exactly by a
threshold sweep: for every candidate trussness level ``t`` (in decreasing
order) run a BFS restricted to edges with trussness >= ``t``; the best
``hops + gamma * (tau_bar - t)`` over all levels is the true minimum, because
any path with bottleneck trussness ``t`` is available (and no longer than the
BFS distance) at threshold ``t``.

The tree itself follows the classic Kou–Markowsky–Berman 2-approximation:
metric closure over the terminals under the truss distance, minimum spanning
tree of the closure, expansion of closure edges back into their witness
paths, and pruning of non-terminal leaves.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Sequence

from repro.exceptions import QueryError
from repro.graph.components import UnionFind
from repro.graph.keys import edge_key
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.index import TrussIndex

__all__ = [
    "truss_distance_between",
    "truss_distance_closure",
    "build_truss_steiner_tree",
    "minimum_trussness_of_tree",
]

_INF = float("inf")


def _restricted_bfs_paths(
    index: TrussIndex,
    source: Hashable,
    targets: set[Hashable],
    threshold: int,
    cutoff: float,
) -> dict[Hashable, list[Hashable]]:
    """BFS from ``source`` over edges with trussness >= ``threshold``.

    Returns a path for every target reached within ``cutoff`` hops.
    """
    parents: dict[Hashable, Hashable | None] = {source: None}
    depth: dict[Hashable, int] = {source: 0}
    remaining = set(targets)
    remaining.discard(source)
    found: dict[Hashable, list[Hashable]] = {}
    if source in targets:
        found[source] = [source]
    queue: deque[Hashable] = deque([source])
    while queue and remaining:
        node = queue.popleft()
        next_depth = depth[node] + 1
        if next_depth > cutoff:
            continue
        for neighbor, _trussness in index.incident_edges_at_least(node, threshold):
            if neighbor in parents:
                continue
            parents[neighbor] = node
            depth[neighbor] = next_depth
            if neighbor in remaining:
                remaining.discard(neighbor)
                path = [neighbor]
                current = node
                while current is not None:
                    path.append(current)
                    current = parents[current]
                path.reverse()
                found[neighbor] = path
            queue.append(neighbor)
    return found


def truss_distance_between(
    index: TrussIndex,
    source: Hashable,
    target: Hashable,
    gamma: float,
    levels: Sequence[int] | None = None,
) -> tuple[float, list[Hashable] | None]:
    """Return ``(truss distance, witness path)`` between two nodes.

    ``levels`` may restrict the candidate bottleneck-trussness values; by
    default every distinct edge-trussness level of the graph is considered.
    Returns ``(inf, None)`` when the nodes are disconnected.
    """
    if source == target:
        return 0.0, [source]
    tau_bar = index.max_trussness()
    candidate_levels = sorted(levels if levels is not None else index.trussness_levels(), reverse=True)
    best_value = _INF
    best_path: list[Hashable] | None = None
    for threshold in candidate_levels:
        penalty = gamma * (tau_bar - threshold)
        if best_path is not None and penalty + 1 >= best_value:
            # Lower thresholds only increase the penalty; nothing can improve.
            break
        cutoff = best_value - penalty if best_value < _INF else _INF
        paths = _restricted_bfs_paths(index, source, {target}, threshold, cutoff)
        path = paths.get(target)
        if path is None:
            continue
        value = (len(path) - 1) + penalty
        if value < best_value:
            best_value = value
            best_path = path
    return best_value, best_path


def truss_distance_closure(
    index: TrussIndex, terminals: Sequence[Hashable], gamma: float
) -> dict[tuple[Hashable, Hashable], tuple[float, list[Hashable]]]:
    """Return the truss-distance metric closure over ``terminals``.

    Maps every unordered terminal pair (canonical edge key) to its truss
    distance and a witness path.  Pairs in different connected components are
    omitted.
    """
    closure: dict[tuple[Hashable, Hashable], tuple[float, list[Hashable]]] = {}
    terminal_list = list(dict.fromkeys(terminals))
    for position, source in enumerate(terminal_list):
        for target in terminal_list[position + 1:]:
            value, path = truss_distance_between(index, source, target, gamma)
            if path is not None:
                closure[edge_key(source, target)] = (value, path)
    return closure


def build_truss_steiner_tree(
    index: TrussIndex, terminals: Sequence[Hashable], gamma: float
) -> UndirectedGraph:
    """Return a Steiner tree over ``terminals`` under the truss distance.

    Follows Kou–Markowsky–Berman with the truss-distance metric closure.  A
    single terminal yields a single-node tree.

    Raises
    ------
    QueryError
        If ``terminals`` is empty or some pair of terminals is disconnected.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise QueryError("cannot build a Steiner tree over an empty terminal set")
    tree = UndirectedGraph()
    if len(terminal_list) == 1:
        tree.add_node(terminal_list[0])
        return tree

    closure = truss_distance_closure(index, terminal_list, gamma)

    # Kruskal MST over the metric closure.
    union_find = UnionFind(terminal_list)
    chosen_pairs: list[tuple[Hashable, Hashable]] = []
    for (u, v), (_value, _path) in sorted(closure.items(), key=lambda item: (item[1][0], repr(item[0]))):
        if union_find.union(u, v):
            chosen_pairs.append((u, v))
    roots = {union_find.find(node) for node in terminal_list}
    if len(roots) > 1:
        raise QueryError("terminals are not mutually connected; no Steiner tree exists")

    # Expand closure edges back into witness paths.
    expanded = UndirectedGraph()
    for u, v in chosen_pairs:
        _value, path = closure[edge_key(u, v)]
        for first, second in zip(path, path[1:]):
            expanded.add_edge(first, second)

    # Spanning tree of the expansion, preferring high-trussness edges, then
    # prune non-terminal leaves (final KMB step).
    spanning = _minimum_spanning_tree(expanded, index, gamma)
    _prune_nonterminal_leaves(spanning, set(terminal_list))
    return spanning


def _minimum_spanning_tree(
    graph: UndirectedGraph, index: TrussIndex, gamma: float
) -> UndirectedGraph:
    """Kruskal spanning tree of ``graph`` with weight ``1 + gamma * (tau_bar - tau(e))``."""
    tau_bar = index.max_trussness()

    def weight(edge: tuple[Hashable, Hashable]) -> float:
        return 1.0 + gamma * (tau_bar - index.edge_trussness(*edge))

    union_find = UnionFind(graph.nodes())
    tree = UndirectedGraph()
    tree.add_nodes_from(graph.nodes())
    for u, v in sorted(graph.edges(), key=lambda edge: (weight(edge), repr(edge))):
        if union_find.union(u, v):
            tree.add_edge(u, v)
    return tree


def _prune_nonterminal_leaves(tree: UndirectedGraph, terminals: set[Hashable]) -> None:
    """Repeatedly strip degree-<=1 non-terminal nodes from ``tree`` in place."""
    changed = True
    while changed:
        changed = False
        for node in list(tree.nodes()):
            if node not in terminals and tree.degree(node) <= 1:
                tree.remove_node(node)
                changed = True


def minimum_trussness_of_tree(index: TrussIndex, tree: UndirectedGraph) -> int:
    """Return ``k_t = min_{e in T} tau(e)`` (Algorithm 5, line 2).

    For an edge-less tree (single terminal) the vertex trussness of that
    terminal is returned, which is the natural upper bound for the expansion.
    """
    edges = list(tree.edges())
    if not edges:
        nodes = list(tree.nodes())
        return index.vertex_trussness(nodes[0]) if nodes else 2
    return min(index.edge_trussness(u, v) for u, v in edges)
