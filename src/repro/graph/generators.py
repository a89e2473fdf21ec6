"""Synthetic graph generators used as dataset substrates.

The paper evaluates on six SNAP networks (Facebook, Amazon, DBLP, Youtube,
LiveJournal, Orkut) with ground-truth communities.  Those raw datasets are
not available offline, so the reproduction generates laptop-scale synthetic
networks with the *structural features the algorithms are sensitive to*:

* dense overlapping communities (so non-trivial k-trusses exist),
* heavy-tailed degree distributions (so degree-rank query generation and the
  "free rider" phenomenon behave like the paper describes),
* a connected backbone (the paper assumes connected graphs), and
* planted ground-truth community memberships (for the F1 evaluation of
  Figure 12).

Every generator is deterministic given a seed and returns plain
:class:`~repro.graph.simple_graph.UndirectedGraph` objects.
"""

from __future__ import annotations

import random

from repro.exceptions import ConfigurationError
from repro.graph.simple_graph import UndirectedGraph

__all__ = [
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "relaxed_caveman_graph",
    "planted_partition_graph",
    "overlapping_community_graph",
    "random_regular_ish_graph",
    "connect_components",
]


def complete_graph(num_nodes: int, offset: int = 0) -> UndirectedGraph:
    """Return the complete graph on ``num_nodes`` nodes labelled ``offset..``."""
    graph = UndirectedGraph()
    nodes = list(range(offset, offset + num_nodes))
    graph.add_nodes_from(nodes)
    for index, u in enumerate(nodes):
        for v in nodes[index + 1:]:
            graph.add_edge(u, v)
    return graph


def cycle_graph(num_nodes: int, offset: int = 0) -> UndirectedGraph:
    """Return a cycle on ``num_nodes >= 3`` nodes."""
    if num_nodes < 3:
        raise ConfigurationError("cycle_graph needs at least 3 nodes")
    graph = UndirectedGraph()
    for index in range(num_nodes):
        graph.add_edge(offset + index, offset + (index + 1) % num_nodes)
    return graph


def path_graph(num_nodes: int, offset: int = 0) -> UndirectedGraph:
    """Return a simple path on ``num_nodes`` nodes."""
    graph = UndirectedGraph()
    if num_nodes == 1:
        graph.add_node(offset)
        return graph
    for index in range(num_nodes - 1):
        graph.add_edge(offset + index, offset + index + 1)
    return graph


def star_graph(num_leaves: int, offset: int = 0) -> UndirectedGraph:
    """Return a star with one hub (node ``offset``) and ``num_leaves`` leaves."""
    graph = UndirectedGraph()
    graph.add_node(offset)
    for index in range(1, num_leaves + 1):
        graph.add_edge(offset, offset + index)
    return graph


def erdos_renyi_graph(num_nodes: int, probability: float, seed: int = 0) -> UndirectedGraph:
    """Return a G(n, p) random graph."""
    if not 0.0 <= probability <= 1.0:
        raise ConfigurationError(f"edge probability must be in [0, 1], got {probability}")
    rng = random.Random(seed)
    graph = UndirectedGraph()
    graph.add_nodes_from(range(num_nodes))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < probability:
                graph.add_edge(u, v)
    return graph


def barabasi_albert_graph(num_nodes: int, edges_per_node: int, seed: int = 0) -> UndirectedGraph:
    """Return a preferential-attachment graph with ``edges_per_node`` new edges per node.

    Produces the heavy-tailed degree distributions the paper's degree-rank
    experiments (Figures 7-8) rely on.
    """
    if edges_per_node < 1 or edges_per_node >= num_nodes:
        raise ConfigurationError(
            f"edges_per_node must satisfy 1 <= m < n, got m={edges_per_node}, n={num_nodes}"
        )
    rng = random.Random(seed)
    graph = complete_graph(edges_per_node + 1)
    # Repeated-node list implements preferential attachment in O(1) sampling.
    attachment_pool: list[int] = []
    for node in graph.nodes():
        attachment_pool.extend([node] * graph.degree(node))
    for new_node in range(edges_per_node + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < edges_per_node:
            targets.add(rng.choice(attachment_pool))
        for target in targets:
            graph.add_edge(new_node, target)
            attachment_pool.append(target)
            attachment_pool.append(new_node)
    return graph


def relaxed_caveman_graph(
    num_cliques: int,
    clique_size: int,
    rewire_probability: float,
    seed: int = 0,
) -> UndirectedGraph:
    """Return a relaxed caveman graph: cliques whose edges get randomly rewired.

    Classic small benchmark with crisp community structure; each clique is a
    ``clique_size``-truss before rewiring, which makes it a good smoke-test
    substrate for the truss machinery.
    """
    rng = random.Random(seed)
    graph = UndirectedGraph()
    nodes_per_group: list[list[int]] = []
    for group in range(num_cliques):
        members = list(range(group * clique_size, (group + 1) * clique_size))
        nodes_per_group.append(members)
        for index, u in enumerate(members):
            for v in members[index + 1:]:
                graph.add_edge(u, v)
    all_nodes = list(graph.nodes())
    for u, v in list(graph.edges()):
        if rng.random() < rewire_probability:
            new_target = rng.choice(all_nodes)
            if new_target != u and not graph.has_edge(u, new_target):
                graph.remove_edge(u, v)
                graph.add_edge(u, new_target)
    return graph


def planted_partition_graph(
    num_groups: int,
    group_size: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
) -> tuple[UndirectedGraph, list[set[int]]]:
    """Return a planted-partition graph and its ground-truth groups.

    Nodes are split into ``num_groups`` blocks of ``group_size``; two nodes in
    the same block are connected with probability ``p_in``, nodes in different
    blocks with probability ``p_out``.
    """
    if not (0 <= p_out <= p_in <= 1):
        raise ConfigurationError("need 0 <= p_out <= p_in <= 1 for a planted partition")
    rng = random.Random(seed)
    graph = UndirectedGraph()
    total = num_groups * group_size
    graph.add_nodes_from(range(total))
    membership = [node // group_size for node in range(total)]
    for u in range(total):
        for v in range(u + 1, total):
            probability = p_in if membership[u] == membership[v] else p_out
            if rng.random() < probability:
                graph.add_edge(u, v)
    groups = [
        {node for node in range(total) if membership[node] == group}
        for group in range(num_groups)
    ]
    return graph, groups


def overlapping_community_graph(
    num_nodes: int,
    num_communities: int,
    community_size_range: tuple[int, int],
    memberships_per_node: int = 1,
    p_in: float = 0.6,
    p_background: float = 0.001,
    seed: int = 0,
) -> tuple[UndirectedGraph, list[set[int]]]:
    """Return an AGM-style graph with overlapping planted communities.

    This is the workhorse generator for the SNAP stand-ins.  It follows the
    affiliation-graph intuition behind the SNAP ground-truth communities
    (Yang & Leskovec): each node joins ``memberships_per_node`` communities on
    average, members of the same community connect with probability ``p_in``,
    and a sparse background G(n, p_background) keeps the network connected
    and adds "free rider" periphery around the dense cores.

    Returns the graph and the list of ground-truth community node sets.
    """
    low, high = community_size_range
    if low < 3 or high < low:
        raise ConfigurationError("community sizes must satisfy 3 <= low <= high")
    rng = random.Random(seed)
    graph = UndirectedGraph()
    graph.add_nodes_from(range(num_nodes))

    communities: list[set[int]] = []
    node_pool = list(range(num_nodes))
    for _ in range(num_communities):
        size = rng.randint(low, min(high, num_nodes))
        members = set(rng.sample(node_pool, size))
        communities.append(members)

    # Give every node roughly `memberships_per_node` memberships by topping up
    # nodes that ended with none.
    member_of: dict[int, int] = {node: 0 for node in range(num_nodes)}
    for community in communities:
        for node in community:
            member_of[node] += 1
    for node, count in member_of.items():
        while count < memberships_per_node:
            community = rng.choice(communities)
            if node not in community:
                community.add(node)
                count += 1
        member_of[node] = count

    for community in communities:
        members = sorted(community)
        for index, u in enumerate(members):
            for v in members[index + 1:]:
                if rng.random() < p_in:
                    graph.add_edge(u, v)

    # Sparse background noise.
    expected_background = p_background * num_nodes * (num_nodes - 1) / 2.0
    for _ in range(int(expected_background)):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u != v:
            graph.add_edge(u, v)

    connect_components(graph, rng)
    return graph, communities


def random_regular_ish_graph(num_nodes: int, degree: int, seed: int = 0) -> UndirectedGraph:
    """Return a graph where every node has degree close to ``degree``.

    Built by a configuration-model style pairing with rejection of self-loops
    and multi-edges; exact regularity is not guaranteed but the degree spread
    is tight, which is what the ablation benchmarks need.
    """
    if degree >= num_nodes:
        raise ConfigurationError("degree must be smaller than the number of nodes")
    rng = random.Random(seed)
    graph = UndirectedGraph()
    graph.add_nodes_from(range(num_nodes))
    stubs = [node for node in range(num_nodes) for _ in range(degree)]
    rng.shuffle(stubs)
    for index in range(0, len(stubs) - 1, 2):
        u, v = stubs[index], stubs[index + 1]
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def connect_components(graph: UndirectedGraph, rng: random.Random | None = None) -> int:
    """Add the minimum number of random edges needed to make ``graph`` connected.

    Returns the number of edges added.  The paper assumes connected input
    graphs, so dataset builders call this as a final stitching pass.
    """
    from repro.graph.components import connected_components

    rng = rng or random.Random(0)
    components = connected_components(graph)
    if len(components) <= 1:
        return 0
    added = 0
    anchor_component = max(components, key=len)
    anchor_nodes = sorted(anchor_component, key=repr)
    for component in components:
        if component is anchor_component:
            continue
        source = rng.choice(sorted(component, key=repr))
        target = rng.choice(anchor_nodes)
        graph.add_edge(source, target)
        added += 1
    return added
