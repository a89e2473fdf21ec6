"""Query-workload generation (Section 6 of the paper).

The experiments vary three query-set parameters:

* **query size** ``|Q|`` in {1, 2, 4, 8, 16} (default 3),
* **degree rank** ``Qd``: query nodes drawn from a given percentile bucket of
  the degree distribution (default: top 80%, i.e. "degree higher than the
  degree of 20% of nodes"),
* **inter-distance** ``l``: the maximum pairwise hop distance between query
  nodes (default 2).

For the ground-truth quality experiment (Figure 12) query sets are drawn from
inside a single ground-truth community, with query nodes that belong to
exactly one community.

:class:`EdgeChurn` generates the *write* half of mixed read/write workloads:
a deterministic stream of single-edge mutations against a
:class:`~repro.engine.CTCEngine`-like store, shared by the CLI's
``--mutate-every`` mode and ``benchmarks/bench_mixed_workload.py``.

:class:`WindowedChurnStream` generates the *temporal* workload: a
deterministic arrival order over a fixed edge population, feeding a
:class:`~repro.engine.SlidingWindowEngine` so the live graph slides across
the population (``benchmarks/bench_windowed_churn.py`` and the CLI's
``--window`` mode).
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Hashable, Iterable
from typing import Protocol

from repro.datasets.synthetic import SyntheticNetwork
from repro.exceptions import ConfigurationError
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.traversal import bfs_distances

__all__ = [
    "QueryWorkloadGenerator",
    "EdgeChurn",
    "WindowedChurnStream",
    "random_query_sets",
    "degree_rank_query_sets",
    "inter_distance_query_sets",
    "ground_truth_query_sets",
]


class _MutableGraphStore(Protocol):
    """What :class:`EdgeChurn` needs from its target (a ``CTCEngine`` fits)."""

    @property
    def graph(self) -> UndirectedGraph: ...

    def add_edge(self, u: Hashable, v: Hashable) -> None: ...

    def remove_edge(self, u: Hashable, v: Hashable) -> None: ...


class EdgeChurn:
    """Deterministic, non-cancelling single-edge churn for mixed workloads.

    Each :meth:`step` applies exactly one mutation to the target store:
    mostly removals of randomly chosen present edges, interleaved with
    re-insertion of the oldest previously removed edge once a few removals
    have accumulated.  Consecutive deltas therefore never cancel to a
    no-op, the graph drifts without shrinking away, and a fixed ``seed``
    replays the identical stream — so two engines under comparison see the
    same mutations.

    Edges incident to ``protect``-ed nodes (typically the query nodes) are
    never touched, keeping every query answerable.
    """

    #: How many removals accumulate before re-insertions join the mix.
    REINSERT_BACKLOG = 4

    def __init__(
        self,
        engine: _MutableGraphStore,
        *,
        seed: int = 0,
        protect: Iterable[Hashable] = (),
    ) -> None:
        self._engine = engine
        self._rng = random.Random(seed)
        self._removed: deque[tuple[Hashable, Hashable]] = deque()
        protected = set(protect)
        self._edges = [
            edge
            for edge in sorted(engine.graph.edges(), key=repr)
            if not (edge[0] in protected or edge[1] in protected)
        ]

    @property
    def mutable_edges(self) -> int:
        """How many edges the churn may touch (0 = :meth:`step` is a no-op)."""
        return len(self._edges)

    def step(self) -> bool:
        """Apply one mutation; return ``False`` if no mutation was possible."""
        if len(self._removed) >= self.REINSERT_BACKLOG and self._rng.random() < 0.5:
            self._engine.add_edge(*self._removed.popleft())
            return True
        for _ in range(len(self._edges)):
            edge = self._edges[self._rng.randrange(len(self._edges))]
            if self._engine.graph.has_edge(*edge):
                self._engine.remove_edge(*edge)
                self._removed.append(edge)
                return True
        # Sampling found no present edge (pool mostly removed): re-insert if
        # anything is pending, otherwise report that the churn is exhausted.
        if self._removed:
            self._engine.add_edge(*self._removed.popleft())
            return True
        return False


class _EdgeIngestingStore(Protocol):
    """What :class:`WindowedChurnStream` needs from its target."""

    @property
    def graph(self) -> UndirectedGraph: ...

    def add_edge(self, u: Hashable, v: Hashable) -> None: ...


class WindowedChurnStream:
    """Deterministic edge-arrival stream for sliding-window workloads.

    The stream shuffles a fixed edge population once (seeded) and feeds it
    to a window-maintaining store in that order, cycling back to the start
    when exhausted — so a long run keeps re-inserting edges whose earlier
    copies have expired, and the live window slides across the population
    forever.  Two stores fed from identically-seeded streams see the exact
    same arrival order, which is what lets
    ``benchmarks/bench_windowed_churn.py`` compare maintenance policies on
    the same workload.

    Queries are sampled from the *live* graph (:meth:`sample_query` picks
    the endpoints of present edges), so every generated query is answerable
    against the current window.
    """

    def __init__(
        self,
        edges: Iterable[tuple[Hashable, Hashable]],
        *,
        seed: int = 0,
    ) -> None:
        self._rng = random.Random(seed)
        self._edges = sorted(edges, key=repr)
        if not self._edges:
            raise ConfigurationError("cannot stream over an empty edge population")
        self._rng.shuffle(self._edges)
        self._cursor = 0

    @property
    def population(self) -> int:
        """How many distinct edges the stream cycles over."""
        return len(self._edges)

    def feed(self, store: _EdgeIngestingStore, count: int) -> int:
        """Ingest the next ``count`` arrivals into ``store``; return ``count``."""
        for _ in range(count):
            u, v = self._edges[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._edges)
            store.add_edge(u, v)
        return count

    def sample_query(self, store: _EdgeIngestingStore, query_size: int = 2) -> list[Hashable]:
        """Return ``query_size`` nodes from the live graph, seeded from one edge.

        The first two nodes are the endpoints of a randomly drawn present
        edge (guaranteeing a connected anchor); further nodes extend along
        present edges of nodes already picked when possible.  Raises
        :class:`ConfigurationError` when the live graph has no edges.
        """
        if query_size < 1:
            raise ConfigurationError("query size must be at least 1")
        live = sorted(store.graph.edges(), key=repr)
        if not live:
            raise ConfigurationError("cannot sample a query from an edgeless window")
        u, v = live[self._rng.randrange(len(live))]
        picked: list[Hashable] = [u, v][:query_size]
        while len(picked) < query_size:
            frontier = sorted(
                {
                    other
                    for node in picked
                    for other in store.graph.neighbors(node)
                    if other not in picked
                },
                key=repr,
            )
            if not frontier:
                break
            picked.append(frontier[self._rng.randrange(len(frontier))])
        return picked


class QueryWorkloadGenerator:
    """Deterministic (seeded) generator of query-node sets over one graph."""

    def __init__(self, graph: UndirectedGraph, seed: int = 0) -> None:
        self._graph = graph
        self._rng = random.Random(seed)
        self._nodes = sorted(graph.nodes(), key=repr)
        if not self._nodes:
            raise ConfigurationError("cannot generate queries over an empty graph")
        # Nodes sorted by descending degree, for the degree-rank buckets.
        self._by_degree = sorted(
            self._nodes, key=lambda node: (-graph.degree(node), repr(node))
        )

    # ------------------------------------------------------------------
    def random_queries(self, query_size: int, count: int) -> list[list[Hashable]]:
        """Return ``count`` random query sets of ``query_size`` nodes each."""
        if query_size < 1:
            raise ConfigurationError("query size must be at least 1")
        population = self._nodes
        size = min(query_size, len(population))
        return [self._rng.sample(population, size) for _ in range(count)]

    def degree_rank_queries(
        self, rank_percent: int, query_size: int, count: int
    ) -> list[list[Hashable]]:
        """Return query sets drawn from one degree-rank bucket.

        ``rank_percent = 20`` means the top-20% highest-degree bucket,
        ``rank_percent = 100`` the bottom bucket — matching the five
        equal-sized buckets of Figures 7-8.
        """
        if rank_percent not in (20, 40, 60, 80, 100):
            raise ConfigurationError("rank_percent must be one of 20, 40, 60, 80, 100")
        bucket_size = max(1, len(self._by_degree) // 5)
        bucket_index = rank_percent // 20 - 1
        start = bucket_index * bucket_size
        stop = len(self._by_degree) if rank_percent == 100 else start + bucket_size
        bucket = self._by_degree[start:stop]
        size = min(query_size, len(bucket))
        return [self._rng.sample(bucket, size) for _ in range(count)]

    def inter_distance_queries(
        self, inter_distance: int, query_size: int, count: int, max_attempts: int = 200
    ) -> list[list[Hashable]]:
        """Return query sets whose pairwise hop distance is at most ``inter_distance``.

        The generator picks a random anchor node, collects its
        ``inter_distance``-hop ball, and samples the remaining query nodes
        from the ball, preferring nodes at exactly the requested distance so
        the workload actually stresses the requested separation (as in
        Figures 9-10).  Query sets that cannot be realised are skipped, so
        fewer than ``count`` sets may be returned on tiny graphs.
        """
        if inter_distance < 1:
            raise ConfigurationError("inter-distance must be at least 1")
        results: list[list[Hashable]] = []
        attempts = 0
        while len(results) < count and attempts < max_attempts * count:
            attempts += 1
            anchor = self._rng.choice(self._nodes)
            ball = bfs_distances(self._graph, anchor, cutoff=inter_distance)
            ball.pop(anchor, None)
            if len(ball) < query_size - 1:
                continue
            ring = [node for node, dist in ball.items() if dist == inter_distance]
            others = [node for node in ball if node not in ring]
            picked: list[Hashable] = [anchor]
            pool = sorted(ring, key=repr) + sorted(others, key=repr)
            self._rng.shuffle(pool)
            # Prefer at least one node on the outer ring so the realised
            # inter-distance is (close to) the requested one.
            if ring:
                picked.append(self._rng.choice(sorted(ring, key=repr)))
            for node in pool:
                if len(picked) >= query_size:
                    break
                if node not in picked:
                    picked.append(node)
            if len(picked) == query_size:
                results.append(picked)
        return results

    def ground_truth_queries(
        self,
        network: SyntheticNetwork,
        count: int,
        size_range: tuple[int, int] = (1, 16),
    ) -> list[tuple[list[Hashable], set[Hashable]]]:
        """Return ``(query, target community)`` pairs for the F1 evaluation.

        Query nodes are drawn from nodes that belong to exactly one planted
        community, and all query nodes of one set come from the same
        community (the Figure 12 protocol).
        """
        unique_nodes = set(network.nodes_in_unique_community())
        eligible: list[tuple[set[Hashable], list[Hashable]]] = []
        for community in network.communities:
            members = sorted((node for node in community if node in unique_nodes), key=repr)
            if members:
                eligible.append((set(community), members))
        if not eligible:
            raise ConfigurationError(
                "no ground-truth community has nodes with a unique membership"
            )
        pairs: list[tuple[list[Hashable], set[Hashable]]] = []
        low, high = size_range
        for _ in range(count):
            community, members = self._rng.choice(eligible)
            size = self._rng.randint(low, min(high, len(members)))
            pairs.append((self._rng.sample(members, size), community))
        return pairs


# ----------------------------------------------------------------------
# Functional wrappers (what the experiment drivers call)
# ----------------------------------------------------------------------
def random_query_sets(
    graph: UndirectedGraph, query_size: int, count: int, seed: int = 0
) -> list[list[Hashable]]:
    """Return ``count`` random query sets of the given size."""
    return QueryWorkloadGenerator(graph, seed).random_queries(query_size, count)


def degree_rank_query_sets(
    graph: UndirectedGraph, rank_percent: int, query_size: int, count: int, seed: int = 0
) -> list[list[Hashable]]:
    """Return query sets from the given degree-rank bucket."""
    return QueryWorkloadGenerator(graph, seed).degree_rank_queries(rank_percent, query_size, count)


def inter_distance_query_sets(
    graph: UndirectedGraph, inter_distance: int, query_size: int, count: int, seed: int = 0
) -> list[list[Hashable]]:
    """Return query sets constrained to the given pairwise inter-distance."""
    return QueryWorkloadGenerator(graph, seed).inter_distance_queries(
        inter_distance, query_size, count
    )


def ground_truth_query_sets(
    network: SyntheticNetwork,
    count: int,
    size_range: tuple[int, int] = (1, 16),
    seed: int = 0,
) -> list[tuple[list[Hashable], set[Hashable]]]:
    """Return ``(query, target community)`` pairs drawn from the planted ground truth."""
    generator = QueryWorkloadGenerator(network.graph, seed)
    return generator.ground_truth_queries(network, count, size_range=size_range)
