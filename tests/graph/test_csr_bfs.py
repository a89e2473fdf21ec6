"""Unit and property tests for the masked frontier BFS (:mod:`repro.graph.csr_bfs`).

The contract under test: under any edge mask, the frontier BFS computes
exactly the distances a scalar queue BFS would, ``-1`` marking unreachable,
and an ``until_reached`` stop never records a wrong distance.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.csr_bfs import (
    csr_diameter,
    fold_query_distance,
    masked_bfs,
    masked_query_distances,
)
from repro.graph.generators import erdos_renyi_graph
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.traversal import diameter, query_distances

common_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_INF = float("inf")


def _reference_distances(csr: CSRGraph, sources, edge_alive=None):
    """Scalar queue BFS over the same restriction (the spec)."""
    dist = np.full(csr.number_of_nodes(), -1, dtype=np.int64)
    queue = deque()
    for source in sources:
        dist[source] = 0
        queue.append(int(source))
    indptr, indices, slot_edge = csr.indptr, csr.indices, csr.slot_edge
    while queue:
        node = queue.popleft()
        for slot in range(int(indptr[node]), int(indptr[node + 1])):
            if edge_alive is not None and not edge_alive[slot_edge[slot]]:
                continue
            other = int(indices[slot])
            if dist[other] < 0:
                dist[other] = dist[node] + 1
                queue.append(other)
    return dist


def _graph(seed: int, nodes: int = 18, p: float = 0.3) -> CSRGraph:
    return CSRGraph.from_graph(erdos_renyi_graph(nodes, p, seed=seed))


def _draw_edge_mask(data, csr: CSRGraph) -> np.ndarray:
    size = csr.number_of_edges()
    return np.asarray(
        data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool
    )


class TestMaskedBFS:
    @common_settings
    @given(seed=st.integers(0, 300), source=st.integers(0, 17))
    def test_unmasked_matches_scalar_bfs(self, seed, source):
        csr = _graph(seed)
        assert np.array_equal(
            masked_bfs(csr, [source]), _reference_distances(csr, [source])
        )

    @common_settings
    @given(seed=st.integers(0, 300), data=st.data())
    def test_edge_mask_matches_scalar_bfs(self, seed, data):
        csr = _graph(seed)
        alive = _draw_edge_mask(data, csr)
        source = data.draw(st.integers(0, csr.number_of_nodes() - 1))
        assert np.array_equal(
            masked_bfs(csr, [source], edge_alive=alive),
            _reference_distances(csr, [source], edge_alive=alive),
        )

    @common_settings
    @given(seed=st.integers(0, 300), data=st.data())
    def test_multi_source_is_min_over_sources(self, seed, data):
        csr = _graph(seed)
        sources = data.draw(
            st.lists(
                st.integers(0, csr.number_of_nodes() - 1),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        merged = masked_bfs(csr, sources)
        singles = [masked_bfs(csr, [source]) for source in sources]
        for node in range(csr.number_of_nodes()):
            reachable = [d[node] for d in singles if d[node] >= 0]
            expected = min(reachable) if reachable else -1
            assert merged[node] == expected

    def test_unreachable_and_isolated_vertices(self):
        graph = UndirectedGraph()
        graph.add_edge("a", "b")
        graph.add_node("c")  # isolated
        csr = CSRGraph.from_graph(graph)
        distances = masked_bfs(csr, [csr.node_id("a")])
        assert distances[csr.node_id("b")] == 1
        assert distances[csr.node_id("c")] == -1

    def test_empty_and_singleton_graphs(self):
        empty = CSRGraph.from_graph(UndirectedGraph())
        assert masked_bfs(empty, []).size == 0
        assert csr_diameter(empty) == 0.0
        single = UndirectedGraph()
        single.add_node("only")
        csr = CSRGraph.from_graph(single)
        assert masked_bfs(csr, [0]).tolist() == [0]
        assert csr_diameter(csr) == 0.0

    def test_no_sources_means_all_unreachable(self):
        csr = _graph(7)
        assert (masked_bfs(csr, []) == -1).all()

    @common_settings
    @given(seed=st.integers(0, 300), data=st.data())
    def test_until_reached_stops_early_with_final_targets(self, seed, data):
        """Targets (reachable or not) end with their full-BFS distances, and
        every distance the early-stopped run records is final."""
        csr = _graph(seed)
        num_nodes = csr.number_of_nodes()
        alive = _draw_edge_mask(data, csr)
        source = data.draw(st.integers(0, num_nodes - 1))
        targets = data.draw(
            st.lists(st.integers(0, num_nodes - 1), min_size=1, max_size=3)
        )
        full = masked_bfs(csr, [source], edge_alive=alive)
        stopped = masked_bfs(csr, [source], edge_alive=alive, until_reached=targets)
        assert np.array_equal(stopped[targets], full[targets])
        recorded = stopped >= 0
        assert np.array_equal(stopped[recorded], full[recorded])
        if bool((full[targets] >= 0).all()):
            # Stopped at the end of the round reaching the farthest target.
            assert stopped.max() == full[targets].max()


class TestReductions:
    @common_settings
    @given(seed=st.integers(0, 300), data=st.data())
    def test_masked_query_distances_match_dict_path(self, seed, data):
        graph = erdos_renyi_graph(16, 0.25, seed=seed)
        csr = CSRGraph.from_graph(graph)
        query = data.draw(
            st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True)
        )
        maxima = masked_query_distances(csr, [csr.node_id(label) for label in query])
        expected = query_distances(graph, query)
        for label, value in expected.items():
            assert maxima[csr.node_id(label)] == value

    @common_settings
    @given(seed=st.integers(0, 300))
    def test_csr_diameter_and_eccentricity_match_dict_path(self, seed):
        graph = erdos_renyi_graph(15, 0.3, seed=seed)
        csr = CSRGraph.from_graph(graph)
        assert csr_diameter(csr) == diameter(graph)

    def test_diameter_fast_path_dispatches_on_csr_input(self):
        graph = erdos_renyi_graph(30, 0.2, seed=5)
        csr = CSRGraph.from_graph(graph)
        assert diameter(csr) == diameter(graph)
        some = list(graph.nodes())[:3]
        assert diameter(csr, some) == diameter(graph, some)

    def test_fold_query_distance_accumulates_inf(self):
        maxima = np.zeros(3)
        fold_query_distance(maxima, np.asarray([0, 2, -1], dtype=np.int64))
        assert maxima.tolist() == [0.0, 2.0, _INF]
        fold_query_distance(maxima, np.asarray([1, 1, 1], dtype=np.int64))
        assert maxima.tolist() == [1.0, 2.0, _INF]
