"""Unit tests for Algorithm 1 (Basic) and its approximation guarantee."""

from __future__ import annotations

import pytest

from repro.ctc.api import search
from repro.ctc.basic import BasicCTC
from repro.exceptions import NoCommunityFoundError
from repro.graph.components import is_connected
from repro.graph.generators import complete_graph
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.traversal import diameter, graph_query_distance
from repro.graph.triangles import all_edge_supports
from repro.trusses.extraction import find_maximal_connected_truss
from repro.trusses.index import TrussIndex


class TestBasicOnPaperExamples:
    def test_example_4_removes_free_riders(self, figure1_index, figure1_query):
        """Basic on Figure 1 returns the Figure 1(b) community (diameter 3)."""
        result = BasicCTC(figure1_index).search(figure1_query)
        assert result.nodes == {"q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5"}
        assert result.trussness == 4
        assert result.diameter() == 3
        assert result.query_distance == 3

    def test_result_is_connected_k_truss_containing_query(self, figure1_index, figure1_query):
        result = BasicCTC(figure1_index).search(figure1_query)
        assert result.contains_query()
        assert is_connected(result.graph)
        supports = all_edge_supports(result.graph)
        assert all(value >= result.trussness - 2 for value in supports.values())

    def test_trussness_equals_g0_trussness(self, figure1_index, figure1_query):
        """The approximation preserves the maximum trussness (Section 3.3)."""
        _g0, k = find_maximal_connected_truss(figure1_index, figure1_query)
        result = BasicCTC(figure1_index).search(figure1_query)
        assert result.trussness == k

    def test_single_query_node(self, figure1_index):
        result = BasicCTC(figure1_index).search(["q3"])
        assert "q3" in result.nodes
        assert result.trussness == 4
        # One of the two 4-clique communities around q3 has diameter 1.
        assert result.diameter() <= 2

    def test_figure4_query_keeps_bridge(self, figure4, figure4_query):
        index = TrussIndex(figure4)
        result = BasicCTC(index).search(figure4_query)
        assert result.trussness == 2
        assert result.contains_query()

    def test_extras_record_g0_size(self, figure1_index, figure1_query):
        result = BasicCTC(figure1_index).search(figure1_query)
        assert result.extras["g0_nodes"] == 11
        assert result.extras["timed_out"] is False

    def test_iterations_counted(self, figure1_index, figure1_query):
        result = BasicCTC(figure1_index).search(figure1_query)
        assert result.iterations >= 1


class TestBasicGuarantees:
    def test_two_approximation_on_small_network(self, small_network_index):
        """diam(R) <= 2 * dist(R, Q) <= 2 * diam(H*) (Theorem 3 chain).

        The optimum is unknown, but the chain implies the checkable invariant
        diam(R) <= 2 * dist(R, Q).
        """
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:3]
        try:
            result = BasicCTC(small_network_index).search(query)
        except NoCommunityFoundError:
            pytest.skip("query nodes not in a common truss")
        assert result.diameter() <= 2 * result.query_distance

    def test_query_distance_is_optimal_among_known_trusses(self, figure1_index, figure1_query):
        """Lemma 5: the returned community minimises the graph query distance.

        The CTC of Figure 1(b) (the true optimum) has query distance 3; Basic
        must not return anything with a larger query distance.
        """
        result = BasicCTC(figure1_index).search(figure1_query)
        assert result.query_distance <= 3

    def test_complete_graph_is_returned_whole(self):
        graph = complete_graph(6)
        result = search(graph, [0, 1], method="basic")
        assert result.nodes == set(range(6))
        assert result.trussness == 6
        assert result.diameter() == 1

    def test_max_iterations_cap(self, small_network_index):
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:2]
        try:
            result = BasicCTC(small_network_index, max_iterations=1).search(query)
        except NoCommunityFoundError:
            pytest.skip("query nodes not in a common truss")
        assert result.iterations <= 1
        assert result.contains_query()

    def test_time_budget_marks_timeout(self, small_network_index):
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:2]
        try:
            result = BasicCTC(small_network_index, time_budget_seconds=0.0).search(query)
        except NoCommunityFoundError:
            pytest.skip("query nodes not in a common truss")
        assert result.extras["timed_out"] is True
        assert result.contains_query()


class TestBasicEdgeCases:
    def test_disconnected_query_raises(self):
        graph = UndirectedGraph([(1, 2), (2, 3), (1, 3), (7, 8), (8, 9), (7, 9)])
        with pytest.raises(NoCommunityFoundError):
            search(graph, [1, 7], method="basic")

    def test_query_of_whole_triangle(self, triangle):
        result = search(triangle, [0, 1, 2], method="basic")
        assert result.nodes == {0, 1, 2}
        assert result.trussness == 3

    def test_wrapper_builds_index(self, figure1, figure1_query):
        result = search(figure1, figure1_query, method="basic")
        assert result.method == "basic"
        assert result.trussness == 4

    def test_result_query_distance_consistent(self, figure1_index, figure1_query):
        result = BasicCTC(figure1_index).search(figure1_query)
        assert result.query_distance == graph_query_distance(result.graph, figure1_query)

    def test_never_returns_larger_diameter_than_g0(self, figure1_index, figure1_query):
        g0, _k = find_maximal_connected_truss(figure1_index, figure1_query)
        result = BasicCTC(figure1_index).search(figure1_query)
        assert result.diameter() <= diameter(g0)
