"""Unit tests for Algorithm 4 (BulkDelete)."""

from __future__ import annotations

import pytest

from repro.ctc.api import search
from repro.ctc.basic import BasicCTC
from repro.ctc.bulk_delete import BulkDeleteCTC
from repro.exceptions import NoCommunityFoundError
from repro.graph.components import is_connected
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.triangles import all_edge_supports


class TestBulkDeleteOnPaperExamples:
    def test_example_7_returns_whole_g0(self, figure1_index, figure1_query):
        """Example 7: the bulk set L contains two query nodes, so removing it
        disconnects Q and BD reports the entire 4-truss G0 (diameter 4)."""
        result = BulkDeleteCTC(figure1_index).search(figure1_query)
        assert result.nodes == {
            "q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5", "p1", "p2", "p3",
        }
        assert result.trussness == 4
        assert result.diameter() == 4

    def test_strict_variant_matches_basic_on_figure1(self, figure1_index, figure1_query):
        """With threshold d (offset 0) only the p-nodes are peeled, recovering
        the Figure 1(b) community, like Basic does."""
        result = BulkDeleteCTC(figure1_index, threshold_offset=0).search(figure1_query)
        assert result.nodes == {"q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5"}
        assert result.diameter() == 3

    def test_result_is_connected_k_truss(self, figure1_index, figure1_query):
        result = BulkDeleteCTC(figure1_index).search(figure1_query)
        assert result.contains_query()
        assert is_connected(result.graph)
        supports = all_edge_supports(result.graph)
        assert all(value >= result.trussness - 2 for value in supports.values())

    def test_invalid_threshold_offset(self, figure1_index):
        with pytest.raises(ValueError):
            BulkDeleteCTC(figure1_index, threshold_offset=2)


class TestBulkDeleteBehaviour:
    def test_terminates_faster_than_basic(self, small_network_index):
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:3]
        try:
            basic = BasicCTC(small_network_index).search(query)
            bulk = BulkDeleteCTC(small_network_index).search(query)
        except NoCommunityFoundError:
            pytest.skip("query nodes not in a common truss")
        assert bulk.iterations <= basic.iterations

    def test_same_trussness_as_basic(self, small_network_index):
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:3]
        try:
            basic = BasicCTC(small_network_index).search(query)
            bulk = BulkDeleteCTC(small_network_index).search(query)
        except NoCommunityFoundError:
            pytest.skip("query nodes not in a common truss")
        assert bulk.trussness == basic.trussness

    def test_diameter_within_twice_query_distance(self, small_network_index):
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:3]
        try:
            result = BulkDeleteCTC(small_network_index).search(query)
        except NoCommunityFoundError:
            pytest.skip("query nodes not in a common truss")
        assert result.diameter() <= 2 * result.query_distance

    def test_batch_limit_restricts_deletions(self, figure1_index, figure1_query):
        limited = BulkDeleteCTC(figure1_index, threshold_offset=0, batch_limit=1)
        result = limited.search(figure1_query)
        # Still removes the free riders (one per iteration) and reaches the
        # same community as the unrestricted strict variant.
        assert result.nodes == {"q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5"}

    def test_searcher_is_reusable_across_queries(self, figure1_index):
        searcher = BulkDeleteCTC(figure1_index)
        first = searcher.search(["q1", "q2", "q3"])
        second = searcher.search(["q3"])
        third = searcher.search(["q1", "q2", "q3"])
        assert first.nodes == third.nodes
        assert "q3" in second.nodes

    def test_wrapper_builds_index(self, figure1, figure1_query):
        result = search(figure1, figure1_query, method="bulk-delete")
        assert result.method == "bulk-delete"
        assert result.trussness == 4

    def test_disconnected_query_raises(self):
        graph = UndirectedGraph([(1, 2), (2, 3), (1, 3), (7, 8), (8, 9), (7, 9)])
        with pytest.raises(NoCommunityFoundError):
            search(graph, [1, 7], method="bulk-delete")

    def test_single_query_node(self, figure1_index):
        result = BulkDeleteCTC(figure1_index).search(["q2"])
        assert "q2" in result.nodes
        assert result.trussness == 4
