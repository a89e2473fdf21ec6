"""Unit tests for Algorithm 5 (LCTC, local exploration)."""

from __future__ import annotations

import pytest

from repro.ctc.api import search
from repro.ctc.basic import BasicCTC
from repro.ctc.local import DEFAULT_ETA, DEFAULT_GAMMA, LocalCTC
from repro.exceptions import QueryError
from repro.graph.components import is_connected
from repro.graph.triangles import all_edge_supports
from repro.trusses.index import TrussIndex


class TestLocalCTCOnPaperExamples:
    def test_figure1_recovers_the_ctc(self, figure1_index, figure1_query):
        result = LocalCTC(figure1_index, eta=50).search(figure1_query)
        assert result.nodes == {"q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5"}
        assert result.trussness == 4
        assert result.diameter() == 3

    def test_result_is_connected_truss_containing_query(self, figure1_index, figure1_query):
        result = LocalCTC(figure1_index, eta=50).search(figure1_query)
        assert result.contains_query()
        assert is_connected(result.graph)
        supports = all_edge_supports(result.graph)
        assert all(value >= result.trussness - 2 for value in supports.values())

    def test_extras_describe_the_local_exploration(self, figure1_index, figure1_query):
        result = LocalCTC(figure1_index, eta=50).search(figure1_query)
        assert result.extras["k_t"] == 4
        assert result.extras["steiner_nodes"] >= 3
        assert result.extras["expanded_nodes"] <= 50
        assert result.extras["eta"] == 50
        assert result.extras["gamma"] == DEFAULT_GAMMA

    def test_single_query_node(self, figure1_index):
        result = LocalCTC(figure1_index, eta=50).search(["q3"])
        assert "q3" in result.nodes
        assert result.trussness == 4

    def test_figure4_query_across_the_bridge(self, figure4, figure4_query):
        index = TrussIndex(figure4)
        result = LocalCTC(index, eta=50).search(figure4_query)
        assert result.contains_query()
        assert result.trussness == 2


class TestLocalCTCParameters:
    def test_invalid_parameters(self, figure1_index):
        with pytest.raises(ValueError):
            LocalCTC(figure1_index, eta=0)
        with pytest.raises(ValueError):
            LocalCTC(figure1_index, gamma=-1.0)

    def test_defaults_exported(self):
        assert DEFAULT_ETA == 1000
        assert DEFAULT_GAMMA == 3.0

    def test_small_eta_still_contains_query(self, small_network_index):
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:2]
        result = LocalCTC(small_network_index, eta=5).search(query)
        assert result.contains_query()

    def test_larger_eta_never_shrinks_trussness(self, small_network_index):
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:2]
        small = LocalCTC(small_network_index, eta=10).search(query)
        large = LocalCTC(small_network_index, eta=200).search(query)
        assert large.trussness >= small.trussness

    def test_max_trussness_cap(self, figure1_index, figure1_query):
        capped = LocalCTC(figure1_index, eta=50, max_trussness_k=2).search(figure1_query)
        assert capped.trussness <= 2
        assert capped.contains_query()

    def test_invalid_query_raises(self, figure1_index):
        with pytest.raises(QueryError):
            LocalCTC(figure1_index).search([])

    def test_wrapper_builds_index(self, figure1, figure1_query):
        result = search(figure1, figure1_query, method="lctc", eta=50)
        assert result.method == "lctc"
        assert result.trussness == 4


class TestLocalVersusGlobal:
    def test_trussness_close_to_global(self, small_network_index):
        """Figure 13(b): LCTC's trussness tracks the global algorithms closely.

        On the small test network with a generous eta the local exploration
        must find the same maximum trussness as the global Basic algorithm.
        """
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:2]
        global_result = BasicCTC(small_network_index).search(query)
        local_result = LocalCTC(
            small_network_index, eta=graph.number_of_nodes()
        ).search(query)
        assert local_result.trussness == global_result.trussness

    def test_diameter_within_twice_query_distance(self, small_network_index):
        graph = small_network_index.graph
        query = sorted(graph.nodes())[:3]
        result = LocalCTC(small_network_index, eta=150).search(query)
        assert result.diameter() <= 2 * max(result.query_distance, 1)
