"""Unit tests for the Truss, MDC and QDC baselines."""

from __future__ import annotations

import pytest

from repro.baselines.mdc import MinimumDegreeCommunity
from repro.baselines.qdc import QueryBiasedDensestCommunity, random_walk_proximity
from repro.baselines.truss_only import TrussOnly
from repro.ctc.api import search
from repro.exceptions import ConfigurationError, NoCommunityFoundError, QueryError
from repro.graph.components import is_connected
from repro.graph.generators import complete_graph, path_graph
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.extraction import find_maximal_connected_truss


class TestTrussOnly:
    def test_matches_find_g0(self, figure1_index, figure1_query):
        result = TrussOnly(figure1_index).search(figure1_query)
        expected, k = find_maximal_connected_truss(figure1_index, figure1_query)
        assert result.nodes == expected.node_set()
        assert result.trussness == k
        assert result.method == "truss"

    def test_keeps_free_riders(self, figure1_index, figure1_query):
        result = TrussOnly(figure1_index).search(figure1_query)
        assert {"p1", "p2", "p3"} <= result.nodes

    def test_wrapper(self, figure1, figure1_query):
        result = search(figure1, figure1_query, method="truss")
        assert result.trussness == 4

    def test_query_distance_populated(self, figure1_index, figure1_query):
        result = TrussOnly(figure1_index).search(figure1_query)
        assert result.query_distance == 4


class TestMinimumDegreeCommunity:
    def test_returns_connected_community_with_query(self, figure1, figure1_query):
        result = MinimumDegreeCommunity(figure1).search(figure1_query)
        assert result.contains_query()
        assert is_connected(result.graph)
        assert result.method == "mdc"

    def test_maximises_minimum_degree_on_clique_plus_pendant(self):
        graph = complete_graph(5)
        graph.add_edge(0, 99)
        result = MinimumDegreeCommunity(graph, distance_bound=None).search([0, 1])
        # The pendant node drags the minimum degree down to 1; peeling it gives
        # the 5-clique with minimum degree 4.
        assert result.nodes == {0, 1, 2, 3, 4}
        assert result.extras["min_degree"] == 4

    def test_distance_bound_restricts_candidates(self, figure1):
        result = MinimumDegreeCommunity(figure1, distance_bound=1).search(["q2"])
        assert result.contains_query()
        assert result.nodes <= {"q2", "q1", "v1", "v2", "v3", "v4", "v5"}

    def test_size_bound_excludes_oversized_graphs(self):
        graph = complete_graph(8)
        result = MinimumDegreeCommunity(graph, distance_bound=None, size_bound=4).search([0])
        assert result.num_nodes <= 4

    def test_disconnected_query_raises(self):
        graph = UndirectedGraph([(1, 2), (3, 4)])
        with pytest.raises(NoCommunityFoundError):
            MinimumDegreeCommunity(graph, distance_bound=None).search([1, 3])

    def test_query_outside_distance_bound_raises(self):
        graph = path_graph(10)
        with pytest.raises(NoCommunityFoundError):
            MinimumDegreeCommunity(graph, distance_bound=2).search([0, 9])

    def test_invalid_query(self, figure1):
        with pytest.raises(QueryError):
            MinimumDegreeCommunity(figure1).search([])

    def test_wrapper(self, figure1, figure1_query):
        result = search(figure1, figure1_query, method="mdc")
        assert result.method == "mdc"


class TestRandomWalkProximity:
    def test_proximity_sums_close_to_one(self, k5):
        proximity = random_walk_proximity(k5, [0])
        assert sum(proximity.values()) == pytest.approx(1.0, abs=0.05)

    def test_query_nodes_have_highest_proximity(self, figure1):
        proximity = random_walk_proximity(figure1, ["q2"])
        assert proximity["q2"] == max(proximity.values())

    def test_far_nodes_have_lower_proximity(self, figure1):
        proximity = random_walk_proximity(figure1, ["q1"])
        assert proximity["q2"] > proximity["p1"]

    def test_empty_graph(self):
        assert random_walk_proximity(UndirectedGraph(), []) == {}


class TestQueryBiasedDensestCommunity:
    def test_returns_connected_community_with_query(self, figure1, figure1_query):
        result = QueryBiasedDensestCommunity(figure1).search(figure1_query)
        assert result.contains_query()
        assert is_connected(result.graph)
        assert result.method == "qdc"

    def test_prefers_dense_region_near_query(self, figure1):
        result = QueryBiasedDensestCommunity(figure1).search(["q1", "q2"])
        # The dense 4-clique around the query must be included; the distant
        # p-clique should not be worth its weight.
        assert {"q1", "q2", "v1", "v2"} <= result.nodes
        assert not {"p1", "p2", "p3"} <= result.nodes

    def test_biased_density_recorded(self, figure1, figure1_query):
        result = QueryBiasedDensestCommunity(figure1).search(figure1_query)
        assert result.extras["query_biased_density"] > 0

    def test_neighborhood_bound_none_still_works(self, figure1, figure1_query):
        result = QueryBiasedDensestCommunity(figure1, neighborhood_bound=None).search(figure1_query)
        assert result.contains_query()

    def test_disconnected_query_raises(self):
        graph = UndirectedGraph([(1, 2), (3, 4)])
        with pytest.raises(NoCommunityFoundError):
            QueryBiasedDensestCommunity(graph).search([1, 3])

    def test_wrapper(self, figure1, figure1_query):
        result = search(figure1, figure1_query, method="qdc")
        assert result.method == "qdc"


class TestBaselineComparison:
    def test_ctc_is_tighter_than_truss_on_figure1(self, figure1, figure1_index, figure1_query):
        """The central comparison of the paper: the Truss baseline keeps the
        free riders, the CTC methods drop them."""
        from repro.ctc.basic import BasicCTC

        truss_result = TrussOnly(figure1_index).search(figure1_query)
        ctc_result = BasicCTC(figure1_index).search(figure1_query)
        assert ctc_result.num_nodes < truss_result.num_nodes
        assert ctc_result.density() > truss_result.density()
        assert ctc_result.diameter() < truss_result.diameter()


class _RefusedIndex:
    """Stands in for ``TrussIndex`` inside ``search()``: building one fails."""

    def __init__(self, graph):
        raise AssertionError("search() built a TrussIndex")


class TestSearchDispatch:
    """``search()`` checks the method first and hands MDC/QDC the graph itself."""

    @pytest.mark.parametrize(
        "method, baseline",
        [("mdc", MinimumDegreeCommunity), ("qdc", QueryBiasedDensestCommunity)],
    )
    def test_baselines_build_no_index(
        self, monkeypatch, figure1, figure1_query, method, baseline
    ):
        monkeypatch.setattr("repro.ctc.api.TrussIndex", _RefusedIndex)
        result = search(figure1, figure1_query, method=method)
        expected = baseline(figure1).search(figure1_query)
        assert result.nodes == expected.nodes
        assert set(result.graph.edges()) == set(expected.graph.edges())
        assert result.query_distance == expected.query_distance
        assert result.extras == expected.extras

    def test_unknown_method_rejected_before_any_index(self, monkeypatch, figure1, figure1_query):
        monkeypatch.setattr("repro.ctc.api.TrussIndex", _RefusedIndex)
        with pytest.raises(ConfigurationError):
            search(figure1, figure1_query, method="nope")
