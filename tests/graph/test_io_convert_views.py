"""Unit tests for graph I/O, networkx conversion and deletion views."""

from __future__ import annotations

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph.convert import from_networkx, networkx_available, to_networkx
from repro.graph.generators import complete_graph, path_graph
from repro.graph.io import (
    graph_from_edge_list_text,
    graph_to_edge_list_text,
    read_communities,
    read_edge_list,
    write_communities,
    write_edge_list,
)
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.views import DeletionView, filter_edges_by, induced_subgraph


class TestEdgeListRoundTrip:
    def test_text_round_trip(self):
        graph = UndirectedGraph([(1, 2), (2, 3)])
        graph.add_node(7)
        text = graph_to_edge_list_text(graph)
        restored = graph_from_edge_list_text(text, node_type=int)
        assert restored == graph

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n1 2\n2 3\n"
        graph = graph_from_edge_list_text(text, node_type=int)
        assert graph.number_of_edges() == 2

    def test_self_loops_dropped(self):
        graph = graph_from_edge_list_text("1 1\n1 2\n", node_type=int)
        assert graph.number_of_edges() == 1

    def test_file_round_trip(self, tmp_path):
        graph = complete_graph(4)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        restored = read_edge_list(path, node_type=int)
        assert restored == graph

    def test_community_file_round_trip(self, tmp_path):
        communities = [{1, 2, 3}, {4, 5}]
        path = tmp_path / "communities.txt"
        write_communities(communities, path)
        restored = read_communities(path, node_type=int)
        assert sorted(map(sorted, restored)) == [[1, 2, 3], [4, 5]]

    def test_empty_graph_round_trip(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_edge_list(UndirectedGraph(), path)
        assert read_edge_list(path).number_of_nodes() == 0


@pytest.mark.skipif(not networkx_available(), reason="networkx not installed")
class TestNetworkxConversion:
    def test_round_trip(self, random_graph):
        converted = from_networkx(to_networkx(random_graph))
        assert converted == random_graph

    def test_from_networkx_drops_self_loops(self):
        import networkx as nx

        graph = nx.Graph([(1, 1), (1, 2)])
        converted = from_networkx(graph)
        assert converted.number_of_edges() == 1


class TestDeletionView:
    def test_node_deletion_hides_edges(self, k4):
        view = DeletionView(k4)
        view.delete_node(0)
        assert not view.has_node(0)
        assert view.number_of_nodes() == 3
        assert view.number_of_edges() == 3
        assert 0 not in set(view.nodes())

    def test_edge_deletion_keeps_endpoints(self, k4):
        view = DeletionView(k4)
        view.delete_edge(0, 1)
        assert view.has_node(0)
        assert not view.has_edge(0, 1)
        assert view.number_of_edges() == 5

    def test_degree_and_neighbors(self, k4):
        view = DeletionView(k4)
        view.delete_node(3)
        assert view.degree(0) == 2
        assert set(view.neighbors(0)) == {1, 2}

    def test_materialize_matches_manual_subgraph(self, k5):
        view = DeletionView(k5)
        view.delete_node(4)
        view.delete_edge(0, 1)
        materialized = view.materialize()
        expected = k5.subgraph([0, 1, 2, 3])
        expected.remove_edge(0, 1)
        assert materialized == expected

    def test_delete_missing_node_raises(self, k4):
        view = DeletionView(k4)
        with pytest.raises(NodeNotFoundError):
            view.delete_node(99)

    def test_base_graph_untouched(self, k4):
        view = DeletionView(k4)
        view.delete_node(0)
        assert k4.number_of_nodes() == 4
        assert k4.number_of_edges() == 6

    def test_len_and_contains(self, k4):
        view = DeletionView(k4)
        assert len(view) == 4
        view.delete_node(1)
        assert 1 not in view
        assert len(view) == 3


class TestSubgraphHelpers:
    def test_induced_subgraph(self, k5):
        sub = induced_subgraph(k5, [0, 1, 2])
        assert sub == complete_graph(3)

    def test_filter_edges_by(self):
        graph = path_graph(5)
        filtered = filter_edges_by(graph, lambda u, v: u + v >= 5)
        assert filtered.edge_set() == {(2, 3), (3, 4)}

    def test_filter_edges_missing_edge_error_not_raised(self, k4):
        filtered = filter_edges_by(k4, lambda u, v: False)
        assert filtered.number_of_edges() == 0
