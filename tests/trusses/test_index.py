"""Unit tests for the truss index (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph.generators import complete_graph, erdos_renyi_graph, path_graph
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.decomposition import truss_decomposition, vertex_trussness
from repro.trusses.index import TrussIndex


class TestLookups:
    def test_edge_trussness_matches_decomposition(self, figure1):
        index = TrussIndex(figure1)
        expected = truss_decomposition(figure1)
        for (u, v), value in expected.items():
            assert index.edge_trussness(u, v) == value
            assert index.edge_trussness(v, u) == value

    def test_vertex_trussness_matches_decomposition(self, figure1):
        index = TrussIndex(figure1)
        expected = vertex_trussness(figure1)
        for node, value in expected.items():
            assert index.vertex_trussness(node) == value

    def test_precomputed_trussness_reused(self, figure1):
        trussness = truss_decomposition(figure1)
        index = TrussIndex(figure1, edge_trussness=trussness)
        assert index.all_edge_trussness() == trussness

    def test_missing_edge_raises(self, k4):
        index = TrussIndex(k4)
        with pytest.raises(EdgeNotFoundError):
            index.edge_trussness(0, 99)

    def test_missing_vertex_raises(self, k4):
        index = TrussIndex(k4)
        with pytest.raises(NodeNotFoundError):
            index.vertex_trussness(99)

    def test_max_trussness_and_levels(self, figure1):
        index = TrussIndex(figure1)
        assert index.max_trussness() == 4
        assert index.trussness_levels() == [4, 2]

    def test_max_trussness_edgeless_graph(self):
        graph = UndirectedGraph()
        graph.add_node(1)
        index = TrussIndex(graph)
        assert index.max_trussness() == 2
        assert index.vertex_trussness(1) == 1


class TestLevelScans:
    def test_incident_edges_at_least(self, figure1):
        index = TrussIndex(figure1)
        # q1 has trussness-4 edges to q2, v1, v2 and a trussness-2 edge to t.
        high = dict(index.incident_edges_at_least("q1", 4))
        assert set(high) == {"q2", "v1", "v2"}
        everything = dict(index.incident_edges_at_least("q1", 2))
        assert set(everything) == {"q2", "v1", "v2", "t"}

    def test_incident_edges_in_range(self, figure1):
        index = TrussIndex(figure1)
        only_low = dict(index.incident_edges_in_range("q1", 2, 4))
        assert set(only_low) == {"t"}
        nothing = dict(index.incident_edges_in_range("q1", 5, float("inf")))
        assert nothing == {}
        all_edges = dict(index.incident_edges_in_range("q1", 2, float("inf")))
        assert set(all_edges) == {"q2", "v1", "v2", "t"}

    def test_next_level_below(self, figure1):
        index = TrussIndex(figure1)
        assert index.next_level_below("q1", 4) == 2
        assert index.next_level_below("q1", 2) is None
        assert index.next_level_below("p1", 4) is None

    def test_scan_on_missing_node_raises(self, k4):
        index = TrussIndex(k4)
        with pytest.raises(NodeNotFoundError):
            list(index.incident_edges_at_least(99, 2))
        with pytest.raises(NodeNotFoundError):
            index.next_level_below(99, 2)

    def test_scans_cover_all_incident_edges(self):
        graph = erdos_renyi_graph(30, 0.2, seed=9)
        index = TrussIndex(graph)
        for node in graph.nodes():
            found = {other for other, _ in index.incident_edges_at_least(node, 2)}
            assert found == set(graph.neighbors(node))

    def test_reported_trussness_values_match(self, figure1):
        index = TrussIndex(figure1)
        for node in figure1.nodes():
            for other, value in index.incident_edges_at_least(node, 2):
                assert value == index.edge_trussness(node, other)


class TestSizeAccounting:
    def test_size_in_entries_formula(self, k5):
        index = TrussIndex(k5)
        nodes = k5.number_of_nodes()
        edges = k5.number_of_edges()
        assert index.size_in_entries() == 2 * edges + edges + nodes

    def test_repr(self, k4):
        text = repr(TrussIndex(k4))
        assert "max_trussness=4" in text

    def test_index_over_path_graph(self):
        index = TrussIndex(path_graph(5))
        assert index.max_trussness() == 2
        assert index.trussness_levels() == [2]

    def test_index_over_complete_graph(self):
        index = TrussIndex(complete_graph(6))
        assert index.max_trussness() == 6
