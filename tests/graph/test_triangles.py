"""Unit tests for triangle enumeration, edge support and clustering."""

from __future__ import annotations

import pytest

from repro.graph.convert import networkx_available, to_networkx
from repro.graph.generators import complete_graph, cycle_graph, star_graph
from repro.graph.simple_graph import UndirectedGraph, edge_key
from repro.graph.triangles import (
    all_edge_supports,
    average_clustering_coefficient,
    edge_support,
    global_clustering_coefficient,
    iter_triangles,
    local_clustering_coefficient,
    node_triangle_counts,
    triangle_count,
    triangles_of_edge,
)


class TestEdgeSupport:
    def test_triangle_edge_support(self, triangle):
        assert edge_support(triangle, 0, 1) == 1

    def test_complete_graph_support(self, k5):
        # In K5 every edge has 3 common neighbours.
        for u, v in k5.edges():
            assert edge_support(k5, u, v) == 3

    def test_path_has_no_support(self, path4):
        for u, v in path4.edges():
            assert edge_support(path4, u, v) == 0

    def test_figure1_worked_example(self, figure1):
        """sup(q2, v2) = 3 (Section 2 of the paper)."""
        assert edge_support(figure1, "q2", "v2") == 3

    def test_all_edge_supports_matches_pairwise(self, random_graph):
        supports = all_edge_supports(random_graph)
        for (u, v), support in supports.items():
            assert support == edge_support(random_graph, u, v)

    def test_all_edge_supports_keys_are_canonical(self, k4):
        supports = all_edge_supports(k4)
        assert set(supports) == {edge_key(u, v) for u, v in k4.edges()}


class TestTriangleEnumeration:
    def test_triangle_count_complete_graphs(self):
        assert triangle_count(complete_graph(3)) == 1
        assert triangle_count(complete_graph(4)) == 4
        assert triangle_count(complete_graph(5)) == 10
        assert triangle_count(complete_graph(6)) == 20

    def test_no_triangles_in_cycles_and_stars(self):
        assert triangle_count(cycle_graph(5)) == 0
        assert triangle_count(star_graph(6)) == 0

    def test_each_triangle_listed_once(self, k4):
        triangles = list(iter_triangles(k4))
        normalized = {tuple(sorted(triangle, key=repr)) for triangle in triangles}
        assert len(triangles) == len(normalized) == 4

    def test_triangles_of_edge(self, k4):
        found = triangles_of_edge(k4, 0, 1)
        third_vertices = {w for _, _, w in found}
        assert third_vertices == {2, 3}

    def test_node_triangle_counts(self, k4):
        counts = node_triangle_counts(k4)
        assert all(value == 3 for value in counts.values())

    @pytest.mark.skipif(not networkx_available(), reason="networkx oracle unavailable")
    def test_triangle_count_matches_networkx(self, random_graph):
        import networkx as nx

        expected = sum(nx.triangles(to_networkx(random_graph)).values()) // 3
        assert triangle_count(random_graph) == expected


class TestClustering:
    def test_local_clustering_of_clique_node(self, k4):
        assert local_clustering_coefficient(k4, 0) == pytest.approx(1.0)

    def test_local_clustering_of_star_hub(self):
        graph = star_graph(5)
        assert local_clustering_coefficient(graph, 0) == 0.0

    def test_low_degree_nodes_are_zero(self, path4):
        assert local_clustering_coefficient(path4, 0) == 0.0

    def test_average_clustering_empty_graph(self):
        assert average_clustering_coefficient(UndirectedGraph()) == 0.0

    def test_global_clustering_complete_graph(self, k5):
        assert global_clustering_coefficient(k5) == pytest.approx(1.0)

    def test_global_clustering_triangle_free(self):
        assert global_clustering_coefficient(cycle_graph(6)) == 0.0

    @pytest.mark.skipif(not networkx_available(), reason="networkx oracle unavailable")
    def test_average_clustering_matches_networkx(self, random_graph):
        import networkx as nx

        expected = nx.average_clustering(to_networkx(random_graph))
        assert average_clustering_coefficient(random_graph) == pytest.approx(expected)
