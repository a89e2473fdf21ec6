"""Unit tests for density, degeneracy and arboricity bounds."""

from __future__ import annotations

import pytest

from repro.graph.convert import networkx_available, to_networkx
from repro.graph.generators import cycle_graph, path_graph, star_graph
from repro.graph.properties import (
    arboricity_upper_bound,
    average_degree,
    degeneracy,
    degeneracy_ordering,
    degree_histogram,
    edge_density,
    graph_summary,
)
from repro.graph.simple_graph import UndirectedGraph


class TestDensityAndDegrees:
    def test_density_of_complete_graph_is_one(self, k5):
        assert edge_density(k5) == pytest.approx(1.0)

    def test_density_of_empty_and_tiny_graphs(self):
        assert edge_density(UndirectedGraph()) == 0.0
        single = UndirectedGraph()
        single.add_node(1)
        assert edge_density(single) == 0.0

    def test_density_of_path(self):
        graph = path_graph(4)
        assert edge_density(graph) == pytest.approx(2 * 3 / (4 * 3))

    def test_average_degree(self):
        assert average_degree(cycle_graph(6)) == pytest.approx(2.0)
        assert average_degree(UndirectedGraph()) == 0.0

    def test_degree_histogram(self):
        graph = star_graph(4)
        histogram = degree_histogram(graph)
        assert histogram == {4: 1, 1: 4}

    def test_graph_summary_keys(self, k4):
        summary = graph_summary(k4)
        assert summary["nodes"] == 4
        assert summary["edges"] == 6
        assert summary["max_degree"] == 3
        assert summary["density"] == pytest.approx(1.0)


class TestDegeneracy:
    def test_complete_graph_degeneracy(self, k5):
        assert degeneracy(k5) == 4

    def test_tree_degeneracy_is_one(self):
        assert degeneracy(path_graph(10)) == 1
        assert degeneracy(star_graph(10)) == 1

    def test_cycle_degeneracy_is_two(self):
        assert degeneracy(cycle_graph(7)) == 2

    def test_ordering_covers_all_nodes(self, random_graph):
        ordering, _value = degeneracy_ordering(random_graph)
        assert sorted(ordering, key=repr) == sorted(random_graph.nodes(), key=repr)

    def test_empty_graph(self):
        ordering, value = degeneracy_ordering(UndirectedGraph())
        assert ordering == []
        assert value == 0

    @pytest.mark.skipif(not networkx_available(), reason="networkx oracle unavailable")
    def test_matches_networkx_core_number(self, random_graph):
        import networkx as nx

        expected = max(nx.core_number(to_networkx(random_graph)).values())
        assert degeneracy(random_graph) == expected


class TestArboricityBound:
    def test_zero_for_edgeless_graph(self):
        assert arboricity_upper_bound(UndirectedGraph()) == 0

    def test_bound_for_complete_graph(self, k5):
        # True arboricity of K5 is 3; the bound must not be below it.
        assert 3 <= arboricity_upper_bound(k5) <= 4

    def test_bound_for_tree_is_one(self):
        assert arboricity_upper_bound(path_graph(20)) == 1

    def test_bound_never_exceeds_sqrt_m_rule(self, random_graph):
        edge_count = random_graph.number_of_edges()
        assert arboricity_upper_bound(random_graph) <= int(edge_count ** 0.5) + 1
