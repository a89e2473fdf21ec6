"""Unit tests for k-core decomposition."""

from __future__ import annotations

import pytest

from repro.graph.convert import networkx_available, to_networkx
from repro.graph.generators import complete_graph, cycle_graph, star_graph
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.decomposition import truss_decomposition, k_truss_subgraph
from repro.trusses.kcore import (
    core_decomposition,
    degeneracy_core,
    k_core_subgraph,
    minimum_degree,
)


class TestCoreDecomposition:
    def test_empty_graph(self):
        assert core_decomposition(UndirectedGraph()) == {}

    def test_complete_graph(self, k5):
        assert set(core_decomposition(k5).values()) == {4}

    def test_tree_core_numbers_are_one(self):
        cores = core_decomposition(star_graph(6))
        assert set(cores.values()) == {1}

    def test_cycle_core_numbers_are_two(self):
        cores = core_decomposition(cycle_graph(5))
        assert set(cores.values()) == {2}

    def test_clique_with_pendant(self):
        graph = complete_graph(4)
        graph.add_edge(0, 99)
        cores = core_decomposition(graph)
        assert cores[99] == 1
        assert cores[0] == 3

    @pytest.mark.skipif(not networkx_available(), reason="networkx oracle unavailable")
    def test_matches_networkx(self, random_graph):
        import networkx as nx

        expected = nx.core_number(to_networkx(random_graph))
        assert core_decomposition(random_graph) == expected


class TestKCoreSubgraph:
    def test_k_core_degrees(self, random_graph):
        for k in (2, 3):
            core = k_core_subgraph(random_graph, k)
            assert all(core.degree(node) >= k for node in core.nodes())

    def test_degeneracy_core_nonempty_for_nonempty_graph(self, random_graph):
        core = degeneracy_core(random_graph)
        assert core.number_of_nodes() > 0

    def test_degeneracy_core_empty_graph(self):
        assert degeneracy_core(UndirectedGraph()).number_of_nodes() == 0

    def test_minimum_degree(self, k4, path4):
        assert minimum_degree(k4) == 3
        assert minimum_degree(path4) == 1
        assert minimum_degree(UndirectedGraph()) == 0


class TestTrussCoreRelationship:
    def test_k_truss_is_k_minus_1_core(self, figure1):
        """Section 2: a connected k-truss is also a (k-1)-core."""
        trussness = truss_decomposition(figure1)
        top = max(trussness.values())
        for k in range(3, top + 1):
            truss = k_truss_subgraph(figure1, k, trussness)
            for node in truss.nodes():
                assert truss.degree(node) >= k - 1

    def test_k_truss_min_degree_on_random_graph(self, random_graph):
        trussness = truss_decomposition(random_graph)
        if not trussness:
            pytest.skip("random graph has no edges")
        top = max(trussness.values())
        for k in range(3, top + 1):
            truss = k_truss_subgraph(random_graph, k, trussness)
            if truss.number_of_nodes():
                assert minimum_degree(truss) >= k - 1
