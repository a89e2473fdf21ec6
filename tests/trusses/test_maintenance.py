"""Unit tests for k-truss maintenance under deletions (Algorithm 3)."""

from __future__ import annotations

import pytest

from repro.graph.generators import erdos_renyi_graph
from repro.graph.triangles import all_edge_supports
from repro.trusses.decomposition import k_truss_subgraph
from repro.trusses.extraction import find_maximal_connected_truss
from repro.trusses.maintenance import KTrussMaintainer


class TestDeleteVertices:
    def test_example_4_cascade(self, figure1, figure1_index, figure1_query):
        """Deleting p1 from G0 cascades to p2 and p3 (Example 4)."""
        community, k = find_maximal_connected_truss(figure1_index, figure1_query)
        maintainer = KTrussMaintainer(community, k)
        removed_vertices, removed_edges = maintainer.delete_vertex("p1")
        assert removed_vertices == {"p1", "p2", "p3"}
        assert maintainer.graph.node_set() == {
            "q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5",
        }
        assert maintainer.verify()
        assert len(removed_edges) == 6  # the whole {q3, p1, p2, p3} clique's edges

    def test_deleting_nothing_changes_nothing(self, k5):
        maintainer = KTrussMaintainer(k5, 5)
        removed_vertices, removed_edges = maintainer.delete_vertices([])
        assert removed_vertices == set()
        assert removed_edges == set()
        assert maintainer.graph == k5

    def test_missing_vertices_ignored(self, k4):
        maintainer = KTrussMaintainer(k4, 4)
        removed_vertices, _ = maintainer.delete_vertices([99])
        assert removed_vertices == set()
        assert maintainer.graph == k4

    def test_deleting_one_clique_vertex_destroys_k_truss(self, k4):
        # K4 is a 4-truss; removing any vertex leaves a triangle, which is not
        # a 4-truss, so the cascade wipes out everything.
        maintainer = KTrussMaintainer(k4, 4)
        removed_vertices, _ = maintainer.delete_vertex(0)
        assert removed_vertices == {0, 1, 2, 3}
        assert maintainer.graph.number_of_nodes() == 0

    def test_k3_maintenance_keeps_triangle(self, k4):
        maintainer = KTrussMaintainer(k4, 3)
        maintainer.delete_vertex(0)
        assert maintainer.graph.node_set() == {1, 2, 3}
        assert maintainer.verify()

    def test_original_graph_never_mutated(self, figure1, figure1_index, figure1_query):
        community, k = find_maximal_connected_truss(figure1_index, figure1_query)
        before_nodes = community.node_set()
        before_edges = community.edge_set()
        maintainer = KTrussMaintainer(community, k)
        maintainer.delete_vertex("p1")
        assert community.node_set() == before_nodes
        assert community.edge_set() == before_edges

    def test_batch_deletion_equivalent_to_recomputation(self):
        graph = erdos_renyi_graph(30, 0.3, seed=13)
        k = 4
        start = k_truss_subgraph(graph, k)
        if start.number_of_edges() == 0:
            pytest.skip("no 4-truss in this random graph")
        victims = sorted(start.nodes())[:2]
        maintainer = KTrussMaintainer(start, k)
        maintainer.delete_vertices(victims)
        survivor = maintainer.graph
        # Oracle: recompute the maximal k-truss of start minus the victims.
        reduced = start.copy()
        reduced.remove_nodes_from(victims)
        expected = k_truss_subgraph(reduced, k)
        assert survivor.edge_set() == expected.edge_set()

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_sequential_deletions_keep_support_invariant(self, seed):
        graph = erdos_renyi_graph(25, 0.35, seed=seed)
        k = 4
        start = k_truss_subgraph(graph, k)
        if start.number_of_edges() == 0:
            pytest.skip("no 4-truss in this random graph")
        maintainer = KTrussMaintainer(start, k)
        for victim in sorted(start.nodes())[:5]:
            if maintainer.graph.has_node(victim):
                maintainer.delete_vertex(victim)
            supports = all_edge_supports(maintainer.graph)
            assert all(value >= k - 2 for value in supports.values())

    def test_support_tracking_matches_recomputation(self, figure1, figure1_index, figure1_query):
        community, k = find_maximal_connected_truss(figure1_index, figure1_query)
        maintainer = KTrussMaintainer(community, k)
        maintainer.delete_vertex("p1")
        fresh = all_edge_supports(maintainer.graph)
        for (u, v), support in fresh.items():
            assert maintainer.support(u, v) == support

    def test_snapshot_is_independent_copy(self, k5):
        maintainer = KTrussMaintainer(k5, 5)
        snapshot = maintainer.snapshot()
        maintainer.delete_vertex(0)
        assert snapshot == k5
