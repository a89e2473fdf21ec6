"""Unit tests for the query-distance snapshots used by the peeling loops."""

from __future__ import annotations

from repro.ctc.query_distance import compute_snapshot
from repro.graph.generators import path_graph
from repro.graph.simple_graph import UndirectedGraph


class TestComputeSnapshot:
    def test_distances_match_definition(self, figure1):
        snapshot = compute_snapshot(figure1, ["q2", "q3"])
        assert snapshot.distances["v2"] == 2
        assert snapshot.distances["q2"] == 2  # dist(q2, q3) = 2
        assert snapshot.distances["p1"] == 3

    def test_graph_query_distance(self, figure1):
        grey = figure1.subgraph(
            {"q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5", "p1", "p2", "p3"}
        )
        snapshot = compute_snapshot(grey, ["q1", "q2", "q3"])
        assert snapshot.graph_query_distance == 4  # dist(p1, q1) inside G0

    def test_empty_graph(self):
        snapshot = compute_snapshot(UndirectedGraph(), [])
        assert snapshot.graph_query_distance == 0.0
        assert snapshot.farthest_vertex() is None


class TestFarthestVertex:
    def test_example_4_farthest_is_a_p_node(self, figure1):
        grey = figure1.subgraph(
            {"q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5", "p1", "p2", "p3"}
        )
        snapshot = compute_snapshot(grey, ["q1", "q2", "q3"])
        assert snapshot.farthest_vertex() in {"p1", "p2", "p3"}

    def test_ties_prefer_non_query_nodes(self):
        graph = path_graph(3)  # 0 - 1 - 2
        snapshot = compute_snapshot(graph, [0, 2])
        # Both 0 and 2 have query distance 2; node 1 has distance 1.  The
        # farthest is a query node here, which the paper's algorithm allows.
        assert snapshot.farthest_vertex() in {0, 2}

    def test_deterministic_tie_break(self, k5):
        first = compute_snapshot(k5, [0]).farthest_vertex()
        second = compute_snapshot(k5, [0]).farthest_vertex()
        assert first == second


class TestVerticesAtLeast:
    def test_example_7_bulk_set(self, figure1, figure1_index, figure1_query):
        """L = {q1, q3, p1, p2, p3} for d - 1 = 3 on G0 (Example 7)."""
        from repro.trusses.extraction import find_maximal_connected_truss

        community, _k = find_maximal_connected_truss(figure1_index, figure1_query)
        snapshot = compute_snapshot(community, figure1_query)
        assert snapshot.graph_query_distance == 4
        bulk = snapshot.vertices_at_least(3)
        assert bulk == {"q1", "q3", "p1", "p2", "p3"}

    def test_exclude_query_variant(self, figure1, figure1_index, figure1_query):
        from repro.trusses.extraction import find_maximal_connected_truss

        community, _k = find_maximal_connected_truss(figure1_index, figure1_query)
        snapshot = compute_snapshot(community, figure1_query)
        bulk = snapshot.vertices_at_least(3, exclude_query=True)
        assert bulk == {"p1", "p2", "p3"}

    def test_threshold_above_everything(self, k4):
        snapshot = compute_snapshot(k4, [0])
        assert snapshot.vertices_at_least(10) == set()


class TestUnreachable:
    def test_has_unreachable_vertex(self):
        graph = UndirectedGraph([(1, 2), (3, 4)])
        snapshot = compute_snapshot(graph, [1])
        assert snapshot.has_unreachable_vertex()

    def test_all_reachable(self, k4):
        snapshot = compute_snapshot(k4, [0])
        assert not snapshot.has_unreachable_vertex()

    def test_repr(self, k4):
        snapshot = compute_snapshot(k4, [0])
        assert "QueryDistanceSnapshot" in repr(snapshot)
