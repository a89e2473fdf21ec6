"""Tests for the CSRGraph frozen snapshot type."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import CTCEngine
from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.graph.generators import complete_graph, erdos_renyi_graph, star_graph
from repro.graph.simple_graph import UndirectedGraph, edge_key


class TestConstruction:
    def test_empty_graph(self):
        csr = CSRGraph.from_graph(UndirectedGraph())
        assert csr.number_of_nodes() == 0
        assert csr.number_of_edges() == 0
        assert list(csr.edges()) == []

    def test_isolated_nodes_survive(self):
        graph = UndirectedGraph()
        graph.add_nodes_from([3, 1, 2])
        csr = CSRGraph.from_graph(graph)
        assert csr.number_of_nodes() == 3
        assert csr.number_of_edges() == 0
        assert all(csr.degree(i) == 0 for i in range(3))

    def test_labels_sorted_when_comparable(self):
        graph = UndirectedGraph([(5, 2), (2, 9)])
        csr = CSRGraph.from_graph(graph)
        assert csr.labels() == [2, 5, 9]
        assert csr.node_id(2) == 0
        assert csr.node_label(2) == 9

    def test_mixed_label_types_fall_back_to_repr_order(self):
        graph = UndirectedGraph([(1, "a"), ("a", (2, 3))])
        csr = CSRGraph.from_graph(graph)
        assert set(csr.labels()) == {1, "a", (2, 3)}
        # Round trip preserves the structure regardless of ordering.
        assert csr.to_graph() == graph

    def test_rows_are_sorted(self):
        graph = erdos_renyi_graph(30, 0.3, seed=1)
        csr = CSRGraph.from_graph(graph)
        for node in range(csr.number_of_nodes()):
            row = csr.neighbor_ids(node).tolist()
            assert row == sorted(row)

    def test_roundtrip_equality(self):
        graph = erdos_renyi_graph(25, 0.2, seed=4)
        assert CSRGraph.from_graph(graph).to_graph() == graph


def _reference_freeze(graph: UndirectedGraph) -> dict:
    """The freeze spelled out edge by edge: what ``from_graph`` must return."""
    try:
        labels = sorted(graph.nodes())
    except TypeError:
        labels = sorted(graph.nodes(), key=repr)
    ids = {label: position for position, label in enumerate(labels)}
    rows = [sorted(ids[other] for other in graph.neighbors(label)) for label in labels]
    edges = [(u, v) for u, row in enumerate(rows) for v in row if u < v]
    edge_id = {edge: e for e, edge in enumerate(edges)}
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return {
        "labels": labels,
        "indptr": indptr,
        "indices": [v for row in rows for v in row],
        "slot_edge": [edge_id[(min(u, v), max(u, v))] for u, row in enumerate(rows) for v in row],
        "edge_u": [u for u, _ in edges],
        "edge_v": [v for _, v in edges],
    }


_LABELS = {
    "int": st.integers(-5, 40),
    "str": st.text(alphabet="abcx", max_size=3),
    "tuple": st.tuples(st.integers(0, 3), st.text(alphabet="ab", max_size=1)),
    "mixed": st.one_of(
        st.integers(0, 9), st.text(alphabet="ab", max_size=2), st.tuples(st.integers(0, 2))
    ),
}


@st.composite
def labelled_graphs(draw, kind: str) -> UndirectedGraph:
    """A graph over ``kind`` labels, isolated nodes and the empty graph included."""
    labels = draw(st.lists(_LABELS[kind], unique=True, max_size=14))
    graph = UndirectedGraph()
    graph.add_nodes_from(labels)
    if len(labels) >= 2:
        pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
        for u, v in draw(st.lists(pairs, max_size=40)):
            if u != v:
                graph.add_edge(u, v)
    return graph


class TestConversionContracts:
    """The freeze and the thaw against their edge-by-edge definitions."""

    @pytest.mark.parametrize("kind", sorted(_LABELS))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_from_graph_matches_per_edge_reference(self, kind, data):
        graph = data.draw(labelled_graphs(kind))
        csr = CSRGraph.from_graph(graph)
        expected = _reference_freeze(graph)
        assert csr.labels() == expected["labels"]
        for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
            array = getattr(csr, name)
            assert array.dtype == np.int64, name
            assert array.tolist() == expected[name], name

    @pytest.mark.parametrize("kind", sorted(_LABELS))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_to_graph_fills_neighbour_sets_in_ascending_id_order(self, kind, data):
        graph = data.draw(labelled_graphs(kind))
        csr = CSRGraph.from_graph(graph)
        # add_edge in edge-id order inserts every neighbour set's members
        # in ascending id order; a set's iteration order follows it.
        built = UndirectedGraph()
        built.add_nodes_from(csr.labels())
        for u, v in csr.edges():
            built.add_edge(u, v)
        thawed = csr.to_graph()
        assert thawed == graph
        assert [(node, list(thawed.neighbors(node))) for node in thawed.nodes()] == [
            (node, list(built.neighbors(node))) for node in built.nodes()
        ]
        for node in thawed.nodes():
            ascending = set()
            for neighbor in csr.neighbor_ids(csr.node_id(node)).tolist():
                ascending.add(csr.node_label(neighbor))
            assert list(thawed.neighbors(node)) == list(ascending)

    @pytest.mark.parametrize("method", ["truss", "bulk-delete", "lctc"])
    def test_kernel_result_is_the_thawed_community(self, method):
        graph = UndirectedGraph(
            (f"n{u}", f"n{v}") for u, v in erdos_renyi_graph(60, 0.2, seed=11).edges()
        )
        engine = CTCEngine(graph)
        csr = engine.snapshot().csr
        result = engine.query(["n0", "n1"], method=method)
        node_ids = [csr.node_id(node) for node in result.graph.nodes()]
        edge_ids = [csr.edge_id(csr.node_id(u), csr.node_id(v)) for u, v in result.graph.edges()]
        expected = csr.edge_subgraph(edge_ids, include_node_ids=node_ids).csr.to_graph()
        assert result.graph == expected
        assert [(node, list(result.graph.neighbors(node))) for node in result.graph.nodes()] == [
            (node, list(expected.neighbors(node))) for node in expected.nodes()
        ]


class TestAdjacency:
    def test_degree_matches_dict_graph(self):
        graph = erdos_renyi_graph(30, 0.25, seed=2)
        csr = CSRGraph.from_graph(graph)
        for label in graph.nodes():
            assert csr.degree(csr.node_id(label)) == graph.degree(label)

    def test_has_edge(self):
        graph = star_graph(4)
        csr = CSRGraph.from_graph(graph)
        hub = csr.node_id(0)
        for leaf_label in (1, 2, 3, 4):
            leaf = csr.node_id(leaf_label)
            assert csr.has_edge(hub, leaf)
            assert csr.has_edge(leaf, hub)
        assert not csr.has_edge(csr.node_id(1), csr.node_id(2))

    def test_common_neighbors_match_dict_graph(self):
        graph = erdos_renyi_graph(30, 0.3, seed=3)
        csr = CSRGraph.from_graph(graph)
        for u, v in graph.edges():
            expected = {csr.node_id(w) for w in graph.common_neighbors(u, v)}
            got = set(csr.common_neighbor_ids(csr.node_id(u), csr.node_id(v)).tolist())
            assert got == expected
            assert csr.support(csr.node_id(u), csr.node_id(v)) == len(expected)

    def test_node_lookup_errors(self):
        csr = CSRGraph.from_graph(complete_graph(3))
        with pytest.raises(NodeNotFoundError):
            csr.node_id(99)
        assert 99 not in csr
        assert 0 in csr


class TestEdgeIds:
    def test_edge_ids_are_dense_and_symmetric(self):
        graph = erdos_renyi_graph(20, 0.3, seed=5)
        csr = CSRGraph.from_graph(graph)
        seen = set()
        for u, v in graph.edges():
            i, j = csr.node_id(u), csr.node_id(v)
            e = csr.edge_id(i, j)
            assert e == csr.edge_id(j, i)
            seen.add(e)
        assert seen == set(range(csr.number_of_edges()))

    def test_edge_endpoints_ordered(self):
        csr = CSRGraph.from_graph(erdos_renyi_graph(20, 0.3, seed=6))
        for e in range(csr.number_of_edges()):
            u, v = csr.edge_endpoint_ids(e)
            assert u < v
            assert csr.edge_id(u, v) == e

    def test_edge_keys_match_dict_graph(self):
        graph = erdos_renyi_graph(20, 0.25, seed=7)
        csr = CSRGraph.from_graph(graph)
        assert set(csr.edge_keys()) == graph.edge_set()
        assert set(csr.edges()) == graph.edge_set()

    def test_missing_edge_raises(self):
        csr = CSRGraph.from_graph(UndirectedGraph([(0, 1), (1, 2)]))
        with pytest.raises(EdgeNotFoundError):
            csr.edge_id(csr.node_id(0), csr.node_id(2))

    def test_edge_key_of_uses_canonical_order(self):
        graph = UndirectedGraph([("b", "a")])
        csr = CSRGraph.from_graph(graph)
        assert csr.edge_key_of(0) == edge_key("a", "b")


class TestApplyDeltaValidation:
    """Non-normalized deltas must be rejected, not silently mis-applied."""

    def _csr(self):
        return CSRGraph.from_graph(UndirectedGraph([(0, 1), (1, 2), (0, 2), (2, 3)]))

    def test_empty_delta_shares_snapshot(self):
        csr = self._csr()
        patch = csr.apply_delta(GraphDelta())
        assert patch.csr is csr
        assert patch.edge_origin.tolist() == list(range(csr.number_of_edges()))

    def test_remove_missing_edge_rejected(self):
        with pytest.raises(EdgeNotFoundError):
            self._csr().apply_delta(GraphDelta(removed_edges=[(0, 3)]))

    def test_add_present_edge_rejected(self):
        with pytest.raises(GraphError):
            self._csr().apply_delta(GraphDelta(added_edges=[(0, 1)]))

    def test_add_present_node_rejected(self):
        with pytest.raises(GraphError):
            self._csr().apply_delta(GraphDelta(added_nodes=[2]))

    def test_remove_missing_node_rejected(self):
        with pytest.raises(NodeNotFoundError):
            self._csr().apply_delta(GraphDelta(removed_nodes=[99]))

    def test_implicit_incident_edge_removal_rejected(self):
        """Removing a node without listing its incident edges is an error."""
        with pytest.raises(GraphError):
            self._csr().apply_delta(
                GraphDelta(removed_nodes=[2], removed_edges=[(2, 3)])
            )

    def test_edge_to_missing_endpoint_rejected(self):
        with pytest.raises(NodeNotFoundError):
            self._csr().apply_delta(GraphDelta(added_edges=[(0, 77)]))

    def test_edge_origin_tracks_renumbering(self):
        csr = self._csr()
        patch = csr.apply_delta(GraphDelta(removed_edges=[(0, 1)]))
        new = patch.csr
        assert patch.removed_edge_ids.tolist() == [csr.edge_id(0, 1)]
        for e in range(new.number_of_edges()):
            origin = int(patch.edge_origin[e])
            assert origin >= 0
            assert new.edge_key_of(e) == csr.edge_key_of(origin)


class TestEdgeSubgraph:
    def test_matches_from_graph_of_thawed_subset(self):
        import numpy as np

        graph = erdos_renyi_graph(18, 0.4, seed=5)
        csr = CSRGraph.from_graph(graph)
        subset = [e for e in range(csr.number_of_edges()) if e % 3 != 0]
        sub = csr.edge_subgraph(subset)
        expected_graph = UndirectedGraph()
        for e in subset:
            u, v = csr.edge_endpoint_ids(e)
            expected_graph.add_edge(csr.node_label(u), csr.node_label(v))
        expected = CSRGraph.from_graph(expected_graph)
        assert sub.csr.labels() == expected.labels()
        for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
            assert np.array_equal(getattr(sub.csr, name), getattr(expected, name)), name

    def test_origin_arrays_map_back_to_parent(self):
        csr = CSRGraph.from_graph(complete_graph(5))
        sub = csr.edge_subgraph([0, 4, 7])
        for new_edge, old_edge in enumerate(sub.edge_origin.tolist()):
            assert sub.csr.edge_key_of(new_edge) == csr.edge_key_of(old_edge)
        for new_node, old_node in enumerate(sub.node_origin.tolist()):
            assert sub.csr.node_label(new_node) == csr.node_label(old_node)

    def test_include_node_ids_keeps_isolated_nodes(self):
        csr = CSRGraph.from_graph(complete_graph(4))
        sub = csr.edge_subgraph([0], include_node_ids=[3])
        assert sub.csr.number_of_edges() == 1
        assert csr.node_label(3) in sub.csr
        assert sub.csr.degree(sub.csr.node_id(csr.node_label(3))) == 0

    def test_empty_edge_set(self):
        csr = CSRGraph.from_graph(complete_graph(3))
        sub = csr.edge_subgraph([])
        assert sub.csr.number_of_nodes() == 0
        assert sub.csr.number_of_edges() == 0

    def test_duplicate_ids_tolerated(self):
        csr = CSRGraph.from_graph(complete_graph(4))
        assert csr.edge_subgraph([1, 1, 2, 2]).csr.number_of_edges() == 2

    def test_out_of_range_rejected(self):
        csr = CSRGraph.from_graph(complete_graph(3))
        with pytest.raises(GraphError):
            csr.edge_subgraph([99])
        with pytest.raises(GraphError):
            csr.edge_subgraph([0], include_node_ids=[99])
