"""Tests for the vectorized triangle enumerator (:mod:`repro.graph.csr_triangles`).

The contract is exactness against the dict-path primitives: the enumerated
triangle set equals :func:`iter_triangles`, the bincount supports equal
:func:`all_edge_supports`, and restricting an incidence structure to an edge
subset equals enumerating the edge subgraph from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import (
    csr_triangle_incidence,
    subset_incidence,
    triangle_nodes,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    relaxed_caveman_graph,
    star_graph,
)
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.triangles import all_edge_supports, iter_triangles

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def generator_graphs(draw):
    """Random graphs from the library's generators plus deterministic classics."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(["er", "ba", "caveman", "complete", "cycle", "star"]))
    if kind == "er":
        n = draw(st.integers(min_value=2, max_value=40))
        p = draw(st.floats(min_value=0.05, max_value=0.6))
        return erdos_renyi_graph(n, p, seed=seed)
    if kind == "ba":
        n = draw(st.integers(min_value=5, max_value=40))
        m = draw(st.integers(min_value=1, max_value=4))
        return barabasi_albert_graph(n, m, seed=seed)
    if kind == "caveman":
        cliques = draw(st.integers(min_value=2, max_value=5))
        size = draw(st.integers(min_value=3, max_value=7))
        rewire = draw(st.floats(min_value=0.0, max_value=0.4))
        return relaxed_caveman_graph(cliques, size, rewire, seed=seed)
    if kind == "complete":
        return complete_graph(draw(st.integers(min_value=1, max_value=10)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(min_value=3, max_value=12)))
    return star_graph(draw(st.integers(min_value=1, max_value=12)))


def _triangle_label_set(csr: CSRGraph, triples: np.ndarray) -> set[tuple]:
    return {
        tuple(sorted((repr(csr.node_label(u)), repr(csr.node_label(v)), repr(csr.node_label(w)))))
        for u, v, w in triples.tolist()
    }


class TestEnumeration:
    @common_settings
    @given(graph=generator_graphs())
    def test_triangle_set_matches_iter_triangles(self, graph):
        """Every triangle exactly once, equal to the dict-path enumerator."""
        csr = CSRGraph.from_graph(graph)
        triples = triangle_nodes(csr)
        want = {
            tuple(sorted((repr(u), repr(v), repr(w)))) for u, v, w in iter_triangles(graph)
        }
        assert len(triples) == len(want)
        assert _triangle_label_set(csr, triples) == want

    @common_settings
    @given(graph=generator_graphs())
    def test_supports_match_dict_path(self, graph):
        """Bincount supports equal the compact-forward dict supports."""
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        want = all_edge_supports(graph)
        assert {
            csr.edge_key_of(e): int(incidence.supports[e])
            for e in range(csr.number_of_edges())
        } == want

    @common_settings
    @given(graph=generator_graphs())
    def test_incidence_structure_invariants(self, graph):
        """Incidence CSR is consistent with the triangle array."""
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        num_edges = csr.number_of_edges()
        num_triangles = incidence.num_triangles
        assert incidence.edges.shape == (num_triangles, 3)
        assert incidence.inc_indptr.shape == (num_edges + 1,)
        assert incidence.inc_triangles.shape == (3 * num_triangles,)
        # Per-edge incidence degree is exactly the edge's support.
        assert np.array_equal(np.diff(incidence.inc_indptr), incidence.supports)
        # Each triangle appears exactly three times across the incidence lists.
        if num_triangles:
            assert np.array_equal(
                np.bincount(incidence.inc_triangles, minlength=num_triangles),
                np.full(num_triangles, 3),
            )
        # Triangle corners are three distinct edges whose endpoints nest as
        # (u, v), (u, w), (v, w) with u < v < w.
        for e_uv, e_uw, e_vw in incidence.edges.tolist():
            u, v = int(csr.edge_u[e_uv]), int(csr.edge_v[e_uv])
            assert int(csr.edge_u[e_uw]) == u
            assert int(csr.edge_u[e_vw]) == v
            w = int(csr.edge_v[e_uw])
            assert int(csr.edge_v[e_vw]) == w
            assert u < v < w
        # Incidence lists point back to triangles containing the edge.
        for edge in range(num_edges):
            start, stop = int(incidence.inc_indptr[edge]), int(incidence.inc_indptr[edge + 1])
            for triangle in incidence.inc_triangles[start:stop].tolist():
                assert edge in incidence.edges[triangle].tolist()

    @common_settings
    @given(graph=generator_graphs(), budget=st.integers(min_value=1, max_value=64))
    def test_candidate_budget_batching_is_invisible(self, graph, budget):
        """Any batch budget yields the same triangles and supports."""
        csr = CSRGraph.from_graph(graph)
        full = csr_triangle_incidence(csr)
        batched = csr_triangle_incidence(csr, candidate_budget=budget)
        assert np.array_equal(full.supports, batched.supports)
        assert {tuple(row) for row in full.edges.tolist()} == {
            tuple(row) for row in batched.edges.tolist()
        }


class TestSubsetIncidence:
    @common_settings
    @given(graph=generator_graphs(), seed=st.integers(min_value=0, max_value=1000))
    def test_subset_equals_fresh_subgraph_enumeration(self, graph, seed):
        """Restricting the incidence == enumerating the edge subgraph."""
        csr = CSRGraph.from_graph(graph)
        num_edges = csr.number_of_edges()
        if num_edges == 0:
            return
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, num_edges + 1))
        selected = np.unique(rng.choice(num_edges, size=size, replace=False))
        sub = csr.edge_subgraph(selected)
        restricted = subset_incidence(csr_triangle_incidence(csr), selected)
        fresh = csr_triangle_incidence(sub.csr)
        assert np.array_equal(restricted.supports, fresh.supports)
        assert {tuple(row) for row in restricted.edges.tolist()} == {
            tuple(row) for row in fresh.edges.tolist()
        }

    def test_empty_selection(self):
        csr = CSRGraph.from_graph(complete_graph(5))
        restricted = subset_incidence(csr_triangle_incidence(csr), np.zeros(0, dtype=np.int64))
        assert restricted.num_triangles == 0
        assert restricted.supports.size == 0


class TestAdversarialCases:
    def test_empty_graph(self):
        incidence = csr_triangle_incidence(CSRGraph.from_graph(UndirectedGraph()))
        assert incidence.num_triangles == 0
        assert incidence.supports.size == 0
        assert incidence.inc_indptr.tolist() == [0]

    def test_isolated_nodes_only(self):
        graph = UndirectedGraph()
        for node in range(4):
            graph.add_node(node)
        incidence = csr_triangle_incidence(CSRGraph.from_graph(graph))
        assert incidence.num_triangles == 0

    @pytest.mark.parametrize(
        "graph,expected_triangles",
        [
            (star_graph(6), 0),  # triangle-free: every edge shares the hub
            (cycle_graph(8), 0),  # triangle-free: girth 8
            (complete_graph(6), 20),  # C(6,3)
        ],
    )
    def test_known_triangle_counts(self, graph, expected_triangles):
        incidence = csr_triangle_incidence(CSRGraph.from_graph(graph))
        assert incidence.num_triangles == expected_triangles
        if expected_triangles == 0:
            assert not incidence.supports.any()

    def test_rows_list_triangles_in_stable_order_above_16_bit_edge_ids(self):
        """Each incidence row lists its triangles by (corner, triangle id).

        :func:`~repro.graph.csr_triangles.patch_incidence` splices rows in
        that order, so it must hold at every size, including past 65,535
        edges, where the edge ids no longer fit one 16-bit sort key:
        7,000 disjoint K5 give 70,000 edges, each in three triangles.
        """
        graph = UndirectedGraph()
        for offset in range(0, 35_000, 5):
            for a in range(5):
                for b in range(a + 1, 5):
                    graph.add_edge(offset + a, offset + b)
        incidence = csr_triangle_incidence(CSRGraph.from_graph(graph))
        assert incidence.supports.size == 70_000
        order = np.argsort(incidence.edges.ravel(order="F"), kind="stable")
        assert np.array_equal(incidence.inc_triangles, order % incidence.num_triangles)

    def test_disconnected_components_enumerate_independently(self):
        graph = UndirectedGraph()
        for offset in (0, 10):  # two disjoint K4s
            for a in range(4):
                for b in range(a + 1, 4):
                    graph.add_edge(offset + a, offset + b)
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        assert incidence.num_triangles == 8  # 4 per K4
        assert set(incidence.supports.tolist()) == {2}
