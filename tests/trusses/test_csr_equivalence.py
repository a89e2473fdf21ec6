"""Property-based equivalence: CSR array paths == dict path.

The acceptance contract of the CSR fast paths is *drop-in equivalence*: for
any graph, freezing to a :class:`CSRGraph` and running either array-based
decomposition strategy — the sequential bucket queue or the vectorized
triangle enumeration + level-synchronous peel — must produce exactly the
same canonical-edge-key dicts as the original dict-based implementations,
and the two strategies must produce **bit-identical** trussness arrays
(the tentpole guarantee the full-rebuild benchmark relies on).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import csr_triangle_incidence
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    relaxed_caveman_graph,
    star_graph,
)
from repro.graph.simple_graph import UndirectedGraph
from repro.graph.triangles import all_edge_supports
from repro.trusses.csr_decomposition import (
    DEFAULT_VECTOR_THRESHOLD,
    csr_decompose,
    csr_edge_supports,
    csr_truss_decomposition,
    peel_incidence,
)
from repro.trusses.decomposition import truss_decomposition

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def generator_graphs(draw):
    """Random graphs drawn from the library's own generators (Erdos-Renyi,
    Barabasi-Albert, relaxed caveman) plus the deterministic classics."""
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


class TestCsrDictEquivalence:
    @common_settings
    @given(graph=generator_graphs())
    def test_supports_identical(self, graph):
        """Array-path supports equal dict-path supports, edge for edge."""
        csr = CSRGraph.from_graph(graph)
        assert all_edge_supports(csr) == all_edge_supports(graph)

    @common_settings
    @given(graph=generator_graphs())
    def test_truss_decomposition_identical(self, graph):
        """Array-path trussness equals dict-path trussness, edge for edge."""
        csr = CSRGraph.from_graph(graph)
        assert truss_decomposition(csr) == truss_decomposition(graph)

    @common_settings
    @given(graph=generator_graphs())
    def test_array_outputs_are_dense(self, graph):
        """The raw array outputs cover every edge id exactly once."""
        csr = CSRGraph.from_graph(graph)
        supports = csr_edge_supports(csr)
        trussness = csr_truss_decomposition(csr)
        assert supports.shape == (csr.number_of_edges(),)
        assert trussness.shape == (csr.number_of_edges(),)
        if csr.number_of_edges():
            assert int(trussness.min()) >= 2
            # Trussness is bounded by support + 2 (Definition 2).
            assert bool((trussness <= supports + 2).all())

    def test_string_labelled_graph(self):
        """Equivalence holds for non-integer node labels too."""
        from repro.datasets.paper_figures import figure_1_graph

        graph = figure_1_graph()
        csr = CSRGraph.from_graph(graph)
        assert truss_decomposition(csr) == truss_decomposition(graph)
        assert all_edge_supports(csr) == all_edge_supports(graph)


class TestVectorBucketEquivalence:
    """The level-synchronous vector peel is bit-identical to the bucket queue."""

    @common_settings
    @given(graph=generator_graphs())
    def test_vector_equals_bucket_equals_dict(self, graph):
        """vector == bucket arrays, and both == the dict-path decomposition."""
        csr = CSRGraph.from_graph(graph)
        vector = csr_decompose(csr, method="vector")
        bucket = csr_decompose(csr, method="bucket")
        assert np.array_equal(vector.trussness, bucket.trussness)
        dict_result = truss_decomposition(graph)
        assert {
            csr.edge_key_of(e): int(vector.trussness[e])
            for e in range(csr.number_of_edges())
        } == dict_result

    @common_settings
    @given(graph=generator_graphs())
    def test_auto_matches_pinned_strategies(self, graph):
        """"auto" resolves by size but never changes the result."""
        csr = CSRGraph.from_graph(graph)
        auto = csr_decompose(csr, method="auto")
        expected = "vector" if csr.number_of_edges() >= DEFAULT_VECTOR_THRESHOLD else "bucket"
        if csr.number_of_edges():
            assert auto.method == expected
        assert np.array_equal(auto.trussness, csr_truss_decomposition(csr, method="vector"))

    @common_settings
    @given(graph=generator_graphs())
    def test_peel_incidence_standalone(self, graph):
        """Peeling a prebuilt incidence equals the full decomposition."""
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        assert np.array_equal(
            peel_incidence(incidence),
            csr_truss_decomposition(csr, method="bucket"),
        )

    def test_unknown_method_rejected(self):
        csr = CSRGraph.from_graph(complete_graph(4))
        with pytest.raises(ValueError, match="decomposition method"):
            csr_decompose(csr, method="simd")

    def test_decompose_reports_artifacts(self):
        """The vector pass returns the incidence it enumerated; bucket does not."""
        csr = CSRGraph.from_graph(complete_graph(6))
        vector = csr_decompose(csr, method="vector")
        assert vector.incidence is not None
        assert vector.incidence.num_triangles == 20
        bucket = csr_decompose(csr, method="bucket")
        assert bucket.incidence is None


class TestVectorAdversarialCases:
    def test_empty_graph(self):
        csr = CSRGraph.from_graph(UndirectedGraph())
        for method in ("auto", "vector", "bucket"):
            assert csr_decompose(csr, method=method).trussness.size == 0

    def test_nodes_without_edges(self):
        graph = UndirectedGraph()
        for node in range(5):
            graph.add_node(node)
        csr = CSRGraph.from_graph(graph)
        assert csr_decompose(csr, method="vector").trussness.size == 0

    @pytest.mark.parametrize("graph", [star_graph(8), cycle_graph(9)])
    def test_triangle_free_graphs_peel_at_two(self, graph):
        csr = CSRGraph.from_graph(graph)
        vector = csr_decompose(csr, method="vector")
        assert set(vector.trussness.tolist()) == {2}
        assert np.array_equal(vector.trussness, csr_decompose(csr, method="bucket").trussness)

    def test_complete_graph_is_one_level(self):
        csr = CSRGraph.from_graph(complete_graph(7))
        assert set(csr_decompose(csr, method="vector").trussness.tolist()) == {7}

    def test_disconnected_components_decompose_independently(self):
        graph = UndirectedGraph()
        for a in range(5):  # K5: trussness 5
            for b in range(a + 1, 5):
                graph.add_edge(a, b)
        for offset in (10,):  # plus a triangle-free path
            graph.add_edge(offset, offset + 1)
            graph.add_edge(offset + 1, offset + 2)
        csr = CSRGraph.from_graph(graph)
        vector = csr_decompose(csr, method="vector")
        assert sorted(set(vector.trussness.tolist())) == [2, 5]
        assert np.array_equal(vector.trussness, csr_decompose(csr, method="bucket").trussness)

    def test_self_loops_rejected_before_the_pipeline(self):
        """The simple-graph layer refuses self-loops, so no strategy sees one."""
        graph = UndirectedGraph()
        with pytest.raises(GraphError, match="self-loop"):
            graph.add_edge("a", "a")

    def test_parallel_edges_collapse_before_the_pipeline(self):
        """Re-adding an edge is a no-op: the CSR layer never sees multi-edges."""
        graph = UndirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        csr = CSRGraph.from_graph(graph)
        assert csr.number_of_edges() == 1
        assert csr_decompose(csr, method="vector").trussness.tolist() == [2]
