"""Property-based equivalence: ``patch_incidence`` == fresh enumeration.

The tentpole contract of the incrementally-maintained triangle incidence is
*bit-identity*: for any snapshot and any :class:`~repro.graph.delta.GraphDelta`,
carrying the incidence across ``CSRGraph.apply_delta`` with
:func:`~repro.graph.csr_triangles.patch_incidence` must produce exactly the
arrays ``csr_triangle_incidence(patch.csr)`` would — same triangle rows in
the same order, same supports, same incidence CSR.  The suite drives that
contract across random delta chains (the engine's forward path), inverted
deltas (time-travel backward replay), and FIFO window-expiry streams (the
sliding-window engine's workload), always chaining the *patched* structure
forward so each step also proves the previous output was a valid base.
Each delta of a chain composes one to four operations, as the engine
composes the mutations between two reads, and a ``str`` label added to an
``int`` graph flips its node ids into ``repr`` order: the one patch that
reorders edge ids, which re-canonicalizes instead of splicing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import (
    TriangleIncidence,
    csr_triangle_incidence,
    patch_incidence,
)
from repro.graph.delta import GraphDelta
from repro.graph.generators import (
    complete_graph,
    erdos_renyi_graph,
    relaxed_caveman_graph,
)
from repro.graph.simple_graph import UndirectedGraph

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def base_graphs(draw):
    """Random graphs with enough triangles to exercise the patch paths."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(["er", "caveman", "complete"]))
    if kind == "er":
        n = draw(st.integers(min_value=4, max_value=25))
        p = draw(st.floats(min_value=0.2, max_value=0.7))
        return erdos_renyi_graph(n, p, seed=seed)
    if kind == "caveman":
        cliques = draw(st.integers(min_value=2, max_value=4))
        size = draw(st.integers(min_value=3, max_value=6))
        rewire = draw(st.floats(min_value=0.0, max_value=0.4))
        return relaxed_caveman_graph(cliques, size, rewire, seed=seed)
    return complete_graph(draw(st.integers(min_value=3, max_value=8)))


#: Streams of batches: each batch of one to four operations is chained into
#: one delta.  ``add_label_node`` adds a ``str`` label.
batched_streams = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(
                ["add_edge", "remove_edge", "remove_node", "add_node", "add_label_node"]
            ),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=8,
)


def _sorted_labels(items):
    """Sort like :meth:`CSRGraph.from_graph`: by value, by ``repr`` if mixed."""
    items = list(items)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def _next_delta(graph, op, pick):
    """Mutate ``graph`` per ``(op, pick)`` and return the normalized delta.

    Mirrors what the engine's mutation methods record; returns ``None``
    when the drawn operation is a no-op on the current graph.
    """
    nodes = _sorted_labels(graph.nodes())
    fresh = 1 + max((node for node in nodes if isinstance(node, int)), default=0)
    if op == "add_edge":
        absent = [
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1:]
            if not graph.has_edge(u, v)
        ]
        absent.append((nodes[pick % len(nodes)], fresh + pick % 7))
        u, v = absent[pick % len(absent)]
        added_nodes = [x for x in (u, v) if not graph.has_node(x)]
        graph.add_edge(u, v)
        return GraphDelta(added_nodes=added_nodes, added_edges=[(u, v)])
    if op == "remove_edge":
        edges = _sorted_labels(graph.edges())
        if not edges:
            return None
        u, v = edges[pick % len(edges)]
        graph.remove_edge(u, v)
        return GraphDelta(removed_edges=[(u, v)])
    if op == "remove_node":
        if len(nodes) <= 2:
            return None
        node = nodes[pick % len(nodes)]
        incident = [(node, other) for other in graph.neighbors(node)]
        graph.remove_node(node)
        return GraphDelta(removed_nodes=[node], removed_edges=incident)
    if op == "add_label_node":
        label, other = f"n{pick % 13}", nodes[pick % len(nodes)]
        if graph.has_node(label):
            return None
        graph.add_edge(label, other)
        return GraphDelta(added_nodes=[label], added_edges=[(label, other)])
    node = fresh + 499 + pick % 13
    graph.add_node(node)
    return GraphDelta(added_nodes=[node])


def _batched_deltas(graph, stream):
    """Yield one chained delta per batch of ``stream``, mutating ``graph``."""
    for batch in stream:
        deltas = [_next_delta(graph, op, pick) for op, pick in batch]
        yield GraphDelta.chain(delta for delta in deltas if delta is not None)


def assert_incidence_identical(
    patched: TriangleIncidence, fresh: TriangleIncidence
) -> None:
    """Bit-identity over every array the structure is made of."""
    assert patched.num_triangles == fresh.num_triangles
    assert patched.edges.dtype == fresh.edges.dtype
    assert np.array_equal(patched.edges, fresh.edges)
    assert np.array_equal(patched.supports, fresh.supports)
    assert np.array_equal(patched.inc_indptr, fresh.inc_indptr)
    assert np.array_equal(patched.inc_triangles, fresh.inc_triangles)


class TestForwardChains:
    @common_settings
    @given(graph=base_graphs(), stream=batched_streams)
    def test_patched_incidence_is_bit_identical_along_chains(self, graph, stream):
        """Each patched structure == fresh enumeration, then becomes the base."""
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        for delta in _batched_deltas(graph, stream):
            patch = csr.apply_delta(delta)
            incidence = patch_incidence(incidence, patch)
            csr = patch.csr
            assert_incidence_identical(incidence, csr_triangle_incidence(csr))

    @common_settings
    @given(graph=base_graphs(), stream=batched_streams)
    def test_patched_supports_feed_truss_invariants(self, graph, stream):
        """The patched incidence keeps the structural invariants intact."""
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        for delta in _batched_deltas(graph, stream):
            patch = csr.apply_delta(delta)
            incidence = patch_incidence(incidence, patch)
            csr = patch.csr
            num_edges = csr.number_of_edges()
            assert incidence.supports.shape == (num_edges,)
            assert incidence.inc_indptr.shape == (num_edges + 1,)
            assert np.array_equal(np.diff(incidence.inc_indptr), incidence.supports)
            if incidence.num_triangles:
                assert np.array_equal(
                    np.bincount(
                        incidence.inc_triangles, minlength=incidence.num_triangles
                    ),
                    np.full(incidence.num_triangles, 3),
                )

    def test_empty_delta_returns_the_same_structure(self):
        graph = complete_graph(6)
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        patch = csr.apply_delta(GraphDelta())
        assert patch_incidence(incidence, patch) is incidence

    def test_fresh_entries_of_consecutive_edges_share_a_splice_point(self):
        """Fresh entries bound for one slot go in in edge order.

        Completing K4 from the triangle {0, 1, 2} plus the edge (2, 3)
        numbers the edges (0,1)=0, (0,2)=1, (0,3)=2*, (1,2)=3, (1,3)=4*,
        (2,3)=5 (* inserted) and the triangles t0=(0,1,3) (the survivor),
        t1=(0,2,4), t2=(1,2,5), t3=(3,4,5).  Edge 2 has no surviving entry
        and edge 3's fresh t3 (corner 0) ranks before its surviving t0
        (corner 2), so both rows' fresh entries land on one splice point:
        ordered by (corner, triangle) alone, t3 would precede t1 and t2.
        """
        graph = complete_graph(3)
        graph.add_edge(2, 3)
        csr = CSRGraph.from_graph(graph)
        patch = csr.apply_delta(GraphDelta(added_edges=[(0, 3), (1, 3)]))
        patched = patch_incidence(csr_triangle_incidence(csr), patch)
        assert_incidence_identical(patched, csr_triangle_incidence(patch.csr))
        start, stop = patched.inc_indptr[2], patched.inc_indptr[4]
        assert patched.inc_triangles[start:stop].tolist() == [1, 2, 3, 0]


class TestInvertedDeltas:
    @common_settings
    @given(graph=base_graphs(), stream=batched_streams)
    def test_backward_replay_restores_the_original_arrays(self, graph, stream):
        """Patching by ``delta.inverted()`` is the time-travel read path."""
        csr = CSRGraph.from_graph(graph)
        origin = csr_triangle_incidence(csr)
        incidence = origin
        deltas = []
        for delta in _batched_deltas(graph, stream):
            deltas.append(delta)
            patch = csr.apply_delta(delta)
            incidence = patch_incidence(incidence, patch)
            csr = patch.csr
        for delta in reversed(deltas):
            patch = csr.apply_delta(delta.inverted())
            incidence = patch_incidence(incidence, patch)
            csr = patch.csr
            assert_incidence_identical(incidence, csr_triangle_incidence(csr))
        # Fully unwound: bit-identical to the enumeration we started from.
        assert_incidence_identical(incidence, origin)


class TestWindowExpiryStreams:
    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.integers(min_value=8, max_value=20),
        density=st.floats(min_value=0.25, max_value=0.6),
    )
    def test_fifo_expiry_deltas_stay_bit_identical(self, seed, num_nodes, density):
        """The sliding-window workload: each arrival expels the oldest edges."""
        population = sorted(
            erdos_renyi_graph(num_nodes, density, seed=seed).edges(), key=repr
        )
        if len(population) < 4:
            return
        window = max(3, 2 * len(population) // 3)
        graph = UndirectedGraph()
        fifo: list[tuple] = []
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        for u, v in population:
            added_nodes = [x for x in (u, v) if not graph.has_node(x)]
            graph.add_edge(u, v)
            fifo.append((u, v))
            removed_edges = []
            removed_nodes = []
            while len(fifo) > window:
                old_u, old_v = fifo.pop(0)
                graph.remove_edge(old_u, old_v)
                removed_edges.append((old_u, old_v))
                # Mirror SlidingWindowEngine: isolated endpoints expire too.
                for node in (old_u, old_v):
                    if graph.has_node(node) and graph.degree(node) == 0:
                        graph.remove_node(node)
                        removed_nodes.append(node)
            delta = GraphDelta(
                added_nodes=added_nodes,
                added_edges=[(u, v)],
                removed_edges=removed_edges,
                removed_nodes=removed_nodes,
            )
            patch = csr.apply_delta(delta)
            incidence = patch_incidence(incidence, patch)
            csr = patch.csr
            assert_incidence_identical(incidence, csr_triangle_incidence(csr))
