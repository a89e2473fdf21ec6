"""Property-based equivalence: the delta pipeline == full rebuilds.

The acceptance contract of delta-based snapshot maintenance is *bit-for-bit
equivalence*: for any graph and any mutation stream, chaining
``CSRGraph.apply_delta`` and ``incremental_truss_update`` must produce
exactly the same CSR arrays and trussness values as freezing and
decomposing the mutated graph from scratch, and a delta-applying
:class:`CTCEngine` must serve exactly the snapshots a full-rebuild engine
serves.  (Extends the ``tests/trusses/test_csr_equivalence.py`` pattern to
the dynamic setting.)
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.registry import load_dataset
from repro.engine import CTCEngine
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.graph.generators import (
    complete_graph,
    erdos_renyi_graph,
    relaxed_caveman_graph,
)
from repro.graph.keys import edge_key
from repro.trusses.csr_decomposition import csr_decompose, csr_truss_decomposition
from repro.trusses.incremental import incremental_truss_update
from repro.trusses.index import TrussIndex

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def base_graphs(draw):
    """Random graphs with enough triangles to exercise truss maintenance."""
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


mutation_streams = st.lists(
    st.tuples(
        st.sampled_from(["add_edge", "remove_edge", "remove_node", "add_node"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=12,
)

#: Streams of batches: each batch of one to four operations is chained into
#: one delta, as the engine chains the mutations between two reads.
#: ``add_label_node`` adds a ``str`` label, which flips an ``int`` graph's
#: node ids into ``repr`` order.
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


class TestCsrDeltaEquivalence:
    @common_settings
    @given(graph=base_graphs(), stream=batched_streams)
    def test_apply_delta_matches_from_graph(self, graph, stream):
        """Chained apply_delta snapshots are bit-for-bit full freezes.

        ``edge_origin`` maps every edge the two snapshots share to its old
        id (``-1`` for the rest), and ``removed_edge_ids`` lists the old ids
        of the edges that are gone.
        """
        csr = CSRGraph.from_graph(graph)
        for batch in stream:
            deltas = [_next_delta(graph, op, pick) for op, pick in batch]
            patch = csr.apply_delta(GraphDelta.chain(d for d in deltas if d is not None))
            fresh = CSRGraph.from_graph(graph)
            assert patch.csr.labels() == fresh.labels()
            for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
                assert np.array_equal(getattr(patch.csr, name), getattr(fresh, name)), name
            old_ids = {key: e for e, key in enumerate(csr.edge_keys())}
            new_keys = fresh.edge_keys()
            assert patch.edge_origin.tolist() == [old_ids.get(key, -1) for key in new_keys]
            gone = old_ids.keys() - set(new_keys)
            assert patch.removed_edge_ids.tolist() == sorted(old_ids[key] for key in gone)
            csr = patch.csr

    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_incremental_trussness_matches_decomposition(self, graph, stream):
        """Incrementally maintained trussness equals a from-scratch peel."""
        csr = CSRGraph.from_graph(graph)
        trussness = csr_truss_decomposition(csr)
        for op, pick in stream:
            delta = _next_delta(graph, op, pick)
            if delta is None:
                continue
            patch = csr.apply_delta(delta)
            trussness = incremental_truss_update(csr, trussness, patch)
            csr = patch.csr
            expected = csr_truss_decomposition(csr)
            assert np.array_equal(trussness, expected)

    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_composed_delta_equals_stepwise(self, graph, stream):
        """Applying the one composed delta equals applying each step in turn."""
        csr = CSRGraph.from_graph(graph)
        deltas = []
        for op, pick in stream:
            delta = _next_delta(graph, op, pick)
            if delta is not None:
                deltas.append(delta)
        composed = GraphDelta.chain(deltas)
        patched = csr.apply_delta(composed).csr
        fresh = CSRGraph.from_graph(graph)
        assert patched.labels() == fresh.labels()
        for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
            assert np.array_equal(getattr(patched, name), getattr(fresh, name)), name


def _friend_of_friend_pairs(graph, count: int, rng: random.Random) -> list:
    """``count`` distinct absent edges, each closing a path of length two."""
    nodes = sorted(graph.nodes())
    pairs: set = set()
    while len(pairs) < count:
        u = rng.choice(nodes)
        neighbors = sorted(graph.neighbors(u))
        if not neighbors:
            continue
        x = rng.choice(sorted(graph.neighbors(rng.choice(neighbors))))
        if x != u and not graph.has_edge(u, x):
            pairs.add(edge_key(u, x))
    return sorted(pairs)


class TestLargeBatches:
    """One delta of hundreds of edges on the registry ``dblp-like`` graph.

    The hypothesis suites above draw at most four operations per delta on
    small graphs; these fixed cases run the update's deletion seeding and
    its insertion pass at batch scale.
    """

    @pytest.fixture(scope="class")
    def dblp(self):
        graph = load_dataset("dblp-like").graph
        csr = CSRGraph.from_graph(graph)
        return graph, csr, csr_decompose(csr).trussness

    @pytest.mark.parametrize(
        "removals, inserts",
        [(300, 0), (0, 300), (300, 300)],
        ids=["remove-300", "insert-300", "mixed"],
    )
    def test_batch_matches_decomposition(self, dblp, removals, inserts):
        graph, csr, trussness = dblp
        rng = random.Random(removals + inserts)
        edges = sorted(edge_key(u, v) for u, v in graph.edges())
        delta = GraphDelta(
            removed_edges=rng.sample(edges, removals),
            added_edges=_friend_of_friend_pairs(graph, inserts, rng),
        )
        patch = csr.apply_delta(delta)
        updated = incremental_truss_update(csr, trussness, patch)
        assert np.array_equal(updated, csr_decompose(patch.csr).trussness)
        # The batch moved surviving edges' trussness, so the passes did work.
        carried = patch.edge_origin >= 0
        assert (updated[carried] != trussness[patch.edge_origin[carried]]).any()


def _edge_trussness(snapshot) -> dict:
    """The snapshot's per-edge trussness, keyed by canonical edge key."""
    return dict(zip(snapshot.csr.edge_keys(), snapshot.trussness.tolist()))


class TestEngineDeltaEquivalence:
    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_delta_engine_serves_full_rebuild_snapshots(self, graph, stream):
        """A patching engine and a rebuilding engine are indistinguishable."""
        delta_engine = CTCEngine(graph, delta_threshold=float("inf"))
        rebuild_engine = CTCEngine(graph, delta_threshold=0)
        delta_engine.snapshot()
        for op, pick in stream:
            mirror = graph.copy()
            delta = _next_delta(mirror, op, pick)
            if delta is None:
                continue
            for engine in (delta_engine, rebuild_engine):
                for node in delta.added_nodes:
                    engine.add_node(node)
                for u, v in delta.added_edges:
                    engine.add_edge(u, v)
                for u, v in delta.removed_edges:
                    if engine.graph.has_edge(u, v):
                        engine.remove_edge(u, v)
                for node in delta.removed_nodes:
                    engine.remove_node(node)
            graph = mirror
            patched = delta_engine.snapshot()
            rebuilt = rebuild_engine.snapshot()
            assert patched.graph == rebuilt.graph
            patched_trussness = _edge_trussness(patched)
            assert patched_trussness == _edge_trussness(rebuilt)
            # Both equal the dict-path decomposition of the mutated graph.
            assert patched_trussness == TrussIndex(graph).all_edge_trussness()
        assert rebuild_engine.stats.delta_applies == 0


class TestGraphDeltaAlgebra:
    def test_cancellation(self):
        add = GraphDelta(added_edges=[(1, 2)])
        remove = GraphDelta(removed_edges=[(2, 1)])
        assert add.then(remove).is_empty()
        assert remove.then(add).is_empty()

    def test_node_edge_cancellation(self):
        grow = GraphDelta(added_nodes=[9], added_edges=[(1, 9)])
        shrink = GraphDelta(removed_nodes=[9], removed_edges=[(9, 1)])
        assert grow.then(shrink).is_empty()

    def test_chain_keeps_net_effect(self):
        deltas = [
            GraphDelta(removed_edges=[(1, 2)]),
            GraphDelta(added_edges=[(1, 2)]),
            GraphDelta(removed_edges=[(1, 2)]),
        ]
        combined = GraphDelta.chain(deltas)
        assert combined.removed_edges == frozenset({(1, 2)})
        assert not combined.added_edges

    def test_size_and_touched_labels(self):
        delta = GraphDelta(added_nodes=[7], added_edges=[(7, 3)], removed_edges=[(4, 5)])
        assert delta.size() == 3
