"""Snapshots thaw their dict-form graph lazily and free by refcount.

No build path — full rebuild or delta apply — hands a snapshot a dict-form
graph: the array kernels never read one, and :attr:`EngineSnapshot.graph`
thaws it from the CSR the first time a dict consumer (the ``mdc``/``qdc``
baselines, a :class:`TrussIndex` built over it) asks.  The thawed graph inserts nodes in
CSR label order, not store order, so these tests also pin that no answer
depends on adjacency iteration order.

Nothing a snapshot owns points back at it, so an evicted snapshot must be
freed by reference counting alone — checked with the cyclic collector off.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.ctc.api import search
from repro.engine import CTCEngine, DurabilityConfig, SlidingWindowEngine
from repro.graph.generators import erdos_renyi_graph
from repro.graph.keys import edge_key
from repro.trusses.index import TrussIndex

CSR_METHODS = ("basic", "bulk-delete", "lctc", "truss")
QUERIES = ([0, 1], [2, 3])


@pytest.fixture
def engine():
    return CTCEngine(erdos_renyi_graph(40, 0.2, seed=11))


def _edge_set(graph) -> set:
    return {edge_key(u, v) for u, v in graph.edges()}


def _assert_same_content(thawed, store) -> None:
    assert set(thawed.nodes()) == set(store.nodes())
    assert _edge_set(thawed) == _edge_set(store)


def _outcome(result) -> tuple:
    return (
        frozenset(result.nodes),
        frozenset(_edge_set(result.graph)),
        result.trussness,
        result.query_distance,
    )


def _mutate(engine: CTCEngine) -> None:
    engine.remove_edge(*sorted(engine.graph.edges())[5])
    engine.add_edge(0, 990)


def _assert_consumers_match_fresh_index(snapshot, store) -> None:
    """Consumers of the snapshot and its thawed graph match a fresh index.

    The dict-path algorithms run over ``TrussIndex(snapshot.graph)``, whose
    adjacency follows the thawed (CSR label) order; the oracle indexes a
    copy of the store, in store order.  The kernels answer on the snapshot.
    """
    thawed = TrussIndex(snapshot.graph)
    oracle = TrussIndex(store.copy())
    for query in QUERIES:
        for method in CSR_METHODS:
            expected = _outcome(search(oracle, query, method=method))
            assert _outcome(search(thawed, query, method=method)) == expected
            assert _outcome(search(snapshot, query, method=method)) == expected
        for method in ("mdc", "qdc"):
            got = search(snapshot, query, method=method)
            assert _outcome(got) == _outcome(search(oracle, query, method=method))


class TestLazyThaw:
    def test_full_rebuild_builds_no_graph(self, engine):
        snapshot = engine.snapshot()
        assert engine.stats.full_rebuilds == 1
        assert snapshot._graph is None
        _assert_same_content(snapshot.graph, engine.graph)
        _assert_consumers_match_fresh_index(snapshot, engine.graph)

    def test_delta_apply_builds_no_graph(self, engine):
        engine.snapshot()
        _mutate(engine)
        patched = engine.snapshot()
        assert engine.stats.delta_applies == 1
        assert patched._graph is None

    def test_csr_queries_never_thaw(self, engine):
        engine.snapshot()
        _mutate(engine)
        for query in QUERIES:
            for method in CSR_METHODS:
                engine.query(query, method=method)
        assert engine.stats.delta_applies == 1
        assert engine.snapshot()._graph is None

    def test_thawed_graph_matches_the_store(self, engine):
        engine.snapshot()
        _mutate(engine)
        patched = engine.snapshot()
        _assert_same_content(patched.graph, engine.graph)
        assert patched._graph is not None

    def test_dict_consumers_match_a_fresh_index(self, engine):
        engine.snapshot()
        _mutate(engine)
        patched = engine.snapshot()
        _assert_consumers_match_fresh_index(patched, engine.graph)
        # The equal answers came from the thawed graph, not from a copy.
        assert engine.stats.delta_applies == 1

    def test_time_travel_read_thaws_the_pinned_version(self, engine):
        engine.snapshot()
        _mutate(engine)
        pinned = engine.version
        state = engine.graph.copy()
        engine.add_edge(1, 991)
        engine.remove_edge(0, 990)
        engine.snapshot()  # newest cached; the pinned read replays backward
        for method in CSR_METHODS:
            engine.query([0, 1], method=method, at_version=pinned)
        past = engine.snapshot_at(pinned)
        assert engine.stats.time_travel_reads == 1
        assert engine.stats.full_rebuilds == 1
        assert past._graph is None
        _assert_same_content(past.graph, state)
        _assert_consumers_match_fresh_index(past, state)

    def test_window_expiry_snapshot_thaws_correctly(self):
        edges = sorted(erdos_renyi_graph(40, 0.2, seed=11).edges())
        window = len(edges) - 4
        engine = SlidingWindowEngine(window=window)
        engine.add_edges_from(edges[:window])
        engine.snapshot()
        engine.add_edges_from(edges[window:])  # each arrival expires one edge
        expired = engine.snapshot()
        assert engine.stats.delta_applies == 1
        assert engine.stats.full_rebuilds == 1
        for method in CSR_METHODS:
            engine.query([0, 1], method=method)
        assert expired._graph is None
        _assert_same_content(expired.graph, engine.graph)
        _assert_consumers_match_fresh_index(expired, engine.graph)


class TestCancellingDelta:
    def test_cancelled_mutation_keeps_recovered_base_unthawed(self, tmp_path):
        config = DurabilityConfig(path=tmp_path / "store", fsync="off", checkpoint_every=None)
        original = CTCEngine(erdos_renyi_graph(30, 0.2, seed=9), durability=config)
        original.checkpoint()
        original.close()
        recovered = CTCEngine.recover(config)
        try:
            recovered.add_edge(500, 501)
            recovered.remove_edge(500, 501)
            result = recovered.query([0, 1], method="bulk-delete")
            assert result.contains_query()
            assert recovered.stats.delta_applies == 1
            assert recovered.stats.full_rebuilds == 0
            assert recovered.snapshot()._graph is None
        finally:
            recovered.close()


class TestEvictionFreesByRefcount:
    def test_evicted_snapshot_is_freed_without_the_cyclic_collector(self):
        gc.collect()
        gc.disable()
        try:
            engine = CTCEngine(erdos_renyi_graph(40, 0.2, seed=11), cache_size=1)
            engine.query([0, 1])
            snapshot = engine.snapshot()
            assert snapshot._kernel is not None
            snapshot_ref = weakref.ref(snapshot)
            trussness_ref = weakref.ref(snapshot.trussness)
            del snapshot
            engine.add_edge(0, 990)
            engine.query([0, 1])
            assert engine.stats.evictions == 1
            assert snapshot_ref() is None
            assert trussness_ref() is None
        finally:
            gc.enable()

    def test_dropped_engine_is_freed_without_the_cyclic_collector(self):
        gc.collect()
        gc.disable()
        try:
            engine = CTCEngine(erdos_renyi_graph(40, 0.2, seed=11))
            engine.query([0, 1])
            engine.add_edge(0, 990)
            engine.query([0, 1])
            engine_ref = weakref.ref(engine)
            snapshot_ref = weakref.ref(engine.snapshot())
            del engine
            assert engine_ref() is None
            assert snapshot_ref() is None
        finally:
            gc.enable()

    def test_kernel_enumeration_is_counted_after_its_snapshot_died(self):
        # 152 edges: the bucket strategy enumerates no incidence, so the
        # kernel must.
        engine = CTCEngine(erdos_renyi_graph(40, 0.2, seed=11))
        snapshot = engine.snapshot()
        assert snapshot.incidence is None
        kernel = snapshot.kernel
        snapshot_ref = weakref.ref(snapshot)
        del snapshot
        engine.clear_cache()
        assert snapshot_ref() is None
        kernel.ensure_incidence()
        assert engine.stats.incidence_enumerations == 1
