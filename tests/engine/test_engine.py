"""Tests for the CTCEngine cache/invalidation and delta-propagation contracts."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.ctc.api import search
from repro.ctc.kernels import QueryKernel
from repro.engine import CTCEngine
from repro.exceptions import EdgeNotFoundError, GraphError
from repro.graph.generators import complete_graph, erdos_renyi_graph
from repro.trusses.index import TrussIndex


@pytest.fixture
def engine():
    return CTCEngine(erdos_renyi_graph(40, 0.2, seed=11))


def _edge_trussness(snapshot) -> dict:
    """The snapshot's per-edge trussness, keyed by canonical edge key."""
    return dict(zip(snapshot.csr.edge_keys(), snapshot.trussness.tolist()))


class TestCaching:
    def test_repeated_queries_hit_the_cache(self, engine):
        engine.query([0, 1], method="bulk-delete")
        engine.query([2, 3], method="bulk-delete")
        engine.query([0, 1], method="lctc", eta=20)
        assert engine.stats.misses == 1
        assert engine.stats.hits == 2

    def test_query_batch_builds_one_snapshot(self, engine):
        results = engine.query_batch([[0, 1], [2, 3], [4, 5]], method="bulk-delete")
        assert len(results) == 3
        assert engine.stats.misses == 1

    def test_snapshot_is_pinned_to_version(self, engine):
        first = engine.snapshot()
        engine.add_edge(997, 998)
        second = engine.snapshot()
        assert first.version != second.version
        assert not first.graph.has_node(997)
        assert second.graph.has_node(997)

    def test_lru_eviction(self):
        engine = CTCEngine(complete_graph(5), cache_size=2)
        versions = []
        for extra in range(4):
            engine.add_edge(100 + extra, 101 + extra)
            engine.snapshot()
            versions.append(engine.version)
        assert engine.cached_versions() == versions[-2:]
        assert engine.stats.evictions == 2

    def test_clear_cache(self, engine):
        engine.snapshot()
        engine.clear_cache()
        assert engine.cached_versions() == []
        engine.snapshot()
        assert engine.stats.misses == 2

    def test_cache_size_must_be_positive(self):
        with pytest.raises(ValueError):
            CTCEngine(complete_graph(3), cache_size=0)


class TestInvalidation:
    def test_mutations_bump_version(self, engine):
        version = engine.version
        engine.add_edge(900, 901)
        assert engine.version == version + 1
        engine.remove_edge(900, 901)
        assert engine.version == version + 2
        engine.add_node(950)
        assert engine.version == version + 3
        engine.remove_node(950)
        assert engine.version == version + 4

    def test_noop_mutations_do_not_bump(self, engine):
        engine.add_edge(0, 1)  # ensure the edge exists (may bump once)
        version = engine.version
        engine.add_edge(0, 1)  # already present
        engine.add_node(0)  # already present
        engine.add_edges_from([(0, 1)])  # all present
        assert engine.version == version

    def test_mutation_invalidates_cached_snapshot(self, engine):
        before = engine.query([0, 1], method="bulk-delete")
        engine.remove_node(max(engine.graph.node_set()))
        engine.query([0, 1], method="bulk-delete")
        assert engine.stats.misses == 2
        assert before.graph.number_of_nodes() >= 2  # old result untouched

    def test_remove_missing_edge_raises_without_bump(self, engine):
        version = engine.version
        with pytest.raises(EdgeNotFoundError):
            engine.remove_edge(777, 778)
        assert engine.version == version

    def test_partial_add_edges_from_still_bumps(self, engine):
        """Edges added before a mid-iterable failure must invalidate the cache."""
        engine.snapshot()
        version = engine.version
        with pytest.raises(GraphError):
            engine.add_edges_from([(800, 801), (802, 802)])  # self-loop fails
        assert engine.graph.has_edge(800, 801)
        assert engine.version == version + 1  # cache cannot serve stale state


class TestDeltaPipeline:
    def test_mutation_snapshot_is_delta_applied(self, engine):
        engine.snapshot()
        engine.add_edge(990, 991)
        engine.snapshot()
        assert engine.stats.delta_applies == 1
        assert engine.stats.full_rebuilds == 1  # the initial cold build only

    def test_delta_threshold_zero_always_rebuilds(self):
        engine = CTCEngine(complete_graph(6), delta_threshold=0)
        engine.snapshot()
        engine.add_edge(10, 11)
        engine.snapshot()
        assert engine.stats.delta_applies == 0
        assert engine.stats.full_rebuilds == 2

    def test_disabled_delta_log_always_rebuilds(self):
        engine = CTCEngine(complete_graph(6), delta_log_limit=0)
        engine.snapshot()
        engine.add_edge(10, 11)
        engine.snapshot()
        assert engine.logged_versions() == []
        assert engine.stats.full_rebuilds == 2

    def test_truncated_log_forces_full_rebuild(self):
        engine = CTCEngine(complete_graph(6), delta_log_limit=2)
        engine.snapshot()
        for extra in range(4):  # more mutations than the log retains
            engine.add_edge(100 + extra, 101 + extra)
        engine.snapshot()
        assert engine.stats.delta_applies == 0
        assert engine.stats.full_rebuilds == 2

    def test_oversized_delta_forces_full_rebuild(self):
        engine = CTCEngine(complete_graph(6), delta_threshold=0.1)
        engine.snapshot()  # 15 edges: budget is 1.5 changes
        engine.add_edges_from([(20, 21), (22, 23), (24, 25)])
        engine.snapshot()
        assert engine.stats.delta_applies == 0
        assert engine.stats.full_rebuilds == 2

    def test_cancelling_mutations_reuse_base_content(self, engine):
        first = engine.snapshot()
        engine.remove_edge(*sorted(engine.graph.edges())[0])
        engine.add_edge(*sorted(first.graph.edges())[0])
        second = engine.snapshot()
        assert second.version > first.version
        assert engine.stats.delta_applies == 1
        assert second.graph == first.graph
        assert second.csr is first.csr  # content identical: shared, not rebuilt

    def test_delta_snapshot_equals_full_rebuild(self, engine):
        engine.snapshot()
        victim = sorted(engine.graph.edges())[3]
        engine.remove_edge(*victim)
        engine.add_edge(990, 991)
        patched = engine.snapshot()
        rebuilt = CTCEngine(engine.graph, delta_threshold=0).snapshot()
        oracle = TrussIndex(engine.graph.copy())
        assert engine.stats.delta_applies == 1
        assert patched.graph == rebuilt.graph
        assert _edge_trussness(patched) == _edge_trussness(rebuilt)
        assert _edge_trussness(patched) == oracle.all_edge_trussness()

    def test_mutations_are_logged_as_deltas(self, engine):
        engine.add_edge(800, 801)
        engine.remove_edge(800, 801)
        assert len(engine.logged_versions()) == 2

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            CTCEngine(complete_graph(3), delta_threshold=-1)
        with pytest.raises(ValueError):
            CTCEngine(complete_graph(3), delta_log_limit=-1)


class TestLazyIndex:
    def test_cancelling_delta_shares_built_structures(self, engine):
        first = engine.snapshot()
        kernel = first.kernel
        edge = sorted(engine.graph.edges())[0]
        engine.remove_edge(*edge)
        engine.add_edge(*edge)
        second = engine.snapshot()
        assert second.kernel is kernel

    def test_kernel_is_memoized_per_snapshot(self, engine):
        snapshot = engine.snapshot()
        assert snapshot.kernel is snapshot.kernel


class TestLabelStructureSharing:
    """Kernel label structures are built once per node set."""

    @staticmethod
    def _label_structures(snapshot):
        kernel = snapshot.kernel
        return kernel.repr_rank, kernel.repr_rank_array, kernel.label_array

    def test_edge_only_delta_shares_label_structures(self, engine):
        engine.query([0, 1], method="bulk-delete")
        base = engine.snapshot()
        engine.remove_edge(*sorted(engine.graph.edges())[0])
        engine.query([0, 1], method="bulk-delete")
        patched = engine.snapshot()
        assert engine.stats.delta_applies == 1
        assert patched.kernel is not base.kernel
        for own, shared in zip(self._label_structures(patched), self._label_structures(base)):
            assert own is shared

    def test_concurrent_first_uses_share_one_copy(self):
        # Enough labels that building the ranks spans many thread switches.
        engine = CTCEngine(erdos_renyi_graph(3000, 0.002, seed=3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(4):
                engine.add_node(f"n{round_index}")  # a new node set: a fresh memo
                snapshots = [engine.snapshot()]
                for edge in sorted(engine.graph.edges(), key=repr)[:3]:
                    engine.remove_edge(*edge)
                    snapshots.append(engine.snapshot())
                results = []
                barrier = threading.Barrier(8)

                def read(snapshot):
                    barrier.wait(timeout=30)
                    results.append(snapshot.kernel.repr_rank)

                threads = [
                    threading.Thread(target=read, args=(snapshots[index % 4],))
                    for index in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(results) == 8
                assert len({id(rank) for rank in results}) == 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("label", [500, "x"])  # "x" flips the ids into repr order
    def test_node_adding_delta_builds_fresh_label_structures(self, engine, label):
        before = self._label_structures(engine.snapshot())
        engine.add_edge(0, label)
        snapshot = engine.snapshot()
        assert engine.stats.delta_applies == 1
        fresh = QueryKernel(snapshot.csr, snapshot.trussness)
        rank, rank_array, label_array = self._label_structures(snapshot)
        for own, old in zip((rank, rank_array, label_array), before):
            assert own is not old
        assert rank == fresh.repr_rank
        assert np.array_equal(rank_array, fresh.repr_rank_array)
        assert label_array.tolist() == fresh.label_array.tolist()
        index = TrussIndex(snapshot.graph)
        for method in ("basic", "bulk-delete", "lctc", "truss"):
            for query in ([0, 1], [label, 0]):
                via_snapshot = search(snapshot, query, method=method)
                via_index = search(index, query, method=method)
                assert via_snapshot.nodes == via_index.nodes, (method, query)
                assert set(via_snapshot.graph.edges()) == set(via_index.graph.edges())
                assert via_snapshot.trussness == via_index.trussness
                assert via_snapshot.query_distance == via_index.query_distance


class TestCorrectness:
    def test_engine_results_match_direct_search(self, engine):
        for query in ([0, 1], [5, 9], [2]):
            via_engine = engine.query(query, method="bulk-delete")
            direct = search(engine.graph, query, method="bulk-delete")
            assert via_engine.nodes == direct.nodes
            assert via_engine.trussness == direct.trussness

    def test_search_facade_accepts_engine(self, engine):
        result = search(engine, [0, 1], method="bulk-delete")
        assert result.contains_query()
        assert engine.stats.misses == 1

    def test_copy_semantics(self):
        graph = complete_graph(4)
        copying = CTCEngine(graph)
        copying.add_edge(50, 51)
        assert not graph.has_node(50)
        adopting = CTCEngine(graph, copy=False)
        adopting.add_edge(60, 61)
        assert graph.has_node(60)

    def test_empty_engine(self):
        engine = CTCEngine()
        assert engine.graph.number_of_nodes() == 0
        snapshot = engine.snapshot()
        assert snapshot.csr.number_of_edges() == 0


class TestDecompPipeline:
    """Full rebuilds pick their decomposition strategy by edge count
    (vector from DEFAULT_VECTOR_THRESHOLD edges up, bucket below) and hand
    its artifacts to the snapshot."""

    def test_vector_build_shares_incidence_and_supports(self):
        engine = CTCEngine(erdos_renyi_graph(40, 0.4, seed=11))  # 294 edges
        snapshot = engine.snapshot()
        assert snapshot.incidence is not None
        # No recount on access: the decomposition's own arrays are handed over.
        assert snapshot.supports is snapshot.incidence.supports
        # The snapshot's kernel sees the incidence for LCTC local reuse.
        assert snapshot.kernel.incidence is snapshot.incidence

    def test_bucket_build_has_supports_but_no_incidence(self):
        engine = CTCEngine(erdos_renyi_graph(40, 0.2, seed=11))  # 152 edges
        snapshot = engine.snapshot()
        assert snapshot.incidence is None
        assert snapshot.supports.shape == (snapshot.csr.number_of_edges(),)

    def test_delta_snapshot_computes_supports_lazily(self):
        import numpy as np

        from repro.trusses.csr_decomposition import csr_edge_supports

        engine = CTCEngine(erdos_renyi_graph(40, 0.2, seed=11))
        engine.snapshot()
        engine.add_edge(990, 991)
        patched = engine.snapshot()
        assert engine.stats.delta_applies == 1
        assert np.array_equal(patched.supports, csr_edge_supports(patched.csr))

    def test_incidence_seeded_deletions_match_full_rebuild(self):
        """The delta path seeded from the retained incidence stays exact."""
        import numpy as np

        graph = erdos_renyi_graph(40, 0.4, seed=7)  # 344 edges: vector build
        engine = CTCEngine(graph)
        base = engine.snapshot()
        assert base.incidence is not None
        for edge in sorted(graph.edges())[:6]:
            engine.remove_edge(*edge)
        patched = engine.snapshot()
        assert engine.stats.delta_applies == 1
        oracle = CTCEngine(engine.graph, delta_threshold=0).snapshot()
        assert oracle.incidence is not None
        assert np.array_equal(patched.trussness, oracle.trussness)
