"""Engine-level incidence carrying: the counters prove the artifact's lifecycle.

``EngineStats.incidence_enumerations`` / ``incidence_patches`` make the
triangle-incidence lifecycle observable: a vector full rebuild enumerates
once, every delta apply patches the retained structure forward, a
cancelling delta shares it untouched, time-travel reads patch it through
replay, and a bucket-path snapshot joins the patchable chain when a csr
kernel's lazy enumeration is adopted.  Full rebuilds pick the strategy by
edge count (vector from ``DEFAULT_VECTOR_THRESHOLD`` edges up), so each
test picks its graph's size for the path it covers and asserts the
strategy that ran.  Each test pins the counters *and*
checks the carried arrays are bit-identical to a fresh
:func:`~repro.graph.csr_triangles.csr_triangle_incidence` of the snapshot's
CSR, so the counters can't silently drift from the structures they claim
to describe.
"""

from __future__ import annotations

import numpy as np

from repro.engine import CTCEngine, SlidingWindowEngine
from repro.graph.csr_triangles import csr_triangle_incidence
from repro.graph.generators import erdos_renyi_graph

#: 313 edges: full rebuilds take the vector strategy.
VECTOR_GRAPH = (40, 0.4, 3)
#: 101 edges: full rebuilds take the bucket strategy.
BUCKET_GRAPH = (30, 0.25, 3)


def _graph(spec):
    nodes, p, seed = spec
    return erdos_renyi_graph(nodes, p, seed=seed)


def _assert_current_incidence(snapshot) -> None:
    """The snapshot's incidence == a fresh enumeration of its CSR."""
    fresh = csr_triangle_incidence(snapshot.csr)
    assert snapshot.incidence is not None
    assert np.array_equal(snapshot.incidence.edges, fresh.edges)
    assert np.array_equal(snapshot.incidence.supports, fresh.supports)
    assert np.array_equal(snapshot.incidence.inc_indptr, fresh.inc_indptr)
    assert np.array_equal(snapshot.incidence.inc_triangles, fresh.inc_triangles)


class TestFullRebuildCounters:
    def test_vector_rebuild_counts_one_enumeration(self):
        engine = CTCEngine(_graph(VECTOR_GRAPH))
        snapshot = engine.snapshot()
        assert engine.stats.incidence_enumerations == 1
        assert engine.stats.incidence_patches == 0
        _assert_current_incidence(snapshot)

    def test_bucket_rebuild_enumerates_nothing(self):
        engine = CTCEngine(_graph(BUCKET_GRAPH))
        assert engine.snapshot().incidence is None
        assert engine.stats.incidence_enumerations == 0
        assert engine.stats.incidence_patches == 0

    def test_stats_dict_exposes_the_counters(self):
        stats = CTCEngine(erdos_renyi_graph(10, 0.3, seed=1)).stats.as_dict()
        assert "incidence_patches" in stats
        assert "incidence_enumerations" in stats


class TestDeltaPathCounters:
    def test_delta_applies_patch_without_reenumerating(self):
        graph = _graph(VECTOR_GRAPH)
        engine = CTCEngine(graph)
        assert engine.snapshot().incidence is not None  # the single enumeration
        mutations = [("remove", edge) for edge in sorted(graph.edges())[:2]]
        mutations += [("add", (900, 901)), ("add", (901, 902))]
        for index, (op, (u, v)) in enumerate(mutations, start=1):
            engine.remove_edge(u, v) if op == "remove" else engine.add_edge(u, v)
            snapshot = engine.snapshot()
            assert engine.stats.delta_applies == index
            assert engine.stats.incidence_patches == index
            assert engine.stats.incidence_enumerations == 1
            _assert_current_incidence(snapshot)

    def test_cancelling_delta_shares_the_base_incidence(self):
        engine = CTCEngine(_graph(VECTOR_GRAPH))
        base = engine.snapshot()
        assert base.incidence is not None
        edge = sorted(engine.graph.edges())[0]
        engine.remove_edge(*edge)
        engine.add_edge(*edge)
        assert engine.snapshot().incidence is base.incidence
        assert engine.stats.incidence_patches == 0
        assert engine.stats.incidence_enumerations == 1

    def test_time_travel_replay_patches_the_incidence(self):
        # cache_size=1: the pinned version is evicted, so the historical
        # read must replay backward from the cached current snapshot.
        engine = CTCEngine(_graph(VECTOR_GRAPH), cache_size=1)
        assert engine.snapshot().incidence is not None
        pinned = engine.version
        for extra in range(3):
            engine.add_edge(900 + extra, 901 + extra)
        engine.snapshot()
        patches_before = engine.stats.incidence_patches
        old = engine.snapshot_at(pinned)
        assert engine.stats.time_travel_reads == 1
        assert engine.stats.incidence_patches > patches_before
        assert engine.stats.incidence_enumerations == 1
        _assert_current_incidence(old)


class TestLazyAdoption:
    def test_kernel_enumeration_is_adopted_and_counted(self):
        """A bucket-path snapshot joins the patchable chain via adoption."""
        # The peel demands the incidence only once its working subgraph
        # clears the array peel's threshold, while a full rebuild that large
        # would take the vector strategy and enumerate it up front.  So
        # build under the vector threshold and grow the snapshot to 632
        # edges by delta applies, which carry "no incidence" forward.
        population = sorted(erdos_renyi_graph(60, 0.35, seed=3).edges(), key=repr)
        engine = CTCEngine()
        engine.add_edges_from(population[:200])
        assert engine.snapshot().incidence is None
        for start in range(200, len(population), 40):
            engine.add_edges_from(population[start:start + 40])
            snapshot = engine.snapshot()
        assert snapshot.csr.number_of_edges() == len(population)
        assert engine.stats.full_rebuilds == 1
        assert engine.stats.delta_applies == 11
        assert snapshot.incidence is None
        assert engine.stats.incidence_enumerations == 0
        # A csr-kernel array peel enumerates the incidence lazily ...
        engine.query([0, 1], method="bulk-delete")
        assert engine.stats.incidence_enumerations == 1
        assert snapshot.incidence is not None  # ... and it was adopted back.
        _assert_current_incidence(snapshot)
        # The adopted structure is now patched forward like any other.
        engine.add_edge(900, 901)
        patched = engine.snapshot()
        assert engine.stats.incidence_patches == 1
        assert engine.stats.incidence_enumerations == 1
        _assert_current_incidence(patched)


class TestSlidingWindowCounters:
    def test_expiry_stream_never_reenumerates(self):
        # 401 edges: the 267-edge window takes the vector strategy.
        population = sorted(erdos_renyi_graph(40, 0.5, seed=5).edges(), key=repr)
        window = 2 * len(population) // 3
        engine = SlidingWindowEngine(window=window)
        engine.add_edges_from(population[:window])
        assert engine.snapshot().incidence is not None  # the single enumeration
        for u, v in population[window:]:
            engine.add_edge(u, v)  # each arrival also expires the oldest edge
            snapshot = engine.snapshot()
            _assert_current_incidence(snapshot)
        assert engine.stats.incidence_enumerations == 1
        assert engine.stats.incidence_patches == engine.stats.delta_applies
        assert engine.stats.incidence_patches == len(population) - window
