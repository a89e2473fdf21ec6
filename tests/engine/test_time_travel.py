"""Property-based equivalence for time-travel reads on the delta log.

The temporal layer's acceptance contract is *bit-for-bit equivalence*: for
any graph and any mutation stream, ``snapshot_at(v)`` /
``query(..., at_version=v)`` at every retained version ``v`` must produce
exactly what a fresh engine built from the version-``v`` graph state
produces — the same CSR arrays, the same trussness, and the same query
results, which also equal the dict-path oracle's on the version-``v``
graph — regardless of which replay direction (forward from an older cached
snapshot, backward from a newer one, or a full rebuild of the unwound
store) served the read.  Evicted versions must fail loudly with
:class:`VersionEvictedError`, never silently serve a different version.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ctc.api import search
from repro.engine import CTCEngine
from repro.exceptions import VersionEvictedError
from repro.graph.generators import complete_graph, erdos_renyi_graph, relaxed_caveman_graph
from repro.graph.simple_graph import UndirectedGraph

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def base_graphs(draw):
    """Random graphs with enough triangles to exercise the temporal layer."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(["er", "caveman", "complete"]))
    if kind == "er":
        n = draw(st.integers(min_value=4, max_value=18))
        p = draw(st.floats(min_value=0.25, max_value=0.7))
        return erdos_renyi_graph(n, p, seed=seed)
    if kind == "caveman":
        cliques = draw(st.integers(min_value=2, max_value=3))
        size = draw(st.integers(min_value=3, max_value=5))
        rewire = draw(st.floats(min_value=0.0, max_value=0.4))
        return relaxed_caveman_graph(cliques, size, rewire, seed=seed)
    return complete_graph(draw(st.integers(min_value=3, max_value=7)))


mutation_streams = st.lists(
    st.tuples(
        st.sampled_from(["add_edge", "remove_edge", "remove_node", "add_node"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=10,
)


def _mutate(engine: CTCEngine, op: str, pick: int) -> None:
    """Apply one drawn mutation through the engine's mutation methods."""
    graph = engine.graph
    nodes = sorted(graph.nodes())
    if op == "add_edge":
        absent = [
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1:]
            if not graph.has_edge(u, v)
        ]
        absent.append((nodes[pick % len(nodes)], max(nodes) + 1 + pick % 7))
        engine.add_edge(*absent[pick % len(absent)])
    elif op == "remove_edge":
        edges = sorted(graph.edges())
        if edges:
            engine.remove_edge(*edges[pick % len(edges)])
    elif op == "remove_node":
        if len(nodes) > 3:
            engine.remove_node(nodes[pick % len(nodes)])
    else:
        engine.add_node(max(nodes) + 1 + pick % 5)


def _record_states(engine: CTCEngine, stream) -> dict[int, UndirectedGraph]:
    """Drive ``stream`` through ``engine``, recording the graph at every version."""
    states = {engine.version: engine.graph.copy()}
    for op, pick in stream:
        _mutate(engine, op, pick)
        states[engine.version] = engine.graph.copy()
    return states


def _assert_snapshots_identical(snapshot, oracle, version: int) -> None:
    """Bit-for-bit CSR + trussness equality between two snapshots."""
    assert snapshot.version == version
    assert snapshot.graph == oracle.graph, f"graph mismatch at version {version}"
    assert snapshot.csr.labels() == oracle.csr.labels()
    for attribute in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
        assert np.array_equal(
            getattr(snapshot.csr, attribute), getattr(oracle.csr, attribute)
        ), f"csr.{attribute} mismatch at version {version}"
    assert np.array_equal(snapshot.trussness, oracle.trussness), (
        f"trussness mismatch at version {version}"
    )


def _assert_queries_identical(engine: CTCEngine, state, version: int) -> None:
    """Pinned queries equal a fresh engine's and the dict oracle's on ``state``."""
    edges = sorted(state.edges())
    if not edges:
        return
    query = list(edges[0])
    pinned = engine.query(query, method="lctc", eta=30, at_version=version)
    fresh = CTCEngine(state, delta_threshold=0).query(query, method="lctc", eta=30)
    oracle = search(state, query, method="lctc", eta=30)
    for name, direct in (("fresh", fresh), ("oracle", oracle)):
        assert pinned.nodes == direct.nodes, (name, version)
        assert pinned.trussness == direct.trussness, (name, version)
        assert pinned.query_distance == direct.query_distance, (name, version)
        assert pinned.iterations == direct.iterations, (name, version)


class TestTimeTravelEquivalence:
    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_every_retained_version_is_bit_identical(self, graph, stream):
        """snapshot_at(v) == fresh build of state v, across the retained range.

        The ascending pass materializes versions oldest-first (forward
        replay from older cached bases once they exist); the descending
        pass re-reads them with the newest version cached (backward replay
        candidates), which must hit the cache or rebuild identically.
        """
        engine = CTCEngine(graph)
        states = _record_states(engine, stream)
        lo, hi = engine.retained_versions()
        assert hi == engine.version
        for version in range(lo, hi + 1):
            snapshot = engine.snapshot_at(version)
            oracle = CTCEngine(states[version], delta_threshold=0).snapshot()
            _assert_snapshots_identical(snapshot, oracle, version)
        for version in range(hi, lo - 1, -1):
            snapshot = engine.snapshot_at(version)
            oracle = CTCEngine(states[version], delta_threshold=0).snapshot()
            _assert_snapshots_identical(snapshot, oracle, version)

    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_pinned_queries_match_fresh_engines_on_that_versions_graph(self, graph, stream):
        engine = CTCEngine(graph)
        states = _record_states(engine, stream)
        lo, hi = engine.retained_versions()
        # Endpoints of the range plus a midpoint bound the runtime while
        # still crossing every replay direction.
        for version in sorted({lo, (lo + hi) // 2, hi}):
            _assert_queries_identical(engine, states[version], version)

    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_cold_cache_reads_rebuild_identically(self, graph, stream):
        """With no cached base, pinned reads unwind the store and rebuild."""
        engine = CTCEngine(graph)
        states = _record_states(engine, stream)
        lo, hi = engine.retained_versions()
        version = lo if lo < hi else hi
        engine.clear_cache()
        snapshot = engine.snapshot_at(version)
        assert engine.stats.full_rebuilds >= 1
        oracle = CTCEngine(states[version], delta_threshold=0).snapshot()
        _assert_snapshots_identical(snapshot, oracle, version)


class TestReplayDirections:
    """Unit pins for which path serves a pinned read."""

    def _engine_with_history(self, **kwargs) -> CTCEngine:
        engine = CTCEngine(erdos_renyi_graph(25, 0.3, seed=4), **kwargs)
        edges = sorted(engine.graph.edges())
        for edge in edges[:4]:
            engine.remove_edge(*edge)
        return engine

    def test_forward_replay_from_older_cached_base(self):
        engine = CTCEngine(erdos_renyi_graph(25, 0.3, seed=4))
        engine.snapshot()  # cache version 0
        for edge in sorted(engine.graph.edges())[:4]:
            engine.remove_edge(*edge)
        assert engine.cached_versions() == [0]
        engine.snapshot_at(2)  # only an *older* base exists -> forward replay
        assert engine.stats.delta_applies == 1
        assert engine.stats.full_rebuilds == 1
        assert engine.stats.time_travel_reads == 1

    def test_backward_replay_from_newer_cached_base(self):
        engine = self._engine_with_history()
        engine.snapshot()  # cache the newest version only
        newest = engine.version
        engine.snapshot_at(newest - 2)  # only a *newer* base exists -> backward
        assert engine.stats.delta_applies == 1
        assert engine.stats.full_rebuilds == 1
        assert engine.stats.time_travel_reads == 1

    def test_nearest_cached_base_wins_and_ties_go_older(self):
        engine = CTCEngine(erdos_renyi_graph(25, 0.3, seed=4))
        for version, edge in enumerate(sorted(engine.graph.edges())[:7], start=1):
            engine.remove_edge(*edge)
            if version in (2, 6, 7):
                engine.snapshot()
        assert engine.cached_versions() == [2, 6, 7]
        assert engine._delta_base(4)[0].version == 2  # 2 and 6 equally near
        assert engine._delta_base(5)[0].version == 6  # backward from 6, not forward from 2
        assert engine._delta_base(3)[0].version == 2

    def test_pinned_reads_are_cached(self):
        engine = self._engine_with_history()
        first = engine.snapshot_at(1)
        again = engine.snapshot_at(1)
        assert again is first
        assert engine.stats.hits == 1

    def test_pinned_read_with_disabled_delta_path_rebuilds(self):
        engine = self._engine_with_history(delta_threshold=0)
        engine.snapshot()
        engine.snapshot_at(1)
        assert engine.stats.delta_applies == 0
        assert engine.stats.full_rebuilds == 2

    def test_current_version_read_is_the_plain_snapshot(self):
        engine = self._engine_with_history()
        assert engine.snapshot_at(engine.version) is engine.snapshot()
        assert engine.snapshot_at(None) is engine.snapshot()
        assert engine.stats.time_travel_reads == 0


class TestEvictionContract:
    """Regression: evicted versions fail loudly, never a silent wrong rebuild."""

    def _trimmed_engine(self) -> CTCEngine:
        engine = CTCEngine(erdos_renyi_graph(25, 0.3, seed=9), delta_log_limit=3)
        for edge in sorted(engine.graph.edges())[:6]:
            engine.remove_edge(*edge)
        return engine

    def test_evicted_version_raises_with_retained_range(self):
        engine = self._trimmed_engine()
        assert engine.retained_versions() == (3, 6)
        with pytest.raises(VersionEvictedError) as excinfo:
            engine.snapshot_at(2)
        assert excinfo.value.version == 2
        assert excinfo.value.retained == (3, 6)
        assert "3..6" in str(excinfo.value)

    def test_evicted_version_does_not_build_anything(self):
        engine = self._trimmed_engine()
        with pytest.raises(VersionEvictedError):
            engine.snapshot_at(0)
        assert engine.stats.misses == 0
        assert engine.stats.full_rebuilds == 0
        assert engine.cached_versions() == []

    def test_query_at_evicted_version_raises(self):
        engine = self._trimmed_engine()
        with pytest.raises(VersionEvictedError):
            engine.query([0, 1], at_version=1)

    def test_disabled_log_retains_only_current(self):
        engine = CTCEngine(erdos_renyi_graph(20, 0.3, seed=2), delta_log_limit=0)
        engine.remove_edge(*sorted(engine.graph.edges())[0])
        assert engine.retained_versions() == (1, 1)
        with pytest.raises(VersionEvictedError):
            engine.snapshot_at(0)

    def test_future_and_negative_versions_rejected(self):
        engine = self._trimmed_engine()
        with pytest.raises(ValueError, match="does not exist"):
            engine.snapshot_at(engine.version + 1)
        with pytest.raises(ValueError):
            engine.snapshot_at(-1)

    def test_retained_floor_is_readable_after_trim(self):
        """The oldest retained version (log start - 1) still materializes."""
        engine = self._trimmed_engine()
        lo, _hi = engine.retained_versions()
        snapshot = engine.snapshot_at(lo)
        assert snapshot.version == lo
