"""Sliding-window equivalence: windowed engine == from-scratch on the window.

The windowed engine's whole value proposition is that incremental expiry is
*invisible*: after any prefix of a churn stream, its store, CSR snapshot,
trussness, and query answers must be exactly what a from-scratch engine
built on the window's edge set produces — including degenerate windows that
empty out or leave query nodes disconnected, where both paths must fail
with the same exception.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.queries import WindowedChurnStream
from repro.engine import CTCEngine, SlidingWindowEngine
from repro.exceptions import ReproError
from repro.graph.generators import erdos_renyi_graph, relaxed_caveman_graph
from repro.graph.simple_graph import UndirectedGraph

common_settings = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _graph_from_edges(edges) -> UndirectedGraph:
    graph = UndirectedGraph()
    for u, v in sorted(edges, key=repr):
        graph.add_edge(u, v)
    return graph


def _from_scratch(window_edges) -> CTCEngine:
    """The oracle: a plain engine built fresh on the window's edge set."""
    return CTCEngine(_graph_from_edges(window_edges), delta_threshold=0)


def _assert_window_matches_oracle(engine: SlidingWindowEngine) -> None:
    oracle = _from_scratch(engine.window_edges())
    assert engine.graph == oracle.graph
    snapshot, fresh = engine.snapshot(), oracle.snapshot()
    assert snapshot.csr.labels() == fresh.csr.labels()
    for attribute in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
        assert np.array_equal(
            getattr(snapshot.csr, attribute), getattr(fresh.csr, attribute)
        ), f"csr.{attribute} diverged from the from-scratch build"
    assert np.array_equal(snapshot.trussness, fresh.trussness)


def _trussness_by_edge(engine: CTCEngine) -> dict:
    snapshot = engine.snapshot()
    return {
        snapshot.csr.edge_key_of(edge): int(snapshot.trussness[edge])
        for edge in range(snapshot.csr.number_of_edges())
    }


def _query_outcome(engine: CTCEngine, query):
    """Run an lctc query, capturing either the answer or the failure type."""
    try:
        result = engine.query(list(query), method="lctc", eta=30)
    except ReproError as error:
        return type(error)
    return (result.nodes, result.trussness, result.query_distance)


@st.composite
def churn_setups(draw):
    """A seeded edge population, a window size, and a step count."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(["er", "caveman"]))
    if kind == "er":
        population = erdos_renyi_graph(
            draw(st.integers(min_value=6, max_value=14)),
            draw(st.floats(min_value=0.3, max_value=0.7)),
            seed=seed,
        )
    else:
        population = relaxed_caveman_graph(
            draw(st.integers(min_value=2, max_value=3)), 4, 0.2, seed=seed
        )
    edges = sorted(population.edges(), key=repr)
    window = draw(st.integers(min_value=1, max_value=max(1, len(edges))))
    steps = draw(st.integers(min_value=1, max_value=25))
    return edges, window, steps, seed


class TestWindowEquivalence:
    @common_settings
    @given(setup=churn_setups())
    def test_every_churn_step_matches_from_scratch(self, setup):
        """After each arrival the window store, CSR and trussness are the
        from-scratch build of the live edge set (expiry is invisible)."""
        edges, window, steps, seed = setup
        stream = WindowedChurnStream(edges, seed=seed)
        engine = SlidingWindowEngine(window=window)
        for _ in range(steps):
            stream.feed(engine, 1)
            assert len(engine.window_edges()) <= window
            _assert_window_matches_oracle(engine)

    @common_settings
    @given(setup=churn_setups())
    def test_sampled_queries_match_from_scratch(self, setup):
        """Query answers (or failures) agree with the from-scratch engine —
        including steps where the window disconnects the query nodes."""
        edges, window, steps, seed = setup
        stream = WindowedChurnStream(edges, seed=seed)
        engine = SlidingWindowEngine(window=window)
        stream.feed(engine, steps)
        oracle = _from_scratch(engine.window_edges())
        query = stream.sample_query(engine)
        assert _query_outcome(engine, query) == _query_outcome(oracle, query)
        # Also probe a cross-population pair that may have expired apart.
        nodes = sorted(engine.graph.nodes(), key=repr)
        if len(nodes) >= 2:
            probe = [nodes[0], nodes[-1]]
            assert _query_outcome(engine, probe) == _query_outcome(oracle, probe)

    @common_settings
    @given(setup=churn_setups())
    def test_windowed_trussness_equals_from_scratch_decomposition(self, setup):
        edges, window, steps, seed = setup
        stream = WindowedChurnStream(edges, seed=seed)
        engine = SlidingWindowEngine(window=window)
        stream.feed(engine, steps)
        oracle = _from_scratch(engine.window_edges())
        assert _trussness_by_edge(engine) == _trussness_by_edge(oracle)


class TestWindowMechanics:
    def test_seeding_trims_to_the_newest_edges(self):
        graph = erdos_renyi_graph(12, 0.5, seed=3)
        window = graph.number_of_edges() // 2
        engine = SlidingWindowEngine(graph, window=window)
        expected = set(sorted(graph.edges(), key=repr)[-window:])
        assert engine.window_edges() == expected
        _assert_window_matches_oracle(engine)

    def test_fifo_expiry_order(self):
        engine = SlidingWindowEngine(window=2)
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        engine.add_edge(2, 3)
        assert engine.window_edges() == {(1, 2), (2, 3)}

    def test_reinsertion_refreshes_without_mutating(self):
        engine = SlidingWindowEngine(window=2)
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        version = engine.version
        engine.add_edge(0, 1)  # refresh: (0, 1) becomes the newest edge
        assert engine.version == version, "refresh must not log a mutation"
        engine.add_edge(2, 3)
        assert engine.window_edges() == {(0, 1), (2, 3)}

    def test_expired_isolated_endpoints_are_dropped(self):
        engine = SlidingWindowEngine(window=1)
        engine.add_edge("a", "b")
        engine.add_edge("c", "d")
        assert sorted(engine.graph.nodes()) == ["c", "d"]
        _assert_window_matches_oracle(engine)

    def test_window_that_empties_out(self):
        engine = SlidingWindowEngine(window=3)
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        engine.remove_edge(0, 1)
        engine.remove_edge(1, 2)
        assert engine.window_edges() == set()
        snapshot = engine.snapshot()
        assert snapshot.trussness.size == 0
        # The next arrivals repopulate the window cleanly.  (Explicit
        # removals keep their now-isolated endpoints — only expiry drops
        # nodes — so compare edges and trussness, not the full node set.)
        engine.add_edge(5, 6)
        assert engine.window_edges() == {(5, 6)}
        assert set(engine.graph.edges()) == {(5, 6)}
        assert _trussness_by_edge(engine) == _trussness_by_edge(_from_scratch({(5, 6)}))

    def test_early_remove_edge_leaves_fifo_consistent(self):
        engine = SlidingWindowEngine(window=2)
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        engine.remove_edge(0, 1)  # early eviction leaves a stale FIFO entry
        engine.add_edge(2, 3)
        engine.add_edge(3, 4)  # must expire (1, 2), not trip on the stale entry
        assert engine.window_edges() == {(2, 3), (3, 4)}

    def test_remove_node_evicts_incident_edges(self):
        engine = SlidingWindowEngine(window=5)
        engine.add_edges_from([(0, 1), (1, 2), (2, 0), (2, 3)])
        engine.remove_node(2)
        assert engine.window_edges() == {(0, 1)}

    def test_disconnected_query_fails_identically(self):
        engine = SlidingWindowEngine(window=2)
        engine.add_edges_from([(0, 1), (5, 6)])
        oracle = _from_scratch(engine.window_edges())
        outcome = _query_outcome(engine, [0, 5])
        assert outcome == _query_outcome(oracle, [0, 5])
        assert isinstance(outcome, type) and issubclass(outcome, ReproError)

    def test_add_edges_from_applies_stream_order(self):
        engine = SlidingWindowEngine(window=1)
        engine.add_edges_from([(0, 1), (1, 2), (2, 3)])
        assert engine.window_edges() == {(2, 3)}

    def test_explicit_nodes_are_never_expired(self):
        engine = SlidingWindowEngine(window=1)
        engine.add_node("pinned")
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        assert engine.graph.has_node("pinned")

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            SlidingWindowEngine(window=0)

    def test_expiry_goes_through_the_delta_log(self):
        """Expirations are logged mutations: time travel works across them."""
        engine = SlidingWindowEngine(window=2)
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        version = engine.version
        engine.add_edge(2, 3)  # logs the arrival, then the expiry of (0, 1)
        past = engine.snapshot_at(version)
        assert set(past.graph.edges()) == {(0, 1), (1, 2)}
        assert engine.window_edges() == {(1, 2), (2, 3)}
