"""Property-based equivalence: CSR-native kernels == the dict-path algorithms.

The acceptance contract of the kernel layer (:mod:`repro.ctc.kernels`) is
that for any graph and any query, running Basic, BulkDelete, LCTC or the
Truss baseline on an :class:`EngineSnapshot`'s arrays returns *exactly* the
community the dict-path classes return — same node set, same edge set, same
trussness, same query distance, same diameter, same iteration count, and
the same ``NoCommunityFoundError`` / ``QueryError`` outcomes.  The kernels
are the engine's only execution path; the dict-path classes over a
:class:`TrussIndex` are the oracle they are held to.  (Extends the
``tests/trusses/test_delta_equivalence.py`` pattern from snapshot
maintenance to query execution.)
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.ctc.api import search
from repro.ctc.basic import BasicCTC
from repro.ctc.bulk_delete import BulkDeleteCTC
from repro.ctc.kernels import QueryKernel, kernel_of
from repro.engine import CTCEngine
from repro.exceptions import NoCommunityFoundError, QueryError
from repro.graph.generators import (
    complete_graph,
    erdos_renyi_graph,
    relaxed_caveman_graph,
)
from repro.trusses.index import TrussIndex

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Method matrix: (method name, search() keyword arguments).
METHODS = (
    ("basic", {}),
    ("bulk-delete", {}),
    ("lctc", {"eta": 6}),
    ("lctc", {"eta": 40, "gamma": 0.0}),
    ("lctc", {"eta": 40, "max_trussness_k": 3}),
    ("truss", {}),
)


@st.composite
def graphs_and_queries(draw):
    """Random graphs plus a small stream of random queries against them."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(["er", "caveman", "complete"]))
    if kind == "er":
        graph = erdos_renyi_graph(
            draw(st.integers(min_value=4, max_value=24)),
            draw(st.floats(min_value=0.15, max_value=0.7)),
            seed=seed,
        )
    elif kind == "caveman":
        graph = relaxed_caveman_graph(
            draw(st.integers(min_value=2, max_value=4)),
            draw(st.integers(min_value=3, max_value=6)),
            draw(st.floats(min_value=0.0, max_value=0.4)),
            seed=seed,
        )
    else:
        graph = complete_graph(draw(st.integers(min_value=3, max_value=8)))
    if draw(st.booleans()):
        graph.add_node("isolated")  # exercises the vertex-trussness < 2 paths
    nodes = sorted(graph.nodes(), key=repr)
    queries = draw(
        st.lists(
            st.lists(
                st.sampled_from(nodes), min_size=1, max_size=4, unique=True
            ),
            min_size=1,
            max_size=4,
        )
    )
    return graph, queries


def outcome(target, query, method, **kwargs):
    """Run one search, normalizing result/exception into a comparable value."""
    try:
        result = search(target, query, method=method, **kwargs)
    except (NoCommunityFoundError, QueryError) as exc:
        return (type(exc).__name__, str(exc))
    return {
        "nodes": frozenset(result.nodes),
        "edges": frozenset(result.graph.edges()),
        "trussness": result.trussness,
        "query_distance": result.query_distance,
        "diameter": result.diameter(),
        "iterations": result.iterations,
        "query": result.query,
        "extras": {
            key: value
            for key, value in result.extras.items()
            if key != "timed_out"  # timing-dependent by design
        },
    }


class TestKernelEquivalence:
    @common_settings
    @given(data=graphs_and_queries())
    def test_kernels_match_dict_path(self, data):
        """Every method, every query: snapshot kernels == dict-path search."""
        graph, queries = data
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        for query in queries:
            for method, kwargs in METHODS:
                expected = outcome(index, query, method, **kwargs)
                actual = outcome(snapshot, query, method, **kwargs)
                assert actual == expected, (method, query, kwargs)


class TestBulkDeleteKnobs:
    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=500),
        threshold_offset=st.sampled_from([0, 1]),
        batch_limit=st.sampled_from([None, 1, 3]),
    )
    def test_class_level_knobs_match(self, seed, threshold_offset, batch_limit):
        """threshold_offset / batch_limit behave identically on both paths."""
        graph = erdos_renyi_graph(18, 0.4, seed=seed)
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        query = sorted(graph.nodes())[:2]
        via_dict = BulkDeleteCTC(
            index, threshold_offset=threshold_offset, batch_limit=batch_limit
        ).search(query)
        via_kernel = BulkDeleteCTC(
            snapshot, threshold_offset=threshold_offset, batch_limit=batch_limit
        ).search(query)
        assert via_kernel.nodes == via_dict.nodes
        assert set(via_kernel.graph.edges()) == set(via_dict.graph.edges())
        assert via_kernel.trussness == via_dict.trussness
        assert via_kernel.iterations == via_dict.iterations


class TestKernelDetails:
    def test_max_iterations_parity(self):
        graph = erdos_renyi_graph(20, 0.4, seed=42)
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        for cap in (0, 1, 2):
            via_dict = BasicCTC(index, max_iterations=cap).search([0, 1])
            via_kernel = BasicCTC(snapshot, max_iterations=cap).search([0, 1])
            assert via_kernel.nodes == via_dict.nodes
            assert via_kernel.iterations == via_dict.iterations <= cap

    @common_settings
    @given(data=graphs_and_queries(), gamma=st.sampled_from([0.0, 1.0, 3.0]))
    @example(data=(relaxed_caveman_graph(4, 6, 0.3, seed=0), [[10]]), gamma=1.0)
    def test_one_sweep_per_source_matches_pairwise_distances(self, data, gamma):
        """One threshold sweep from a source gives every other node the truss
        distance and witness path of the dict path's pairwise sweep.  The
        explicit example needs each level's BFS cutoff to be the largest
        hop budget of the targets still open, not the smallest."""
        from repro.ctc.kernels.steiner import truss_distances_from
        from repro.ctc.steiner import truss_distance_between

        graph, queries = data
        index = TrussIndex(graph)
        kernel = CTCEngine(graph).snapshot().kernel
        csr = kernel.csr
        for source in {node for query in queries for node in query}:
            targets = [node for node in graph.nodes() if node != source]
            reached = truss_distances_from(
                kernel, csr.node_id(source), [csr.node_id(node) for node in targets], gamma
            )
            for target in targets:
                value, path = truss_distance_between(index, source, target, gamma)
                if path is None:
                    assert csr.node_id(target) not in reached
                    continue
                got_value, got_path = reached[csr.node_id(target)]
                assert got_value == value
                assert [csr.node_label(node) for node in got_path] == path

    def test_time_budget_reports_timed_out_flag(self):
        snapshot = CTCEngine(erdos_renyi_graph(20, 0.4, seed=1)).snapshot()
        result = BasicCTC(snapshot, time_budget_seconds=1e9).search([0, 1])
        assert result.extras["timed_out"] is False
        exhausted = BasicCTC(snapshot, time_budget_seconds=0.0).search([0, 1])
        assert exhausted.extras["timed_out"] is True
        assert exhausted.contains_query()

    def test_kernel_of_dispatch_seam(self):
        graph = complete_graph(5)
        snapshot = CTCEngine(graph).snapshot()
        assert isinstance(kernel_of(snapshot), QueryKernel)
        assert kernel_of(TrussIndex(graph)) is None
        assert kernel_of(graph) is None
        kernel = snapshot.kernel
        assert kernel_of(kernel) is kernel

    def test_baselines_route_through_snapshot_graph(self):
        graph = erdos_renyi_graph(15, 0.4, seed=9)
        snapshot = CTCEngine(graph).snapshot()
        for method in ("mdc", "qdc"):
            via_snapshot = search(snapshot, [0, 1], method=method)
            direct = search(graph, [0, 1], method=method)
            assert via_snapshot.nodes == direct.nodes

    def test_array_peel_forced_through_search_matches_dict_index(self, monkeypatch):
        """With the array threshold floored, every snapshot search peels on
        masks + incidence — and still matches the dict-index path exactly."""
        import repro.ctc.kernels.peeling as peeling

        monkeypatch.setattr(peeling, "DEFAULT_ARRAY_THRESHOLD", 0)
        graph = relaxed_caveman_graph(3, 6, 0.3, seed=11)
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        for query in ([0, 1], [5], [2, 9, 14]):
            for method, kwargs in METHODS:
                assert outcome(snapshot, query, method, **kwargs) == outcome(
                    index, query, method, **kwargs
                ), (method, query)


class TestPeelEngineEquivalence:
    """The array peel engine == the dict peel engine, bit for bit."""

    @common_settings
    @given(data=graphs_and_queries())
    def test_array_vs_dict_peel_all_methods(self, data):
        from repro.ctc.kernels import search as kernel_search

        graph, queries = data
        kernel = CTCEngine(graph).snapshot().kernel
        runs = (
            (kernel_search.basic_search, {}),
            (kernel_search.bulk_delete_search, {}),
            (kernel_search.bulk_delete_search, {"batch_limit": 2}),
            (kernel_search.lctc_search, {"eta": 8, "gamma": 1.0}),
        )
        for query in queries:
            for function, kwargs in runs:
                results = {}
                for engine in ("dict", "array"):
                    try:
                        result = function(kernel, query, peel_engine=engine, **kwargs)
                    except (NoCommunityFoundError, QueryError) as exc:
                        results[engine] = (type(exc).__name__, str(exc))
                        continue
                    results[engine] = (
                        frozenset(result.nodes),
                        frozenset(result.graph.edges()),
                        result.trussness,
                        result.query_distance,
                        result.iterations,
                    )
                assert results["array"] == results["dict"], (function.__name__, query, kwargs)

    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=300),
        cap=st.sampled_from([0, 1, 3]),
    )
    def test_max_iterations_parity_across_engines(self, seed, cap):
        from repro.ctc.kernels.search import basic_search, bulk_delete_search

        kernel = CTCEngine(erdos_renyi_graph(20, 0.4, seed=seed)).snapshot().kernel
        for function in (basic_search, bulk_delete_search):
            via_dict = function(kernel, [0, 1], max_iterations=cap, peel_engine="dict")
            via_array = function(kernel, [0, 1], max_iterations=cap, peel_engine="array")
            assert via_array.nodes == via_dict.nodes
            assert via_array.iterations == via_dict.iterations <= cap

    def test_timeout_parity_across_engines(self):
        from repro.ctc.kernels.search import basic_search

        kernel = CTCEngine(erdos_renyi_graph(20, 0.4, seed=1)).snapshot().kernel
        for engine in ("dict", "array"):
            exhausted = basic_search(
                kernel, [0, 1], time_budget_seconds=0.0, peel_engine=engine
            )
            assert exhausted.extras["timed_out"] is True
            assert exhausted.contains_query()
            relaxed = basic_search(
                kernel, [0, 1], time_budget_seconds=1e9, peel_engine=engine
            )
            assert relaxed.extras["timed_out"] is False
        # A zero budget freezes both engines after the same first iteration.
        dict_frozen = basic_search(kernel, [0, 1], time_budget_seconds=0.0, peel_engine="dict")
        array_frozen = basic_search(kernel, [0, 1], time_budget_seconds=0.0, peel_engine="array")
        assert array_frozen.nodes == dict_frozen.nodes
        assert array_frozen.iterations == dict_frozen.iterations == 0

    def test_unknown_peel_engine_rejected(self):
        from repro.ctc.kernels.peeling import basic_selector, peel

        kernel = CTCEngine(complete_graph(5)).snapshot().kernel
        with pytest.raises(ValueError):
            peel(
                kernel,
                list(range(5)),
                list(range(10)),
                2,
                [0],
                basic_selector(kernel, [0]),
                start_time=0.0,
                engine="simd",
            )

    def test_threaded_incidence_changes_nothing(self):
        """peel(incidence=...) (the FindG0/LCTC supports threading) is
        invisible in the outcome, on both engines."""
        import time as time_module

        from repro.ctc.kernels.find_g0 import find_g0
        from repro.ctc.kernels.peeling import bulk_delete_selector, peel
        from repro.graph.csr_triangles import subset_incidence

        import numpy as np

        kernel = CTCEngine(erdos_renyi_graph(30, 0.35, seed=7)).snapshot().kernel
        g0_nodes, g0_edges, k = find_g0(kernel, [0, 1])
        threaded = subset_incidence(
            kernel.ensure_incidence(), np.asarray(g0_edges, dtype=np.int64)
        )
        outcomes = []
        for engine in ("dict", "array"):
            for incidence in (None, threaded):
                run = peel(
                    kernel,
                    g0_nodes,
                    g0_edges,
                    k,
                    [0, 1],
                    bulk_delete_selector(kernel, [0, 1]),
                    start_time=time_module.perf_counter(),
                    engine=engine,
                    incidence=incidence,
                )
                outcomes.append(
                    (run.node_ids, run.edge_ids, run.query_distance, run.iterations)
                )
        assert all(entry == outcomes[0] for entry in outcomes[1:])

    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=300),
        limit=st.integers(min_value=1, max_value=6),
    )
    def test_top_k_selection_matches_full_sort(self, seed, limit):
        """The argpartition top-K equals sorted(..., reverse=True)[:limit]."""
        import numpy as np

        from repro.ctc.kernels.peeling import _top_k_by_distance_rank

        rng = np.random.default_rng(seed)
        size = int(rng.integers(limit + 1, 25))
        nodes = np.arange(size, dtype=np.int64)
        distances = rng.integers(0, 5, size=size).astype(np.float64)
        distances[rng.random(size) < 0.2] = float("inf")
        ranks = rng.permutation(size).astype(np.int64)
        picked = _top_k_by_distance_rank(nodes, distances, ranks, limit)
        assert picked.size == limit
        expected = sorted(
            nodes.tolist(),
            key=lambda node: (distances[node], ranks[node]),
            reverse=True,
        )[:limit]
        assert set(picked.tolist()) == set(expected)

    def test_lctc_incidence_reuse_matches_all_paths(self, monkeypatch):
        """LCTC re-decomposing its expansion on the snapshot's triangle
        incidence (instead of enumerating the subgraph afresh) changes
        nothing observable, against both the fresh-kernel and dict paths."""
        import repro.ctc.kernels.search as kernel_search

        # Force the reuse branch even on small test expansions.
        monkeypatch.setattr(kernel_search, "DEFAULT_VECTOR_THRESHOLD", 1)
        graph = erdos_renyi_graph(40, 0.4, seed=3)  # 313 edges: vector build
        engine = CTCEngine(graph)
        snapshot = engine.snapshot()
        assert snapshot.kernel.incidence is not None
        bare_kernel = QueryKernel(snapshot.csr, snapshot.trussness)
        assert bare_kernel.incidence is None
        index = TrussIndex(graph)
        for query in ([0, 1], [5, 9, 12], [3]):
            for eta in (10, 100):
                reused = kernel_search.lctc_search(snapshot.kernel, query, eta=eta, gamma=3.0)
                fresh = kernel_search.lctc_search(bare_kernel, query, eta=eta, gamma=3.0)
                via_dict = outcome(index, query, "lctc", eta=eta)
                assert reused.nodes == fresh.nodes
                assert reused.trussness == fresh.trussness
                assert outcome(snapshot, query, "lctc", eta=eta) == via_dict
