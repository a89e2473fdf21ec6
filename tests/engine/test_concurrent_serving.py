"""Stress and property tests for the concurrent serving layer.

Three contracts under test:

* **Snapshot isolation** — N reader threads (head + time-travel leases)
  race a writer streaming :class:`EdgeChurn`; every read must be
  bit-identical to a fresh single-threaded engine replayed to the leased
  version (no torn reads), and the writer must never be blocked.
* **Epoch-pinned reclamation** — the snapshot LRU defers eviction of
  leased versions: a lease keeps its version readable even after the
  delta log trims past it, and reclamation happens on release.
* **Serving front-ends** — thread-mode batches (one lease, answered on
  the calling thread), the asyncio facade, and shard-per-process workers
  all answer exactly like a plain engine, with the documented cross-shard
  refusals in process mode.  A durable source keeps every served mutation
  in thread mode and is refused in process mode, whose shard workers have
  no write-ahead log.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro.datasets.queries import EdgeChurn
from repro.engine import CTCEngine, DurabilityConfig, ServingEngine
from repro.exceptions import (
    ConfigurationError,
    CrossShardMutationError,
    NoCommunityFoundError,
    QueryError,
    VersionEvictedError,
)
from repro.graph.generators import erdos_renyi_graph
from repro.graph.shm import SharedArrayBundle
from repro.graph.simple_graph import UndirectedGraph

QUERY = [0, 1]
SEARCH = dict(method="lctc", eta=20)


def fingerprint(result):
    return (frozenset(result.nodes), result.trussness, result.num_edges)


class _Recorder:
    """EdgeChurn target that journals the op stream alongside the engine.

    Only the single writer thread mutates, so ``ops[:v]`` replayed onto the
    initial graph reproduces the store exactly at version ``v``.
    """

    def __init__(self, engine):
        self._engine = engine
        self.ops: list[tuple[str, object, object]] = []

    @property
    def graph(self):
        return self._engine.graph

    def add_edge(self, u, v):
        self._engine.add_edge(u, v)
        self.ops.append(("add", u, v))

    def remove_edge(self, u, v):
        self._engine.remove_edge(u, v)
        self.ops.append(("remove", u, v))


def _replay(initial: UndirectedGraph, ops, version: int) -> UndirectedGraph:
    graph = initial.copy()
    for op, u, v in ops[:version]:
        if op == "add":
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)
    return graph


class TestSnapshotIsolationUnderChurn:
    def test_racing_readers_match_single_threaded_replay(self):
        initial = erdos_renyi_graph(40, 0.2, seed=11)
        engine = CTCEngine(initial.copy(), cache_size=3, delta_log_limit=256)
        recorder = _Recorder(engine)
        churn = EdgeChurn(recorder, seed=11, protect=QUERY)

        observations: list[tuple[int, tuple]] = []
        errors: list[Exception] = []
        done = threading.Event()

        def writer():
            try:
                for _ in range(40):
                    churn.step()
            finally:
                done.set()

        def reader(seed: int):
            rng = random.Random(seed)
            while True:
                finished = done.is_set()
                try:
                    if rng.random() < 0.5:
                        version = None  # head read
                    else:
                        lo, hi = engine.retained_versions()
                        version = rng.randint(lo, hi)  # time-travel read
                    with engine.lease(version) as lease:
                        result = lease.query(QUERY, **SEARCH)
                        observations.append((lease.version, fingerprint(result)))
                except VersionEvictedError:
                    pass  # the log trimmed past the version we rolled; fine
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)
                    return
                if finished:
                    return

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(100 + n,)) for n in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()

        assert not errors, errors
        assert engine.version == 40  # the writer was never blocked
        assert observations

        by_version: dict[int, set] = {}
        for version, fp in observations:
            by_version.setdefault(version, set()).add(fp)
        # No torn reads: one fingerprint per version, ever.
        for version, fps in by_version.items():
            assert len(fps) == 1, f"torn read at version {version}"
        # Bit-identical to a fresh single-threaded engine at that version.
        sample = sorted(by_version)
        sample = sample[:4] + sample[-4:]
        for version in dict.fromkeys(sample):
            oracle = CTCEngine(_replay(initial, recorder.ops, version))
            expected = fingerprint(oracle.query(QUERY, **SEARCH))
            assert by_version[version] == {expected}

    def test_concurrent_head_misses_build_once(self):
        engine = CTCEngine(erdos_renyi_graph(40, 0.2, seed=11))
        engine.add_edge(900, 901)  # make the head version a cache miss
        results = []
        barrier = threading.Barrier(4)

        def read():
            barrier.wait()
            results.append(engine.snapshot())

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len({id(snapshot) for snapshot in results}) == 1
        assert engine.stats.misses == 1
        assert engine.stats.full_rebuilds + engine.stats.delta_applies == 1


class TestEpochPinnedReclamation:
    def test_leased_version_survives_eviction_and_log_trim(self):
        engine = CTCEngine(
            erdos_renyi_graph(30, 0.25, seed=5), cache_size=2, delta_log_limit=4
        )
        lease = engine.lease()  # pins version 0
        baseline = fingerprint(lease.query(QUERY, **SEARCH))
        for extra in range(8):
            engine.add_edge(700 + extra, 701 + extra)
            engine.snapshot()  # force cache pressure past cache_size

        lo, _ = engine.retained_versions()
        assert lo > 0  # the delta log trimmed past version 0 ...
        assert 0 in engine.pinned_versions()  # ... but the pin held it
        assert engine.stats.deferred_reclamations >= 1
        assert fingerprint(lease.query(QUERY, **SEARCH)) == baseline
        # Cache-first resolution: the pinned version resolves without the log.
        assert engine.snapshot_at(0) is lease.snapshot

        lease.release()
        assert lease.released
        assert engine.pinned_versions() == []
        with pytest.raises(VersionEvictedError):
            engine.snapshot_at(0)

    def test_release_is_idempotent_and_context_managed(self):
        engine = CTCEngine(erdos_renyi_graph(20, 0.3, seed=2))
        with engine.lease() as lease:
            assert engine.pinned_versions() == [0]
        assert engine.pinned_versions() == []
        lease.release()  # second release is a no-op
        assert engine.stats.leases == 1

    def test_nested_leases_refcount(self):
        engine = CTCEngine(erdos_renyi_graph(20, 0.3, seed=2))
        first = engine.lease()
        second = engine.lease()
        first.release()
        assert engine.pinned_versions() == [0]  # still held by `second`
        second.release()
        assert engine.pinned_versions() == []


class TestThreadServing:
    def test_batch_matches_sequential_engine(self):
        graph = erdos_renyi_graph(40, 0.2, seed=11)
        oracle = CTCEngine(graph.copy())
        queries = [[0, 1], [2, 3], [4, 5], [0, 1]]
        expected = [fingerprint(oracle.query(q, **SEARCH)) for q in queries]
        with ServingEngine(graph, workers=3) as serving:
            got = [fingerprint(r) for r in serving.query_batch(queries, **SEARCH)]
        assert got == expected

    def test_batch_amortizes_snapshot_and_lease(self):
        with ServingEngine(erdos_renyi_graph(40, 0.2, seed=11), workers=2) as serving:
            serving.query_batch([QUERY] * 5, **SEARCH)
            assert serving.stats.batches == 1
            assert serving.stats.queries == 5
            assert serving.stats.coalesced_queries == 4
            assert serving.stats.leases == 1
            serving.query_batch([QUERY] * 3, **SEARCH)
            assert serving.stats.snapshot_reuses == 1  # store never moved

    def test_return_exceptions_keeps_slot_order(self):
        with ServingEngine(erdos_renyi_graph(20, 0.3, seed=2), workers=2) as serving:
            ok, bad = serving.query_batch(
                [QUERY, ["no-such-node"]], return_exceptions=True, **SEARCH
            )
            assert ok.trussness >= 2
            assert isinstance(bad, QueryError)
            with pytest.raises(QueryError):
                serving.query_batch([QUERY, ["no-such-node"]], **SEARCH)

    def test_readers_race_writer_and_land_on_real_versions(self):
        initial = erdos_renyi_graph(40, 0.2, seed=11)
        engine = CTCEngine(initial.copy(), cache_size=4)
        recorder = _Recorder(engine)
        churn = EdgeChurn(recorder, seed=7, protect=QUERY)
        errors: list[Exception] = []
        done = threading.Event()
        with ServingEngine(engine, workers=2) as serving:

            def writer():
                try:
                    for _ in range(25):
                        churn.step()
                finally:
                    done.set()

            def reader():
                while True:
                    finished = done.is_set()
                    try:
                        serving.query_batch([QUERY, QUERY], **SEARCH)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    if finished:
                        return

            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert not errors, errors
            assert engine.version == 25
            # Final head read matches a fresh engine over the final store.
            oracle = CTCEngine(_replay(initial, recorder.ops, len(recorder.ops)))
            assert fingerprint(serving.query(QUERY, **SEARCH)) == fingerprint(
                oracle.query(QUERY, **SEARCH)
            )

    def test_time_travel_batches(self):
        engine = CTCEngine(erdos_renyi_graph(30, 0.25, seed=5))
        with ServingEngine(engine, workers=2) as serving:
            before = fingerprint(serving.query(QUERY, **SEARCH))
            engine.add_edge(800, 801)
            pinned = serving.query_batch([QUERY] * 2, at_version=0, **SEARCH)
            assert {fingerprint(r) for r in pinned} == {before}

    def test_async_facade_coalesces_concurrent_queries(self):
        with ServingEngine(erdos_renyi_graph(30, 0.25, seed=5), workers=2) as serving:

            async def fan_out():
                return await asyncio.gather(
                    *(serving.aquery(QUERY, **SEARCH) for _ in range(6))
                )

            results = asyncio.run(fan_out())
            assert len({fingerprint(r) for r in results}) == 1
            assert serving.stats.leases < 6  # the whole point: they coalesced
            assert serving.stats.coalesced_queries >= 1

    def test_async_facade_propagates_query_errors(self):
        with ServingEngine(erdos_renyi_graph(20, 0.3, seed=2), workers=2) as serving:

            async def bad():
                return await serving.aquery(["no-such-node"], **SEARCH)

            with pytest.raises(QueryError):
                asyncio.run(bad())

    def test_rejects_bad_configuration(self):
        graph = erdos_renyi_graph(10, 0.3, seed=1)
        with pytest.raises(ValueError):
            ServingEngine(graph, workers=0)
        with pytest.raises(ValueError):
            ServingEngine(graph, workers=2, mode="fiber")


@pytest.fixture(scope="module")
def two_component_graph():
    graph = UndirectedGraph()
    for base in (0, 100):
        component = erdos_renyi_graph(20, 0.3, seed=4)
        for u, v in component.edges():
            graph.add_edge(base + u, base + v)
    return graph


class TestProcessServing:
    def test_shard_answers_match_unsharded_engine(self, two_component_graph):
        oracle = CTCEngine(two_component_graph.copy())
        queries = [[0, 1], [100, 101], [2, 3], [102, 103]]
        expected = [fingerprint(oracle.query(q, **SEARCH)) for q in queries]
        with ServingEngine(
            two_component_graph, workers=2, mode="process"
        ) as serving:
            assert serving.shard_count == 2
            got = [fingerprint(r) for r in serving.query_batch(queries, **SEARCH)]
            assert got == expected
            assert serving.shard_of(0) != serving.shard_of(100)

    def test_mutations_route_to_the_owning_shard(self, two_component_graph):
        oracle = CTCEngine(two_component_graph.copy())
        with ServingEngine(
            two_component_graph, workers=2, mode="process"
        ) as serving:
            churn_edge = next(
                (u, v)
                for u, v in sorted(two_component_graph.edges(), key=repr)
                if u >= 100 and QUERY[0] not in (u, v)
            )
            for target in (oracle, serving):
                target.remove_edge(*churn_edge)
            got = fingerprint(serving.query([100, 101], **SEARCH))
            assert got == fingerprint(oracle.query([100, 101], **SEARCH))
            # A brand-new component lands on a hash-assigned shard.
            serving.add_edge(900, 901)
            assert serving.shard_of(900) is not None
            assert fingerprint(serving.query([900, 901], **SEARCH)) == fingerprint(
                CTCEngine(_replay(UndirectedGraph(), [("add", 900, 901)], 1)).query(
                    [900, 901], **SEARCH
                )
            )

    def test_cross_shard_query_refused(self, two_component_graph):
        with ServingEngine(
            two_component_graph, workers=2, mode="process"
        ) as serving:
            with pytest.raises(NoCommunityFoundError):
                serving.query([0, 100], **SEARCH)
            assert serving.stats.cross_shard_rejects == 1
            with pytest.raises(QueryError):
                serving.query(["no-such-node"], **SEARCH)
            with pytest.raises(QueryError):
                serving.query([], **SEARCH)

    def test_cross_shard_mutation_refused(self, two_component_graph):
        with ServingEngine(
            two_component_graph, workers=2, mode="process"
        ) as serving:
            with pytest.raises(CrossShardMutationError):
                serving.add_edge(0, 100)

    def test_time_travel_refused(self, two_component_graph):
        with ServingEngine(
            two_component_graph, workers=2, mode="process"
        ) as serving:
            with pytest.raises(ConfigurationError):
                serving.query(QUERY, at_version=0, **SEARCH)

    def test_close_unlinks_shared_memory(self, two_component_graph):
        serving = ServingEngine(two_component_graph, workers=2, mode="process")
        metas = [bundle.meta for bundle in serving._bundles]
        serving.query(QUERY, **SEARCH)
        serving.close()
        serving.close()  # idempotent
        for meta in metas:
            with pytest.raises(FileNotFoundError):
                SharedArrayBundle.attach(meta)

    def test_worker_engines_skip_the_decomposition(self, two_component_graph):
        with ServingEngine(
            two_component_graph, workers=2, mode="process"
        ) as serving:
            serving.query_batch([[0, 1], [100, 101]], **SEARCH)
            totals = serving.engine_stats()
            # The shm-seeded version-0 snapshots serve straight from cache.
            assert totals["full_rebuilds"] == 0
            assert totals["hits"] >= 2


class TestDurableSources:
    @pytest.fixture
    def store(self, tmp_path):
        config = DurabilityConfig(tmp_path / "store", fsync="off", checkpoint_every=None)
        engine = CTCEngine(erdos_renyi_graph(30, 0.2, seed=9), durability=config)
        engine.checkpoint()
        engine.close()
        return config.path

    def test_thread_mode_path_source_keeps_served_mutations(self, store):
        with ServingEngine(store, workers=2) as serving:
            serving.add_edge(0, 500)
            assert 500 in serving.query([0, 500], method="truss").nodes
        recovered = CTCEngine.recover(store)
        try:
            assert recovered.graph.has_edge(0, 500)
        finally:
            recovered.close()

    def test_process_mode_refuses_a_path_source(self, store):
        with pytest.raises(ConfigurationError):
            ServingEngine(store, workers=2, mode="process")

    def test_process_mode_refuses_a_durable_engine(self, store):
        engine = CTCEngine.recover(store)
        try:
            with pytest.raises(ConfigurationError):
                ServingEngine(engine, workers=2, mode="process")
        finally:
            engine.close()

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_durability_engine_keyword_is_refused(self, tmp_path, mode):
        """Durable serving takes a durable engine or a data directory; a
        ``durability`` engine keyword would open a WAL nobody closes."""
        data_dir = tmp_path / "store"
        with pytest.raises(ConfigurationError, match="durability"):
            ServingEngine(
                erdos_renyi_graph(20, 0.3, seed=4),
                workers=1,
                mode=mode,
                durability=DurabilityConfig(data_dir),
            )
        assert not data_dir.exists()


class _ReprCollidingInt(int):
    """An int whose repr collides with a *different* int's repr.

    ``_ReprCollidingInt(21)`` reprs as ``"20"``, so a kwargs dict holding it
    produces the same repr-based aquery group key as ``{"eta": 20}`` while
    comparing unequal — exactly the collision the drainer's equality
    sub-bucketing exists for.
    """

    def __repr__(self):
        return "20"


class TestAsyncFacadeGrouping:
    def test_unhashable_kwarg_values_resolve_instead_of_hanging(self):
        """Regression: a list-valued kwarg used to crash the drainer task
        while building the (formerly tuple-of-items, hashable-only) group
        key, leaving every pending future unresolved — a silent hang.  The
        repr-based key groups any kwargs; the search layer's TypeError for
        the unknown argument then comes back through the future."""
        with ServingEngine(erdos_renyi_graph(20, 0.3, seed=4), workers=2) as serving:

            async def ask():
                return await asyncio.wait_for(
                    serving.aquery(QUERY, method="lctc", bogus_weights=[1, 2, 3]),
                    timeout=30,
                )

            with pytest.raises(TypeError, match="bogus_weights"):
                asyncio.run(ask())

    def test_repr_colliding_kwargs_split_into_separate_batches(self):
        """Two queries whose kwargs repr identically but compare unequal
        must NOT share a batch (one would silently run with the other's
        kwargs).  The drainer sub-buckets each group by dict equality."""
        graph = erdos_renyi_graph(20, 0.3, seed=4)
        colliding = _ReprCollidingInt(21)
        assert repr({"eta": colliding}) == repr({"eta": 20})
        assert {"eta": colliding} != {"eta": 20}
        oracle = CTCEngine(graph.copy())
        with ServingEngine(graph, workers=2) as serving:

            async def fan_out():
                return await asyncio.gather(
                    serving.aquery(QUERY, method="lctc", eta=colliding),
                    serving.aquery(QUERY, method="lctc", eta=20),
                )

            first, second = asyncio.run(fan_out())
            assert serving.stats.batches == 2  # split, not coalesced
            assert fingerprint(first) == fingerprint(
                oracle.query(QUERY, method="lctc", eta=21)
            )
            assert fingerprint(second) == fingerprint(
                oracle.query(QUERY, method="lctc", eta=20)
            )


class TestReturnExceptionsEndToEnd:
    """return_exceptions=True contracts, exercised in BOTH serving modes."""

    def test_thread_mode_all_slots_failing(self):
        with ServingEngine(erdos_renyi_graph(20, 0.3, seed=4), workers=2) as serving:
            results = serving.query_batch(
                [["no-such-node"], []], return_exceptions=True, **SEARCH
            )
            assert len(results) == 2
            assert all(isinstance(result, QueryError) for result in results)
            # The same batch without the flag raises the first failure.
            with pytest.raises(QueryError):
                serving.query_batch([["no-such-node"], []], **SEARCH)

    def test_process_mode_all_slots_failing(self, two_component_graph):
        with ServingEngine(
            two_component_graph, workers=2, mode="process"
        ) as serving:
            results = serving.query_batch(
                [["no-such-node"], [0, 100]], return_exceptions=True, **SEARCH
            )
            assert isinstance(results[0], QueryError)
            assert isinstance(results[1], NoCommunityFoundError)  # cross-shard
            with pytest.raises(QueryError):
                serving.query_batch([["no-such-node"], [0, 100]], **SEARCH)

    def test_process_mode_mixes_rejects_with_successes(self, two_component_graph):
        oracle = CTCEngine(two_component_graph.copy())
        with ServingEngine(
            two_component_graph, workers=2, mode="process"
        ) as serving:
            results = serving.query_batch(
                [[0, 1], [0, 100], [100, 101]], return_exceptions=True, **SEARCH
            )
            assert fingerprint(results[0]) == fingerprint(
                oracle.query([0, 1], **SEARCH)
            )
            assert isinstance(results[1], NoCommunityFoundError)
            assert fingerprint(results[2]) == fingerprint(
                oracle.query([100, 101], **SEARCH)
            )
            assert serving.stats.cross_shard_rejects == 1
