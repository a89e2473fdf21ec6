"""Durability layer tests: WAL, checkpoints, recovery, and the lazy cold start.

Crash *simulation* lives here (torn tails built by slicing bytes, damaged
checkpoints built by flipping bits); real ``kill -9`` crash injection is
in ``tests/engine/test_crash_recovery.py``.
"""

from __future__ import annotations

import errno
import os
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import (
    CTCEngine,
    CheckpointStore,
    DurabilityConfig,
    DurabilityManager,
    SlidingWindowEngine,
    WriteAheadLog,
)
from repro.exceptions import ConfigurationError, WalCorruptionError
from repro.graph.delta import GraphDelta
from repro.graph.generators import complete_graph, erdos_renyi_graph

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _config(tmp_path, **overrides) -> DurabilityConfig:
    defaults = dict(path=tmp_path / "store", fsync="off", checkpoint_every=None)
    defaults.update(overrides)
    return DurabilityConfig(**defaults)


def _assert_snapshots_identical(expected, actual) -> None:
    """Bit-identical frozen artifacts: CSR buffers, trussness, incidence."""
    assert np.array_equal(expected.csr.indptr, actual.csr.indptr)
    assert np.array_equal(expected.csr.indices, actual.csr.indices)
    assert np.array_equal(expected.csr.edge_u, actual.csr.edge_u)
    assert np.array_equal(expected.csr.edge_v, actual.csr.edge_v)
    assert expected.csr.labels() == actual.csr.labels()
    assert np.array_equal(expected.trussness, actual.trussness)
    if expected.incidence is not None and actual.incidence is not None:
        assert np.array_equal(expected.incidence.edges, actual.incidence.edges)
        assert np.array_equal(
            expected.incidence.inc_indptr, actual.incidence.inc_indptr
        )
        assert np.array_equal(
            expected.incidence.inc_triangles, actual.incidence.inc_triangles
        )


class TestDurabilityConfig:
    def test_rejects_bad_fsync(self, tmp_path):
        with pytest.raises(ValueError, match="fsync must be one of"):
            DurabilityConfig(path=tmp_path, fsync="sometimes")

    @pytest.mark.parametrize(
        "field", ["checkpoint_every", "checkpoint_bytes", "fsync_batch"]
    )
    def test_rejects_non_positive_knobs(self, tmp_path, field):
        with pytest.raises(ValueError, match=field):
            DurabilityConfig(path=tmp_path, **{field: 0})

    def test_none_disables_checkpoint_triggers(self, tmp_path):
        config = DurabilityConfig(
            path=tmp_path, checkpoint_every=None, checkpoint_bytes=None
        )
        assert config.checkpoint_every is None
        assert config.checkpoint_bytes is None

    def test_coerce_accepts_a_bare_path(self, tmp_path):
        config = DurabilityConfig.coerce(tmp_path / "data")
        assert config.path == os.fspath(tmp_path / "data")
        assert config.fsync == "batch"
        assert DurabilityConfig.coerce(config) is config

    def test_wal_path(self, tmp_path):
        config = DurabilityConfig(path=tmp_path)
        assert config.wal_path == os.path.join(os.fspath(tmp_path), "wal.log")


class TestWriteAheadLog:
    def _deltas(self, count: int) -> list[GraphDelta]:
        return [GraphDelta(added_edges=[(i, i + 1)]) for i in range(count)]

    def test_append_read_round_trip(self, tmp_path):
        path = os.fspath(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync="off")
        for version, delta in enumerate(self._deltas(5), start=1):
            wal.append(version, delta)
        wal.close()
        records, valid, total = WriteAheadLog.read(path)
        assert [v for v, _ in records] == [1, 2, 3, 4, 5]
        assert records[2][1].added_edges == frozenset({(2, 3)})
        assert valid == total == os.path.getsize(path)

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = os.fspath(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync="off")
        wal.append(1, GraphDelta(added_edges=[(0, 1)]))
        wal.close()
        wal = WriteAheadLog(path, fsync="off")
        wal.append(2, GraphDelta(added_edges=[(1, 2)]))
        wal.close()
        records, _, _ = WriteAheadLog.read(path)
        assert [v for v, _ in records] == [1, 2]

    def test_torn_tail_repair(self, tmp_path):
        path = os.fspath(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync="off")
        for version, delta in enumerate(self._deltas(3), start=1):
            wal.append(version, delta)
        wal.close()
        full = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(full - 5)
        records, truncated = WriteAheadLog.repair(path)
        assert [v for v, _ in records] == [1, 2]
        assert truncated > 0
        # The file itself was truncated back to the last whole record.
        records2, valid, total = WriteAheadLog.read(path)
        assert [v for v, _ in records2] == [1, 2]
        assert valid == total == os.path.getsize(path)

    def test_midlog_damage_raises(self, tmp_path):
        path = os.fspath(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync="off")
        for version, delta in enumerate(self._deltas(4), start=1):
            wal.append(version, delta)
        wal.close()
        data = bytearray(open(path, "rb").read())
        data[len(WriteAheadLog.MAGIC) + 8 + 4] ^= 0xFF  # first record's payload
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(WalCorruptionError, match="checksum mismatch"):
            WriteAheadLog.read(path)

    def test_non_contiguous_versions_raise(self, tmp_path):
        path = os.fspath(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync="off")
        wal.append(1, GraphDelta(added_edges=[(0, 1)]))
        wal.append(3, GraphDelta(added_edges=[(1, 2)]))
        wal.close()
        with pytest.raises(WalCorruptionError, match="non-contiguous"):
            WriteAheadLog.read(path)

    def test_undecodable_payload_raises(self, tmp_path):
        path = os.fspath(tmp_path / "wal.log")
        from repro.graph.disk import append_record

        with open(path, "wb") as handle:
            handle.write(WriteAheadLog.MAGIC)
            append_record(handle, (1).to_bytes(8, "little") + b"not a delta")
            append_record(handle, (2).to_bytes(8, "little") + b"also not")
        with pytest.raises(WalCorruptionError, match="does not decode"):
            WriteAheadLog.read(path)

    def test_trim_through(self, tmp_path):
        path = os.fspath(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync="off")
        for version, delta in enumerate(self._deltas(6), start=1):
            wal.append(version, delta)
        assert wal.trim_through(4) == 2
        wal.append(7, GraphDelta(added_edges=[(6, 7)]))  # log stays appendable
        wal.close()
        records, _, _ = WriteAheadLog.read(path)
        assert [v for v, _ in records] == [5, 6, 7]

    def test_fsync_policy_counters(self, tmp_path):
        always = WriteAheadLog(
            os.fspath(tmp_path / "a.log"), fsync="always"
        )
        batch = WriteAheadLog(
            os.fspath(tmp_path / "b.log"), fsync="batch", fsync_batch=3
        )
        off = WriteAheadLog(os.fspath(tmp_path / "c.log"), fsync="off")
        for version, delta in enumerate(self._deltas(6), start=1):
            for wal in (always, batch, off):
                wal.append(version, delta)
        assert always.syncs == 6
        assert batch.syncs == 2
        assert off.syncs == 0
        for wal in (always, batch, off):
            wal.close()
            wal.close()  # idempotent


class TestCheckpointStore:
    @pytest.fixture
    def snapshot(self):
        return CTCEngine(erdos_renyi_graph(25, 0.25, seed=3)).snapshot()

    def test_write_load_round_trip(self, tmp_path, snapshot):
        store = CheckpointStore(tmp_path)
        path = store.write(snapshot)
        assert os.path.basename(path).startswith("checkpoint-")
        loaded = store.load_latest(verify=True)
        assert loaded is not None
        assert loaded.version == snapshot.version
        _assert_snapshots_identical(snapshot, loaded)
        # Arrays come back memory-mapped, not heap copies.
        assert isinstance(loaded.trussness, np.memmap)

    def test_write_is_idempotent_per_version(self, tmp_path, snapshot):
        store = CheckpointStore(tmp_path)
        assert store.write(snapshot) == store.write(snapshot)
        assert store.versions() == [snapshot.version]

    def test_sweep_tmp_removes_staging_orphans(self, tmp_path, snapshot):
        store = CheckpointStore(tmp_path)
        store.write(snapshot)
        orphan = tmp_path / "tmp-99-123"
        orphan.mkdir()
        (orphan / "half-written.npy").write_bytes(b"junk")
        assert store.sweep_tmp() == 1
        assert not orphan.exists()
        assert store.load_latest() is not None

    def test_remove_older_than(self, tmp_path):
        engine = CTCEngine(complete_graph(4))
        store = CheckpointStore(tmp_path)
        store.write(engine.snapshot())
        engine.add_edge(10, 11)
        store.write(engine.snapshot())
        assert store.versions() == [0, 1]
        store.remove_older_than(1)
        assert store.versions() == [1]

    def test_damaged_manifest_falls_back_to_older(self, tmp_path):
        engine = CTCEngine(complete_graph(4))
        store = CheckpointStore(tmp_path)
        store.write(engine.snapshot())
        engine.add_edge(10, 11)
        newest = store.write(engine.snapshot())
        manifest = os.path.join(newest, "manifest.json")
        data = bytearray(open(manifest, "rb").read())
        data[-5] ^= 0xFF
        with open(manifest, "wb") as handle:
            handle.write(bytes(data))
        loaded = store.load_latest()
        assert loaded is not None
        assert loaded.version == 0  # fell back past the damaged newest

    def test_missing_array_file_falls_back(self, tmp_path):
        engine = CTCEngine(complete_graph(4))
        store = CheckpointStore(tmp_path)
        store.write(engine.snapshot())
        engine.add_edge(10, 11)
        newest = store.write(engine.snapshot())
        os.remove(os.path.join(newest, "trussness.npy"))
        loaded = store.load_latest()
        assert loaded is not None and loaded.version == 0

    def test_manifest_missing_an_array_falls_back(self, tmp_path):
        from repro.graph.disk import read_manifest, write_manifest

        engine = CTCEngine(complete_graph(4))
        store = CheckpointStore(tmp_path)
        store.write(engine.snapshot())
        engine.add_edge(10, 11)
        newest = store.write(engine.snapshot())
        manifest_path = os.path.join(newest, "manifest.json")
        manifest = read_manifest(manifest_path)
        del manifest["arrays"]["indptr"]
        write_manifest(manifest_path, manifest)
        loaded = store.load_latest()
        assert loaded is not None and loaded.version == 0

    def test_verify_catches_flipped_array_bytes(self, tmp_path, snapshot):
        store = CheckpointStore(tmp_path)
        path = store.write(snapshot)
        target = os.path.join(path, "trussness.npy")
        data = bytearray(open(target, "rb").read())
        data[-2] ^= 0xFF
        with open(target, "wb") as handle:
            handle.write(bytes(data))
        assert store.load_latest(verify=True) is None
        # Without verification the (same-shape) damage goes unnoticed —
        # exactly the trade-off DurabilityConfig.verify_checkpoints states.
        assert store.load_latest(verify=False) is not None

    def test_unknown_format_version_skipped(self, tmp_path, snapshot):
        from repro.graph.disk import read_manifest, write_manifest

        store = CheckpointStore(tmp_path)
        path = store.write(snapshot)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = read_manifest(manifest_path)
        manifest["format_version"] = 999
        write_manifest(manifest_path, manifest)
        assert store.load_latest() is None


class TestEngineDurability:
    def test_fresh_engine_refuses_existing_state(self, tmp_path):
        config = _config(tmp_path)
        engine = CTCEngine(complete_graph(4), durability=config)
        engine.close()
        with pytest.raises(ConfigurationError, match="already contains durable"):
            CTCEngine(complete_graph(4), durability=config)

    def test_recover_requires_durable_state(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(ConfigurationError, match="no durable state"):
            CTCEngine.recover(empty)

    def test_recover_rejects_reserved_kwargs(self, tmp_path):
        with pytest.raises(ValueError, match="manages 'copy'"):
            CTCEngine.recover(tmp_path, copy=True)

    def test_wal_only_recovery_bootstrap(self, tmp_path):
        graph = erdos_renyi_graph(20, 0.3, seed=5)
        engine = CTCEngine(graph, durability=_config(tmp_path))
        engine.add_edge(100, 101)
        engine.remove_edge(100, 101)
        engine.close()

        recovered = CTCEngine.recover(_config(tmp_path))
        assert recovered.version == engine.version
        assert set(recovered.graph.edges()) == set(engine.graph.edges())
        _assert_snapshots_identical(engine.snapshot(), recovered.snapshot())
        assert recovered.last_recovery.checkpoint_version is None
        assert recovered.last_recovery.wal_records == 3  # bootstrap + 2
        recovered.close()

    def test_checkpoint_plus_replay_recovery(self, tmp_path):
        engine = CTCEngine(
            erdos_renyi_graph(20, 0.3, seed=5), durability=_config(tmp_path)
        )
        engine.add_edge(100, 101)
        engine.checkpoint()
        engine.add_edge(101, 102)
        engine.add_edge(102, 100)
        engine.close()

        recovered = CTCEngine.recover(_config(tmp_path))
        assert recovered.version == engine.version
        assert recovered.last_recovery.checkpoint_version == 1
        assert recovered.last_recovery.replayed_deltas == 2
        _assert_snapshots_identical(engine.snapshot(), recovered.snapshot())
        recovered.close()

    def test_checkpoint_trims_wal_and_prunes_older(self, tmp_path):
        config = _config(tmp_path)
        engine = CTCEngine(complete_graph(4), durability=config)
        for step in range(4):
            engine.add_edge(50 + step, 51 + step)
        engine.checkpoint()
        stats = engine.durability_stats()
        assert stats["checkpoints"] == 1
        assert stats["deltas_since_checkpoint"] == 0
        records, _, _ = WriteAheadLog.read(config.wal_path)
        assert records == []  # everything was covered by the checkpoint
        engine.add_edge(99, 98)
        engine.checkpoint()
        assert CheckpointStore(config.path).versions() == [engine.version]
        engine.close()

    def test_auto_checkpoint_every_n_appends(self, tmp_path):
        config = _config(tmp_path, checkpoint_every=3)
        engine = CTCEngine(complete_graph(4), durability=config)
        for step in range(7):
            engine.add_edge(50 + step, 51 + step)
        # bootstrap + 7 appends with a trigger every 3 → at least 2 autos.
        assert engine.durability_stats()["checkpoints"] >= 2
        assert CheckpointStore(config.path).versions() != []
        engine.close()

    def test_auto_checkpoint_on_wal_bytes(self, tmp_path):
        config = _config(tmp_path, checkpoint_bytes=512)
        engine = CTCEngine(complete_graph(4), durability=config)
        for step in range(20):
            engine.add_edge(50 + step, 51 + step)
        assert engine.durability_stats()["checkpoints"] >= 1
        engine.close()

    def test_checkpoint_requires_durability(self):
        with pytest.raises(ConfigurationError, match="requires a durable"):
            CTCEngine(complete_graph(4)).checkpoint()

    def test_close_is_idempotent_and_ram_only_noop(self, tmp_path):
        ram_only = CTCEngine(complete_graph(3))
        ram_only.close()
        assert ram_only.durability is None
        assert ram_only.durability_stats() is None
        durable = CTCEngine(complete_graph(3), durability=_config(tmp_path))
        durable.close()
        durable.close()

    def test_recovered_engine_keeps_logging(self, tmp_path):
        engine = CTCEngine(complete_graph(4), durability=_config(tmp_path))
        engine.add_edge(10, 11)
        engine.close()
        recovered = CTCEngine.recover(_config(tmp_path))
        recovered.add_edge(11, 12)
        recovered.close()
        second = CTCEngine.recover(_config(tmp_path))
        assert second.graph.has_edge(11, 12)
        assert second.version == 2
        second.close()

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        config = _config(tmp_path)
        engine = CTCEngine(complete_graph(4), durability=config)
        engine.add_edge(10, 11)
        engine.add_edge(11, 12)
        engine.close()
        size = os.path.getsize(config.wal_path)
        with open(config.wal_path, "rb+") as handle:
            handle.truncate(size - 3)
        recovered = CTCEngine.recover(config)
        assert recovered.version == 1  # last append torn off
        assert recovered.graph.has_edge(10, 11)
        assert not recovered.graph.has_edge(11, 12)
        assert recovered.last_recovery.truncated_bytes > 0
        recovered.close()

    def test_version_gap_between_checkpoint_and_wal_raises(self, tmp_path):
        config = _config(tmp_path)
        engine = CTCEngine(complete_graph(4), durability=config)
        engine.add_edge(10, 11)
        engine.checkpoint()
        engine.add_edge(11, 12)
        engine.close()
        # Destroy the checkpoint the trimmed WAL depends on.
        store = CheckpointStore(config.path)
        import shutil

        for version in store.versions():
            shutil.rmtree(
                os.path.join(config.path, f"checkpoint-{version:012d}")
            )
        with pytest.raises(WalCorruptionError, match="trimmed without"):
            CTCEngine.recover(config)

    def test_recover_with_engine_kwargs(self, tmp_path):
        engine = CTCEngine(complete_graph(5), durability=_config(tmp_path))
        engine.checkpoint()
        engine.close()
        recovered = CTCEngine.recover(_config(tmp_path), cache_size=2, delta_threshold=0)
        assert recovered.cache_size == 2
        assert recovered.delta_threshold == 0
        recovered.close()


class TestFailedAppend:
    """A WAL append that raises must leave the store where it was."""

    @pytest.mark.parametrize(
        "method, args",
        [
            ("add_edge", (10, 11)),
            ("remove_edge", (0, 1)),
            ("add_node", (99,)),
            ("remove_node", (0,)),
            ("add_edges_from", ([(10, 11), (11, 0)],)),
        ],
    )
    def test_failed_append_rolls_the_store_back(self, tmp_path, monkeypatch, method, args):
        config = _config(tmp_path)
        engine = CTCEngine(complete_graph(5), durability=config)
        engine.snapshot()
        nodes, edges = engine.graph.node_set(), engine.graph.edge_set()
        version = engine.version
        append = DurabilityManager.append
        calls = []

        def append_failing_once(manager, *call_args):
            calls.append(call_args)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return append(manager, *call_args)

        monkeypatch.setattr(DurabilityManager, "append", append_failing_once)
        with pytest.raises(OSError):
            getattr(engine, method)(*args)
        assert engine.graph.node_set() == nodes
        assert engine.graph.edge_set() == edges
        assert engine.version == version

        engine.remove_edge(2, 3)
        patched = engine.snapshot()
        assert engine.stats.delta_applies == 1
        engine.clear_cache()
        _assert_snapshots_identical(engine.snapshot(), patched)
        engine.close()
        recovered = CTCEngine.recover(config)
        try:
            assert recovered.graph == engine.graph
            assert recovered.version == engine.version
        finally:
            recovered.close()

    def test_failed_fsync_leaves_no_record(self, tmp_path, monkeypatch):
        """An append whose fsync fails takes its record back out of the log.

        Left in, the record would share its version with the next append,
        and both the checkpoint's WAL trim and recovery would refuse the log
        as non-contiguous.
        """
        config = _config(tmp_path, fsync="always")
        engine = CTCEngine(complete_graph(5), durability=config)
        engine.snapshot()
        wal_bytes = os.path.getsize(config.wal_path)
        fsync = os.fsync
        calls = []

        def fsync_failing_once(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError(errno.EIO, "Input/output error")
            return fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_failing_once)
        with pytest.raises(OSError):
            engine.add_edge(10, 11)
        assert os.path.getsize(config.wal_path) == wal_bytes
        assert not engine.graph.has_node(10)

        engine.remove_edge(2, 3)
        engine.checkpoint()
        engine.close()
        recovered = CTCEngine.recover(config)
        try:
            assert recovered.graph == engine.graph
            assert recovered.version == engine.version
            _assert_snapshots_identical(engine.snapshot(), recovered.snapshot())
        finally:
            recovered.close()

    def test_untruncatable_failed_append_refuses_later_appends(self, tmp_path, monkeypatch):
        wal = WriteAheadLog(os.fspath(tmp_path / "wal.log"), fsync="always")

        def fail(*args):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", fail)
        monkeypatch.setattr(os, "ftruncate", fail)
        with pytest.raises(OSError):
            wal.append(1, GraphDelta(added_edges=[(0, 1)]))
        monkeypatch.undo()
        with pytest.raises(WalCorruptionError, match="refuses further appends"):
            wal.append(1, GraphDelta(added_edges=[(0, 1)]))
        wal.close()

    def test_failed_expiry_append_keeps_the_edge_in_the_window(self, tmp_path, monkeypatch):
        config = _config(tmp_path)
        engine = SlidingWindowEngine(window=3, durability=config)
        for edge in [(0, 1), (1, 2), (2, 3)]:
            engine.add_edge(*edge)
        append = DurabilityManager.append
        calls = []

        def expiry_append_fails(manager, *call_args):
            calls.append(call_args)
            if len(calls) == 2:  # the first is the arrival of (3, 4)
                raise OSError(errno.ENOSPC, "No space left on device")
            return append(manager, *call_args)

        monkeypatch.setattr(DurabilityManager, "append", expiry_append_fails)
        with pytest.raises(OSError):
            engine.add_edge(3, 4)
        assert engine.window_edges() == engine.graph.edge_set()

        engine.add_edge(4, 5)
        assert engine.graph.number_of_edges() == 3
        assert engine.window_edges() == engine.graph.edge_set()
        engine.close()
        recovered = SlidingWindowEngine.recover(config, window=3)
        try:
            assert recovered.graph == engine.graph
        finally:
            recovered.close()


class TestLazyColdStart:
    """Cold starts defer the O(m) dict-store thaw until a mutation needs it."""

    def _durable_checkpoint(self, tmp_path):
        engine = CTCEngine(
            erdos_renyi_graph(30, 0.2, seed=9), durability=_config(tmp_path)
        )
        engine.checkpoint()
        engine.close()
        return engine

    def test_recover_serves_queries_without_thawing(self, tmp_path):
        original = self._durable_checkpoint(tmp_path)
        recovered = CTCEngine.recover(_config(tmp_path))
        assert recovered._lazy_csr is not None
        snapshot = recovered.snapshot()
        result = recovered.query([0, 1], method="bulk-delete")
        assert result.contains_query()
        # Queries and snapshots never forced the thaw.
        assert recovered._lazy_csr is not None
        _assert_snapshots_identical(original.snapshot(), snapshot)
        recovered.close()

    def test_mutation_thaws_the_store(self, tmp_path):
        self._durable_checkpoint(tmp_path)
        recovered = CTCEngine.recover(_config(tmp_path))
        recovered.add_edge(500, 501)
        assert recovered._lazy_csr is None
        assert recovered.graph.has_edge(500, 501)
        recovered.close()

    def test_graph_property_thaws_the_store(self, tmp_path):
        original = self._durable_checkpoint(tmp_path)
        recovered = CTCEngine.recover(_config(tmp_path))
        assert set(recovered.graph.edges()) == set(original.graph.edges())
        assert recovered._lazy_csr is None
        recovered.close()

    def test_lazy_snapshot_graph_thaws_on_access(self, tmp_path):
        self._durable_checkpoint(tmp_path)
        recovered = CTCEngine.recover(_config(tmp_path))
        snapshot = recovered.snapshot()
        assert snapshot._graph is None
        assert snapshot.graph.number_of_edges() == snapshot.csr.number_of_edges()
        assert snapshot._graph is not None
        recovered.close()


class TestWindowedRecovery:
    def test_recover_restores_window(self, tmp_path):
        config = _config(tmp_path)
        engine = SlidingWindowEngine(window=4, durability=config)
        for step in range(10):
            engine.add_edge(step, step + 1)
        live = engine.window_edges()
        engine.close()
        recovered = SlidingWindowEngine.recover(config, window=4)
        assert recovered.window_edges() == live
        assert set(recovered.graph.edges()) == live
        assert recovered.version == engine.version
        recovered.close()

    def test_recover_with_smaller_window_expires_overflow(self, tmp_path):
        config = _config(tmp_path)
        engine = SlidingWindowEngine(window=6, durability=config)
        for step in range(8):
            engine.add_edge(step, step + 1)
        engine.close()
        recovered = SlidingWindowEngine.recover(config, window=2)
        assert len(recovered.window_edges()) == 2
        # The shrink-expirations were themselves logged.
        assert recovered.version > engine.version
        recovered.close()


class TestDeltaSerialization:
    """Satellite: GraphDelta's canonical bytes are deterministic."""

    def test_round_trip_is_byte_stable(self):
        delta = GraphDelta(
            added_nodes=[3, "b", 1],
            removed_nodes=["z"],
            added_edges=[(5, 2), ("a", "b")],
            removed_edges=[(9, 8)],
        )
        wire = delta.to_bytes()
        again = GraphDelta.from_bytes(wire)
        assert again == delta
        assert again.to_bytes() == wire

    def test_construction_order_does_not_change_bytes(self):
        forward = GraphDelta(added_edges=[(1, 2), (3, 4), (5, 6)])
        backward = GraphDelta(added_edges=[(6, 5), (4, 3), (2, 1)])
        assert forward.to_bytes() == backward.to_bytes()

    def test_from_bytes_rejects_junk(self):
        with pytest.raises(ValueError, match="not a serialized GraphDelta"):
            GraphDelta.from_bytes(b"junk")
        with pytest.raises(ValueError, match="not a serialized GraphDelta"):
            GraphDelta.from_bytes(pickle.dumps((1, 2)))  # wrong shape

    @common_settings
    @given(
        added_nodes=st.sets(st.integers(0, 50) | st.text(max_size=3)),
        removed_nodes=st.sets(st.integers(0, 50)),
        edges=st.sets(
            st.tuples(st.integers(0, 30), st.integers(31, 60))
        ),
    )
    def test_serialize_deserialize_serialize_stable(
        self, added_nodes, removed_nodes, edges
    ):
        delta = GraphDelta(
            added_nodes=added_nodes,
            removed_nodes=removed_nodes,
            added_edges=edges,
        )
        wire = delta.to_bytes()
        assert GraphDelta.from_bytes(wire).to_bytes() == wire


class TestManagerLifecycle:
    def test_open_existing_counts_since_checkpoint(self, tmp_path):
        config = _config(tmp_path)
        engine = CTCEngine(complete_graph(4), durability=config)
        engine.add_edge(10, 11)
        engine.checkpoint()
        engine.add_edge(11, 12)
        engine.add_edge(12, 13)
        engine.close()
        manager, checkpoint, records, truncated = DurabilityManager.open_existing(
            config
        )
        assert checkpoint is not None and checkpoint.version == 1
        assert [v for v, _ in records] == [2, 3]
        assert truncated == 0
        assert manager.stats()["deltas_since_checkpoint"] == 2
        manager.close()
