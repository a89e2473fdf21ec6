"""Crash-injection acceptance tests for the durability layer.

The headline property (ISSUE acceptance criterion): an engine killed with
``SIGKILL`` at an arbitrary point of a mutation stream recovers to a state
**bit-identical** to an uninterrupted engine that applied exactly the
durable prefix of the stream — CSR buffers, trussness, supports, triangle
incidence.  ``kill -9`` is real here: a child process applies a scripted
mutation stream against a durable engine while the parent kills it at
randomized points (between appends, mid-append, and mid-checkpoint — the
child auto-checkpoints, so kills land inside the stage/rename/trim window
too).

The WAL contract under crash is pinned twice more without processes:

* a hypothesis property truncates a real WAL at *every* byte offset and
  requires recovery to yield some exact prefix of the stream (torn tails
  never raise, never corrupt);
* a mid-log byte flip must raise
  :class:`~repro.exceptions.WalCorruptionError` instead of resurrecting a
  damaged store.

The kill -9 harness runs once per decomposition strategy, since replay
rebuilds snapshots through whichever strategy the snapshot's size picks:
each arm starts from a graph on its side of the size threshold and asserts
the strategy its snapshots used.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import CTCEngine, DurabilityConfig
from repro.exceptions import WalCorruptionError
from repro.graph.generators import complete_graph, erdos_renyi_graph

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"

#: The scripted crash workload: initial graph + an always-effective stream.
#: A graph is the ``(nodes, p)`` of ``erdos_renyi_graph(nodes, p, seed=GRAPH_SEED)``.
GRAPH, GRAPH_SEED = (24, 0.25), 13
STREAM_SEED, STREAM_LENGTH = 29, 24

#: One initial graph per full-rebuild strategy, for the kill -9 harness:
#: 76 edges take the bucket queue, 315 the vector peel.
STRATEGY_GRAPHS = [
    pytest.param((24, 0.25), "bucket", id="bucket"),
    pytest.param((40, 0.4), "vector", id="vector"),
]

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _initial_graph(graph=GRAPH):
    nodes, p = graph
    return erdos_renyi_graph(nodes, p, seed=GRAPH_SEED)


def _mutation_stream(graph=GRAPH) -> list[tuple[str, int, int]]:
    """A deterministic, always-effective add/remove stream.

    Simulated against a set model so every op changes the store — each op
    therefore bumps the engine version by exactly one, which is what lets
    the parent equate ``recovered.version`` with a stream prefix length.
    """
    rng = random.Random(STREAM_SEED)
    edges = {tuple(sorted(edge)) for edge in _initial_graph(graph).edges()}
    ops: list[tuple[str, int, int]] = []
    spare = 100
    while len(ops) < STREAM_LENGTH:
        if edges and rng.random() < 0.4:
            u, v = rng.choice(sorted(edges))
            edges.remove((u, v))
            ops.append(("remove", u, v))
        else:
            u, v = spare, spare + 1
            spare += 2
            edges.add((u, v))
            ops.append(("add", u, v))
    return ops


def _oracle_engine(prefix: int, graph=GRAPH) -> CTCEngine:
    """An uninterrupted engine that applied exactly ``prefix`` stream ops."""
    engine = CTCEngine(_initial_graph(graph), copy=False)
    for op, u, v in _mutation_stream(graph)[:prefix]:
        if op == "add":
            engine.add_edge(u, v)
        else:
            engine.remove_edge(u, v)
    return engine


def _assert_bit_identical(expected, actual) -> None:
    assert np.array_equal(expected.csr.indptr, actual.csr.indptr)
    assert np.array_equal(expected.csr.indices, actual.csr.indices)
    assert np.array_equal(expected.csr.edge_u, actual.csr.edge_u)
    assert np.array_equal(expected.csr.edge_v, actual.csr.edge_v)
    assert expected.csr.labels() == actual.csr.labels()
    assert np.array_equal(expected.trussness, actual.trussness)
    incidence = (expected.incidence, actual.incidence)
    if None not in incidence:
        assert np.array_equal(expected.incidence.edges, actual.incidence.edges)
        assert np.array_equal(
            expected.incidence.inc_indptr, actual.incidence.inc_indptr
        )
        assert np.array_equal(
            expected.incidence.inc_triangles, actual.incidence.inc_triangles
        )


CHILD_SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    import time

    from repro.engine import CTCEngine, DurabilityConfig
    from repro.graph.generators import erdos_renyi_graph

    ops_path, data_dir, nodes, p, checkpoint_every = sys.argv[1:6]
    with open(ops_path) as handle:
        ops = json.load(handle)
    engine = CTCEngine(
        erdos_renyi_graph(int(nodes), float(p), seed={seed}),
        copy=False,
        durability=DurabilityConfig(
            path=data_dir,
            fsync="off",
            checkpoint_every=(
                None if checkpoint_every == "none" else int(checkpoint_every)
            ),
        ),
    )
    print("READY", flush=True)
    for index, (op, u, v) in enumerate(ops):
        if op == "add":
            engine.add_edge(u, v)
        else:
            engine.remove_edge(u, v)
        print(f"APPLIED:{{index}}", flush=True)
    print("DONE", flush=True)
    time.sleep(120)  # hold the process open; the parent always SIGKILLs
    """
).format(seed=GRAPH_SEED)


class _CrashHarness:
    """Run the child workload and SIGKILL it at a chosen point."""

    def __init__(self, tmp_path, graph, checkpoint_every: int | None):
        self.data_dir = os.fspath(tmp_path / "store")
        self.script = tmp_path / "child.py"
        self.script.write_text(CHILD_SCRIPT)
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps(_mutation_stream(graph)))
        env = dict(os.environ, PYTHONPATH=os.fspath(SRC_DIR))
        self.proc = subprocess.Popen(
            [
                sys.executable,
                os.fspath(self.script),
                os.fspath(ops_path),
                self.data_dir,
                *map(str, graph),
                "none" if checkpoint_every is None else str(checkpoint_every),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def kill_after_step(self, step: int) -> int:
        """SIGKILL immediately after the child reports applying ``step``.

        Returns the last applied index actually observed — the durable
        floor (every reported append was flushed before the print).
        """
        last = -1
        for line in self.proc.stdout:
            if line.startswith("APPLIED:"):
                last = int(line.split(":")[1])
                if last >= step:
                    break
            elif line.startswith("DONE"):
                break
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        assert self.proc.returncode == -signal.SIGKILL
        return last

    def kill_after_delay(self, seconds: float) -> None:
        """SIGKILL after a wall-clock delay, unaligned with append boundaries."""
        for line in self.proc.stdout:  # wait for the engine to exist
            if line.startswith("READY"):
                break
        time.sleep(seconds)
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        assert self.proc.returncode == -signal.SIGKILL


def _assert_strategy(snapshot, strategy: str) -> None:
    """A full rebuild keeps a triangle incidence iff it took the vector peel."""
    assert (snapshot.incidence is not None) == (strategy == "vector")


@pytest.mark.parametrize("graph, strategy", STRATEGY_GRAPHS)
class TestKillNineRecovery:
    """Real SIGKILL mid-stream: recovery equals the oracle prefix replay."""

    def _check_recovery(self, data_dir, graph, strategy: str, floor: int = -1) -> None:
        recovered = CTCEngine.recover(data_dir)
        try:
            prefix = recovered.version
            # Everything the child acknowledged (printed) was flushed to
            # the OS before the print, and SIGKILL does not lose OS-held
            # bytes — so the durable prefix is at least the observed floor
            # and at most the whole stream.
            assert floor + 1 <= prefix <= STREAM_LENGTH
            oracle = _oracle_engine(prefix, graph)
            assert set(recovered.graph.edges()) == set(oracle.graph.edges())
            expected = oracle.snapshot()
            _assert_strategy(expected, strategy)
            _assert_bit_identical(expected, recovered.snapshot())
        finally:
            recovered.close()

    @pytest.mark.parametrize("step", [0, 5, 13, STREAM_LENGTH - 2])
    def test_kill_between_appends(self, tmp_path, graph, strategy, step):
        harness = _CrashHarness(tmp_path, graph, checkpoint_every=7)
        floor = harness.kill_after_step(step)
        self._check_recovery(harness.data_dir, graph, strategy, floor)

    def test_kill_at_random_offsets(self, tmp_path, graph, strategy):
        """Timing-randomized kills: mid-append and mid-checkpoint windows."""
        rng = random.Random(0xC0FFEE)
        for round_index in range(3):
            workdir = tmp_path / f"round-{round_index}"
            workdir.mkdir()
            harness = _CrashHarness(workdir, graph, checkpoint_every=5)
            harness.kill_after_delay(rng.uniform(0.0, 1.5))
            self._check_recovery(harness.data_dir, graph, strategy)

    def test_recovered_engine_resumes_and_survives_another_crash(
        self, tmp_path, graph, strategy
    ):
        """Recover, keep mutating durably, recover again."""
        harness = _CrashHarness(tmp_path, graph, checkpoint_every=None)
        floor = harness.kill_after_step(6)
        recovered = CTCEngine.recover(harness.data_dir)
        resumed_version = recovered.version
        recovered.add_edge(7000, 7001)
        recovered.close()
        again = CTCEngine.recover(harness.data_dir)
        try:
            assert again.version == resumed_version + 1
            assert again.graph.has_edge(7000, 7001)
            _assert_strategy(again.snapshot(), strategy)
        finally:
            again.close()
        assert floor >= 6


@pytest.fixture(scope="module")
def wal_only_run():
    """One completed durable run (WAL only, no checkpoint) plus its oracles.

    ``oracles[v]`` holds the uninterrupted engine's frozen artifacts after
    ``v`` stream ops — what recovery from any truncation must match.
    """
    tmp = tempfile.mkdtemp(prefix="crash-recovery-")
    data_dir = os.path.join(tmp, "store")
    engine = CTCEngine(
        _initial_graph(),
        copy=False,
        durability=DurabilityConfig(
            path=data_dir, fsync="off", checkpoint_every=None
        ),
    )
    oracle = CTCEngine(_initial_graph(), copy=False)
    oracles = {0: oracle.snapshot()}
    for version, (op, u, v) in enumerate(_mutation_stream(), start=1):
        for target in (engine, oracle):
            if op == "add":
                target.add_edge(u, v)
            else:
                target.remove_edge(u, v)
        oracles[version] = oracle.snapshot()
    engine.close()
    wal_bytes = open(os.path.join(data_dir, "wal.log"), "rb").read()
    yield {"bytes": wal_bytes, "oracles": oracles}
    shutil.rmtree(tmp, ignore_errors=True)


class TestTruncationProperty:
    """hypothesis: a WAL cut at *any* offset recovers to an exact prefix."""

    def _recover_truncated(self, wal_only_run, offset: int):
        data = wal_only_run["bytes"][:offset]
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "store")
            os.makedirs(store)
            with open(os.path.join(store, "wal.log"), "wb") as handle:
                handle.write(data)
            recovered = CTCEngine.recover(store)
            try:
                version = recovered.version
                report = recovered.last_recovery
                edges = set(recovered.graph.edges())
                snapshot = recovered.snapshot()
                return version, report, edges, snapshot
            finally:
                recovered.close()

    @common_settings
    @given(data=st.data())
    def test_any_truncation_recovers_a_prefix(self, wal_only_run, data):
        total = len(wal_only_run["bytes"])
        offset = data.draw(st.integers(min_value=8, max_value=total))
        version, report, edges, snapshot = self._recover_truncated(
            wal_only_run, offset
        )
        if report.wal_records == 0:
            # The cut landed inside the version-0 bootstrap record: the
            # whole initial graph was torn off, recovery yields an empty
            # store (version 0, nothing logged).
            assert version == 0 and edges == set()
            return
        assert 0 <= version <= STREAM_LENGTH
        expected = wal_only_run["oracles"][version]
        assert edges == set(expected.graph.edges())
        _assert_bit_identical(expected, snapshot)

    def test_full_log_recovers_everything(self, wal_only_run):
        total = len(wal_only_run["bytes"])
        version, report, edges, snapshot = self._recover_truncated(
            wal_only_run, total
        )
        assert version == STREAM_LENGTH
        assert report.truncated_bytes == 0
        _assert_bit_identical(wal_only_run["oracles"][version], snapshot)


class TestCorruptionRefusal:
    """Mid-log damage must raise, never silently resurrect a wrong store."""

    def test_midlog_byte_flip_raises_at_recover(self, wal_only_run, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        data = bytearray(wal_only_run["bytes"])
        # Flip inside the first record's payload (the version-0 bootstrap),
        # with the whole rest of the log after it: unambiguously mid-log.
        data[8 + 8 + 4] ^= 0xFF
        (store / "wal.log").write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="checksum mismatch"):
            CTCEngine.recover(store)

    def test_damaged_last_record_is_torn_tail(self, wal_only_run, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        data = bytearray(wal_only_run["bytes"])
        data[-2] ^= 0xFF
        (store / "wal.log").write_bytes(bytes(data))
        recovered = CTCEngine.recover(store)
        try:
            assert recovered.version == STREAM_LENGTH - 1
            assert recovered.last_recovery.truncated_bytes > 0
        finally:
            recovered.close()


class TestCheckpointCrashWindows:
    """Simulated crashes inside the checkpoint stage/rename/trim protocol."""

    def _durable_run(self, tmp_path, *, checkpoint_at: int = 10):
        data_dir = tmp_path / "store"
        engine = CTCEngine(
            _initial_graph(),
            copy=False,
            durability=DurabilityConfig(
                path=data_dir, fsync="off", checkpoint_every=None
            ),
        )
        for index, (op, u, v) in enumerate(_mutation_stream(), start=1):
            if op == "add":
                engine.add_edge(u, v)
            else:
                engine.remove_edge(u, v)
            if index == checkpoint_at:
                engine.checkpoint()
        engine.close()
        return data_dir

    def test_orphaned_staging_dir_is_swept(self, tmp_path):
        data_dir = self._durable_run(tmp_path)
        orphan = data_dir / "tmp-999-4242"
        orphan.mkdir()
        (orphan / "indptr.npy").write_bytes(b"half written")
        recovered = CTCEngine.recover(data_dir)
        try:
            assert recovered.version == STREAM_LENGTH
            assert not orphan.exists()
        finally:
            recovered.close()

    def test_crash_between_publish_and_trim_replays_overlap(self, tmp_path):
        """A full WAL alongside the checkpoint: replay filters by version."""
        data_dir = tmp_path / "store"
        engine = CTCEngine(
            _initial_graph(),
            copy=False,
            durability=DurabilityConfig(
                path=data_dir, fsync="off", checkpoint_every=None
            ),
        )
        ops = _mutation_stream()
        for op, u, v in ops[:10]:
            (engine.add_edge if op == "add" else engine.remove_edge)(u, v)
        # Publish the checkpoint *without* trimming — the exact on-disk
        # state of a crash between publish_dir and trim_through.
        engine.durability.checkpoint_store.write(engine.snapshot())
        for op, u, v in ops[10:14]:
            (engine.add_edge if op == "add" else engine.remove_edge)(u, v)
        engine.close()

        recovered = CTCEngine.recover(data_dir)
        try:
            assert recovered.last_recovery.checkpoint_version == 10
            # WAL still holds everything (bootstrap + 14); only the 4
            # post-checkpoint deltas replay.
            assert recovered.last_recovery.wal_records == 15
            assert recovered.last_recovery.replayed_deltas == 4
            oracle = _oracle_engine(14)
            _assert_bit_identical(oracle.snapshot(), recovered.snapshot())
        finally:
            recovered.close()

    def test_damaged_manifest_falls_back_to_wal_bootstrap(self, tmp_path):
        """Newest checkpoint unreadable + untrimmed WAL → WAL-only replay."""
        data_dir = tmp_path / "store"
        engine = CTCEngine(
            _initial_graph(),
            copy=False,
            durability=DurabilityConfig(
                path=data_dir, fsync="off", checkpoint_every=None
            ),
        )
        for op, u, v in _mutation_stream()[:8]:
            (engine.add_edge if op == "add" else engine.remove_edge)(u, v)
        published = engine.durability.checkpoint_store.write(engine.snapshot())
        engine.close()
        manifest = os.path.join(published, "manifest.json")
        blob = bytearray(open(manifest, "rb").read())
        blob[-3] ^= 0xFF
        with open(manifest, "wb") as handle:
            handle.write(bytes(blob))

        recovered = CTCEngine.recover(data_dir)
        try:
            assert recovered.last_recovery.checkpoint_version is None
            assert recovered.version == 8
            oracle = _oracle_engine(8)
            _assert_bit_identical(oracle.snapshot(), recovered.snapshot())
        finally:
            recovered.close()

    def test_unreadable_checkpoint_over_trimmed_wal_refuses(self, tmp_path):
        """No checkpoint loads and the WAL lost its bootstrap → refuse, not empty."""
        data_dir = tmp_path / "store"
        engine = CTCEngine(
            complete_graph(6),
            durability=DurabilityConfig(path=data_dir, fsync="off", checkpoint_every=None),
        )
        for u, v in ((0, 6), (1, 7)):
            engine.add_edge(u, v)
            published = engine.checkpoint()
        engine.close()
        with open(os.path.join(published, "labels.pkl"), "r+b") as handle:
            handle.truncate(3)

        with pytest.raises(WalCorruptionError):
            CTCEngine.recover(data_dir)

    def test_recheckpoint_replaces_a_checkpoint_recovery_refused(self, tmp_path):
        """A re-checkpoint must not keep a refused directory, then trim behind it."""
        data_dir = tmp_path / "store"
        engine = CTCEngine(
            complete_graph(6),
            durability=DurabilityConfig(path=data_dir, fsync="off", checkpoint_every=None),
        )
        for offset in range(8):
            engine.add_edge(offset % 6, 6 + offset)
        # Published but never trimmed: a crash between publish and trim.
        published = engine.durability.checkpoint_store.write(engine.snapshot())
        engine.close()
        with open(os.path.join(published, "manifest.json"), "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            flipped = handle.read(1)[0] ^ 0xFF
            handle.seek(-3, os.SEEK_END)
            handle.write(bytes([flipped]))

        recovered = CTCEngine.recover(data_dir)
        assert recovered.last_recovery.checkpoint_version is None
        assert (recovered.version, recovered.graph.number_of_edges()) == (8, 23)
        recovered.checkpoint()
        recovered.close()

        again = CTCEngine.recover(data_dir)
        try:
            assert again.last_recovery.checkpoint_version == 8
            assert (again.version, again.graph.number_of_edges()) == (8, 23)
            assert again.graph == recovered.graph
        finally:
            again.close()
