"""Fault-tolerance tests: supervision, deadlines, quarantine, fault injection.

The contracts under test (ISSUE 9's acceptance criteria):

* **Crash recovery is invisible** — with a :class:`FaultPlan` that kills
  every shard worker once mid-run (under churn, so respawned workers must
  replay their oplogs), every query completes with a result bit-identical
  to single-threaded replay, or a typed ``QueryTimeoutError`` /
  ``ShardUnavailableError`` — never a hang, never a wrong answer.
* **Deadlines bound every wait** — an overdue query's slot resolves to
  ``QueryTimeoutError`` in both serving modes, per-query timeout
  sequences apply independently, and the engine keeps serving afterwards
  (abandoned replies are discarded, not misdelivered).
* **Quarantine degrades gracefully** — a shard whose respawns keep
  failing is failed fast (queries and mutations) while sibling shards
  keep answering.
* **FaultPlan is deterministic** — same seed, same scripted schedule;
  every applied fault is journaled.
* **No shm leak on SIGTERM** — a signal-terminated parent still unlinks
  its shared-memory segments (the signal-handler satellite), and no shard
  worker outlives a parent killed by SIGTERM or SIGKILL.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.datasets.queries import EdgeChurn
from repro.engine import CTCEngine, FaultPlan, ServingEngine
from repro.exceptions import ConfigurationError, QueryTimeoutError, ShardUnavailableError
from repro.graph.generators import complete_graph, erdos_renyi_graph
from repro.graph.simple_graph import UndirectedGraph

QUERY = [0, 1]
SEARCH = dict(method="lctc", eta=20)


def fingerprint(result):
    return (frozenset(result.nodes), result.trussness, result.num_edges)


def _components_graph(bases=(0, 100, 200)) -> UndirectedGraph:
    graph = UndirectedGraph()
    for base in bases:
        component = erdos_renyi_graph(20, 0.3, seed=4)
        for u, v in component.edges():
            graph.add_edge(base + u, base + v)
    return graph


class _DualWriter:
    """Mutation target that applies every op to the serving engine AND a
    single-threaded oracle engine, keeping the two stores in lock-step."""

    def __init__(self, serving, oracle):
        self._serving = serving
        self._oracle = oracle

    @property
    def graph(self):
        return self._serving.graph

    def add_edge(self, u, v):
        self._serving.add_edge(u, v)
        self._oracle.add_edge(u, v)

    def remove_edge(self, u, v):
        self._serving.remove_edge(u, v)
        self._oracle.remove_edge(u, v)


class TestKillRecoveryStress:
    """The acceptance stress test: one SIGKILL per worker, mid-run, under churn."""

    def test_kill_each_worker_once_is_bit_identical_to_replay(self):
        graph = _components_graph()
        queries = [[0, 1], [100, 101], [200, 201]]
        plan = FaultPlan.kill_each_worker_once(3, first_batch=1)
        oracle = CTCEngine(graph.copy())
        with ServingEngine(
            graph, workers=3, mode="process", fault_plan=plan, respawn_backoff=0.01
        ) as serving:
            assert serving.shard_count == 3
            churn = EdgeChurn(
                _DualWriter(serving, oracle),
                seed=11,
                protect={n for q in queries for n in q},
            )
            for window in range(6):
                for _ in range(2):
                    assert churn.step()
                results = serving.query_batch(
                    queries, timeout=60, return_exceptions=True, **SEARCH
                )
                expected = [fingerprint(oracle.query(q, **SEARCH)) for q in queries]
                for position, result in enumerate(results):
                    # The contract allows a typed timeout/unavailable error;
                    # in this deterministic schedule recovery must succeed,
                    # so every slot must match the single-threaded oracle.
                    assert not isinstance(
                        result, (QueryTimeoutError, ShardUnavailableError)
                    ), f"window {window} slot {position} degraded: {result!r}"
                    assert not isinstance(result, Exception), repr(result)
                    assert fingerprint(result) == expected[position]
            assert plan.pending_faults() == 0
            assert [e.kind for e in plan.events] == ["kill"] * 3
            assert serving.stats.worker_crashes == 3
            assert serving.stats.respawns == 3
            assert serving.stats.requeued_queries >= 3
            assert serving.stats.quarantined_shards == 0
            assert serving.quarantined_shards == frozenset()

    def test_respawned_worker_replays_mutations_applied_after_spawn(self):
        """The oplog replay: a mutation routed before the kill must be
        visible to the respawned worker (the bundle baseline predates it)."""
        graph = _components_graph(bases=(0, 100))
        with ServingEngine(
            graph,
            workers=2,
            mode="process",
            fault_plan=FaultPlan().kill_worker(0, before_batch=0),
            respawn_backoff=0.01,
        ) as serving:
            shard0_base = 0 if serving.shard_of(0) == 0 else 100
            probe = [shard0_base, shard0_base + 1]
            # Mutate shard 0 before its worker has served anything, then
            # kill that worker on its very first dispatch.
            victim = next(
                (u, v)
                for u, v in sorted(serving.graph.edges(), key=repr)
                if u >= shard0_base and u < shard0_base + 100
                and not {u, v} & set(probe)
            )
            serving.remove_edge(*victim)
            oracle = CTCEngine(serving.graph.copy())
            got = serving.query(probe, **SEARCH)
            assert fingerprint(got) == fingerprint(oracle.query(probe, **SEARCH))
            assert serving.stats.worker_crashes == 1
            assert serving.stats.respawns == 1

    def test_poisoned_batch_recovers_transparently(self):
        """A worker exiting mid-batch without replying is requeued clean."""
        graph = _components_graph(bases=(0,))
        plan = FaultPlan().poison_query(0, 1)
        oracle = CTCEngine(graph.copy())
        with ServingEngine(
            graph, workers=1, mode="process", fault_plan=plan, respawn_backoff=0.01
        ) as serving:
            first = serving.query(QUERY, **SEARCH)  # dispatch 0: clean
            poisoned = serving.query(QUERY, **SEARCH)  # dispatch 1: poisoned
            expected = fingerprint(oracle.query(QUERY, **SEARCH))
            assert fingerprint(first) == expected
            assert fingerprint(poisoned) == expected  # requeued + recomputed
            assert serving.stats.worker_crashes == 1
            assert serving.stats.respawns == 1
            assert plan.pending_faults() == 0


class TestDeadlines:
    def test_process_mode_timeout_resolves_slot_and_recovers(self):
        graph = _components_graph(bases=(0,))
        plan = FaultPlan().delay_reply(0, 1, 1.5)
        with ServingEngine(
            graph, workers=1, mode="process", fault_plan=plan
        ) as serving:
            baseline = fingerprint(serving.query(QUERY, **SEARCH))  # dispatch 0
            (slot,) = serving.query_batch(
                [QUERY], timeout=0.2, return_exceptions=True, **SEARCH
            )
            assert isinstance(slot, QueryTimeoutError)
            assert slot.timeout == pytest.approx(0.2)
            assert serving.stats.timeouts == 1
            # The stalled reply is discarded, not delivered to the next rid.
            assert fingerprint(serving.query(QUERY, **SEARCH)) == baseline
            assert serving.stats.timeouts == 1

    def test_process_mode_timeout_raises_without_return_exceptions(self):
        graph = _components_graph(bases=(0,))
        plan = FaultPlan().delay_reply(0, 1, 1.5)
        with ServingEngine(
            graph, workers=1, mode="process", fault_plan=plan
        ) as serving:
            serving.query(QUERY, **SEARCH)
            with pytest.raises(QueryTimeoutError):
                serving.query(QUERY, timeout=0.2, **SEARCH)

    def test_thread_mode_timeout_resolves_slot(self):
        graph = erdos_renyi_graph(30, 0.25, seed=5)
        with ServingEngine(graph, workers=2) as serving:
            # The deadline passes before the query starts: it is not run.
            (slot,) = serving.query_batch(
                [QUERY], timeout=1e-9, return_exceptions=True, **SEARCH
            )
            assert isinstance(slot, QueryTimeoutError)
            assert slot.timeout == pytest.approx(1e-9)
            assert serving.stats.timeouts == 1
            assert serving.query(QUERY, timeout=30, **SEARCH).trussness >= 2
            assert serving.stats.timeouts == 1

    def test_thread_mode_per_query_timeout_sequence(self):
        graph = erdos_renyi_graph(30, 0.25, seed=5)
        with ServingEngine(graph, workers=2) as serving:
            bounded, unbounded = serving.query_batch(
                [QUERY, QUERY], timeout=[1e-9, None], return_exceptions=True, **SEARCH
            )
            assert isinstance(bounded, QueryTimeoutError)
            assert bounded.timeout == pytest.approx(1e-9)
            assert not isinstance(unbounded, Exception)
            assert serving.stats.timeouts == 1

    def test_thread_mode_query_finishing_late_times_out(self, monkeypatch):
        import repro.ctc.api as api

        real_search = api.search
        started = []

        def slow_search(*args, **kwargs):
            started.append(True)
            time.sleep(1.0)
            return real_search(*args, **kwargs)

        graph = erdos_renyi_graph(30, 0.25, seed=5)
        with ServingEngine(graph, workers=2) as serving:
            serving.query(QUERY, **SEARCH)  # resolve the snapshot up front
            monkeypatch.setattr(api, "search", slow_search)
            (slot,) = serving.query_batch(
                [QUERY], timeout=0.5, return_exceptions=True, **SEARCH
            )
            assert started == [True]  # it ran, then overran its deadline
            assert isinstance(slot, QueryTimeoutError)
            assert serving.stats.timeouts == 1

    def test_thread_mode_refuses_fault_plan(self):
        graph = erdos_renyi_graph(20, 0.3, seed=2)
        with pytest.raises(ConfigurationError, match="fault_plan"):
            ServingEngine(graph, workers=1, fault_plan=FaultPlan().delay_reply(0, 0, 1.0))

    def test_thread_mode_budgets_only_peel_methods_with_remaining_time(
        self, monkeypatch
    ):
        """``bulk-delete`` gets the remaining budget; ``lctc`` gets none."""
        import repro.ctc.api as api

        seen = []
        real_search = api.search

        def recording_search(target, query, method="lctc", **kwargs):
            seen.append((method, kwargs.get("time_budget_seconds")))
            return real_search(target, query, method=method, **kwargs)

        monkeypatch.setattr(api, "search", recording_search)
        graph = erdos_renyi_graph(30, 0.25, seed=5)
        with ServingEngine(graph, workers=2) as serving:
            serving.query(QUERY, method="bulk-delete", timeout=30)
            serving.query(QUERY, method="lctc", eta=20, timeout=30)
        (bulk_method, bulk_budget), (lctc_method, lctc_budget) = seen
        assert bulk_method == "bulk-delete" and 0 < bulk_budget <= 30
        assert lctc_method == "lctc" and lctc_budget is None

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_numpy_scalar_timeout_applies_to_every_query(self, dtype):
        with ServingEngine(complete_graph(5)) as serving:
            (result,) = serving.query_batch([[0, 1]], timeout=dtype(30))
        assert result.nodes == set(range(5))

    def test_timeout_validation(self):
        graph = erdos_renyi_graph(20, 0.3, seed=2)
        with ServingEngine(graph, workers=1) as serving:
            with pytest.raises(ValueError, match="timeout must be > 0"):
                serving.query_batch([QUERY], timeout=0, **SEARCH)
            with pytest.raises(ValueError, match="entries"):
                serving.query_batch([QUERY], timeout=[1.0, 1.0], **SEARCH)

    def test_aquery_carries_deadlines_onto_groups(self):
        import asyncio

        graph = erdos_renyi_graph(30, 0.25, seed=5)
        with ServingEngine(graph, workers=2) as serving:

            async def fan_out():
                bounded = serving.aquery(QUERY, timeout=1e-9, **SEARCH)
                unbounded = serving.aquery(QUERY, **SEARCH)
                return await asyncio.gather(
                    bounded, unbounded, return_exceptions=True
                )

            bounded, unbounded = asyncio.run(fan_out())
            # Different timeouts land in different groups, one batch each;
            # only the bounded group's batch carries the deadline.
            assert isinstance(bounded, QueryTimeoutError)
            assert not isinstance(unbounded, Exception)
            assert serving.stats.batches == 2
            assert serving.stats.timeouts == 1


class TestQuarantine:
    def test_exhausted_respawns_quarantine_only_that_shard(self):
        graph = _components_graph(bases=(0, 100))
        # The initial spawn consumes one attach failure (the engine starts
        # with shard 0 dead, pending lazy recovery); the first dispatch then
        # burns through all max_respawns=2 respawn attempts -> quarantine.
        plan = FaultPlan().fail_attach(0, times=3)
        with ServingEngine(
            graph,
            workers=2,
            mode="process",
            fault_plan=plan,
            max_respawns=2,
            respawn_backoff=0.01,
        ) as serving:
            shard0_base = 0 if serving.shard_of(0) == 0 else 100
            other_base = 100 if shard0_base == 0 else 0
            dead_query = [shard0_base, shard0_base + 1]
            live_query = [other_base, other_base + 1]
            dead_slot, live_slot = serving.query_batch(
                [dead_query, live_query], return_exceptions=True, **SEARCH
            )
            assert isinstance(dead_slot, ShardUnavailableError)
            assert dead_slot.shard == 0
            assert not isinstance(live_slot, Exception)
            assert serving.stats.quarantined_shards == 1
            assert serving.quarantined_shards == frozenset({0})
            # Queries keep failing fast; the healthy shard keeps serving.
            with pytest.raises(ShardUnavailableError):
                serving.query(dead_query, **SEARCH)
            assert serving.query(live_query, **SEARCH).trussness >= 2
            # Mutations to the quarantined shard are refused pre-mirror...
            victim = next(
                (u, v)
                for u, v in sorted(serving.graph.edges(), key=repr)
                if shard0_base <= u < shard0_base + 100
            )
            with pytest.raises(ShardUnavailableError):
                serving.remove_edge(*victim)
            assert serving.graph.has_edge(*victim)  # the mirror was not touched
            # ... while the healthy shard still accepts them.
            serving.add_edge(other_base, other_base + 19)
            # Quarantine is a level, not a cumulative count.
            assert serving.stats.quarantined_shards == 1
            # engine_stats skips the quarantined shard instead of hanging.
            assert serving.engine_stats()["hits"] >= 0

    def test_attach_failures_below_budget_recover(self):
        """One attach failure (consumed by the initial spawn) stays below
        the respawn budget: the first query lazily revives the shard."""
        graph = _components_graph(bases=(0,))
        plan = FaultPlan().fail_attach(0, times=1)
        with ServingEngine(
            graph,
            workers=1,
            mode="process",
            fault_plan=plan,
            max_respawns=3,
            respawn_backoff=0.01,
        ) as serving:
            oracle = CTCEngine(graph.copy())
            got = serving.query(QUERY, **SEARCH)
            assert fingerprint(got) == fingerprint(oracle.query(QUERY, **SEARCH))
            assert serving.stats.worker_crashes == 1
            assert serving.stats.respawns == 1
            assert serving.stats.quarantined_shards == 0
            assert [e.kind for e in plan.events] == ["fail_attach"]
            assert plan.pending_faults() == 0


class TestFaultPlan:
    def test_scripted_random_is_deterministic(self):
        a = FaultPlan.scripted_random(4, 8, kills=2, delays=2, poisons=1, seed=42)
        b = FaultPlan.scripted_random(4, 8, kills=2, delays=2, poisons=1, seed=42)
        assert a._kills == b._kills
        assert a._delays == b._delays
        assert a._poisons == b._poisons
        c = FaultPlan.scripted_random(4, 8, kills=2, delays=2, poisons=1, seed=43)
        assert (a._kills, a._delays, a._poisons) != (c._kills, c._delays, c._poisons)

    def test_scripted_random_keeps_batch_zero_clean(self):
        plan = FaultPlan.scripted_random(3, 4, kills=3, delays=3, poisons=3, seed=1)
        slots = set(plan._kills) | set(plan._delays) | set(plan._poisons)
        assert all(batch >= 1 for _, batch in slots)
        assert len(slots) == 9  # sampled without replacement

    def test_directives_fire_once_and_journal(self):
        plan = FaultPlan().kill_worker(1, 2).delay_reply(1, 2, 0.5).poison_query(0, 3)
        assert plan.pending_faults() == 3
        directives = plan.directives_for(1, 2)
        assert directives == {"kill": True, "delay": 0.5}
        assert plan.directives_for(1, 2) == {}  # consumed
        assert plan.directives_for(0, 3) == {"poison": True}
        assert plan.pending_faults() == 0
        assert [(e.kind, e.shard, e.batch) for e in plan.events] == [
            ("kill", 1, 2),
            ("delay", 1, 2, ),
            ("poison", 0, 3),
        ]

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().delay_reply(0, 0, -1.0)
        with pytest.raises(ValueError):
            FaultPlan().fail_attach(0, times=0)
        with pytest.raises(ValueError):
            FaultPlan.scripted_random(2, 1)
        with pytest.raises(ValueError):
            FaultPlan.scripted_random(1, 2, kills=5)

    def test_kill_each_worker_once_staggers(self):
        plan = FaultPlan.kill_each_worker_once(3, first_batch=2, stride=3)
        assert plan._kills == {(0, 2), (1, 5), (2, 8)}

    def test_serving_engine_validation(self):
        graph = erdos_renyi_graph(10, 0.3, seed=1)
        with pytest.raises(ValueError, match="max_respawns"):
            ServingEngine(graph, workers=1, max_respawns=0)
        with pytest.raises(ValueError, match="respawn_backoff"):
            ServingEngine(graph, workers=1, respawn_backoff=-0.1)


#: A process-mode parent over two components: prints its shm segment names
#: and shard worker pids, then sleeps until the test signals it.
#: ``{prelude}`` runs before the engine is built.
_PARENT_SCRIPT = """
import signal, sys, time
from repro.engine import ServingEngine
from repro.graph.generators import erdos_renyi_graph
from repro.graph.simple_graph import UndirectedGraph

{prelude}
graph = UndirectedGraph()
for base in (0, 100):
    for u, v in erdos_renyi_graph(15, 0.3, seed=4).edges():
        graph.add_edge(base + u, base + v)
serving = ServingEngine(graph, workers=2, mode="process")
names = [
    segment_name
    for bundle in serving._bundles
    for (segment_name, _, _) in bundle.meta.arrays.values()
]
print("SEGMENTS:" + ",".join(names), flush=True)
print("WORKERS:" + ",".join(str(proc.pid) for proc in serving._procs), flush=True)
time.sleep(60)  # the test signals us long before this returns
"""


def _start_parent(prelude: str = ""):
    """Run :data:`_PARENT_SCRIPT`; return ``(proc, segment names, worker pids)``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _PARENT_SCRIPT.format(prelude=prelude)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("SEGMENTS:"), (line, proc.stderr.read())
        names = line[len("SEGMENTS:"):].strip().split(",")
        line = proc.stdout.readline()
        assert line.startswith("WORKERS:"), (line, proc.stderr.read())
        pids = [int(pid) for pid in line[len("WORKERS:"):].strip().split(",")]
    except BaseException:
        proc.kill()
        proc.wait(timeout=10)
        raise
    assert names and all(names)
    assert len(pids) == 2
    return proc, names, pids


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (an exited, unreaped worker)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no procfs: an existing pid counts as running
        return True


def _survivors(items, alive, seconds: float = 10.0) -> list:
    """Poll until no item is ``alive`` or ``seconds`` pass; return the survivors."""
    deadline = time.monotonic() + seconds
    survivors = [item for item in items if alive(item)]
    while survivors and time.monotonic() < deadline:
        time.sleep(0.1)
        survivors = [item for item in survivors if alive(item)]
    return survivors


def _reap(proc, pids) -> None:
    """Kill the parent and any worker still running (cleanup on failure)."""
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
    for pid in pids:
        if _running(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals and /dev/shm")
class TestSignalCleanup:
    def test_sigterm_unlinks_shared_memory_segments(self):
        """A SIGTERM-killed parent leaks no /dev/shm segment and no worker."""
        proc, names, pids = _start_parent()
        try:
            for name in names:
                assert _segment_exists(name), name
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30)
            # The handler re-raises into the default disposition: killed by
            # SIGTERM, not a clean exit that would mask a swallowed signal.
            assert returncode == -signal.SIGTERM
            leaked = _survivors(names, _segment_exists)
            assert not leaked, f"segments leaked after SIGTERM: {leaked}"
            orphans = _survivors(pids, _running)
            assert not orphans, f"workers outlived the SIGTERM'd parent: {orphans}"
        finally:
            _reap(proc, pids)

    def test_sigkill_parent_leaves_no_worker(self):
        """Workers exit on their pipe's EOF even when no handler runs."""
        proc, _, pids = _start_parent()
        try:
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
            orphans = _survivors(pids, _running)
            assert not orphans, f"workers outlived the SIGKILL'd parent: {orphans}"
        finally:
            _reap(proc, pids)

    def test_sigterm_chains_to_application_handler(self):
        """Cleanup must forward the signal to a previously installed handler.

        The child installs its own SIGTERM handler *before* building the
        serving engine; after the engine's emergency unlink runs, the
        re-raise must land in that application handler (which exits with a
        sentinel code), not in the default die-by-signal disposition.
        """
        prelude = textwrap.dedent(
            """
            def app_handler(signum, frame):
                print("CHAINED", flush=True)
                sys.exit(33)

            signal.signal(signal.SIGTERM, app_handler)
            """
        )
        proc, names, pids = _start_parent(prelude)
        try:
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30)
            output = proc.stdout.read()
            assert returncode == 33, (returncode, output, proc.stderr.read())
            assert "CHAINED" in output
            leaked = _survivors(names, _segment_exists)
            assert not leaked, f"segments leaked before chaining: {leaked}"
        finally:
            _reap(proc, pids)


class _FakeServingEngine:
    """Just enough surface for the signal-cleanup registry."""

    def __init__(self):
        self.unlinks = 0

    def _emergency_unlink(self):
        self.unlinks += 1


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestSignalHandlerChaining:
    """Unit-level contracts of the handler install/restore/chain logic.

    These run in the pytest main thread (``signal.signal`` requires it) and
    restore the process's SIGTERM/SIGINT dispositions on the way out.
    """

    @pytest.fixture(autouse=True)
    def _restore_dispositions(self):
        saved = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        yield
        from repro.engine import serving as serving_module

        with serving_module._signal_lock:
            serving_module._signal_engines.clear()
            serving_module._prior_handlers.clear()
        for signum, handler in saved.items():
            signal.signal(signum, handler)

    def test_cleanup_runs_then_chains_then_restores(self):
        from repro.engine import serving as serving_module

        calls = []

        def app_handler(signum, frame):
            calls.append(signum)

        signal.signal(signal.SIGTERM, app_handler)
        fake = _FakeServingEngine()
        serving_module._register_signal_cleanup(fake)
        assert (
            signal.getsignal(signal.SIGTERM)
            is serving_module._signal_cleanup
        )
        signal.raise_signal(signal.SIGTERM)
        assert fake.unlinks == 1
        assert calls == [signal.SIGTERM]
        # The prior disposition was restored before the re-raise, so the
        # app handler is now (and stays) the installed one.
        assert signal.getsignal(signal.SIGTERM) is app_handler

    def test_registration_is_idempotent(self):
        from repro.engine import serving as serving_module

        def app_handler(signum, frame):  # pragma: no cover - never raised
            pass

        signal.signal(signal.SIGTERM, app_handler)
        first, second = _FakeServingEngine(), _FakeServingEngine()
        serving_module._register_signal_cleanup(first)
        serving_module._register_signal_cleanup(second)
        # Double registration must not capture our own handler as "prior"
        # (which would make cleanup re-enter itself forever).
        assert serving_module._prior_handlers[signal.SIGTERM] is app_handler

    def test_rechains_handler_installed_after_ours(self):
        """An app handler that *replaced* ours becomes the new prior."""
        from repro.engine import serving as serving_module

        calls = []

        def late_handler(signum, frame):
            calls.append("late")

        first = _FakeServingEngine()
        serving_module._register_signal_cleanup(first)
        signal.signal(signal.SIGTERM, late_handler)  # app wins the slot
        second = _FakeServingEngine()
        serving_module._register_signal_cleanup(second)  # re-chains
        assert serving_module._prior_handlers[signal.SIGTERM] is late_handler
        signal.raise_signal(signal.SIGTERM)
        assert first.unlinks == 1 and second.unlinks == 1
        assert calls == ["late"]

    def test_unregister_restores_prior_when_last_engine_leaves(self):
        from repro.engine import serving as serving_module

        def app_handler(signum, frame):  # pragma: no cover - never raised
            pass

        signal.signal(signal.SIGTERM, app_handler)
        fake = _FakeServingEngine()
        serving_module._register_signal_cleanup(fake)
        serving_module._unregister_signal_cleanup(fake)
        assert signal.getsignal(signal.SIGTERM) is app_handler
        assert not serving_module._prior_handlers


class TestBundleRebuild:
    def test_respawn_republishes_unlinked_segments(self):
        """A shard whose shm segments were emergency-unlinked (and whose
        process then survived the signal) must rebuild the bundle from the
        parent's still-mapped views on the next respawn."""
        graph = _components_graph(bases=(0,))
        oracle = CTCEngine(graph.copy())
        with ServingEngine(
            graph, workers=1, mode="process", respawn_backoff=0.01
        ) as serving:
            before = serving.query(QUERY, **SEARCH)
            # Simulate the signal handler's emergency unlink with the
            # process surviving it (a chained app handler that returned).
            serving._emergency_unlink()
            assert serving._segments_missing(0)
            serving._procs[0].kill()  # the worker must die to force respawn
            after = serving.query(QUERY, **SEARCH)
            expected = fingerprint(oracle.query(QUERY, **SEARCH))
            assert fingerprint(before) == expected
            assert fingerprint(after) == expected
            assert serving.stats.bundle_rebuilds == 1
            assert serving.stats.respawns == 1
            assert not serving._segments_missing(0)

    def test_healthy_respawn_does_not_rebuild(self):
        graph = _components_graph(bases=(0,))
        with ServingEngine(
            graph, workers=1, mode="process", respawn_backoff=0.01
        ) as serving:
            serving._procs[0].kill()
            result = serving.query(QUERY, **SEARCH)
            assert not isinstance(result, Exception)
            assert serving.stats.respawns == 1
            assert serving.stats.bundle_rebuilds == 0
