""":class:`ServingEngine`: a concurrent, batched front-end over :class:`CTCEngine`.

The engine core is an MVCC design — immutable version-keyed snapshots over
a delta log — but by itself it serves one query at a time.  This module
adds the serving layer the ROADMAP's "millions of users" track calls for:

* **Thread mode** (``mode="thread"``): one shared :class:`CTCEngine`.
  :meth:`ServingEngine.query_batch` takes a single epoch-pinned
  :class:`~repro.engine.core.SnapshotLease` and answers the batch in a
  plain loop on the calling thread — so ``B`` concurrently-arriving
  queries pay **one** snapshot resolution (delta apply or rebuild) and
  **one** kernel setup instead of ``B``.  The kernels hold the GIL, so a
  thread pool would only interleave them.  The writer keeps mutating
  underneath; the lease guarantees every query in the batch reads one
  consistent version.
* **Process mode** (``mode="process"``): the store is sharded by connected
  component (:func:`~repro.graph.components.balanced_shards`; nodes first
  seen on a new edge fall back to a stable hash of the canonical edge
  key), and each shard is served by a worker process.  The parent encodes
  every shard's frozen CSR buffers — adjacency, per-edge trussness, and
  the triangle incidence with its supports — with the snapshot codec
  (:func:`~repro.engine.codec.encode_snapshot`) into one
  ``multiprocessing.shared_memory`` bundle, so workers decode their
  snapshots zero-copy (:func:`~repro.engine.codec.decode_snapshot`) and
  skip the from-scratch decomposition entirely
  (:meth:`CTCEngine.from_arrays`).  Mutations are routed to the owning
  shard fire-and-forget (the writer never blocks on a worker), which
  means a mutation dirties **one shard's** snapshot instead of the whole
  store — on a multi-community graph that is the dominant win, on top of
  whatever hardware parallelism the host offers.
* **Async facade**: :meth:`ServingEngine.aquery` queues concurrently
  arriving ``asyncio`` queries and drains them in grouped
  :meth:`query_batch` calls, so independent coroutines coalesce onto one
  pinned snapshot without coordinating with each other.

Fault tolerance (process mode)
------------------------------
Worker failure is treated as routine, not fatal.  The front-end never
issues a blocking ``recv``: every reply wait is a poll loop that watches
the worker's liveness, so a crashed worker (``EOFError`` /
``BrokenPipeError`` / a dead ``Process.is_alive()``) is *detected* rather
than hung on.  Recovery is a supervision state machine per shard:

1. **Respawn** — the parent still owns the shard's
   :class:`~repro.graph.shm.SharedArrayBundle` (the frozen baseline
   snapshot), and it journals every mutation routed to the shard since
   that baseline in an oplog.  A replacement worker re-attaches the same
   buffers and replays the oplog, deterministically reconstructing the
   crashed worker's store — regardless of which pipe messages the dead
   worker had or had not consumed.  The replacement confirms with a
   ``("ready", version)`` handshake before serving.
2. **Requeue** — the in-flight batch positions of the crashed worker are
   re-dispatched to the replacement, with exponential backoff between
   attempts (``respawn_backoff * 2**n``).
3. **Quarantine** — after ``max_respawns`` failed recoveries the shard is
   quarantined: its queries and mutations fail fast with
   :class:`~repro.exceptions.ShardUnavailableError` while the remaining
   shards keep serving.  Graceful degradation, not a poisoned engine.

**Deadlines**: ``query_batch(..., timeout=)`` takes a scalar or a
per-query sequence of second budgets, and an overdue query's slot becomes
a :class:`~repro.exceptions.QueryTimeoutError`.  Thread mode skips a
query whose deadline passed before it starts, times out one that finishes
after it, and hands ``basic``/``bulk-delete`` the *remaining* budget as
their cooperative ``time_budget_seconds``, so they stop computing at the
deadline; ``lctc`` and ``truss`` are not interrupted (their work is
bounded by the local expansion), so at most one of them runs past a
deadline.  Process mode bounds the reply poll: the batch never stalls on
one slow shard, and an abandoned reply is discarded when it eventually
arrives.  :meth:`aquery` carries the timeout into its coalesced groups.

**Fault injection** (process mode): a seeded
:class:`~repro.engine.faults.FaultPlan` passed as ``fault_plan=`` scripts
kills, delayed replies, poisoned queries, and shm attach failures at
exact ``(shard, batch)`` dispatch points, so every recovery path above is
exercised deterministically by the test suite and
``benchmarks/bench_fault_recovery.py``.

Shard semantics (process mode)
------------------------------
Truss communities never span connected components, so any query whose
nodes live in one shard gets exactly the same answer as on the unsharded
store (the equivalence the test suite pins).  Queries spanning shards
raise :class:`~repro.exceptions.NoCommunityFoundError` — on the unsharded
store they would raise that or :class:`~repro.exceptions.QueryError`
("terminals are not mutually connected"), depending on the method; the
router cannot tell which without running the query, so it reports the
model-level truth (no connected community exists).  Mutations that would
*merge* two shards raise
:class:`~repro.exceptions.CrossShardMutationError`.

Shared-memory ownership: the parent creates each shard's buffers, keeps
them alive for the worker's lifetime, and unlinks them in :meth:`close`
(also run by ``__exit__`` and at interpreter exit via ``atexit``).  A
parent killed by ``SIGTERM``/``SIGINT`` still unlinks: the module
installs signal handlers (preserving and re-raising into any prior
handler) that emergency-unlink every live engine's segments.  Workers
merely attach and drop their mapping on shutdown; a forked worker closes
the parent-side pipe ends it inherited, so it exits on EOF when the parent
dies by any signal.
"""

from __future__ import annotations

import atexit
import asyncio
import itertools
import numbers
import os
import pickle
import signal
import threading
import time
import weakref
import zlib
from collections import defaultdict
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import asdict, dataclass
from functools import partial

import multiprocessing

import numpy as np

from repro.ctc.result import CommunityResult
from repro.engine.codec import decode_snapshot, encode_snapshot
from repro.engine.core import CTCEngine
from repro.exceptions import (
    ConfigurationError,
    CrossShardMutationError,
    EdgeNotFoundError,
    NoCommunityFoundError,
    QueryError,
    QueryTimeoutError,
    ShardUnavailableError,
)
from repro.graph.components import balanced_shards
from repro.graph.csr_triangles import subset_incidence
from repro.graph.keys import edge_key
from repro.graph.shm import SharedArrayBundle
from repro.graph.simple_graph import UndirectedGraph

__all__ = ["ServingEngine", "ServingStats"]

#: Worker shutdown grace period before the parent terminates the process.
_JOIN_TIMEOUT_SECONDS = 5.0
#: Reply-wait poll granularity: crash detection latency is bounded by this.
_POLL_INTERVAL_SECONDS = 0.05
#: How long a (re)spawned worker gets to attach + replay + report ready.
_READY_TIMEOUT_SECONDS = 30.0
#: Bound on the internal stats round-trip (not a user-visible deadline).
_STATS_TIMEOUT_SECONDS = 10.0
#: Methods whose kernels honor a cooperative wall-clock budget.
_BUDGETED_METHODS = frozenset({"basic", "bulk-delete"})


class _WorkerCrashed(Exception):
    """Internal: the shard worker died (pipe broke or process exited)."""


class _DeadlineExpired(Exception):
    """Internal: the reply wait ran past the batch deadline."""


# ----------------------------------------------------------------------
# SIGTERM/SIGINT shared-memory cleanup
#
# ``bundle.unlink()`` normally runs via close()/atexit, but a parent killed
# by a signal skips atexit and would leak every shard's /dev/shm segments.
# The first process-mode engine installs handlers (main thread only —
# ``signal.signal`` raises elsewhere); the handler emergency-unlinks every
# live engine's bundles, restores the prior handler, and re-raises so the
# prior disposition (usually: die) still happens.
# ----------------------------------------------------------------------
_signal_lock = threading.Lock()
_signal_engines: "weakref.WeakSet[ServingEngine]" = weakref.WeakSet()
_prior_handlers: dict[int, object] = {}


def _signal_cleanup(signum, frame) -> None:
    # Restore the prior disposition *first*: a second delivery of the same
    # signal mid-cleanup then goes straight to the original handler instead
    # of re-entering this one — that ordering is what makes the handler
    # idempotent under signal storms.
    prior = _prior_handlers.pop(signum, None)
    if prior is None:
        prior = signal.SIG_DFL
    try:
        signal.signal(signum, prior)
    except (ValueError, OSError, TypeError):  # pragma: no cover - exotic prior
        signal.signal(signum, signal.SIG_DFL)
    for engine in list(_signal_engines):
        try:
            engine._emergency_unlink()
        except Exception:
            pass
    # Re-raise into the restored handler so the prior disposition (a chained
    # application handler, or the default: die) still runs.
    signal.raise_signal(signum)


def _register_signal_cleanup(engine: "ServingEngine") -> None:
    with _signal_lock:
        _signal_engines.add(engine)
        if threading.current_thread() is not threading.main_thread():
            return  # signal.signal only works from the main thread
        # (Re-)chain per signum: if the application installed its own handler
        # after ours (replacing it), capture that handler as the new prior so
        # cleanup still forwards to it; if ours is already installed, leave
        # the recorded prior alone.
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                if signal.getsignal(signum) is _signal_cleanup:
                    continue
                _prior_handlers[signum] = signal.signal(signum, _signal_cleanup)
            except (ValueError, OSError):  # pragma: no cover - restricted host
                _prior_handlers.pop(signum, None)


def _unregister_signal_cleanup(engine: "ServingEngine") -> None:
    with _signal_lock:
        _signal_engines.discard(engine)
        if _signal_engines or not _prior_handlers:
            return
        for signum, prior in list(_prior_handlers.items()):
            if signal.getsignal(signum) is _signal_cleanup:
                try:
                    signal.signal(signum, prior)  # type: ignore[arg-type]
                except (ValueError, OSError, TypeError):  # pragma: no cover
                    pass
        _prior_handlers.clear()


@dataclass
class ServingStats:
    """Per-front-end counters (cumulative over the serving engine's lifetime).

    ``coalesced_queries`` counts queries that rode along on another query's
    snapshot resolution — ``queries`` minus the number of snapshot
    resolutions actually performed (leases in thread mode, shard-batch
    messages in process mode).  ``snapshot_reuses`` counts resolutions that
    landed on the same version as the previous one on that
    engine/shard — i.e. the store had not moved, so even the delta apply
    was skipped.  ``cross_shard_rejects`` counts queries refused because
    their nodes span shards (process mode only).

    The fault-tolerance counters: ``worker_crashes`` is shard worker deaths
    detected (however discovered), ``respawns`` is successful replacements,
    ``requeued_queries`` counts query positions re-dispatched after a
    crash, ``timeouts`` counts queries whose slot became a
    :class:`~repro.exceptions.QueryTimeoutError`,
    ``bundle_rebuilds`` counts shard snapshot bundles republished into
    fresh shared-memory segments because the originals had been unlinked
    (e.g. by an emergency signal cleanup that the process then survived),
    and ``quarantined_shards`` is the *current* number of shards failed
    out of service (a level, not a cumulative count).
    """

    mode: str = "thread"
    workers: int = 0
    batches: int = 0
    queries: int = 0
    coalesced_queries: int = 0
    leases: int = 0
    snapshot_reuses: int = 0
    cross_shard_rejects: int = 0
    worker_crashes: int = 0
    respawns: int = 0
    requeued_queries: int = 0
    timeouts: int = 0
    bundle_rebuilds: int = 0
    quarantined_shards: int = 0

    def as_dict(self) -> dict[str, float]:
        """Return the counters as a plain dict (for CLI/benchmark reporting)."""
        return asdict(self)


def _picklable_exception(exc: Exception) -> Exception:
    """Return ``exc`` if it survives a pickle round-trip, else a plain stand-in.

    Library exceptions with custom constructor signatures (e.g.
    ``VersionEvictedError``) do not all reconstruct from ``exc.args``; the
    stand-in keeps the message and original type name so the parent still
    reports something actionable.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return QueryError(f"{type(exc).__name__}: {exc}")


def _kwargs_group_key(kwargs: dict) -> str:
    """Canonical coalescing key for an ``aquery`` kwargs dict.

    ``repr``-based so unhashable or mutually-unorderable values (lists,
    dicts, mixed types) still group; equal-``repr``-but-unequal kwargs are
    split again by the drainer's equality sub-bucketing.
    """
    return repr(sorted(kwargs.items(), key=lambda item: item[0]))


def _resolve_deadlines(
    timeout, count: int
) -> tuple[list[float | None], list[float | None]]:
    """Expand a ``timeout=`` argument into per-query deadlines and budgets.

    ``timeout`` may be ``None`` (no deadline), a positive number applied to
    every query, or a sequence of per-query values (``None`` entries allowed).
    Returns ``(deadlines, budgets)``: absolute ``time.monotonic()`` deadlines
    and the raw second budgets (for cooperative kernel budgets and error
    attribution).
    """
    if timeout is None:
        return [None] * count, [None] * count
    now = time.monotonic()
    if isinstance(timeout, numbers.Real):
        budget = float(timeout)
        if budget <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        return [now + budget] * count, [budget] * count
    budgets_in = list(timeout)
    if len(budgets_in) != count:
        raise ValueError(
            f"per-query timeout sequence has {len(budgets_in)} entries "
            f"for {count} queries"
        )
    deadlines: list[float | None] = []
    budgets: list[float | None] = []
    for value in budgets_in:
        if value is None:
            deadlines.append(None)
            budgets.append(None)
            continue
        budget = float(value)
        if budget <= 0:
            raise ValueError(f"timeout must be > 0, got {value}")
        deadlines.append(now + budget)
        budgets.append(budget)
    return deadlines, budgets


def _shard_worker(
    conn,
    meta,
    engine_kwargs: dict,
    untrack: bool,
    replay_ops: Sequence[tuple] = (),
    fail_attach: bool = False,
    inherited: Sequence = (),
) -> None:
    """Serve one shard from shared-memory snapshot buffers (worker main).

    First closes ``inherited``, the parent-side pipe ends a forked worker
    copies from the parent (its own and every live shard's): while any copy
    of the parent's end stays open, ``conn.recv()`` never sees EOF, and a
    worker would outlive a parent killed by a signal.

    Attaches the parent's bundle zero-copy, seeds a shard-local
    :class:`CTCEngine` from the already-decomposed arrays, replays
    ``replay_ops`` (the parent's oplog — mutations routed to this shard
    since the bundle was frozen, so a respawned worker reconstructs the
    crashed worker's store), confirms with ``("ready", version)``, then
    answers ordered messages on ``conn``:

    * ``("mutate", op_name, args)`` — apply a store mutation; no reply
      (fire-and-forget keeps the parent's writer non-blocking).
    * ``("query_batch", rid, queries, method, kwargs, directives)``
      — answer every query against one snapshot; replies
      ``("result", rid, [("ok", result) | ("err", exc), ...], version)``.
      ``directives`` carries fault-injection orders: ``poison`` exits the
      process mid-batch without replying, ``delay`` stalls the reply.
    * ``("stats", rid)`` — replies with the shard engine's counter dict.
    * ``("stop",)`` — exit.

    ``fail_attach=True`` (fault injection) aborts before the shm attach,
    simulating a worker that cannot map its snapshot buffers.
    """
    import gc

    from repro.ctc.api import search

    for parent_end in inherited:
        parent_end.close()
    if fail_attach:
        conn.close()
        os._exit(3)

    # Fork-server hygiene: move the inherited parent heap into the permanent
    # generation so worker GC cycles never traverse (and copy-on-write
    # unshare) it — otherwise periodic gen-2 collections inside a worker
    # stall whole query batches.
    gc.collect()
    gc.freeze()

    bundle = SharedArrayBundle.attach(meta, untrack=untrack)
    try:
        csr, trussness, incidence = decode_snapshot(bundle, bundle.objects["labels"])
        engine = CTCEngine.from_arrays(csr, trussness, incidence=incidence, **engine_kwargs)
        for op_name, args in replay_ops:
            try:
                getattr(engine, op_name)(*args)
            except Exception:
                # The parent validated each op against its mirror when it
                # was first routed; replay failures mean the op cancelled
                # against a neighbor in the log and are safe to drop.
                pass
        conn.send(("ready", engine.version))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "stop":
                break
            if op == "mutate":
                _, op_name, args = message
                try:
                    getattr(engine, op_name)(*args)
                except Exception:
                    # The parent validated against its authoritative mirror
                    # before routing; a failure here means the op raced a
                    # semantically equivalent one (e.g. re-adding an edge)
                    # and is safe to drop.
                    pass
            elif op == "query_batch":
                _, rid, queries, method, kwargs, directives = message
                if directives.get("poison"):
                    # Simulate a query taking its executor down mid-batch:
                    # no reply, no cleanup — the parent must recover.
                    os._exit(1)
                snapshot = engine.snapshot()
                replies = []
                for query in queries:
                    try:
                        result = search(snapshot, query, method=method, **kwargs)
                        replies.append(("ok", result))
                    except Exception as exc:
                        replies.append(("err", _picklable_exception(exc)))
                delay = directives.get("delay")
                if delay:
                    time.sleep(delay)
                conn.send(("result", rid, replies, engine.version))
            elif op == "stats":
                _, rid = message
                conn.send(("result", rid, engine.stats.as_dict(), engine.version))
    finally:
        conn.close()
        bundle.close()


class ServingEngine:
    """Batched, concurrent query serving over one logical graph store.

    Parameters
    ----------
    source:
        The graph to serve: an :class:`UndirectedGraph` (copied), an
        existing :class:`CTCEngine` — thread mode serves the engine
        *in place* (sharing its store and cache), process mode freezes its
        current snapshot as the shard baseline — or a durability data
        directory (``str`` / ``os.PathLike``), which is cold-started via
        :meth:`CTCEngine.recover` first and keeps logging served mutations
        to the recovered WAL (closed with the front-end).  Durable sources
        are thread-mode only: process mode routes mutations to shard
        workers that have no write-ahead log, so a data directory or an
        engine with ``durability`` set raises
        :class:`~repro.exceptions.ConfigurationError` there.
    workers:
        Maximum shard worker processes (process mode; capped by the number
        of connected components).  Thread mode validates and reports it
        (:attr:`ServingStats.workers`) but runs every batch on the calling
        thread.
    mode:
        ``"thread"`` (default) or ``"process"`` — see the module docstring.
    fault_plan:
        Optional :class:`~repro.engine.faults.FaultPlan` consulted at every
        shard dispatch — deterministic fault injection for tests and the
        fault-recovery benchmark.  Process mode only: thread mode has no
        worker to fault and raises
        :class:`~repro.exceptions.ConfigurationError` for a plan.  ``None``
        (the default) injects nothing.
    max_respawns:
        Crash-recovery budget per shard per incident: how many failed
        respawn attempts (or repeated crashes while serving one batch)
        quarantine the shard.
    respawn_backoff:
        Base of the exponential backoff between recovery attempts, in
        seconds (attempt ``n`` sleeps ``respawn_backoff * 2**(n-1)``).
    **engine_kwargs:
        Forwarded to every internally created :class:`CTCEngine`
        (``cache_size``, ``delta_threshold``, ``delta_log_limit``).
        ``durability`` raises :class:`~repro.exceptions.ConfigurationError`
        in both modes, before anything touches disk.  Durable serving has
        two forms: a durable :class:`CTCEngine` that the caller owns and
        closes, or a data directory that the front-end recovers and closes.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> with ServingEngine(complete_graph(5), workers=2) as serving:
    ...     [r.trussness for r in serving.query_batch([[0, 1], [2, 3]])]
    [5, 5]
    """

    def __init__(
        self,
        source: UndirectedGraph | CTCEngine | str | os.PathLike,
        *,
        workers: int = 4,
        mode: str = "thread",
        fault_plan=None,
        max_respawns: int = 3,
        respawn_backoff: float = 0.05,
        **engine_kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        if max_respawns < 1:
            raise ValueError(f"max_respawns must be >= 1, got {max_respawns}")
        if respawn_backoff < 0:
            raise ValueError(f"respawn_backoff must be >= 0, got {respawn_backoff}")
        if mode == "thread" and fault_plan is not None:
            raise ConfigurationError(
                "a fault_plan requires mode='process': its faults address "
                "shard worker dispatches, and thread mode has no workers"
            )
        if "durability" in engine_kwargs:
            raise ConfigurationError(
                "durability is not a ServingEngine engine keyword: serve a "
                "durable CTCEngine you own and close, or a data directory "
                "the front-end recovers and closes"
            )
        if mode == "process" and (
            isinstance(source, (str, os.PathLike))
            or (isinstance(source, CTCEngine) and source.durability is not None)
        ):
            raise ConfigurationError(
                "a durable source requires mode='thread': process mode routes "
                "mutations to shard workers, bypassing the write-ahead log"
            )
        self._mode = mode
        self._workers = workers
        self._engine_kwargs = dict(engine_kwargs)
        self._fault_plan = fault_plan
        self._max_respawns = int(max_respawns)
        self._respawn_backoff = float(respawn_backoff)
        self._closed = False
        self._lock = threading.RLock()
        self._rid = itertools.count()
        #: Per-shard dispatch sequence numbers — the ``batch`` coordinate a
        #: FaultPlan addresses.
        self._dispatch_seq: dict[int, int] = defaultdict(int)
        self.stats = ServingStats(mode=mode, workers=workers)

        # Async facade state (lazy; only touched from the event loop thread).
        self._pending: list = []
        self._drain_task: asyncio.Task | None = None

        #: A CTCEngine this front-end cold-started from a durability data
        #: directory; its WAL handle is ours to close.
        self._recovered: CTCEngine | None = None
        if isinstance(source, (str, os.PathLike)):
            source = CTCEngine.recover(source, **engine_kwargs)
            self._recovered = source

        try:
            if mode == "thread":
                if isinstance(source, CTCEngine):
                    self._engine = source
                else:
                    self._engine = CTCEngine(source, **engine_kwargs)
                self._last_version: int | None = None
            else:
                self._start_process_workers(source)
                _register_signal_cleanup(self)
        except BaseException:
            if self._recovered is not None:
                self._recovered.close()
            raise
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # process-mode setup
    # ------------------------------------------------------------------
    def _start_process_workers(self, source: UndirectedGraph | CTCEngine) -> None:
        """Shard the store, export shm snapshot buffers, fork the workers."""
        if isinstance(source, CTCEngine):
            baseline = source
        else:
            baseline = CTCEngine(source, **self._engine_kwargs)
        snapshot = baseline.snapshot()
        csr = snapshot.csr
        #: Authoritative routing mirror: same content as the union of all
        #: shard stores, mutated in lock-step with the routed mutations.
        self._mirror = csr.to_graph()

        shards = balanced_shards(self._mirror, self._workers)
        if not shards:
            shards = [set()]  # empty store: one idle worker keeps the API total
        self._node_shard: dict[Hashable, int] = {
            node: index for index, nodes in enumerate(shards) for node in nodes
        }
        self._shard_versions: list[int] = [0] * len(shards)

        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._context = multiprocessing.get_context("spawn")

        count = len(shards)
        node_is_sharded = np.zeros(csr.number_of_nodes(), dtype=bool)
        self._bundles: list[SharedArrayBundle] = []
        self._conns: list = [None] * count
        self._procs: list = [None] * count
        #: Mutations routed per shard since its bundle was frozen; a
        #: respawned worker replays this on top of the bundle baseline.
        self._oplogs: list[list[tuple]] = [[] for _ in range(count)]
        self._dead: list[bool] = [False] * count
        self._quarantined: set[int] = set()
        #: rids whose replies were abandoned (deadline expiry); discarded
        #: if the worker eventually answers them.
        self._abandoned: list[set[int]] = [set() for _ in range(count)]
        try:
            for index, nodes in enumerate(shards):
                node_ids = np.asarray(
                    sorted(csr.node_id(node) for node in nodes), dtype=np.int64
                )
                node_is_sharded[:] = False
                node_is_sharded[node_ids] = True
                # Shards are unions of components: an edge's lower endpoint
                # being in the shard implies the upper one is too.
                shard_edges = np.nonzero(node_is_sharded[csr.edge_u])[0]
                sub = csr.edge_subgraph(shard_edges, include_node_ids=node_ids)
                shard_incidence = None
                if snapshot.incidence is not None:
                    shard_incidence = subset_incidence(snapshot.incidence, sub.edge_origin)
                arrays, labels = encode_snapshot(
                    sub.csr, snapshot.trussness[sub.edge_origin], shard_incidence
                )
                bundle = SharedArrayBundle.create(f"repro_s{index}", arrays, objects={"labels": labels})
                self._bundles.append(bundle)
                self._spawn_worker(index)
            for index in range(count):
                try:
                    self._await_ready(index)
                except _WorkerCrashed:
                    if self._fault_plan is None:
                        raise RuntimeError(
                            f"shard worker {index} failed to start"
                        ) from None
                    # A scripted attach failure: leave the shard dead and
                    # let the first query drive the respawn/quarantine path.
                    self._mark_dead(index)
        except BaseException:
            self._shutdown_process_workers()
            raise

    def _spawn_worker(self, shard: int) -> None:
        """Start (or restart) ``shard``'s worker process; no ready-wait."""
        fail_attach = bool(
            self._fault_plan is not None
            and self._fault_plan.take_attach_failure(shard)
        )
        parent_conn, child_conn = self._context.Pipe()
        forked = self._context.get_start_method() == "fork"
        # Spawn-started workers run their own resource tracker and must
        # untrack; fork-started workers share the parent's, and inherit the
        # parent-side pipe ends that _shard_worker closes.
        inherited = (parent_conn, *(c for c in self._conns if c is not None)) if forked else ()
        process = self._context.Process(
            target=_shard_worker,
            args=(
                child_conn,
                self._bundles[shard].meta,
                self._engine_kwargs,
                not forked,
                tuple(self._oplogs[shard]),
                fail_attach,
                inherited,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = process

    def _await_ready(self, shard: int) -> None:
        """Block until ``shard``'s worker reports ``("ready", version)``."""
        conn = self._conns[shard]
        process = self._procs[shard]
        deadline = time.monotonic() + _READY_TIMEOUT_SECONDS
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:  # pragma: no cover - pathological host
                raise _WorkerCrashed(f"shard {shard} ready handshake timed out")
            try:
                if conn.poll(min(_POLL_INTERVAL_SECONDS, remaining)):
                    tag, version = conn.recv()
                    if tag != "ready":  # pragma: no cover - protocol error
                        raise _WorkerCrashed(f"shard {shard} sent {tag!r} before ready")
                    self._shard_versions[shard] = version
                    return
            except (EOFError, BrokenPipeError, OSError):
                raise _WorkerCrashed(f"shard {shard} died during startup") from None
            if not process.is_alive():
                try:
                    if conn.poll(0):
                        continue  # the ready message raced the exit; read it
                except (BrokenPipeError, OSError):
                    pass
                raise _WorkerCrashed(f"shard {shard} died during startup")

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _mark_dead(self, shard: int) -> None:
        """Record a newly-discovered worker death (idempotent per death)."""
        if not self._dead[shard]:
            self._dead[shard] = True
            self.stats.worker_crashes += 1

    def _segments_missing(self, shard: int) -> bool:
        """Probe whether any of ``shard``'s shm segments has been unlinked.

        Each segment name is opened and immediately closed; the resource
        tracker's registration set already holds one entry per name for the
        owner, and re-registering a member of a set is a no-op, so probing
        never disturbs the ownership bookkeeping.
        """
        from multiprocessing import shared_memory

        meta = self._bundles[shard].meta
        names = [segment_name for segment_name, _, _ in meta.arrays.values()]
        if meta.objects_segment is not None:
            names.append(meta.objects_segment)
        for name in names:
            try:
                probe = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                return True
            probe.close()
        return False

    def _rebuild_bundle(self, shard: int) -> None:
        """Republish ``shard``'s snapshot bundle into fresh shm segments.

        The parent's own mapped views of the old bundle stay valid even
        after the segment *names* are gone (the pages live until the last
        mapping drops), so the frozen baseline can be copied wholesale into
        a brand-new bundle.  Replacement workers attach the new segments;
        the oplog replay path is unchanged.
        """
        old = self._bundles[shard]
        replacement = SharedArrayBundle.create(
            f"repro_s{shard}",
            {name: old[name] for name in old.array_names()},
            objects=old.objects,
        )
        self._bundles[shard] = replacement
        self.stats.bundle_rebuilds += 1
        try:
            old.unlink()  # releases any segments that *do* still exist
        except Exception:  # pragma: no cover - best-effort cleanup
            pass

    def _respawn(self, shard: int) -> bool:
        """Replace a dead worker: bundle re-attach + oplog replay.

        Returns ``True`` once the replacement's ready handshake lands;
        exhausting ``max_respawns`` attempts quarantines the shard and
        returns ``False``.  A shard whose shm segments were unlinked under
        it (an emergency signal cleanup the process then survived) gets its
        bundle republished from the parent's still-mapped views first.
        """
        if shard in self._quarantined:
            return False
        old_proc = self._procs[shard]
        if old_proc is not None and old_proc.is_alive():
            old_proc.kill()
            old_proc.join(timeout=_JOIN_TIMEOUT_SECONDS)
        old_conn = self._conns[shard]
        if old_conn is not None:
            try:
                old_conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        # Replies in flight on the old pipe are gone with it.
        self._abandoned[shard].clear()
        if self._segments_missing(shard):
            self._rebuild_bundle(shard)
        for attempt in range(1, self._max_respawns + 1):
            try:
                self._spawn_worker(shard)
                self._await_ready(shard)
            except _WorkerCrashed:
                proc = self._procs[shard]
                if proc is not None and proc.is_alive():  # pragma: no cover
                    proc.kill()
                    proc.join(timeout=_JOIN_TIMEOUT_SECONDS)
                conn = self._conns[shard]
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover
                        pass
                if self._segments_missing(shard):
                    self._rebuild_bundle(shard)
                if attempt < self._max_respawns:
                    time.sleep(self._respawn_backoff * 2 ** (attempt - 1))
                continue
            self._dead[shard] = False
            self.stats.respawns += 1
            return True
        self._quarantine(shard)
        return False

    def _quarantine(self, shard: int) -> None:
        """Fail ``shard`` out of service permanently (idempotent)."""
        if shard in self._quarantined:
            return
        self._quarantined.add(shard)
        self._dead[shard] = True
        self.stats.quarantined_shards = len(self._quarantined)
        proc = self._procs[shard]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=_JOIN_TIMEOUT_SECONDS)
        conn = self._conns[shard]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _ensure_worker(self, shard: int) -> bool:
        """Make ``shard`` serviceable, respawning if needed.

        Returns ``False`` when the shard is (or just became) quarantined.
        """
        if shard in self._quarantined:
            return False
        proc = self._procs[shard]
        if not self._dead[shard] and proc is not None and proc.is_alive():
            return True
        self._mark_dead(shard)
        return self._respawn(shard)

    def _dispatch(
        self, shard: int, queries: list, method: str, kwargs: dict,
        shard_budget: float | None,
    ) -> int:
        """Send one query batch to ``shard``; returns the reply rid.

        Consumes the fault plan's directives for this dispatch slot (a
        scripted ``kill`` takes the worker down right here, before the
        send, so the batch exercises the crash path) and forwards the
        tightest member budget to the cooperative kernel machinery.
        """
        seq = self._dispatch_seq[shard]
        self._dispatch_seq[shard] = seq + 1
        directives: dict = {}
        if self._fault_plan is not None:
            directives = self._fault_plan.directives_for(shard, seq)
            if directives.pop("kill", False):
                proc = self._procs[shard]
                if proc is not None and proc.is_alive():
                    proc.kill()
                    proc.join(timeout=_JOIN_TIMEOUT_SECONDS)
        send_kwargs = kwargs
        if (
            shard_budget is not None
            and method in _BUDGETED_METHODS
            and "time_budget_seconds" not in kwargs
        ):
            send_kwargs = dict(kwargs, time_budget_seconds=shard_budget)
        rid = next(self._rid)
        try:
            self._conns[shard].send(
                ("query_batch", rid, queries, method, send_kwargs, directives)
            )
        except (BrokenPipeError, OSError):
            raise _WorkerCrashed(f"shard {shard} pipe broke on dispatch") from None
        return rid

    def _collect(self, shard: int, rid: int, deadline: float | None):
        """Poll for the reply to ``rid``; never blocks past crash or deadline.

        Returns ``(payload, version)``.  Raises :class:`_DeadlineExpired`
        when ``deadline`` passes first, :class:`_WorkerCrashed` when the
        pipe breaks or the worker exits without replying.  Replies to
        abandoned or superseded rids are discarded.
        """
        conn = self._conns[shard]
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise _DeadlineExpired
            wait = (
                _POLL_INTERVAL_SECONDS
                if remaining is None
                else min(_POLL_INTERVAL_SECONDS, remaining)
            )
            try:
                if conn.poll(wait):
                    _, got_rid, payload, version = conn.recv()
                    if got_rid == rid:
                        return payload, version
                    self._abandoned[shard].discard(got_rid)
                    continue  # stale/abandoned reply — drop it
            except (EOFError, BrokenPipeError, OSError):
                raise _WorkerCrashed(f"shard {shard} pipe broke") from None
            proc = self._procs[shard]
            if proc is None or not proc.is_alive():
                # One last zero-wait poll: the reply may have been written
                # just before the exit and still sit in the pipe buffer.
                try:
                    if conn.poll(0):
                        continue
                except (BrokenPipeError, OSError):
                    pass
                raise _WorkerCrashed(f"shard {shard} exited without replying")

    def _serve_shard(
        self,
        shard: int,
        positions: list[int],
        batch: list,
        method: str,
        kwargs: dict,
        deadlines: list,
        budgets: list,
        results: list,
        rid: int | None = None,
    ) -> None:
        """Drive ``shard``'s share of a batch to completion, whatever fails.

        The supervision loop: (re)dispatch → collect; a crash requeues the
        pending positions on a respawned worker with exponential backoff,
        repeated crashes quarantine the shard, a deadline expiry abandons
        the reply and fills the slots with ``QueryTimeoutError``.  Every
        position in ``positions`` ends with a result or a typed error —
        never a hang.  ``rid`` carries an already-dispatched request id
        (the batched front-end pre-dispatches to all shards for pipelining).
        """
        pending = positions
        member_deadlines = [deadlines[p] for p in pending]
        deadline = (
            max(member_deadlines)
            if member_deadlines and all(d is not None for d in member_deadlines)
            else None
        )
        member_budgets = [budgets[p] for p in pending if budgets[p] is not None]
        shard_budget = min(member_budgets) if member_budgets else None
        crashes = 0
        while True:
            if shard in self._quarantined:
                for position in pending:
                    results[position] = ShardUnavailableError(
                        f"shard {shard} is quarantined after repeated worker "
                        "failures; its queries fail fast while other shards "
                        "keep serving",
                        shard=shard,
                    )
                return
            if deadline is not None and time.monotonic() >= deadline:
                self._fill_timeouts(pending, budgets, results)
                return
            try:
                if rid is None:
                    if not self._ensure_worker(shard):
                        continue  # quarantined: loop fills the error slots
                    rid = self._dispatch(
                        shard, [batch[p] for p in pending], method, kwargs, shard_budget
                    )
                replies, version = self._collect(shard, rid, deadline)
            except _DeadlineExpired:
                if rid is not None:
                    self._abandoned[shard].add(rid)
                self._fill_timeouts(pending, budgets, results)
                return
            except _WorkerCrashed:
                rid = None
                self._mark_dead(shard)
                crashes += 1
                if crashes > self._max_respawns:
                    self._quarantine(shard)
                    continue
                self.stats.requeued_queries += len(pending)
                # First recovery is immediate; only repeated crashes while
                # serving this batch back off (exponentially).
                if crashes > 1:
                    backoff = self._respawn_backoff * 2 ** (crashes - 2)
                    if deadline is not None:
                        backoff = min(backoff, max(0.0, deadline - time.monotonic()))
                    if backoff:
                        time.sleep(backoff)
                continue
            if version == self._shard_versions[shard]:
                self.stats.snapshot_reuses += 1
            self._shard_versions[shard] = version
            now = time.monotonic()
            for position, (_, payload) in zip(pending, replies):
                if deadlines[position] is not None and now >= deadlines[position]:
                    # The shard waited to the batch's latest member deadline;
                    # members with earlier deadlines are individually overdue.
                    self._fill_timeouts([position], budgets, results)
                else:
                    results[position] = payload
            return

    def _fill_timeouts(self, positions: list[int], budgets: list, results: list) -> None:
        """Resolve ``positions`` as deadline misses (typed error per slot)."""
        for position in positions:
            self.stats.timeouts += 1
            budget = budgets[position]
            results[position] = QueryTimeoutError(
                f"query did not complete within its {budget}s deadline",
                timeout=budget,
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"thread"`` or ``"process"``."""
        return self._mode

    @property
    def workers(self) -> int:
        """The configured worker count (process mode may run fewer shards)."""
        return self._workers

    @property
    def shard_count(self) -> int:
        """The number of shard workers (1 in thread mode)."""
        return len(self._conns) if self._mode == "process" else 1

    @property
    def quarantined_shards(self) -> frozenset[int]:
        """Shards currently failed out of service (empty in thread mode)."""
        if self._mode == "thread":
            return frozenset()
        with self._lock:
            return frozenset(self._quarantined)

    @property
    def fault_plan(self):
        """The attached :class:`~repro.engine.faults.FaultPlan` (or ``None``)."""
        return self._fault_plan

    @property
    def graph(self) -> UndirectedGraph:
        """The logical store: the engine's store, or the routing mirror.

        Mutate only through :meth:`add_edge` / :meth:`remove_edge` — in
        process mode this is the parent's mirror, and direct mutation would
        desynchronize it from the shard workers.
        """
        if self._mode == "thread":
            return self._engine.graph
        return self._mirror

    def shard_of(self, node: Hashable) -> int | None:
        """Return the shard index owning ``node`` (``None`` if unknown)."""
        if self._mode == "thread":
            return 0 if self._engine.graph.has_node(node) else None
        return self._node_shard.get(node)

    def engine_stats(self) -> dict[str, float]:
        """Return the underlying engine counters, summed across live shards.

        Quarantined shards are skipped; a dead-but-recoverable shard is
        respawned first.  A shard that cannot answer within an internal
        bound is skipped rather than stalling the caller.
        """
        if self._mode == "thread":
            return self._engine.stats.as_dict()
        with self._lock:
            totals: dict[str, float] = {}
            for shard in range(len(self._conns)):
                if not self._ensure_worker(shard):
                    continue
                rid = next(self._rid)
                try:
                    self._conns[shard].send(("stats", rid))
                    counters, _ = self._collect(
                        shard, rid, time.monotonic() + _STATS_TIMEOUT_SECONDS
                    )
                except (_WorkerCrashed, _DeadlineExpired):
                    self._mark_dead(shard)
                    continue
                for key, value in counters.items():
                    totals[key] = totals.get(key, 0) + value
            return totals

    # ------------------------------------------------------------------
    # mutations (routed; the writer never blocks on a reader or a worker)
    # ------------------------------------------------------------------
    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Add edge ``(u, v)``; in process mode it is routed to its shard.

        A brand-new edge (neither endpoint seen before) is assigned by a
        stable hash of its canonical edge key; an edge whose endpoints live
        on *different* shards raises
        :class:`~repro.exceptions.CrossShardMutationError` (it would merge
        two components across worker processes).  A quarantined owning
        shard raises :class:`~repro.exceptions.ShardUnavailableError`
        before the mirror is touched.
        """
        if self._mode == "thread":
            self._engine.add_edge(u, v)
            return
        with self._lock:
            if self._mirror.has_edge(u, v):
                return
            shard_u = self._node_shard.get(u)
            shard_v = self._node_shard.get(v)
            if shard_u is not None and shard_v is not None and shard_u != shard_v:
                raise CrossShardMutationError(
                    f"edge ({u!r}, {v!r}) would span shards {shard_u} and "
                    f"{shard_v}; the process-mode serving engine cannot merge "
                    "components across worker processes"
                )
            shard = shard_u if shard_u is not None else shard_v
            if shard is None:
                shard = self._hash_shard(u, v)
            self._check_shard_available(shard)
            self._mirror.add_edge(u, v)
            self._node_shard[u] = shard
            self._node_shard[v] = shard
            self._send_mutation(shard, "add_edge", (u, v))

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Remove edge ``(u, v)`` (raises ``EdgeNotFoundError`` if absent)."""
        if self._mode == "thread":
            self._engine.remove_edge(u, v)
            return
        with self._lock:
            if not self._mirror.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            shard = self._node_shard[u]
            self._check_shard_available(shard)
            self._mirror.remove_edge(u, v)
            self._send_mutation(shard, "remove_edge", (u, v))

    def _check_shard_available(self, shard: int) -> None:
        if shard in self._quarantined:
            raise ShardUnavailableError(
                f"shard {shard} is quarantined after repeated worker failures; "
                "mutations routed to it are refused",
                shard=shard,
            )

    def _send_mutation(self, shard: int, op_name: str, args: tuple) -> None:
        """Journal + forward one mutation; a send failure just marks the
        worker dead — the oplog replay on respawn delivers the op anyway."""
        self._oplogs[shard].append((op_name, args))
        if self._dead[shard]:
            return
        try:
            self._conns[shard].send(("mutate", op_name, args))
        except (BrokenPipeError, OSError):
            self._mark_dead(shard)

    def _hash_shard(self, u: Hashable, v: Hashable) -> int:
        """Stable fallback shard for an edge between two brand-new nodes.

        ``zlib.crc32`` of the canonical edge key's ``repr`` — deterministic
        across processes and runs, unlike the salted built-in ``hash``.
        """
        key = edge_key(u, v)
        return zlib.crc32(repr(key).encode("utf-8")) % len(self._conns)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: Sequence[Hashable],
        method: str = "lctc",
        *,
        at_version: int | None = None,
        timeout: float | None = None,
        **kwargs,
    ) -> CommunityResult:
        """Answer one query (a batch of one; prefer :meth:`query_batch`)."""
        return self.query_batch(
            [query], method, at_version=at_version, timeout=timeout, **kwargs
        )[0]

    def query_batch(
        self,
        queries: Iterable[Sequence[Hashable]],
        method: str = "lctc",
        *,
        at_version: int | None = None,
        timeout=None,
        return_exceptions: bool = False,
        **kwargs,
    ) -> list:
        """Answer many concurrently-arriving queries, amortizing setup.

        The whole batch reads one consistent store version per shard: thread
        mode pins a single :class:`SnapshotLease` for the batch, process
        mode resolves one snapshot per shard touched.  With
        ``return_exceptions=True`` per-query failures come back as exception
        *objects* in their result slots instead of aborting the batch —
        the contract the async facade relies on.  ``at_version`` time-travel
        pinning is thread-mode only (shard workers hold independent version
        histories); process mode raises
        :class:`~repro.exceptions.ConfigurationError` for it.

        ``timeout`` is a per-query deadline in seconds: a positive scalar
        applied to every query, or a sequence of per-query values (``None``
        entries exempt).  An overdue query's slot resolves to
        :class:`~repro.exceptions.QueryTimeoutError` (raised, unless
        ``return_exceptions=True``).  Thread mode answers the batch in order
        on the calling thread: a query whose deadline passed before it
        starts is not run, one that finishes after it times out, and
        ``basic``/``bulk-delete`` get the remaining budget as their
        cooperative ``time_budget_seconds`` (``lctc``/``truss`` run to
        completion).  Process mode bounds the shard's reply wait and
        forwards the tightest member budget to those two methods.  A query
        routed to a quarantined shard resolves to
        :class:`~repro.exceptions.ShardUnavailableError`.
        """
        batch = [list(query) for query in queries]
        deadlines, budgets = _resolve_deadlines(timeout, len(batch))
        if self._mode == "process":
            if at_version is not None:
                raise ConfigurationError(
                    "at_version is not supported in process serving mode: "
                    "shard workers hold independent version histories; use "
                    "thread mode (or a plain CTCEngine) for time-travel reads"
                )
            return self._query_batch_process(
                batch, method, kwargs, return_exceptions, deadlines, budgets
            )
        return self._query_batch_thread(
            batch, method, at_version, kwargs, return_exceptions, deadlines, budgets
        )

    def _query_batch_thread(
        self, batch, method, at_version, kwargs, return_exceptions, deadlines, budgets
    ) -> list:
        # The lease resolution (delta apply / rebuild wait) honors the
        # batch's latest deadline; if every member has one, so does the wait.
        lease_timeout = None
        if batch and all(d is not None for d in deadlines):
            lease_timeout = max(0.0, max(deadlines) - time.monotonic())
        try:
            lease = self._engine.lease(at_version, timeout=lease_timeout)
        except QueryTimeoutError:
            with self._lock:
                self.stats.batches += 1
                self.stats.queries += len(batch)
                results = [None] * len(batch)
                self._fill_timeouts(list(range(len(batch))), budgets, results)
            if not return_exceptions:
                raise
            return results
        with lease:
            with self._lock:
                self.stats.batches += 1
                self.stats.queries += len(batch)
                self.stats.coalesced_queries += max(0, len(batch) - 1)
                self.stats.leases += 1
                if lease.version == self._last_version:
                    self.stats.snapshot_reuses += 1
                self._last_version = lease.version
            # In order on the calling thread (see the module docstring): the
            # first query builds the snapshot's lazy kernel, the rest reuse it.
            results = [None] * len(batch)
            overdue: list[int] = []
            for index, query in enumerate(batch):
                deadline = deadlines[index]
                call_kwargs = kwargs
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        overdue.append(index)  # expired before it started
                        continue
                    if method in _BUDGETED_METHODS and "time_budget_seconds" not in kwargs:
                        call_kwargs = dict(kwargs, time_budget_seconds=remaining)
                try:
                    results[index] = lease.query(query, method, **call_kwargs)
                except Exception as exc:
                    results[index] = exc
                if deadline is not None and time.monotonic() >= deadline:
                    overdue.append(index)  # finished past its deadline
            if overdue:
                with self._lock:
                    self._fill_timeouts(overdue, budgets, results)
        if not return_exceptions:
            for result in results:
                if isinstance(result, Exception):
                    raise result
        return results

    def _query_batch_process(
        self, batch, method, kwargs, return_exceptions, deadlines, budgets
    ) -> list:
        results: list = [None] * len(batch)
        per_shard: dict[int, list[int]] = defaultdict(list)
        for position, query in enumerate(batch):
            try:
                per_shard[self._route_query(query)].append(position)
            except Exception as exc:
                if not return_exceptions:
                    raise
                results[position] = exc
        with self._lock:
            self.stats.batches += 1
            self.stats.queries += len(batch)
            self.stats.coalesced_queries += len(batch) - len(per_shard)
            # Pre-dispatch to every healthy shard before collecting any
            # reply, so shard workers compute in parallel; the supervision
            # loop in _serve_shard handles everything that goes wrong.
            dispatched: dict[int, int | None] = {}
            for shard, positions in per_shard.items():
                rid = None
                proc = self._procs[shard]
                healthy = (
                    shard not in self._quarantined
                    and not self._dead[shard]
                    and proc is not None
                    and proc.is_alive()
                )
                if healthy:
                    member_budgets = [
                        budgets[p] for p in positions if budgets[p] is not None
                    ]
                    shard_budget = min(member_budgets) if member_budgets else None
                    try:
                        rid = self._dispatch(
                            shard, [batch[p] for p in positions], method, kwargs, shard_budget
                        )
                    except _WorkerCrashed:
                        self._mark_dead(shard)
                        self.stats.requeued_queries += len(positions)
                dispatched[shard] = rid
            for shard, positions in per_shard.items():
                self._serve_shard(
                    shard, positions, batch, method, kwargs,
                    deadlines, budgets, results, rid=dispatched[shard],
                )
        if not return_exceptions:
            for result in results:
                if isinstance(result, Exception):
                    raise result
        return results

    def _route_query(self, query: list) -> int:
        """Return the shard answering ``query``; raise like the kernels would."""
        nodes = list(dict.fromkeys(query))
        if not nodes:
            raise QueryError("the query node set must not be empty")
        missing = [node for node in nodes if node not in self._node_shard]
        if missing:
            raise QueryError(f"query nodes not present in the graph: {missing!r}")
        shards = {self._node_shard[node] for node in nodes}
        if len(shards) > 1:
            with self._lock:
                self.stats.cross_shard_rejects += 1
            raise NoCommunityFoundError(
                f"query nodes {nodes!r} lie in different serving shards "
                "(disconnected components); no connected community contains "
                "them all"
            )
        return next(iter(shards))

    # ------------------------------------------------------------------
    # async facade
    # ------------------------------------------------------------------
    async def aquery(
        self,
        query: Sequence[Hashable],
        method: str = "lctc",
        *,
        timeout: float | None = None,
        **kwargs,
    ) -> CommunityResult:
        """Answer one query, coalescing with concurrently-awaiting callers.

        Every ``aquery`` call enqueues; a single drainer task groups the
        backlog by ``(method, kwargs, timeout)`` and runs each group
        as one :meth:`query_batch` in a worker thread — so N coroutines
        gathered together resolve N queries against one pinned snapshot,
        without the callers knowing about each other.  ``timeout`` is this
        query's deadline in seconds; queries with different timeouts land in
        different groups so each batch carries one deadline.  Must run
        inside an event loop.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        group = (
            method,
            _kwargs_group_key(kwargs),
            None if timeout is None else float(timeout),
        )
        self._pending.append((group, list(query), kwargs, future))
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = loop.create_task(self._drain_pending())
        return await future

    async def _drain_pending(self) -> None:
        loop = asyncio.get_running_loop()
        while self._pending:
            # One tick lets every already-scheduled aquery coroutine enqueue
            # before the batch is cut — that is the whole coalescing trick.
            await asyncio.sleep(0)
            backlog, self._pending = self._pending, []
            groups: dict = defaultdict(list)
            for group, query, kwargs, future in backlog:
                groups[group].append((query, kwargs, future))
            for (method, _, timeout), items in groups.items():
                # The group key is repr-based; two kwargs dicts can collide
                # on repr without being equal (e.g. np.float64(1.0) vs 1.0).
                # Sub-bucket by actual equality so no member ever runs with
                # another member's kwargs.
                buckets: list[tuple[dict, list]] = []
                for item in items:
                    for bucket_kwargs, bucket_items in buckets:
                        if bucket_kwargs == item[1]:
                            bucket_items.append(item)
                            break
                    else:
                        buckets.append((item[1], [item]))
                for bucket_kwargs, bucket_items in buckets:
                    queries = [query for query, _, _ in bucket_items]
                    try:
                        results = await loop.run_in_executor(
                            None,
                            partial(
                                self.query_batch,
                                queries,
                                method,
                                timeout=timeout,
                                return_exceptions=True,
                                **bucket_kwargs,
                            ),
                        )
                    except Exception as exc:  # batch-level failure (e.g. closed)
                        results = [exc] * len(bucket_items)
                    for (_, _, future), result in zip(bucket_items, results):
                        if future.cancelled():
                            continue
                        if isinstance(result, Exception):
                            future.set_exception(result)
                        else:
                            future.set_result(result)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers and release shared-memory segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        if self._mode == "process":
            self._shutdown_process_workers()
            _unregister_signal_cleanup(self)
        if self._recovered is not None:
            self._recovered.close()
            self._recovered = None

    def _emergency_unlink(self) -> None:
        """Shed shm segment names without joining workers (signal-handler path).

        Uses :meth:`SharedArrayBundle.release_names`, not ``unlink``: the
        names must not leak past the process, but the parent's own mapped
        views must stay valid — if a chained application handler elects to
        survive the signal, :meth:`_rebuild_bundle` republishes shards from
        exactly those views.
        """
        for bundle in getattr(self, "_bundles", None) or []:
            try:
                bundle.release_names()
            except Exception:
                pass

    def _shutdown_process_workers(self) -> None:
        """Tear the worker fleet down; every stage survives partial failure.

        A dead worker, a broken pipe, or a mid-teardown exception must not
        prevent the later stages — above all the bundle unlinks, which are
        what keep ``/dev/shm`` from leaking.
        """
        for conn in getattr(self, "_conns", []):
            if conn is None:
                continue
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for process in getattr(self, "_procs", []):
            if process is None:
                continue
            try:
                process.join(timeout=_JOIN_TIMEOUT_SECONDS)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=_JOIN_TIMEOUT_SECONDS)
            except Exception:  # pragma: no cover - already reaped
                pass
        for conn in getattr(self, "_conns", []):
            if conn is None:
                continue
            try:
                conn.close()
            except Exception:  # pragma: no cover - already closed
                pass
        for bundle in getattr(self, "_bundles", []):
            try:
                bundle.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
        self._conns, self._procs, self._bundles = [], [], []

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"{type(self).__name__}(mode={self._mode!r}, "
            f"workers={self._workers}, shards={self.shard_count}, {state})"
        )
