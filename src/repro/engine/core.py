""":class:`CTCEngine`: serve many CTC queries from cached, read-optimized snapshots.

The paper assumes an offline-indexed setting: build the truss index once,
then answer queries against it (Table 3 prices index construction separately
from query time).  The seed implementation of :func:`repro.ctc.api.search`
nonetheless rebuilt a :class:`TrussIndex` per call whenever handed a plain
graph, so repeated queries paid the full O(rho * m) decomposition every
time.

``CTCEngine`` closes that gap with an HTAP-replica design (cf. Polynesia,
arXiv:2103.00798): one **mutable store** (an
:class:`~repro.graph.simple_graph.UndirectedGraph`) absorbs updates, while
every analytical query is served from a **frozen snapshot** of that store —
a :class:`~repro.graph.csr.CSRGraph` plus the per-edge trussness array its
CSR-fast-path decomposition produced.  Queries execute on the snapshot's
CSR-native kernels (:mod:`repro.ctc.kernels`); the dict-path
:class:`TrussIndex` is only the reference that the property suites and the
benchmark oracle compare those kernels against.

Delta propagation / rebuild policy
----------------------------------
The paper's system is dynamic (Section 4.2 maintains trusses under
deletions; reference [20] under insertions), so mutations must not throw
the read replica away.  Every effective mutation both bumps the store
**version** and appends a structured
:class:`~repro.graph.delta.GraphDelta` to a bounded **delta log**.  On a
snapshot miss the engine picks between two build paths:

* **delta apply** — if a cached snapshot plus a contiguous, fully-retained
  run of log entries reaches the current version, and the composed delta is
  small relative to that snapshot (``delta.size() <= delta_threshold *
  edges``), the new snapshot is produced by patching:
  :meth:`CSRGraph.apply_delta` rewrites only touched adjacency rows, and
  incremental truss maintenance (:mod:`repro.trusses.incremental`)
  re-evaluates only the affected edges.
* **full rebuild** — otherwise (cold cache, log truncation, or a delta too
  large for patching to win), the classic freeze + CSR decomposition runs.

Both paths produce identical snapshots — the property suite
(``tests/trusses/test_delta_equivalence.py``) enforces bit-for-bit
equality — so the policy is purely a performance decision, exposed through
the ``delta_threshold`` / ``delta_log_limit`` / ``cache_size`` knobs (CLI:
``--delta-threshold`` / ``--cache-size``).

Time-travel reads
-----------------
The delta log is bidirectional: every logged
:class:`~repro.graph.delta.GraphDelta` has an exact
:meth:`~repro.graph.delta.GraphDelta.inverted` counterpart, so any version
the log still covers can be re-materialized — not just the current one.
:meth:`CTCEngine.snapshot_at` (and ``query(..., at_version=v)``) resolves a
pinned historical version ``v`` against the **nearest cached snapshot on
either side**: an older cached version replays the log *forward* through
composed deltas, a newer one unwinds it *backward* through composed
inverses, and when no cached base is within the ``delta_threshold`` budget
the store itself is unwound to the version-``v`` graph and rebuilt from
scratch.  All three paths produce bit-identical snapshots
(``tests/engine/test_time_travel.py``).  Versions trimmed past
``delta_log_limit`` are unrecoverable and raise
:class:`~repro.exceptions.VersionEvictedError` naming the retained range
(:meth:`CTCEngine.retained_versions`) — never a silent rebuild of some
other version.

Caching / invalidation contract
-------------------------------
* The store carries a monotonically increasing **version**; every mutation
  that actually changes the graph bumps it (no-ops such as re-adding an
  existing edge do not) and logs its delta.
* Snapshots are memoized in an LRU keyed by version, so a burst of queries
  against an unchanging graph builds exactly one snapshot, and an
  alternating read/write workload can still hit older cached versions while
  a handle to them is useful.
* A snapshot, once built, is immutable: it holds its own frozen arrays
  (and a private dict-form graph, thawed from them on demand), so
  in-flight results never see later mutations.

Concurrency: epoch-pinned snapshots
-----------------------------------
The engine is safe to share between one writer and many reader threads.  A
single re-entrant mutex guards every *bookkeeping* step — version bump +
delta-log append, LRU lookup/insert/evict, build planning — but never the
heavy work: snapshot builds (CSR decomposition, delta application) run
outside the lock, coordinated per version so concurrent misses on one
version build it exactly once, and query execution touches no engine state
at all (snapshots are immutable).  Readers therefore never block the
writer for longer than a dict update, and the writer never blocks readers
mid-query.

:meth:`CTCEngine.lease` returns a :class:`SnapshotLease` — a context
manager pinning one version against reclamation.  The LRU defers eviction
of pinned versions (skipping them during over-capacity sweeps, counted in
:attr:`EngineStats.deferred_reclamations`) and reclaims them when the last
lease releases, so a reader holding a lease can keep issuing
:meth:`snapshot_at` reads of its version even after the delta log has
trimmed past it — the epoch-reclamation scheme the serving layer
(:mod:`repro.engine.serving`) builds its batched front-end on.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import OrderedDict
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.ctc.result import CommunityResult
from repro.engine.persistence import (
    DurabilityConfig,
    DurabilityManager,
    RecoveryReport,
)
from repro.exceptions import (
    ConfigurationError,
    QueryTimeoutError,
    VersionEvictedError,
    WalCorruptionError,
)
from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import TriangleIncidence, patch_incidence
from repro.graph.delta import GraphDelta
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.csr_decomposition import csr_decompose
from repro.trusses.incremental import incremental_truss_update

if TYPE_CHECKING:
    from repro.ctc.kernels import QueryKernel

__all__ = ["CTCEngine", "EngineSnapshot", "EngineStats", "SnapshotLease"]

#: Default number of graph versions whose snapshots stay cached.
DEFAULT_CACHE_SIZE = 4

#: Default rebuild-policy threshold: delta-apply while the composed delta's
#: size is at most this fraction of the base snapshot's edge count.
DEFAULT_DELTA_THRESHOLD = 0.25

#: Default number of per-mutation deltas retained in the log.
DEFAULT_DELTA_LOG_LIMIT = 128


def _apply_delta_to_graph(graph: UndirectedGraph, delta: GraphDelta) -> None:
    """Mutate ``graph`` in place per ``delta`` (normalized against ``graph``)."""
    for node in delta.added_nodes:
        graph.add_node(node)
    for u, v in delta.added_edges:
        graph.add_edge(u, v)
    for u, v in delta.removed_edges:
        graph.remove_edge(u, v)
    for node in delta.removed_nodes:
        graph.remove_node(node)


class EngineSnapshot:
    """One frozen version of the engine's store, queried through its kernel.

    The eagerly built attributes are the array replica — ``csr`` (the
    frozen CSR form) and ``trussness`` (the per-edge-id trussness array
    the incremental maintenance of the *next* delta apply consumes).
    Everything else is **lazy**:

    * :attr:`graph` — the dict-form store at this version, thawed from
      ``csr`` on first access whatever built the snapshot (full rebuild,
      delta apply, recovered checkpoint, shared-memory seed);
    * :attr:`kernel` — the :class:`~repro.ctc.kernels.QueryKernel` every
      CTC query runs on, memoized so its sorted-adjacency arrays amortize
      across every query on this version.

    ``incidence`` is the triangle-incidence structure of this snapshot
    (per-edge supports included): a vector-strategy full rebuild
    enumerates it, a delta apply *patches* the base snapshot's forward via
    :func:`~repro.graph.csr_triangles.patch_incidence`, and a kernel that
    had to enumerate one lazily (bucket-path snapshots) adopts it back onto
    the snapshot — so once any snapshot in a delta chain holds an
    incidence, every patched descendant inherits it without re-enumerating.
    The CSR-native LCTC kernel re-decomposes its local expansions on
    restrictions of it.

    Once built, every lazy structure is cached and — like the snapshot
    itself — immutable by contract.  ``on_enumerate`` is the engine's
    observability hook: called (with no arguments) whenever a full triangle
    enumeration ran on behalf of this snapshot, so
    :attr:`EngineStats.incidence_enumerations` stays exact even for lazy
    kernel-side enumerations.

    Nothing a snapshot owns refers back to it (the kernel reaches it
    through a weak reference), and the engine's ``on_enumerate`` hook holds
    the engine only weakly, so an evicted snapshot — and a dropped engine —
    is freed by reference counting the moment its last reader lets go, not
    at the next cyclic collection.
    """

    __slots__ = (
        "version",
        "_graph",
        "csr",
        "trussness",
        "incidence",
        "_kernel",
        "_on_enumerate",
        "_lazy_lock",
        "__weakref__",
    )

    def __init__(
        self,
        version: int,
        csr: CSRGraph,
        trussness: np.ndarray,
        *,
        incidence: TriangleIncidence | None = None,
        on_enumerate=None,
    ) -> None:
        self.version = version
        self._graph: UndirectedGraph | None = None
        self.csr = csr
        self.trussness = trussness
        self.incidence = incidence
        self._kernel: "QueryKernel | None" = None
        self._on_enumerate = on_enumerate
        #: Serializes the lazy builds below so concurrent readers of one
        #: snapshot memoize each derived structure exactly once.
        self._lazy_lock = threading.RLock()

    @property
    def graph(self) -> UndirectedGraph:
        """The snapshot's frozen dict-form store (never mutated).

        Thawed from :attr:`csr` on first access, so array-kernel consumers
        never pay the O(m) Python reconstruction.  A thawed graph holds the
        same nodes and edges as the store at this version, inserted in
        :attr:`csr` label order rather than the store's.
        """
        if self._graph is None:
            with self._lazy_lock:
                if self._graph is None:
                    self._graph = self.csr.to_graph()
        return self._graph

    def _adopt_incidence(self, incidence: TriangleIncidence) -> None:
        """Adopt a kernel's lazily enumerated incidence.

        Called (through :func:`_incidence_adopter`) by the snapshot's
        :class:`~repro.ctc.kernels.QueryKernel` when
        :meth:`~repro.ctc.kernels.QueryKernel.ensure_incidence` had to
        enumerate from scratch; keeping the artifact on the snapshot lets
        the next delta apply patch it forward instead of enumerating again.
        """
        with self._lazy_lock:
            if self.incidence is None:
                self.incidence = incidence

    @property
    def kernel(self) -> "QueryKernel":
        """The CSR-native :class:`QueryKernel`, built lazily on first access."""
        if self._kernel is None:
            with self._lazy_lock:
                if self._kernel is None:
                    from repro.ctc.kernels import QueryKernel

                    self._kernel = QueryKernel(
                        self.csr,
                        self.trussness,
                        incidence=self.incidence,
                        on_enumerate=_incidence_adopter(self),
                    )
        return self._kernel

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(version={self.version}, "
            f"nodes={self.csr.number_of_nodes()}, "
            f"edges={self.csr.number_of_edges()})"
        )


def _incidence_adopter(snapshot: EngineSnapshot):
    """Return the ``on_enumerate`` callback of ``snapshot``'s kernel.

    It adopts the enumerated incidence onto the snapshot and counts the
    enumeration with the engine.  It holds the snapshot only weakly: a
    bound ``snapshot._adopt_incidence`` would close a snapshot -> kernel ->
    snapshot cycle and leave every evicted snapshot, arrays and all, for
    the cyclic collector.  A kernel that outlives its snapshot (shared by a
    cancelling-delta clone) still counts the enumeration.
    """
    ref = weakref.ref(snapshot)
    note = snapshot._on_enumerate

    def adopt(incidence: TriangleIncidence) -> None:
        target = ref()
        if target is not None:
            target._adopt_incidence(incidence)
        if note is not None:
            note()

    return adopt


def _enumeration_counter(engine: "CTCEngine"):
    """Return the hook that counts a full triangle enumeration for ``engine``.

    It holds the engine weakly.  A bound method would close an engine ->
    cache -> snapshot -> engine cycle, and a dropped engine — its store and
    every cached snapshot — would then wait for the cyclic collector: in
    the benchmark suite's ``durable`` workload (2-core host), the closed
    engines of its five cold starts held 110-165 MB that way.
    """
    ref = weakref.ref(engine)

    def note() -> None:
        target = ref()
        if target is not None:
            with target._mutex:
                target.stats.incidence_enumerations += 1

    return note


@dataclass
class EngineStats:
    """Cache and build counters (cumulative over the engine's lifetime).

    ``misses == delta_applies + full_rebuilds``: every miss is served by
    exactly one of the two build paths.

    ``incidence_patches`` counts snapshots whose triangle incidence was
    carried forward by :func:`~repro.graph.csr_triangles.patch_incidence`
    on the delta path; ``incidence_enumerations`` counts *full* triangle
    enumerations run on the engine's behalf — by a vector-strategy full
    rebuild or by a kernel's lazy
    :meth:`~repro.ctc.kernels.QueryKernel.ensure_incidence`.  A healthy
    delta-path workload shows ``incidence_enumerations`` frozen after
    warm-up while ``incidence_patches`` tracks ``delta_applies`` — the
    property the windowed-churn bench asserts instead of timing it.

    ``leases`` counts snapshot pins handed out via :meth:`CTCEngine.lease`;
    ``deferred_reclamations`` counts the times an over-capacity LRU sweep
    had to skip a pinned version (its eviction runs when the last lease
    releases instead).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    delta_applies: int = 0
    full_rebuilds: int = 0
    time_travel_reads: int = 0
    incidence_patches: int = 0
    incidence_enumerations: int = 0
    leases: int = 0
    deferred_reclamations: int = 0
    build_seconds: float = field(default=0.0)

    def as_dict(self) -> dict[str, float]:
        """Return the counters as a plain dict (for CLI/benchmark reporting)."""
        return asdict(self)


class SnapshotLease:
    """A pin on one snapshot version, released via ``with`` or :meth:`release`.

    While any lease on a version is outstanding the engine's LRU will not
    reclaim that version's snapshot, and :meth:`CTCEngine.snapshot_at` keeps
    serving it even after the delta log has trimmed past it.  Leases are
    obtained from :meth:`CTCEngine.lease`; :meth:`release` is idempotent and
    runs the deferred reclamation sweep when the last pin on the version
    drops.
    """

    __slots__ = ("_engine", "snapshot", "_released")

    def __init__(self, engine: "CTCEngine", snapshot: EngineSnapshot) -> None:
        self._engine = engine
        self.snapshot = snapshot
        self._released = False

    @property
    def version(self) -> int:
        """The pinned store version."""
        return self.snapshot.version

    @property
    def released(self) -> bool:
        """Whether this lease has already been released."""
        return self._released

    def query(
        self, query: Sequence[Hashable], method: str = "lctc", **kwargs
    ) -> CommunityResult:
        """Answer one query against the pinned snapshot (never a newer one)."""
        from repro.ctc.api import search

        return search(self.snapshot, query, method=method, **kwargs)

    def release(self) -> None:
        """Drop the pin (idempotent); reclamation may then evict the version."""
        if self._released:
            return
        self._released = True
        self._engine._unpin(self.snapshot.version)

    def __enter__(self) -> "SnapshotLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"{type(self).__name__}(version={self.snapshot.version}, {state})"


class CTCEngine:
    """Query engine owning one mutable store and an LRU of frozen snapshots.

    Parameters
    ----------
    graph:
        Initial graph content.  Copied by default so later engine mutations
        never surprise the caller; pass ``copy=False`` to adopt the graph as
        the store (the caller must then mutate it only through the engine).
    cache_size:
        How many distinct graph versions keep their snapshot cached
        (``>= 1``).
    copy:
        Whether to copy ``graph`` on construction.
    delta_threshold:
        Rebuild-policy knob: delta-apply while the composed delta's size is
        at most this fraction of the base snapshot's edge count
        (``math.inf`` = always prefer delta apply, ``0`` = always rebuild
        from scratch).
    delta_log_limit:
        How many per-mutation deltas the log retains (``0`` disables the
        log and with it the delta path).
    durability:
        ``None`` (default) keeps the engine RAM-only.  A
        :class:`~repro.engine.persistence.DurabilityConfig` (or a bare
        data-directory path) makes the engine crash-safe: every mutation's
        delta is appended to the directory's write-ahead log *before* the
        version bump, :meth:`checkpoint` publishes atomic snapshot
        checkpoints (auto-triggered by the config's delta-count/size
        policy, trimming the WAL behind them), and
        :meth:`CTCEngine.recover` restores the whole store after a crash.
        The data directory must be fresh — adopting one with existing
        state raises :class:`~repro.exceptions.ConfigurationError`
        (recover it instead).  Call :meth:`close` to flush the WAL on
        clean shutdown.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> engine = CTCEngine(complete_graph(5))
    >>> engine.query([0, 1]).trussness
    5
    >>> engine.add_edge(0, 5)                 # logged as a GraphDelta
    >>> _ = engine.snapshot()                 # patched, not rebuilt
    >>> engine.stats.delta_applies
    1
    """

    def __init__(
        self,
        graph: UndirectedGraph | None = None,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        copy: bool = True,
        delta_threshold: float = DEFAULT_DELTA_THRESHOLD,
        delta_log_limit: int = DEFAULT_DELTA_LOG_LIMIT,
        durability: DurabilityConfig | str | os.PathLike | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if delta_threshold < 0:
            raise ValueError(f"delta_threshold must be >= 0, got {delta_threshold}")
        if delta_log_limit < 0:
            raise ValueError(f"delta_log_limit must be >= 0, got {delta_log_limit}")
        if graph is None:
            self._graph = UndirectedGraph()
        else:
            self._graph = graph.copy() if copy else graph
        self._version = 0
        self._cache_size = cache_size
        self._delta_threshold = delta_threshold
        self._delta_log_limit = delta_log_limit
        self._cache: OrderedDict[int, EngineSnapshot] = OrderedDict()
        #: version -> delta that produced it (contiguous, bounded window).
        self._delta_log: OrderedDict[int, GraphDelta] = OrderedDict()
        #: Guards every bookkeeping step (version/log/cache/stats/pins);
        #: re-entrant so work may nest inside a mutation (window expiry
        #: inside add_edge, an auto-checkpoint inside _record).  Heavy
        #: builds run outside it.
        self._mutex = threading.RLock()
        #: version -> outstanding lease count (epoch pins).
        self._pins: dict[int, int] = {}
        #: versions whose reclamation was deferred by a pin; evicted late
        #: (on last unpin) rather than never.
        self._deferred: set[int] = set()
        #: version -> completion event of an in-flight snapshot build, so
        #: concurrent misses on one version build it exactly once.
        self._building: dict[int, threading.Event] = {}
        self.stats = EngineStats()
        #: Counts one full triangle enumeration; every snapshot gets it as
        #: its ``on_enumerate`` hook.
        self._note_enumeration = _enumeration_counter(self)
        #: A frozen CSR the mutable store can be thawed from on demand;
        #: set by :meth:`recover`/:meth:`from_arrays` so cold starts skip
        #: the O(m) Python graph reconstruction until a mutation (or a
        #: direct store read) actually needs it.
        self._lazy_csr: CSRGraph | None = None
        #: Durability layer (``None`` = RAM-only); set by ``durability=``
        #: on a fresh directory or adopted by :meth:`recover`.
        self._durability: DurabilityManager | None = None
        #: What the last :meth:`recover` did (``None`` on fresh engines).
        self.last_recovery: RecoveryReport | None = None
        if durability is not None:
            manager = DurabilityManager.create(DurabilityConfig.coerce(durability))
            # Bootstrap record: the initial graph as a version-0 delta, so
            # WAL-only recovery (no checkpoint yet) starts from the right
            # store instead of an empty one.
            bootstrap = GraphDelta(
                added_nodes=self._graph.nodes(), added_edges=self._graph.edges()
            )
            if not bootstrap.is_empty():
                manager.append(0, bootstrap)
            self._durability = manager

    @classmethod
    def from_arrays(
        cls,
        csr: CSRGraph,
        trussness: np.ndarray | None = None,
        *,
        incidence: TriangleIncidence | None = None,
        **kwargs,
    ) -> "CTCEngine":
        """Build an engine whose store is thawed from frozen snapshot arrays.

        This is the worker-process entry point of the serving layer: a shard
        worker decodes the parent's shared-memory bundle
        (:func:`~repro.engine.codec.decode_snapshot`) and hands the arrays
        here.  The mutable store is thawed via :meth:`CSRGraph.to_graph`;
        when ``trussness`` is given, the already-decomposed artifacts —
        ``trussness`` and the optional triangle ``incidence`` — seed the
        version-0 snapshot, as :meth:`recover` seeds its checkpoint's, so
        the worker's first queries skip the decomposition entirely.  The
        arrays may be read-only (shared) views — snapshots never mutate them.

        On :class:`CTCEngine` itself (not subclasses, whose constructors
        derive bookkeeping from the store) the mutable dict-form store is
        additionally thawed *lazily*: a worker serving only array-kernel
        queries never pays the O(m) Python graph reconstruction.
        """
        # Subclasses derive constructor-time bookkeeping from the store,
        # and a durable engine's bootstrap WAL record snapshots it — both
        # need the dict form eagerly.
        lazy = (
            cls is CTCEngine
            and trussness is not None
            and kwargs.get("durability") is None
        )
        engine = cls(UndirectedGraph() if lazy else csr.to_graph(), copy=False, **kwargs)
        if trussness is not None:
            engine._seed(0, csr, trussness, incidence, lazy_store=lazy)
        return engine

    def _seed(self, version: int, csr: CSRGraph, trussness, incidence, *, lazy_store: bool) -> None:
        """Cache the snapshot of ``version`` from already-decomposed arrays.

        With ``lazy_store`` the store stays empty and thaws from ``csr`` only
        when a mutation (or a direct store read) needs it, so a cold start
        is queryable in O(mmap) rather than O(m) time.
        """
        if lazy_store:
            self._lazy_csr = csr
        self._version = version
        self._store(
            EngineSnapshot(version, csr, trussness, incidence=incidence, on_enumerate=self._note_enumeration)
        )

    # ------------------------------------------------------------------
    # store access
    # ------------------------------------------------------------------
    def _ensure_store(self) -> None:
        """Thaw the mutable store from a lazily held CSR (no-op otherwise)."""
        if self._lazy_csr is None:
            return
        with self._mutex:
            if self._lazy_csr is None:
                return
            self._graph = self._lazy_csr.to_graph()
            self._lazy_csr = None

    @property
    def graph(self) -> UndirectedGraph:
        """The live mutable store.

        Mutate it only through the engine's mutation methods; direct
        mutation bypasses version tracking and leaves stale snapshots in
        the cache.
        """
        self._ensure_store()
        return self._graph

    @property
    def version(self) -> int:
        """The current store version (bumped by every effective mutation)."""
        return self._version

    @property
    def delta_threshold(self) -> float:
        """The rebuild-policy threshold (see the class docstring)."""
        return self._delta_threshold

    @property
    def cache_size(self) -> int:
        """How many snapshot versions the LRU retains."""
        return self._cache_size

    def _record(self, delta: GraphDelta) -> None:
        """Log one effective mutation: bump the version and append its delta.

        With durability on, the delta hits the write-ahead log *before*
        the version bump (classic WAL ordering: the store never
        acknowledges a version whose delta is not on disk), and the
        checkpoint policy runs after — still under the re-entrant mutex,
        so the auto-checkpoint's snapshot build is ordinary re-entry.

        Every caller has already applied ``delta`` to the store.  If the
        WAL append raises, the store is rolled back with the inverted
        delta and the error propagates: the version, the delta log and the
        WAL never see the mutation, and neither does the store.
        """
        if delta.is_empty():
            return
        with self._mutex:
            if self._durability is not None:
                try:
                    self._durability.append(self._version + 1, delta)
                except BaseException:
                    _apply_delta_to_graph(self._graph, delta.inverted())
                    raise
            self._version += 1
            self.stats.invalidations += 1
            if self._delta_log_limit:
                self._delta_log[self._version] = delta
                while len(self._delta_log) > self._delta_log_limit:
                    self._delta_log.popitem(last=False)
            if self._durability is not None and self._durability.checkpoint_due():
                self.checkpoint()

    # ------------------------------------------------------------------
    # mutations (every effective one bumps the version and logs a delta)
    # ------------------------------------------------------------------
    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Add edge ``(u, v)`` to the store; a no-op if already present."""
        with self._mutex:
            self._ensure_store()
            if self._graph.has_edge(u, v):
                return
            added_nodes = [node for node in (u, v) if not self._graph.has_node(node)]
            self._graph.add_edge(u, v)
            self._record(GraphDelta(added_nodes=added_nodes, added_edges=[(u, v)]))

    def add_edges_from(self, edges: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Add every edge in ``edges``; bumps the version once if anything changed.

        The bump (and the logged delta covering everything added so far)
        happens even if the iterable fails part-way (bad tuple, self-loop):
        edges added before the failure are in the store, so the cache must
        not keep serving the pre-mutation snapshot.
        """
        added_nodes: set[Hashable] = set()
        added_edges: list[tuple[Hashable, Hashable]] = []
        with self._mutex:
            self._ensure_store()
            try:
                for u, v in edges:
                    if self._graph.has_edge(u, v):
                        continue
                    fresh = [node for node in (u, v) if not self._graph.has_node(node)]
                    self._graph.add_edge(u, v)
                    added_nodes.update(fresh)
                    added_edges.append((u, v))
            finally:
                self._record(GraphDelta(added_nodes=added_nodes, added_edges=added_edges))

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Remove edge ``(u, v)`` from the store.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        """
        with self._mutex:
            self._ensure_store()
            self._graph.remove_edge(u, v)
            self._record(GraphDelta(removed_edges=[(u, v)]))

    def add_node(self, node: Hashable) -> None:
        """Add ``node`` to the store; a no-op if already present."""
        with self._mutex:
            self._ensure_store()
            if self._graph.has_node(node):
                return
            self._graph.add_node(node)
            self._record(GraphDelta(added_nodes=[node]))

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and its incident edges from the store.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the store.
        """
        with self._mutex:
            self._ensure_store()
            neighbors = list(self._graph.neighbors(node))  # raises NodeNotFoundError
            self._graph.remove_node(node)
            self._record(
                GraphDelta(
                    removed_nodes=[node],
                    removed_edges=[(node, other) for other in neighbors],
                )
            )

    # ------------------------------------------------------------------
    # durability (WAL + checkpoints; see repro.engine.persistence)
    # ------------------------------------------------------------------
    @property
    def durability(self) -> DurabilityManager | None:
        """The durability layer, or ``None`` for a RAM-only engine."""
        return self._durability

    def durability_stats(self) -> dict | None:
        """WAL/checkpoint counters (``None`` for a RAM-only engine)."""
        if self._durability is None:
            return None
        return self._durability.stats()

    def checkpoint(self) -> str:
        """Publish an atomic checkpoint of the current version; return its path.

        Resolves the current snapshot (delta apply or rebuild as usual),
        writes its arrays plus a checksummed manifest into the data
        directory via the stage-rename protocol, then trims the WAL
        records the checkpoint now covers.  Also invoked automatically by
        the config's ``checkpoint_every`` / ``checkpoint_bytes`` policy.

        Raises
        ------
        ConfigurationError
            If the engine was built without ``durability=``.
        """
        if self._durability is None:
            raise ConfigurationError(
                "checkpoint() requires a durable engine; pass durability= "
                "to CTCEngine"
            )
        snapshot = self.snapshot()
        with self._mutex:
            return self._durability.write_checkpoint(snapshot)

    def close(self) -> None:
        """Flush and close the durability layer (no-op for RAM-only engines).

        Only buffered-WAL state is at stake: every append is flushed to
        the OS immediately, so even without :meth:`close` a killed process
        loses nothing — the final fsync here only hardens against the
        machine itself dying right after shutdown.
        """
        if self._durability is not None:
            self._durability.close()

    @classmethod
    def recover(
        cls,
        durability: DurabilityConfig | str | os.PathLike,
        **engine_kwargs,
    ) -> "CTCEngine":
        """Restore an engine from a data directory: checkpoint + WAL replay.

        The newest verifiable checkpoint seeds the store (arrays reopened
        with ``np.load(mmap_mode="r")`` — no decomposition, and the
        mutable dict-form store is thawed lazily on first mutation) and
        the WAL records past its version are replayed through the normal
        delta machinery, so the recovered engine's snapshots are
        bit-identical to an uninterrupted run's.  A torn WAL tail (crash mid-append) is
        truncated silently; mid-log damage raises
        :class:`~repro.exceptions.WalCorruptionError`.  The WAL stays
        attached: the recovered engine keeps logging (and checkpointing)
        into the same directory.

        ``engine_kwargs`` are the usual constructor knobs (``cache_size``,
        ``delta_threshold``, ...; subclasses add their own,
        e.g. ``window=``).  The recovery details land on
        :attr:`last_recovery`.

        Raises
        ------
        ConfigurationError
            If the directory holds no durable state.
        WalCorruptionError
            On mid-log WAL damage, a checkpoint/WAL version gap, or when
            no checkpoint loads and the WAL lacks its bootstrap record.
        """
        for reserved in ("copy", "durability", "graph"):
            if reserved in engine_kwargs:
                raise ValueError(f"recover() manages {reserved!r} itself")
        started = time.perf_counter()
        config = DurabilityConfig.coerce(durability)
        manager, checkpoint, records, truncated = DurabilityManager.open_existing(
            config
        )
        try:
            engine = cls(UndirectedGraph(), copy=False, **engine_kwargs)
            base_version = 0
            if checkpoint is not None:
                base_version = checkpoint.version
                engine._seed(
                    base_version, checkpoint.csr, checkpoint.trussness, checkpoint.incidence, lazy_store=True
                )
            replayed = 0
            for version, delta in records:
                if checkpoint is not None and version <= base_version:
                    continue  # checkpointed before the trim landed; covered
                if version == 0:
                    # Bootstrap record: the initial store content.  Not a
                    # delta-log entry (version 0 has no producing delta).
                    _apply_delta_to_graph(engine._graph, delta)
                    continue
                if version != engine._version + 1:
                    raise WalCorruptionError(
                        f"WAL resumes at version {version} but the recovered "
                        f"state is at version {engine._version} — the log "
                        "was trimmed without its covering checkpoint",
                        path=config.wal_path,
                    )
                engine._ensure_store()
                _apply_delta_to_graph(engine._graph, delta)
                engine._version = version
                if engine._delta_log_limit:
                    engine._delta_log[version] = delta
                    while len(engine._delta_log) > engine._delta_log_limit:
                        engine._delta_log.popitem(last=False)
                replayed += 1
        except BaseException:
            manager.close()
            raise
        engine._durability = manager
        engine._post_recover()
        engine.last_recovery = RecoveryReport(
            checkpoint_version=(
                checkpoint.version if checkpoint is not None else None
            ),
            checkpoint_path=checkpoint.path if checkpoint is not None else None,
            wal_records=len(records),
            replayed_deltas=replayed,
            truncated_bytes=truncated,
            recovered_version=engine._version,
            seconds=time.perf_counter() - started,
        )
        return engine

    def _post_recover(self) -> None:
        """Subclass hook: rebuild derived bookkeeping after a recovery replay.

        Runs with the durability manager attached, so any mutations it
        issues (e.g. window expiry) are logged like live ones.
        """

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> EngineSnapshot:
        """Return the snapshot for the current version, building it on a miss.

        A miss is served by the cheapest eligible path — delta apply from
        the newest cached snapshot the log can reach, or a full rebuild
        (see the module docstring's rebuild policy).
        """
        return self.snapshot_at(None)

    def retained_versions(self) -> tuple[int, int]:
        """Return the inclusive ``(oldest, newest)`` version range still readable.

        The newest retained version is the current one; the oldest is one
        *before* the oldest logged delta (unwinding the log backwards from
        the live store stops there).  With the delta log disabled only the
        current version is readable.  A pinned version older than the window
        additionally stays readable while its lease is held (its snapshot is
        served straight from the cache — see :meth:`lease`).
        """
        with self._mutex:
            return self._log_floor(), self._version

    def _log_floor(self) -> int:
        """The oldest version the delta log reaches back to (call under the mutex).

        The log is contiguous up to the current version, so unwinding it
        stops one version before its oldest entry; an empty log reaches
        only the current version.
        """
        if self._delta_log:
            return next(iter(self._delta_log)) - 1
        return self._version

    def snapshot_at(
        self, version: int | None = None, *, timeout: float | None = None
    ) -> EngineSnapshot:
        """Return the snapshot pinned at ``version`` (a time-travel read).

        ``None`` reads the current version.  A historical version is
        materialized from the nearest cached snapshot on either side of it —
        forward through composed log deltas, or backward through their
        composed inverses — falling back to unwinding the live store and
        decomposing from scratch when no cached base is within the
        ``delta_threshold`` budget.  The result is cached like any other
        snapshot, so repeated reads at one pinned version build it once.

        Thread-safe: bookkeeping runs under the engine mutex, the build
        itself outside it.  Concurrent misses on one version are coalesced —
        the first caller builds, the rest wait on its completion event and
        re-read the cache — and a cache hit never takes more than the mutex.

        ``timeout`` bounds the *coalesced wait*: a caller that would block
        on another thread's in-flight build gives up after ``timeout``
        seconds with :class:`~repro.exceptions.QueryTimeoutError` instead of
        stalling past its deadline (the serving layer's deadline
        propagation).  A caller that builds the snapshot itself is not
        interrupted — builds are not cancellable — so the bound applies to
        waiting, not to building.

        Raises
        ------
        VersionEvictedError
            If ``version`` predates the retained log window (see
            :meth:`retained_versions`) and no lease keeps it cached.
        ValueError
            If ``version`` is negative or has not been produced yet.
        QueryTimeoutError
            If ``timeout`` expired while waiting on another thread's build.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._mutex:
                target = self._version if version is None else version
                if target < 0 or target > self._version:
                    raise ValueError(
                        f"version {version} does not exist; the store is at "
                        f"version {self._version}"
                    )
                cached = self._cache.get(target)
                if cached is not None:
                    # Cache before eviction check: a pinned version stays
                    # readable even after the log trimmed past it.
                    self.stats.hits += 1
                    self._cache.move_to_end(target)
                    return cached
                floor = self._log_floor()
                if target < floor:
                    raise VersionEvictedError(target, (floor, self._version))
                event = self._building.get(target)
                builder = event is None
                if builder:
                    event = threading.Event()
                    self._building[target] = event
                    self.stats.misses += 1
                    current = target == self._version
                    if not current:
                        self.stats.time_travel_reads += 1
                    base = self._delta_base(target)
                    frozen: UndirectedGraph | None = None
                    if base is None:
                        # Freeze the store under the mutex; decompose outside.
                        self._ensure_store()
                        frozen = (
                            self._graph.copy() if current else self._graph_at(target)
                        )
            if not builder:
                # Another thread is already building this version: wait for
                # it to publish, then re-read the cache.  (The mutex is not
                # held here, so the builder can finish.)
                if deadline is None:
                    event.wait()
                elif not event.wait(max(0.0, deadline - time.monotonic())):
                    raise QueryTimeoutError(
                        f"snapshot build for version {target} did not complete "
                        f"within the {timeout}s deadline",
                        timeout=timeout,
                    )
                continue
            try:
                started = time.perf_counter()
                if base is not None:
                    built = self._build_from_delta(*base, target)
                else:
                    built = self._build_full(frozen, target)
                elapsed = time.perf_counter() - started
            except BaseException:
                with self._mutex:
                    self._building.pop(target, None)
                event.set()
                raise
            with self._mutex:
                if base is not None:
                    self.stats.delta_applies += 1
                else:
                    self.stats.full_rebuilds += 1
                self.stats.build_seconds += elapsed
                self._store(built)
                self._building.pop(target, None)
            event.set()
            return built

    # ------------------------------------------------------------------
    # epoch-pinned leases
    # ------------------------------------------------------------------
    def lease(
        self, version: int | None = None, *, timeout: float | None = None
    ) -> SnapshotLease:
        """Pin the snapshot at ``version`` (default: current) and return a lease.

        While the lease is held the LRU defers reclaiming the version, so
        the holder can keep resolving it via :meth:`snapshot_at` (or query
        the pinned :attr:`SnapshotLease.snapshot` directly) no matter how
        far the writer advances.  Release promptly — every deferred version
        is cache memory the sweep cannot reclaim.  ``timeout`` bounds the
        snapshot resolution exactly as in :meth:`snapshot_at`.
        """
        snapshot = self.snapshot_at(version, timeout=timeout)
        with self._mutex:
            # The snapshot may have been evicted between the resolve and the
            # pin (another thread's build overflowed the LRU): re-adopt it.
            if snapshot.version not in self._cache:
                self._cache[snapshot.version] = snapshot
            self._pins[snapshot.version] = self._pins.get(snapshot.version, 0) + 1
            self.stats.leases += 1
        return SnapshotLease(self, snapshot)

    def _unpin(self, version: int) -> None:
        """Drop one pin on ``version``; run the deferred sweep on the last.

        A version whose reclamation was deferred while pinned is evicted
        here (unless it is the current head): the eviction it dodged is
        merely late, not cancelled.
        """
        with self._mutex:
            count = self._pins.get(version, 0) - 1
            if count > 0:
                self._pins[version] = count
                return
            self._pins.pop(version, None)
            if (
                version in self._deferred
                and version != self._version
                and version in self._cache
            ):
                del self._cache[version]
                self.stats.evictions += 1
            self._deferred.discard(version)
            self._reclaim()

    def pinned_versions(self) -> list[int]:
        """Return the versions currently pinned by outstanding leases."""
        with self._mutex:
            return sorted(self._pins)

    def _store(self, built: EngineSnapshot) -> None:
        """Insert ``built`` into the LRU and reclaim any unpinned overflow."""
        self._cache[built.version] = built
        self._reclaim()

    def _reclaim(self) -> None:
        """Evict the stalest unpinned snapshots beyond capacity.

        Pinned versions are skipped (deferred reclamation, counted in
        :attr:`EngineStats.deferred_reclamations`); :meth:`_unpin` re-runs
        the sweep when the last lease on a version releases, so the cache
        shrinks back to capacity as soon as the pins allow.
        """
        overflow = len(self._cache) - self._cache_size
        if overflow <= 0:
            return
        for version in list(self._cache):
            if overflow <= 0:
                break
            if self._pins.get(version):
                self.stats.deferred_reclamations += 1
                self._deferred.add(version)
                continue
            del self._cache[version]
            self._deferred.discard(version)
            self.stats.evictions += 1
            overflow -= 1

    def _delta_base(self, version: int) -> tuple[EngineSnapshot, GraphDelta] | None:
        """Return the cached snapshot to patch ``version`` from, with its delta.

        Serves current and time-travel reads alike.  Cached bases are
        visited nearest to ``version`` first, the older of two equally near
        ones first.  From an older base the logged deltas are composed
        forward; from a newer one their inverses are composed newest-first
        (backward replay).  Bases the log no longer reaches are skipped,
        and the first base whose composed delta fits the
        ``delta_threshold`` budget (relative to the base's edge count) wins.
        For a current read every base is older, so this is the newest
        reachable base that fits.  An older base composes strictly more
        mutations, but cancellation (remove + re-add) can still shrink the
        net delta, so a base too large does not end the search.

        ``None`` means full rebuild: the cache is cold, the log no longer
        reaches any cached base, or every composed delta is too large for
        patching to win.
        """
        if self._delta_threshold <= 0:
            return None
        floor = self._log_floor()
        bases = sorted(
            [
                (abs(base_version - version), base_version)
                for base_version in self._cache
                if base_version >= floor and base_version != version
            ]
        )
        for _, base_version in bases:
            if base_version < version:
                steps = range(base_version + 1, version + 1)
                composed = GraphDelta.chain(self._delta_log[step] for step in steps)
            else:
                steps = range(base_version, version, -1)
                composed = GraphDelta.chain(
                    self._delta_log[step].inverted() for step in steps
                )
            base = self._cache[base_version]
            if composed.size() <= self._delta_threshold * max(1, base.csr.number_of_edges()):
                return base, composed
        return None

    def _graph_at(self, version: int) -> UndirectedGraph:
        """Return a private copy of the store's graph as of ``version``.

        Unwinds the live store backwards by applying the inverted log
        deltas newest-first; the caller guarantees ``version`` lies inside
        :meth:`retained_versions`.
        """
        frozen = self._graph.copy()
        for step in range(self._version, version, -1):
            _apply_delta_to_graph(frozen, self._delta_log[step].inverted())
        return frozen

    def _build_full(self, frozen: UndirectedGraph, version: int) -> EngineSnapshot:
        """Decompose the pre-frozen ``frozen`` graph (version ``version``) from scratch.

        The caller froze the store under the engine mutex (a plain copy for
        the current version, a :meth:`_graph_at` reconstruction for a
        historical one); the decomposition here runs without any lock.
        Runs triangle enumeration + decomposition once via
        :func:`~repro.trusses.csr_decomposition.csr_decompose` (which picks
        its strategy by edge count) and hands the snapshot the trussness
        and, when the vector strategy enumerated one, the triangle
        incidence, so nothing is computed twice downstream.  ``frozen``
        itself is not kept: once the CSR is built it is garbage, and the
        snapshot thaws its own dict form from the CSR if a consumer asks.
        """
        csr = CSRGraph.from_graph(frozen)
        result = csr_decompose(csr)
        if result.incidence is not None:
            self._note_enumeration()
        return EngineSnapshot(
            version=version,
            csr=csr,
            trussness=result.trussness,
            incidence=result.incidence,
            on_enumerate=self._note_enumeration,
        )

    def _build_from_delta(
        self, base: EngineSnapshot, delta: GraphDelta, version: int
    ) -> EngineSnapshot:
        """Patch ``base`` with ``delta``: the incremental leg of the pipeline.

        The CSR is patched by :meth:`CSRGraph.apply_delta`, the base's
        triangle incidence (if any) is carried forward by
        :func:`~repro.graph.csr_triangles.patch_incidence` for the new
        snapshot's kernel, and :func:`incremental_truss_update` maintains
        the trussness with its own adjacency-map triangle walk.
        """
        if delta.is_empty():
            # Mutations cancelled out (e.g. an edge removed and re-added):
            # the base snapshot's content is exactly current, so every
            # derived structure can be shared as-is.  The graph cell is
            # shared as it stands, so an unthawed base stays unthawed.
            clone = EngineSnapshot(
                version=version,
                csr=base.csr,
                trussness=base.trussness,
                incidence=base.incidence,
                on_enumerate=self._note_enumeration,
            )
            clone._graph = base._graph
            clone._kernel = base._kernel
            return clone

        patch = base.csr.apply_delta(delta)
        incidence: TriangleIncidence | None = None
        if base.incidence is not None:
            # Carry the triangle incidence across the patch so the csr
            # kernel of the new snapshot never re-enumerates.
            incidence = patch_incidence(base.incidence, patch)
            with self._mutex:
                self.stats.incidence_patches += 1
        trussness = incremental_truss_update(base.csr, base.trussness, patch)
        return EngineSnapshot(
            version=version,
            csr=patch.csr,
            trussness=trussness,
            incidence=incidence,
            on_enumerate=self._note_enumeration,
        )

    def cached_versions(self) -> list[int]:
        """Return the versions currently cached, oldest first."""
        with self._mutex:
            return list(self._cache)

    def logged_versions(self) -> list[int]:
        """Return the versions currently covered by the delta log, oldest first."""
        with self._mutex:
            return list(self._delta_log)

    def clear_cache(self) -> None:
        """Drop every cached snapshot except pinned ones (rebuilt on demand)."""
        with self._mutex:
            if self._pins:
                self._cache = OrderedDict(
                    (version, snapshot)
                    for version, snapshot in self._cache.items()
                    if self._pins.get(version)
                )
            else:
                self._cache.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: Sequence[Hashable],
        method: str = "lctc",
        *,
        at_version: int | None = None,
        **kwargs,
    ) -> CommunityResult:
        """Answer one CTC/baseline query from the current (or a pinned) snapshot.

        ``method`` and keyword arguments are those of
        :func:`repro.ctc.api.search`; the CTC methods run on the snapshot's
        array kernels.  ``at_version`` pins the read to a historical store
        version via :meth:`snapshot_at` (a time-travel read; ``None`` reads
        the current version).  Either way no per-query decomposition
        happens.
        """
        from repro.ctc.api import search

        return search(self.snapshot_at(at_version), query, method=method, **kwargs)

    def query_batch(
        self,
        queries: Iterable[Sequence[Hashable]],
        method: str = "lctc",
        *,
        at_version: int | None = None,
        **kwargs,
    ) -> list[CommunityResult]:
        """Answer many queries against one pinned snapshot.

        The snapshot is resolved once up front, so every query in the batch
        sees the same graph version even if another thread of control
        mutates the store mid-batch.  ``at_version`` is as in :meth:`query`.
        """
        from repro.ctc.api import search

        snapshot = self.snapshot_at(at_version)
        return [search(snapshot, query, method=method, **kwargs) for query in queries]

    def __repr__(self) -> str:
        # A lazy (not-yet-thawed) store answers counts from the CSR so
        # repr never forces the O(m) reconstruction.
        store = self._lazy_csr if self._lazy_csr is not None else self._graph
        return (
            f"{type(self).__name__}(version={self._version}, "
            f"nodes={store.number_of_nodes()}, "
            f"edges={store.number_of_edges()}, "
            f"cached={len(self._cache)}/{self._cache_size})"
        )
