""":class:`SlidingWindowEngine`: community search over a sliding edge window.

The temporal scenario family the community-search literature benchmarks on
(Enron email streams, temporal SBMs) serves queries against the *recent*
graph: edges arrive as a stream and expire once they fall out of a sliding
window.  This module implements that mode on top of :class:`CTCEngine`'s
delta pipeline — the windowed engine is a drop-in engine whose store always
holds exactly the most recently inserted edges.

Window semantics
----------------
The window is measured in **retained edges**: after every mutation the
store contains at most ``window`` edges, and the live set is the most
recently inserted ones.  Precisely:

* every effective :meth:`add_edge` stamps the edge with a fresh insertion
  sequence number; re-inserting an edge that is still live *refreshes* its
  stamp (the stream touched it again) without mutating the store;
* whenever the live-edge count exceeds ``window``, the stalest edges are
  expired — removed from the store through the normal engine mutation
  path, so each expiry is logged as a :class:`~repro.graph.delta.GraphDelta`
  and the next snapshot is maintained *incrementally* by the batch-deletion
  pass of :mod:`repro.trusses.incremental` instead of a full rebuild —
  including its triangle incidence, which the engine path carries forward
  via :func:`~repro.graph.csr_triangles.patch_incidence`, so the csr
  kernel never re-enumerates per expiry (``delta_threshold=0`` turns that
  off and rebuilds per expiry — the comparison
  ``benchmarks/bench_windowed_churn.py`` gates on, for both kernels);
* an endpoint that loses its last live edge to expiry is dropped with it,
  so the windowed store always equals the graph induced by the live edge
  set — the invariant the equivalence suite
  (``tests/engine/test_sliding_window.py``) pins against from-scratch
  decompositions.  Nodes added explicitly via :meth:`add_node` are the one
  exception: they are caller-owned and never expired.

Explicit :meth:`remove_edge` / :meth:`remove_node` calls simply evict the
affected edges from the window early.  Algorithm-3 maintainer cascades are
refused (:class:`~repro.exceptions.ConfigurationError`): they would remove
edges behind the window bookkeeping's back, and the windowed engine already
maintains trussness on every expiry.

Because the windowed engine *is* a :class:`CTCEngine`, everything else —
snapshot caching, the delta log, time-travel reads via
``query(..., at_version=v)`` — works unchanged on the windowed store.

Durability: ``SlidingWindowEngine(durability=...)`` logs arrivals *and*
expirations through the normal :meth:`CTCEngine._record` path (expiry is
just ``remove_edge``), so the WAL replays the exact windowed stream.
:meth:`CTCEngine.recover` restores the live edge set bit-identically; only
the *relative insertion order* of the recovered edges is approximated — the
window bookkeeping is re-seeded in canonical (``repr``-sorted) order, the
same convention used for initial-graph edges at construction — because the
per-edge stamps are derived bookkeeping, not persisted state.  The live
edge set, the store, and every snapshot are exact either way.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

from repro.engine.core import CTCEngine
from repro.exceptions import ConfigurationError
from repro.graph.keys import EdgeKey, edge_key
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.maintenance import KTrussMaintainer

__all__ = ["SlidingWindowEngine"]


class SlidingWindowEngine(CTCEngine):
    """A :class:`CTCEngine` that expires edges falling out of a sliding window.

    Parameters
    ----------
    graph:
        Optional initial content; its edges enter the window in canonical
        sorted order (oldest first) and are immediately trimmed to the
        newest ``window`` of them.
    window:
        Maximum number of live edges (``>= 1``).
    **engine_kwargs:
        Forwarded to :class:`CTCEngine` (``cache_size``,
        ``delta_threshold``, ``delta_log_limit``, ``copy``).

    Examples
    --------
    >>> engine = SlidingWindowEngine(window=2)
    >>> for edge in [(0, 1), (1, 2), (2, 0)]:
    ...     engine.add_edge(*edge)
    >>> sorted(engine.graph.edges())  # (0, 1) expired
    [(1, 2), (2, 0)]
    """

    def __init__(
        self,
        graph: UndirectedGraph | None = None,
        *,
        window: int,
        **engine_kwargs,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        super().__init__(graph, **engine_kwargs)
        self._window = window
        self._insert_seq = 0
        #: Live edge -> its latest insertion sequence number.
        self._live: dict[EdgeKey, int] = {}
        #: (sequence, edge) pairs oldest-first; entries whose sequence no
        #: longer matches ``_live`` are stale (refreshed or removed early)
        #: and are skipped on expiry.
        self._fifo: deque[tuple[int, EdgeKey]] = deque()
        for key in sorted(self._graph.edges(), key=repr):
            self._stamp(key)
        self._expire()

    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        """The maximum number of live edges."""
        return self._window

    def window_edges(self) -> set[EdgeKey]:
        """Return the current live edge set (canonical keys, a fresh set)."""
        return set(self._live)

    def _stamp(self, key: EdgeKey) -> None:
        """Mark ``key`` as the most recently inserted live edge."""
        self._insert_seq += 1
        self._live[key] = self._insert_seq
        self._fifo.append((self._insert_seq, key))

    def _expire(self) -> None:
        """Evict the stalest live edges until the window invariant holds."""
        expired: list[EdgeKey] = []
        while len(self._live) > self._window:
            sequence, key = self._fifo.popleft()
            if self._live.get(key) != sequence:
                continue  # stale entry: refreshed later or removed early
            del self._live[key]
            expired.append(key)
        for u, v in expired:
            super().remove_edge(u, v)
        for node in {endpoint for key in expired for endpoint in key}:
            if self._graph.has_node(node) and self._graph.degree(node) == 0:
                super().remove_node(node)

    # ------------------------------------------------------------------
    # mutations (window bookkeeping wraps the engine's delta logging)
    # ------------------------------------------------------------------
    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Insert edge ``(u, v)`` into the window, expiring the stalest overflow.

        Re-inserting a live edge refreshes its window position without
        mutating the store.
        """
        with self._mutex:
            key = edge_key(u, v)
            if self._graph.has_edge(u, v):
                self._stamp(key)
                return
            super().add_edge(u, v)
            self._stamp(key)
            self._expire()

    def add_edges_from(self, edges: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Insert every edge in stream order (one window step per edge).

        Unlike the base engine this bumps the version per effective edge:
        window expiry is interleaved with the insertions, so batching them
        into one delta would reorder expirations against arrivals.
        """
        with self._mutex:
            for u, v in edges:
                self.add_edge(u, v)

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Remove edge ``(u, v)`` from the store and the window early."""
        with self._mutex:
            super().remove_edge(u, v)
            self._live.pop(edge_key(u, v), None)

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node``; its incident edges leave the window early."""
        with self._mutex:
            neighbors = list(self._graph.neighbors(node))  # raises NodeNotFoundError
            super().remove_node(node)
            for other in neighbors:
                self._live.pop(edge_key(node, other), None)

    def _post_recover(self) -> None:
        """Re-seed the window bookkeeping from the recovered store.

        :meth:`CTCEngine.recover` replays WAL deltas straight onto the
        graph, bypassing :meth:`add_edge` — so ``_live``/``_fifo`` are
        empty while the store holds the recovered window.  Stamp every
        live edge in canonical order (matching the initial-graph
        convention in ``__init__``) and expire any overflow — relevant
        when recovering under a *smaller* ``window=`` than the one that
        produced the log; those expirations are logged like live ones.
        """
        self._ensure_store()  # window bookkeeping reads the dict store
        for key in sorted(self._graph.edges(), key=repr):
            self._stamp(key)
        self._expire()

    def maintainer(self, k: int) -> KTrussMaintainer:
        """Unsupported: cascades would bypass the window's edge bookkeeping."""
        raise ConfigurationError(
            "SlidingWindowEngine does not support Algorithm-3 maintainers: "
            "cascade deletions would remove edges behind the window's "
            "bookkeeping; mutate through add_edge/remove_edge instead"
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(window={len(self._live)}/{self._window}, "
            f"version={self.version}, nodes={self._graph.number_of_nodes()}, "
            f"edges={self._graph.number_of_edges()})"
        )
