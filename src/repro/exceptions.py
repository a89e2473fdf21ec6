"""Exception hierarchy for the CTC reproduction library.

All library errors derive from :class:`ReproError` so that callers can catch
library failures with a single ``except`` clause while still distinguishing
the common cases (bad graph input, query nodes missing from the graph, no
community satisfying the model, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """A graph operation received structurally invalid input.

    Examples: adding a self-loop to a simple graph, querying an endpoint of
    an edge that does not exist, or building a view over nodes that are not
    present in the parent graph.
    """


class NodeNotFoundError(GraphError, KeyError):
    """A referenced node is not present in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """A referenced edge is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class QueryError(ReproError):
    """A community-search query is malformed.

    Raised when the query node set is empty where the algorithm requires at
    least one node, when query nodes are missing from the graph, or when the
    query nodes are mutually disconnected so no connected community exists.
    """


class NoCommunityFoundError(ReproError):
    """No community satisfying the model exists for the given query.

    For the CTC model this happens when the query nodes cannot be connected
    inside any k-truss with k >= 2 (e.g. they lie in different connected
    components of the graph).
    """


class VersionEvictedError(ReproError):
    """A time-travel read asked for a version the delta log no longer retains.

    :meth:`~repro.engine.CTCEngine.snapshot_at` can materialize any version
    the bounded delta log still reaches (see ``retained_versions()``); once
    a version's deltas are trimmed past ``delta_log_limit``, the graph state
    at that version is unrecoverable and pinned reads against it must fail
    loudly instead of silently serving a different version.

    Attributes
    ----------
    version:
        The requested (unrecoverable) version.
    retained:
        The inclusive ``(oldest, newest)`` range of versions that *can*
        still be materialized.
    """

    def __init__(self, version: int, retained: tuple[int, int]) -> None:
        super().__init__(
            f"version {version} has been evicted from the delta log; "
            f"retained versions are {retained[0]}..{retained[1]} "
            "(raise delta_log_limit to keep more history)"
        )
        self.version = version
        self.retained = retained


class CrossShardMutationError(GraphError):
    """A mutation would create an edge spanning two serving shards.

    The process-mode :class:`~repro.engine.serving.ServingEngine` partitions
    the store by connected component; an edge between nodes living on
    different shards would merge two components across worker processes,
    which the shard-parallel design cannot represent.  Route such workloads
    through a single-process engine (or thread mode) instead.
    """


class QueryTimeoutError(ReproError):
    """A query missed its deadline and was abandoned by the serving layer.

    Raised per overdue query by :meth:`~repro.engine.serving.ServingEngine.
    query_batch` (and :meth:`aquery`) when ``timeout=`` is given: in thread
    mode when the deadline passed before the query started (it is then not
    run) or before it finished, in process mode when the owning shard
    worker has not replied by it.  Also raised by
    :meth:`~repro.engine.CTCEngine.snapshot_at` when a deadline-bounded
    wait on another thread's in-flight snapshot build expires.  In process
    mode the worker may still complete the computation — the error only
    means the caller stopped waiting.

    Attributes
    ----------
    timeout:
        The deadline that was missed, in seconds (``None`` when unknown).
    """

    def __init__(self, message: str, *, timeout: float | None = None) -> None:
        super().__init__(message)
        self.timeout = timeout


class ShardUnavailableError(ReproError):
    """A serving shard was quarantined after repeated worker failures.

    The process-mode :class:`~repro.engine.serving.ServingEngine` respawns a
    crashed shard worker with bounded retries; once the retry budget is
    exhausted the shard is quarantined and every query or mutation routed to
    it fails fast with this error while the remaining shards keep serving
    (graceful degradation instead of a poisoned engine).

    Attributes
    ----------
    shard:
        The quarantined shard index (``None`` when not applicable).
    """

    def __init__(self, message: str, *, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard


class ConfigurationError(ReproError):
    """An experiment or dataset configuration is inconsistent."""


class WalCorruptionError(ReproError):
    """The write-ahead delta log is damaged beyond safe recovery.

    The WAL recovery reader distinguishes two failure shapes.  A **torn
    tail** — the final record cut short or failing its checksum, the
    expected residue of a crash mid-append — is repaired silently by
    truncating the log back to the last whole record.  Damage anywhere
    *before* the tail (a checksum mismatch followed by more log bytes, a
    bad file header, a version gap between consecutive records) cannot be
    the result of a crashed append; it means the file was corrupted after
    the fact, and replaying past it could silently resurrect a different
    graph.  That case must fail loudly with this error instead of serving
    wrong data.

    Attributes
    ----------
    path:
        The damaged WAL (or checkpoint manifest) file, when known.
    offset:
        Byte offset of the damaged record, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        offset: int | None = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.offset = offset
