"""Read-optimized query engine: mutable store + cached CSR snapshots.

Mutations propagate to the cached read replicas through structured
:class:`~repro.graph.delta.GraphDelta` batches and an incremental rebuild
policy; see :mod:`repro.engine.core` for the design discussion and
``docs/ARCHITECTURE.md`` for the layer diagram and the caching/rebuild
contract.  :mod:`repro.engine.serving` layers a concurrent front-end on
top: epoch-pinned snapshot leases, batched thread-pool serving, and
shard-parallel worker processes over shared-memory snapshot buffers.
"""

from repro.engine.core import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_DELTA_LOG_LIMIT,
    DEFAULT_DELTA_THRESHOLD,
    CTCEngine,
    EngineSnapshot,
    EngineStats,
    SnapshotLease,
)
from repro.engine.faults import FaultEvent, FaultPlan
from repro.engine.persistence import (
    DEFAULT_CHECKPOINT_BYTES,
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_FSYNC_BATCH,
    CheckpointStore,
    DurabilityConfig,
    DurabilityManager,
    RecoveryReport,
    WriteAheadLog,
)
from repro.engine.serving import ServingEngine, ServingStats
from repro.engine.window import SlidingWindowEngine

__all__ = [
    "CTCEngine",
    "CheckpointStore",
    "DurabilityConfig",
    "DurabilityManager",
    "EngineSnapshot",
    "EngineStats",
    "FaultEvent",
    "FaultPlan",
    "RecoveryReport",
    "ServingEngine",
    "ServingStats",
    "SlidingWindowEngine",
    "SnapshotLease",
    "WriteAheadLog",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_CHECKPOINT_BYTES",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_DELTA_THRESHOLD",
    "DEFAULT_DELTA_LOG_LIMIT",
    "DEFAULT_FSYNC_BATCH",
]
