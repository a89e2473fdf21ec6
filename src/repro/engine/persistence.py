"""Crash-safe durability: write-ahead delta log + atomic snapshot checkpoints.

Every layer below this one is RAM-only: the :class:`~repro.engine.CTCEngine`
store, its delta log, the serving shards — all gone on a restart.  This
module is the durable spine ROADMAP item 2 calls for, built from two
complementary artifacts that live together in one *data directory*:

``wal.log`` — the **write-ahead delta log**
    An append-only file of length-prefixed, CRC32-checksummed
    :class:`~repro.graph.delta.GraphDelta` records (framing in
    :mod:`repro.graph.disk`; canonical byte-stable payloads from
    :meth:`GraphDelta.to_bytes`).  The engine appends each mutation's delta
    *before* bumping its version, so every acknowledged version is on disk
    (modulo the fsync policy below).  A fresh durable engine first logs a
    version-0 **bootstrap record** holding its initial graph, so recovery
    never depends on a checkpoint existing.
``checkpoint-<version>/`` — **atomic snapshot checkpoints**
    A directory of ``np.save`` arrays (CSR buffers, trussness, and the
    triangle incidence with its supports when the snapshot holds one), the
    pickled node labels, and a checksummed manifest, staged in a temp
    directory and published by a single ``os.rename``
    (:func:`repro.graph.disk.publish_dir`).  Recovery reopens
    the arrays with ``np.load(mmap_mode="r")`` — the cold-start path skips
    the whole triangle-enumeration + peeling decomposition, which is what
    ``benchmarks/bench_recovery.py`` gates at >= 10x over a full rebuild.

fsync policy
------------
``always`` fsyncs after every append (no acknowledged delta is ever lost,
even to a kernel panic), ``batch`` fsyncs every ``fsync_batch`` appends and
at checkpoints (bounded loss on *OS* crash), ``off`` never fsyncs
explicitly.  Under all three the log file is unbuffered, so each append
hands its record to the OS in one ``write`` and a killed *process*
(``kill -9``) loses nothing — the OS still holds the bytes; fsync only buys
durability against the machine itself dying.  An append whose write or
fsync fails is truncated back off the log before the error propagates.

Recovery state machine
----------------------
:meth:`DurabilityManager.open_existing` drives recovery:

1. sweep orphaned ``tmp-*`` staging directories (a crash mid-checkpoint
   before the rename);
2. load the newest checkpoint whose manifest verifies — a damaged or
   half-renamed one is skipped, falling back to the next older (or none);
3. read the WAL: a **torn tail** (last record cut short or failing its
   CRC) is truncated off the file silently, while damage anywhere earlier
   raises :class:`~repro.exceptions.WalCorruptionError` (see
   :func:`repro.graph.disk.scan_records` for why the distinction is safe);
4. the engine replays the WAL records *after* the checkpoint version onto
   the checkpoint graph — the checkpoint-then-crash-before-trim overlap is
   filtered by version, and any version gap raises
   :class:`WalCorruptionError` rather than silently resurrecting a
   different store.

Because replay reconstructs the exact mutation sequence and every snapshot
build path is property-tested bit-identical to a from-scratch freeze, a
recovered engine's snapshots (CSR arrays, trussness, incidence) equal an
uninterrupted run's — the acceptance property
``tests/engine/test_crash_recovery.py`` enforces, including under
``kill -9`` mid-append.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
from dataclasses import asdict, dataclass

import numpy as np

from repro.exceptions import ConfigurationError, WalCorruptionError
from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import TriangleIncidence
from repro.graph.delta import GraphDelta
from repro.graph.disk import (
    append_record,
    file_crc32,
    fsync_dir,
    publish_dir,
    read_manifest,
    scan_records,
    write_manifest,
)

__all__ = [
    "DEFAULT_CHECKPOINT_BYTES",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_FSYNC_BATCH",
    "CheckpointStore",
    "DurabilityConfig",
    "DurabilityManager",
    "LoadedCheckpoint",
    "RecoveryReport",
    "WriteAheadLog",
]

#: Default delta-count checkpoint trigger (appends since the last one).
DEFAULT_CHECKPOINT_EVERY = 256

#: Default WAL-size checkpoint trigger, in bytes.
DEFAULT_CHECKPOINT_BYTES = 64 * 1024 * 1024

#: Default appends between fsyncs under the ``batch`` policy.
DEFAULT_FSYNC_BATCH = 32

#: On-disk checkpoint layout version (manifests carrying another are skipped).
CHECKPOINT_FORMAT_VERSION = 1

#: File name of the write-ahead log inside a data directory.
WAL_FILENAME = "wal.log"

_FSYNC_POLICIES = ("always", "batch", "off")
_CKPT_PREFIX = "checkpoint-"
_TMP_PREFIX = "tmp-"
_VERSION_PREFIX = struct.Struct("<Q")


@dataclass(frozen=True)
class DurabilityConfig:
    """Everything :class:`CTCEngine` needs to know to persist itself.

    Parameters
    ----------
    path:
        The data directory (created on first use).  Holds ``wal.log`` and
        the ``checkpoint-*`` directories.
    fsync:
        ``"always"`` / ``"batch"`` / ``"off"`` — see the module docstring's
        trade-off discussion.
    checkpoint_every:
        Auto-checkpoint after this many WAL appends since the last
        checkpoint (``None`` disables the count trigger).
    checkpoint_bytes:
        Auto-checkpoint once the WAL exceeds this many bytes (``None``
        disables the size trigger).
    fsync_batch:
        Appends between fsyncs under the ``batch`` policy.
    verify_checkpoints:
        Re-hash every array file against the manifest when loading a
        checkpoint.  Costs a full sequential read (defeating the memmap
        cold-start), so it is off by default; set it for diagnostics.  The
        CLI's ``--recover`` leaves it off.
    """

    path: str
    fsync: str = "batch"
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY
    checkpoint_bytes: int | None = DEFAULT_CHECKPOINT_BYTES
    fsync_batch: int = DEFAULT_FSYNC_BATCH
    verify_checkpoints: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", os.fspath(self.path))
        if self.fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {_FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 or None, got {self.checkpoint_every}"
            )
        if self.checkpoint_bytes is not None and self.checkpoint_bytes < 1:
            raise ValueError(
                f"checkpoint_bytes must be >= 1 or None, got {self.checkpoint_bytes}"
            )
        if self.fsync_batch < 1:
            raise ValueError(f"fsync_batch must be >= 1, got {self.fsync_batch}")

    @classmethod
    def coerce(
        cls, value: "DurabilityConfig | str | os.PathLike"
    ) -> "DurabilityConfig":
        """Accept a ready config or a bare data-directory path."""
        if isinstance(value, cls):
            return value
        return cls(path=os.fspath(value))

    @property
    def wal_path(self) -> str:
        """The WAL file inside the data directory."""
        return os.path.join(self.path, WAL_FILENAME)


class WriteAheadLog:
    """The append-only, checksummed delta log (one per data directory).

    Record payloads are ``u64 version`` (little-endian) followed by the
    delta's canonical bytes; the framing (length + CRC32 prefix, magic
    header) lives in :mod:`repro.graph.disk`.  Instances append; the
    classmethods :meth:`read` and :meth:`repair` are the recovery side.
    """

    MAGIC = b"CTCWAL01"

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "batch",
        fsync_batch: int = DEFAULT_FSYNC_BATCH,
    ) -> None:
        self._path = path
        self._fsync = fsync
        self._fsync_batch = fsync_batch
        self._unsynced = 0
        self.appends = 0
        self.syncs = 0
        self._truncate_error: OSError | None = None
        self._handle = open(path, "ab", buffering=0)
        if self._handle.tell() == 0:
            self._handle.write(self.MAGIC)
            os.fsync(self._handle.fileno())
            fsync_dir(os.path.dirname(os.path.abspath(path)))
        self._size = self._handle.tell()

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        return self._path

    @property
    def size_bytes(self) -> int:
        """Current WAL length, including the header."""
        return self._size

    def append(self, version: int, delta: GraphDelta) -> None:
        """Append one version's delta; fsync per policy.

        If the write or the fsync raises, the log is truncated back to its
        length before the append and the error propagates, so a failed
        append leaves no record behind for the next append to duplicate.
        If the truncation fails too, the log refuses every later append.
        """
        if self._truncate_error is not None:
            raise WalCorruptionError(
                "a failed append could not be truncated off the log; "
                "it refuses further appends",
                path=self._path,
                offset=self._size,
            ) from self._truncate_error
        payload = _VERSION_PREFIX.pack(version) + delta.to_bytes()
        before = (self._size, self.appends, self._unsynced)
        try:
            self._size += append_record(self._handle, payload)
            self.appends += 1
            if self._fsync == "always":
                self._sync()
            elif self._fsync == "batch":
                self._unsynced += 1
                if self._unsynced >= self._fsync_batch:
                    self._sync()
        except BaseException:
            self._size, self.appends, self._unsynced = before
            try:
                os.ftruncate(self._handle.fileno(), self._size)
            except OSError as error:
                self._truncate_error = error
            raise

    def _sync(self) -> None:
        os.fsync(self._handle.fileno())
        self._unsynced = 0
        self.syncs += 1

    def sync(self) -> None:
        """Force an fsync regardless of policy (checkpoint/close path)."""
        self._sync()

    def trim_through(self, version: int) -> int:
        """Drop records with versions <= ``version``; return the retained count.

        The retained tail is rewritten to a temp file and renamed over the
        log (atomic), so a crash mid-trim leaves either the old full log or
        the new trimmed one — both replay to the same store on top of the
        checkpoint that triggered the trim.
        """
        records, _, _ = self.read(self._path)
        retained = [(v, delta) for v, delta in records if v > version]
        tmp = self._path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(self.MAGIC)
            for v, delta in retained:
                append_record(handle, _VERSION_PREFIX.pack(v) + delta.to_bytes())
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.rename(tmp, self._path)
        fsync_dir(os.path.dirname(os.path.abspath(self._path)))
        self._handle = open(self._path, "ab", buffering=0)
        self._size = self._handle.tell()
        self._unsynced = 0
        return len(retained)

    def close(self) -> None:
        """Fsync (unless ``off``) and close the log (idempotent)."""
        if self._handle.closed:
            return
        if self._fsync != "off":
            os.fsync(self._handle.fileno())
        self._handle.close()

    # ------------------------------------------------------------------
    # recovery side
    # ------------------------------------------------------------------
    @classmethod
    def read(cls, path: str) -> tuple[list[tuple[int, GraphDelta]], int, int]:
        """Parse the log; return ``(records, valid_length, file_length)``.

        ``records`` is ``(version, delta)`` pairs from the longest
        well-formed prefix; ``valid_length < file_length`` means a torn
        tail that :meth:`repair` should truncate.

        Raises
        ------
        WalCorruptionError
            On mid-log damage (bad header, mid-log checksum failure, a
            payload the framing accepted but the delta codec rejects, or a
            version sequence that is not contiguous).
        """
        with open(path, "rb") as handle:
            data = handle.read()
        payloads, valid = scan_records(data, magic=cls.MAGIC, path=path)
        records: list[tuple[int, GraphDelta]] = []
        previous: int | None = None
        for payload in payloads:
            if len(payload) < _VERSION_PREFIX.size:
                raise WalCorruptionError(
                    f"record payload too short ({len(payload)} bytes) for a "
                    "version prefix",
                    path=path,
                )
            (version,) = _VERSION_PREFIX.unpack_from(payload)
            try:
                delta = GraphDelta.from_bytes(payload[_VERSION_PREFIX.size :])
            except ValueError as exc:
                raise WalCorruptionError(
                    f"record for version {version} passed its checksum but "
                    f"does not decode: {exc}",
                    path=path,
                ) from exc
            if previous is not None and version != previous + 1:
                raise WalCorruptionError(
                    f"non-contiguous WAL versions: {previous} followed by "
                    f"{version}",
                    path=path,
                )
            previous = version
            records.append((version, delta))
        return records, valid, len(data)

    @classmethod
    def repair(cls, path: str) -> tuple[list[tuple[int, GraphDelta]], int]:
        """Read the log, truncating any torn tail off the file on disk.

        Returns ``(records, truncated_bytes)``.  Truncation is the silent,
        expected repair of a crash mid-append; mid-log damage still raises
        :class:`WalCorruptionError` (from :meth:`read`).
        """
        records, valid, total = cls.read(path)
        truncated = total - valid
        if truncated:
            with open(path, "rb+") as handle:
                handle.truncate(valid)
                handle.flush()
                os.fsync(handle.fileno())
        return records, truncated


@dataclass
class LoadedCheckpoint:
    """One verified checkpoint's artifacts, arrays memory-mapped read-only.

    ``incidence`` is ``None`` when the checkpointed snapshot held none; the
    per-edge supports travel only inside it.
    """

    version: int
    path: str
    csr: CSRGraph
    trussness: np.ndarray
    incidence: TriangleIncidence | None


class CheckpointStore:
    """The ``checkpoint-<version>/`` directories inside one data directory."""

    def __init__(self, root: str) -> None:
        self._root = os.fspath(root)

    # ------------------------------------------------------------------
    def sweep_tmp(self) -> int:
        """Remove orphaned staging directories (crash before the rename)."""
        removed = 0
        if not os.path.isdir(self._root):
            return removed
        for name in os.listdir(self._root):
            if name.startswith(_TMP_PREFIX):
                shutil.rmtree(os.path.join(self._root, name), ignore_errors=True)
                removed += 1
        return removed

    def versions(self) -> list[int]:
        """Checkpoint versions present on disk (unverified), ascending."""
        found = []
        if not os.path.isdir(self._root):
            return found
        for name in os.listdir(self._root):
            if name.startswith(_CKPT_PREFIX):
                try:
                    found.append(int(name[len(_CKPT_PREFIX) :]))
                except ValueError:
                    continue
        return sorted(found)

    def _dir(self, version: int) -> str:
        return os.path.join(self._root, f"{_CKPT_PREFIX}{version:012d}")

    # ------------------------------------------------------------------
    def write(self, snapshot) -> str:
        """Checkpoint ``snapshot`` (an :class:`EngineSnapshot`) atomically.

        Arrays are staged with ``np.save`` into a ``tmp-*`` directory next
        to their checksummed manifest, then published by one ``os.rename``.
        Idempotent per version: an already-published checkpoint for the
        snapshot's version is returned as-is.
        """
        final = self._dir(snapshot.version)
        if os.path.isdir(final):
            return final
        os.makedirs(self._root, exist_ok=True)
        tmp = os.path.join(
            self._root, f"{_TMP_PREFIX}{snapshot.version}-{os.getpid()}"
        )
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        csr = snapshot.csr
        arrays = {name: getattr(csr, name) for name in CSRGraph._SHARED_ARRAYS}
        arrays["trussness"] = snapshot.trussness
        if snapshot.incidence is not None:
            arrays["supports"] = snapshot.incidence.supports
            arrays["tri_edges"] = snapshot.incidence.edges
            arrays["inc_indptr"] = snapshot.incidence.inc_indptr
            arrays["inc_triangles"] = snapshot.incidence.inc_triangles
        manifest: dict = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "version": snapshot.version,
            "nodes": csr.number_of_nodes(),
            "edges": csr.number_of_edges(),
            "arrays": {},
        }
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            filename = f"{name}.npy"
            np.save(os.path.join(tmp, filename), array)
            manifest["arrays"][name] = {
                "file": filename,
                "crc32": file_crc32(os.path.join(tmp, filename)),
                "shape": list(array.shape),
                "dtype": array.dtype.str,
            }
        labels_file = "labels.pkl"
        with open(os.path.join(tmp, labels_file), "wb") as handle:
            pickle.dump(csr.labels(), handle, protocol=pickle.HIGHEST_PROTOCOL)
        manifest["labels"] = {
            "file": labels_file,
            "crc32": file_crc32(os.path.join(tmp, labels_file)),
        }
        write_manifest(os.path.join(tmp, "manifest.json"), manifest)
        publish_dir(tmp, final)
        return final

    def remove_older_than(self, version: int) -> None:
        """Delete published checkpoints older than ``version``."""
        for old in self.versions():
            if old < version:
                shutil.rmtree(self._dir(old), ignore_errors=True)

    # ------------------------------------------------------------------
    def load_latest(self, *, verify: bool = False) -> LoadedCheckpoint | None:
        """Load the newest checkpoint that verifies; ``None`` when there is none.

        A checkpoint whose manifest is missing/damaged, whose files are
        absent or mis-shaped, or (with ``verify=True``) whose array bytes
        fail their CRC is *skipped* — recovery falls back to the next older
        checkpoint and, past the oldest, to WAL-only replay.
        """
        for version in reversed(self.versions()):
            loaded = self._load(version, verify=verify)
            if loaded is not None:
                return loaded
        return None

    def _load(self, version: int, *, verify: bool) -> LoadedCheckpoint | None:
        directory = self._dir(version)
        try:
            manifest = read_manifest(os.path.join(directory, "manifest.json"))
        except (OSError, ValueError):
            return None
        if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            return None
        arrays: dict[str, np.ndarray] = {}
        try:
            for name, entry in manifest["arrays"].items():
                file = os.path.join(directory, entry["file"])
                if verify and file_crc32(file) != entry["crc32"]:
                    return None
                array = np.load(file, mmap_mode="r", allow_pickle=False)
                if list(array.shape) != entry["shape"]:
                    return None
                if array.dtype.str != entry["dtype"]:
                    return None
                arrays[name] = array
            labels_path = os.path.join(directory, manifest["labels"]["file"])
            if verify and file_crc32(labels_path) != manifest["labels"]["crc32"]:
                return None
            with open(labels_path, "rb") as handle:
                labels = pickle.load(handle)
        except (OSError, KeyError, ValueError, pickle.UnpicklingError):
            return None
        csr = CSRGraph(
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            slot_edge=arrays["slot_edge"],
            edge_u=arrays["edge_u"],
            edge_v=arrays["edge_v"],
            labels=labels,
            ids={label: position for position, label in enumerate(labels)},
        )
        incidence = None
        if "tri_edges" in arrays:
            incidence = TriangleIncidence(
                edges=arrays["tri_edges"],
                supports=arrays["supports"],
                inc_indptr=arrays["inc_indptr"],
                inc_triangles=arrays["inc_triangles"],
            )
        return LoadedCheckpoint(
            version=int(manifest["version"]),
            path=directory,
            csr=csr,
            trussness=arrays["trussness"],
            incidence=incidence,
        )


@dataclass
class RecoveryReport:
    """What :meth:`CTCEngine.recover` did, for stats printing and tests."""

    checkpoint_version: int | None
    checkpoint_path: str | None
    wal_records: int
    replayed_deltas: int
    truncated_bytes: int
    recovered_version: int
    seconds: float

    def as_dict(self) -> dict:
        """Plain-dict form for CLI/benchmark reporting."""
        return asdict(self)


class DurabilityManager:
    """One engine's durable state: the open WAL plus its checkpoint store.

    Construct via :meth:`create` (fresh directory — refuses to adopt
    existing state) or :meth:`open_existing` (the recovery entry point).
    The engine serializes every call through its own mutex, so the manager
    itself carries no locking.
    """

    def __init__(
        self,
        config: DurabilityConfig,
        wal: WriteAheadLog,
        store: CheckpointStore,
    ) -> None:
        self.config = config
        self._wal = wal
        self._store = store
        self._since_checkpoint = 0
        self._last_checkpoint_version = 0
        self.checkpoints = 0

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, config: DurabilityConfig) -> "DurabilityManager":
        """Initialize a *fresh* data directory for a new durable engine.

        Raises
        ------
        ConfigurationError
            If the directory already holds a WAL or checkpoints — a fresh
            engine silently shadowing recoverable state would be data
            loss; use :meth:`CTCEngine.recover` instead.
        """
        os.makedirs(config.path, exist_ok=True)
        store = CheckpointStore(config.path)
        if os.path.exists(config.wal_path) or store.versions():
            raise ConfigurationError(
                f"data directory {config.path!r} already contains durable "
                "state; recover it with CTCEngine.recover(...) instead of "
                "creating a fresh engine over it"
            )
        wal = WriteAheadLog(
            config.wal_path, fsync=config.fsync, fsync_batch=config.fsync_batch
        )
        return cls(config, wal, store)

    @classmethod
    def open_existing(
        cls, config: DurabilityConfig
    ) -> tuple[
        "DurabilityManager",
        LoadedCheckpoint | None,
        list[tuple[int, GraphDelta]],
        int,
    ]:
        """Recovery: sweep staging orphans, load a checkpoint, repair the WAL.

        Returns ``(manager, checkpoint, wal_records, truncated_bytes)``;
        the caller (``CTCEngine.recover``) replays the records onto the
        checkpoint state.

        Raises
        ------
        ConfigurationError
            If the directory holds no durable state at all.
        WalCorruptionError
            On mid-log WAL damage (torn tails are repaired silently).
        """
        store = CheckpointStore(config.path)
        store.sweep_tmp()
        checkpoint = store.load_latest(verify=config.verify_checkpoints)
        wal_exists = os.path.exists(config.wal_path)
        if not wal_exists and checkpoint is None:
            raise ConfigurationError(
                f"no durable state found in {config.path!r} (neither "
                f"{WAL_FILENAME} nor a readable checkpoint)"
            )
        records: list[tuple[int, GraphDelta]] = []
        truncated = 0
        if wal_exists:
            records, truncated = WriteAheadLog.repair(config.wal_path)
        wal = WriteAheadLog(
            config.wal_path, fsync=config.fsync, fsync_batch=config.fsync_batch
        )
        manager = cls(config, wal, store)
        base = checkpoint.version if checkpoint is not None else 0
        manager._last_checkpoint_version = base
        manager._since_checkpoint = sum(1 for v, _ in records if v > base)
        return manager, checkpoint, records, truncated

    # ------------------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def checkpoint_store(self) -> CheckpointStore:
        return self._store

    def append(self, version: int, delta: GraphDelta) -> None:
        """Log one version's delta (called under the engine mutex)."""
        self._wal.append(version, delta)
        self._since_checkpoint += 1

    def checkpoint_due(self) -> bool:
        """Whether the delta-count or WAL-size policy asks for a checkpoint."""
        every = self.config.checkpoint_every
        if every is not None and self._since_checkpoint >= every:
            return True
        limit = self.config.checkpoint_bytes
        return limit is not None and self._wal.size_bytes >= limit

    def write_checkpoint(self, snapshot) -> str:
        """Publish ``snapshot`` as a checkpoint and trim the WAL behind it."""
        self._wal.sync()
        path = self._store.write(snapshot)
        self.checkpoints += 1
        # Publish first, trim second: a crash in between leaves the full
        # WAL alongside the new checkpoint, and replay filters the overlap
        # by version.  The reverse order could lose the trimmed deltas.
        self._since_checkpoint = self._wal.trim_through(snapshot.version)
        self._last_checkpoint_version = max(
            self._last_checkpoint_version, snapshot.version
        )
        self._store.remove_older_than(snapshot.version)
        return path

    def stats(self) -> dict:
        """Durability counters for CLI/benchmark reporting."""
        return {
            "fsync_policy": self.config.fsync,
            "wal_appends": self._wal.appends,
            "wal_fsyncs": self._wal.syncs,
            "wal_bytes": self._wal.size_bytes,
            "checkpoints": self.checkpoints,
            "deltas_since_checkpoint": self._since_checkpoint,
            "last_checkpoint_version": self._last_checkpoint_version,
        }

    def close(self) -> None:
        """Flush and close the WAL (idempotent)."""
        self._wal.close()
