""":class:`SharedArrayBundle`: named numpy arrays in POSIX shared memory.

The process-mode serving layer (:mod:`repro.engine.serving`) ships frozen
snapshot buffers — CSR adjacency, per-edge trussness, triangle incidence
— to worker processes.  Pickling those arrays over a pipe would
copy megabytes per shard per snapshot; instead the parent publishes each
array once into a :class:`multiprocessing.shared_memory.SharedMemory`
block and sends only a small picklable *meta* descriptor.  Workers attach
read-only, zero-copy views onto the same physical pages.

Ownership contract (create → attach → unlink)
---------------------------------------------
* The **creator** (the parent process) calls :meth:`SharedArrayBundle.create`,
  keeps the returned bundle alive for as long as any worker may attach, and
  eventually calls :meth:`unlink` exactly once to release the segments.
* **Attachers** (workers) call :meth:`SharedArrayBundle.attach` on the
  pickled :attr:`meta` and get read-only array views; they call
  :meth:`close` when done (dropping their mapping, not the segments).
* Closing with live array views outstanding is **not** safe: on this
  interpreter ``mmap.close()`` force-unmaps without honouring numpy's
  buffer exports, leaving the views dangling (:meth:`close` still swallows
  the ``BufferError`` some builds raise instead).  Owners that must shed
  the segment *names* while keeping their views valid — the emergency
  signal-cleanup path — use :meth:`release_names`.

CPython's ``resource_tracker`` assumes every process that opens a segment
owns it and "cleans up" (unlinks!) segments still alive at process exit,
which would yank buffers out from under sibling workers.  Attachers
running under a *private* tracker (spawn-started workers) therefore pass
``untrack=True`` to unregister themselves right after opening (the
documented workaround for https://github.com/python/cpython/issues/82300;
Python 3.13's ``track=False`` parameter is not available on this floor).
Attachers sharing the creator's tracker — same process, or fork-started
workers — must *not* untrack: registration is one set entry per name, so
deregistering would also cancel the creator's entry and make its eventual
``unlink()`` trip the tracker.
"""

from __future__ import annotations

import pickle
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArrayBundle", "SharedBundleMeta"]


def _untrack(name: str) -> None:
    """Tell the resource tracker this process does not own segment ``name``."""
    try:  # pragma: no cover - defensive: private API, absent on some builds
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


@dataclass(frozen=True)
class SharedBundleMeta:
    """Picklable descriptor of a bundle: everything an attacher needs.

    ``arrays`` maps each array name to ``(segment_name, shape, dtype_str)``;
    ``objects_segment`` names the segment holding the pickled non-array
    payload (``None`` when there is none) and ``objects_size`` its pickle
    length in bytes.
    """

    arrays: dict[str, tuple[str, tuple[int, ...], str]]
    objects_segment: str | None
    objects_size: int


class SharedArrayBundle:
    """A set of named numpy arrays (plus one pickled-object payload) in shm.

    Build with :meth:`create` (owner side) or :meth:`attach` (worker side);
    the constructor is internal.  ``bundle[name]`` returns the array view;
    :attr:`objects` is the attached non-array payload dict.
    """

    def __init__(
        self,
        segments: list[shared_memory.SharedMemory],
        arrays: dict[str, np.ndarray],
        objects: dict,
        meta: SharedBundleMeta,
        owner: bool,
    ) -> None:
        self._segments = segments
        self._arrays = arrays
        self.objects = objects
        self.meta = meta
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        prefix: str,
        arrays: dict[str, np.ndarray],
        objects: dict | None = None,
    ) -> "SharedArrayBundle":
        """Publish ``arrays`` (and a pickled ``objects`` dict) into shm.

        ``prefix`` seeds the segment names; a random suffix keeps two
        engines in one process from colliding.  The creator's own views
        stay writable (it owns the pages); attached views are read-only.
        """
        token = secrets.token_hex(4)
        segments: list[shared_memory.SharedMemory] = []
        views: dict[str, np.ndarray] = {}
        array_meta: dict[str, tuple[str, tuple[int, ...], str]] = {}
        try:
            for index, (name, array) in enumerate(arrays.items()):
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    name=f"{prefix}_{token}_{index}",
                    create=True,
                    size=max(1, array.nbytes),  # zero-size arrays still need a page
                )
                segments.append(segment)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                views[name] = view
                array_meta[name] = (segment.name, array.shape, array.dtype.str)

            objects = dict(objects or {})
            objects_segment = None
            objects_size = 0
            if objects:
                payload = pickle.dumps(objects, protocol=pickle.HIGHEST_PROTOCOL)
                segment = shared_memory.SharedMemory(
                    name=f"{prefix}_{token}_obj", create=True, size=max(1, len(payload))
                )
                segments.append(segment)
                segment.buf[: len(payload)] = payload
                objects_segment = segment.name
                objects_size = len(payload)
        except Exception:
            for segment in segments:
                try:
                    segment.close()
                    segment.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            raise
        meta = SharedBundleMeta(
            arrays=array_meta,
            objects_segment=objects_segment,
            objects_size=objects_size,
        )
        return cls(segments, views, objects, meta, owner=True)

    @classmethod
    def attach(
        cls, meta: SharedBundleMeta, *, untrack: bool = False
    ) -> "SharedArrayBundle":
        """Map an existing bundle read-only from its pickled ``meta``.

        Pass ``untrack=True`` only from a process with its own resource
        tracker (a spawn-started worker) — see the module docstring.

        Raises
        ------
        FileNotFoundError
            If the owner already unlinked the segments.
        """
        segments: list[shared_memory.SharedMemory] = []
        views: dict[str, np.ndarray] = {}
        try:
            for name, (segment_name, shape, dtype) in meta.arrays.items():
                segment = shared_memory.SharedMemory(name=segment_name)
                if untrack:
                    _untrack(segment_name)
                segments.append(segment)
                view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
                view.flags.writeable = False
                views[name] = view
            objects: dict = {}
            if meta.objects_segment is not None:
                segment = shared_memory.SharedMemory(name=meta.objects_segment)
                if untrack:
                    _untrack(meta.objects_segment)
                segments.append(segment)
                objects = pickle.loads(bytes(segment.buf[: meta.objects_size]))
        except Exception:
            for segment in segments:
                try:
                    segment.close()
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
            raise
        return cls(segments, views, objects, meta, owner=False)

    def close(self) -> None:
        """Drop this process's mapping (idempotent; segments stay alive).

        A mapping with live array views cannot be unmapped eagerly —
        CPython raises ``BufferError`` — so that case is deferred to view
        garbage collection rather than surfaced to the caller.
        """
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                pass

    def unlink(self) -> None:
        """Release the segments for good (owner only; implies :meth:`close`)."""
        if not self._owner:
            raise ValueError("only the creating process may unlink a bundle")
        self.close()
        for segment in self._segments:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass

    def release_names(self) -> None:
        """Remove the segment *names* without dropping this process's mapping.

        The emergency signal-cleanup path: the names must not outlive the
        process (a ``/dev/shm`` leak), but the owner's own array views must
        stay valid in case a chained signal handler elects to survive —
        unlike :meth:`close`, which force-unmaps and leaves any outstanding
        view dangling (``mmap.close()`` does not honour numpy's buffer
        exports on this interpreter).  The pages live on until the last
        mapping (ours, or an attached worker's) drops.  Owner only;
        idempotent — and a later :meth:`unlink` still works.
        """
        if not self._owner:
            raise ValueError("only the creating process may release a bundle")
        for segment in self._segments:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def array_names(self) -> list[str]:
        """Return the array names in insertion order."""
        return list(self._arrays)

    def __repr__(self) -> str:
        role = "owner" if self._owner else "attached"
        return (
            f"{type(self).__name__}({role}, arrays={len(self._arrays)}, "
            f"segments={len(self._segments)})"
        )
