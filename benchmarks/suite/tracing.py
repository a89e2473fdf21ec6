"""Span recording for the ``--trace`` run, wrapped around the layers from outside.

The program under test carries no instrumentation of its own, so the
traced run wraps the layers' functions from the benchmark's files: each
entry of :data:`TARGETS` names a function, method or lazily built property
by dotted path and the span name recorded around it.  Spans live in memory
(name, start, end, parent span, request id, thread) and are written out
when the run ends.  A target that no longer exists is reported on stderr
and every metric built from its span reads ``null``; the run goes on.

Parents follow the calling thread's span stack.  A span opened on a thread
with an empty stack (a serving pool thread) is parented to the client's
open request: the suite drives one closed-loop client, so at most one
request is open at any moment.  Forked serving workers stop recording —
their spans would die with them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from contextlib import contextmanager
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """One wrap: a dotted path, the span it records, and how to wrap it.

    ``lazy_slot`` marks a lazily built property: a span is recorded only on
    the access that builds it (the slot still ``None``).  ``owned_by``
    additionally requires that attribute to be set on the instance — how a
    snapshot's own :class:`~repro.ctc.kernels.QueryKernel` (built with an
    ``on_enumerate`` hook) is told apart from LCTC's throwaway local ones.
    ``after`` maps what the call returned to attributes stored on the
    span; it runs once the span has closed, so its cost is not counted.
    """

    path: str
    span: str
    lazy_slot: str | None = None
    owned_by: str | None = None
    after: Callable[[object], dict] | None = None


def _tree_bytes(path: str) -> dict:
    """Bytes under a directory (a just-published checkpoint)."""
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return {"bytes": total}


_SEARCH = "repro.ctc.kernels.search"

#: Every wrap of the traced run, grouped by the layer it measures.
TARGETS = (
    # engine.core: snapshot resolution and its parts.
    Target("repro.engine.core.CTCEngine.snapshot_at", "core.resolve"),
    Target("repro.graph.simple_graph.UndirectedGraph.copy", "core.store_copy"),
    Target("repro.engine.core.CTCEngine._build_full", "core.full_rebuild"),
    Target("repro.engine.core.EngineSnapshot.kernel", "core.kernel_derive", lazy_slot="_kernel"),
    *(
        Target(
            f"repro.ctc.kernels.context.QueryKernel.{prop}",
            "core.kernel_derive",
            lazy_slot=slot,
            owned_by="_on_enumerate",
        )
        for prop, slot in (
            ("sorted_arrays", "_sorted_np"),
            ("sorted_adjacency", "_sorted"),
            ("repr_rank", "_repr_rank"),
            ("label_array", "_label_array"),
        )
    ),
    # graph / trusses: the delta-apply leg.
    Target("repro.graph.csr.CSRGraph.apply_delta", "graph.apply_delta"),
    Target("repro.engine.core.patch_incidence", "graph.patch_incidence"),
    Target("repro.engine.core.incremental_truss_update", "trusses.incremental_update"),
    # ctc.kernels: one search span per query, one span per phase inside it.
    Target("repro.ctc.local._kernel_lctc_search", "kernel.search"),
    Target("repro.ctc.bulk_delete._kernel_bulk_delete_search", "kernel.search"),
    Target("repro.baselines.truss_only._kernel_truss_search", "kernel.search"),
    Target(f"{_SEARCH}.build_truss_steiner_tree", "kernel.steiner"),
    Target(f"{_SEARCH}.minimum_trussness_of_tree", "kernel.steiner"),
    Target(f"{_SEARCH}.expand", "kernel.expand"),
    Target("repro.graph.csr.CSRGraph.edge_subgraph", "kernel.local_decomp"),
    Target(f"{_SEARCH}.subset_incidence", "kernel.local_decomp"),
    Target(f"{_SEARCH}.peel_incidence", "kernel.local_decomp"),
    Target(f"{_SEARCH}.csr_decompose", "kernel.local_decomp"),
    Target(f"{_SEARCH}.QueryKernel", "kernel.local_decomp"),
    Target(f"{_SEARCH}.find_g0", "kernel.find_g0"),
    Target(f"{_SEARCH}.peel", "kernel.peel"),
    Target(f"{_SEARCH}.masked_query_distances", "kernel.distance"),
    # engine.persistence: WAL, checkpoints, recovery.
    Target("repro.engine.persistence.WriteAheadLog.append", "persistence.wal_append"),
    Target(
        "repro.engine.persistence.append_record",
        "persistence.wal_write",
        after=lambda written: {"bytes": written},
    ),
    Target("repro.engine.core.CTCEngine.checkpoint", "persistence.checkpoint", after=_tree_bytes),
    Target("repro.engine.core.CTCEngine.recover", "persistence.recover"),
    Target("repro.engine.persistence.DurabilityManager.open_existing", "persistence.recover_load"),
    # engine.serving: the front-end's own steps.
    Target("repro.engine.core.CTCEngine.lease", "serving.lease"),
    Target("repro.engine.serving.ServingEngine._route_query", "serving.route"),
)

# Span record fields.
NAME, START, END, PARENT, REQUEST, THREAD, ATTRS = range(7)


class Tracer:
    """In-memory span recorder; records only while :attr:`enabled`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        #: Span names with at least one missing wrap target.
        self.missing: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ambient: int | None = None
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.enabled = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._ambient
        request = self.spans[parent][REQUEST] if parent is not None else None
        span = [name, perf_counter(), None, parent, request, threading.get_ident(), attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack().pop()

    @contextmanager
    def request(self, kind: str, method: str | None = None):
        """A client request: the root span every layer span hangs under."""
        index = self.open("request", {"kind": kind, "method": method})
        self.spans[index][REQUEST] = index
        self._ambient = index
        try:
            yield index
        finally:
            self._ambient = None
            self.close(index)

    def write(self, path: str) -> None:
        """Write the recorded spans out as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request, thread, attrs in self.spans:
                row = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                    "thread": thread,
                    **({"attrs": attrs} if attrs else {}),
                }
                handle.write(json.dumps(row) + "\n")


def _wrap_call(tracer: Tracer, fn, target: Target):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.open(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if target.after is not None:
            tracer.spans[index][ATTRS] = target.after(result)
        return result

    return traced


def _wrap_lazy(tracer: Tracer, prop: property, target: Target) -> property:
    fget = prop.fget

    def traced(obj):
        if (
            not tracer.enabled
            or getattr(obj, target.lazy_slot) is not None
            or (target.owned_by and getattr(obj, target.owned_by) is None)
        ):
            return fget(obj)
        index = tracer.open(target.span)
        try:
            return fget(obj)
        finally:
            tracer.close(index)

    return property(traced, prop.fset, prop.fdel, prop.__doc__)


def _resolve(path: str):
    """Return ``(owner, attribute name, raw attribute)`` or ``None``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
        except AttributeError:
            return None
        leaf = parts[-1]
        if isinstance(owner, type):
            raw = owner.__dict__.get(leaf)
        else:
            raw = getattr(owner, leaf, None)
        return None if raw is None else (owner, leaf, raw)
    return None


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Wrap every target in place; report the ones that are gone."""
    for target in targets:
        found = _resolve(target.path)
        if found is None:
            tracer.missing.add(target.span)
            print(f"trace: wrap target {target.path} not found; its metrics read null",
                  file=sys.stderr)
            continue
        owner, leaf, raw = found
        if target.lazy_slot is not None:
            wrapped = _wrap_lazy(tracer, raw, target)
        elif isinstance(raw, classmethod):
            wrapped = classmethod(_wrap_call(tracer, raw.__func__, target))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap_call(tracer, raw.__func__, target))
        else:
            wrapped = _wrap_call(tracer, raw, target)
        setattr(owner, leaf, wrapped)
