""":class:`GraphDelta`: a structured, composable batch of graph mutations.

The delta-propagation pipeline (mutable store → CSR read replica → truss
index) needs a precise record of *what changed* between two graph versions:
an opaque "version bumped" signal forces a full snapshot rebuild, while a
structured delta lets :meth:`repro.graph.csr.CSRGraph.apply_delta` patch
only the touched adjacency rows and
:func:`repro.trusses.incremental.incremental_truss_update` re-evaluate only
the affected edges.

A delta is **normalized against the graph it departs from**:

* ``added_nodes`` / ``removed_nodes`` contain only nodes that are actually
  absent / present in the base graph;
* ``added_edges`` / ``removed_edges`` contain only edges actually absent /
  present, as canonical :func:`~repro.graph.keys.edge_key` tuples;
* ``removed_edges`` includes **every** edge incident to a removed node
  (removing a node never leaves implicit edge removals);
* every endpoint of an added edge is either a surviving base node or listed
  in ``added_nodes``.

Producers (the :class:`~repro.engine.CTCEngine` mutation methods) emit
normalized deltas; :meth:`GraphDelta.then` composes consecutive normalized
deltas into one normalized delta, cancelling add/remove pairs, so a bounded
log of per-mutation deltas can be collapsed before a single ``apply_delta``
call.
"""

from __future__ import annotations

import pickle
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from repro.graph.keys import EdgeKey, edge_key

__all__ = ["GraphDelta"]

#: Pickle protocol pinned for :meth:`GraphDelta.to_bytes`.  Fixing it (rather
#: than ``HIGHEST_PROTOCOL``) keeps the byte stream — and therefore every WAL
#: record checksum — identical across the Python versions CI runs.
_WIRE_PROTOCOL = 4


def _canonical(edges: Iterable[tuple[Hashable, Hashable]]) -> frozenset[EdgeKey]:
    return frozenset(edge_key(u, v) for u, v in edges)


def _ordered(items: Iterable[Hashable]) -> tuple:
    """Return ``items`` in the canonical serialization order.

    Sorting by ``repr`` (never by the values themselves) gives one total
    order over arbitrary mixed-type labels — the same tie-break
    :func:`~repro.graph.keys.edge_key` and :meth:`CSRGraph.from_graph` use —
    so a delta built from *unordered* sets always serializes to the same
    bytes.  Without this, two equal deltas could hash to different WAL
    checksums purely from set iteration order (e.g. across hash-randomized
    interpreter runs).
    """
    return tuple(sorted(items, key=repr))


@dataclass(frozen=True)
class GraphDelta:
    """An immutable batch of node/edge additions and removals.

    Examples
    --------
    >>> d1 = GraphDelta(added_edges=[(1, 2)])
    >>> d2 = GraphDelta(removed_edges=[(2, 1)])
    >>> d1.then(d2).is_empty()
    True
    """

    added_nodes: frozenset[Hashable] = field(default_factory=frozenset)
    removed_nodes: frozenset[Hashable] = field(default_factory=frozenset)
    added_edges: frozenset[EdgeKey] = field(default_factory=frozenset)
    removed_edges: frozenset[EdgeKey] = field(default_factory=frozenset)

    def __init__(
        self,
        added_nodes: Iterable[Hashable] = (),
        removed_nodes: Iterable[Hashable] = (),
        added_edges: Iterable[tuple[Hashable, Hashable]] = (),
        removed_edges: Iterable[tuple[Hashable, Hashable]] = (),
    ) -> None:
        object.__setattr__(self, "added_nodes", frozenset(added_nodes))
        object.__setattr__(self, "removed_nodes", frozenset(removed_nodes))
        object.__setattr__(self, "added_edges", _canonical(added_edges))
        object.__setattr__(self, "removed_edges", _canonical(removed_edges))

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Return ``True`` if the delta changes nothing."""
        return not (
            self.added_nodes or self.removed_nodes or self.added_edges or self.removed_edges
        )

    def size(self) -> int:
        """Return the number of individual changes (the rebuild-policy metric)."""
        return (
            len(self.added_nodes)
            + len(self.removed_nodes)
            + len(self.added_edges)
            + len(self.removed_edges)
        )

    # ------------------------------------------------------------------
    def then(self, later: "GraphDelta") -> "GraphDelta":
        """Compose this delta with ``later`` (applied afterwards) into one delta.

        Add/remove pairs cancel in both directions: an item added here and
        removed in ``later`` (or vice versa) nets out entirely, because
        normalization guarantees the first delta's removals were present in
        the base graph and its additions were not.  The composition of
        normalized deltas is therefore normalized against the same base.
        """
        return GraphDelta(
            added_nodes=(self.added_nodes - later.removed_nodes)
            | (later.added_nodes - self.removed_nodes),
            removed_nodes=(self.removed_nodes - later.added_nodes)
            | (later.removed_nodes - self.added_nodes),
            added_edges=(self.added_edges - later.removed_edges)
            | (later.added_edges - self.removed_edges),
            removed_edges=(self.removed_edges - later.added_edges)
            | (later.removed_edges - self.added_edges),
        )

    def inverted(self) -> "GraphDelta":
        """Return the delta that undoes this one (swap additions and removals).

        If this delta is normalized against graph ``G`` and produces ``G'``,
        the inverse is normalized against ``G'`` and produces ``G`` — its
        additions were just removed from ``G'`` (so they are absent) and its
        removals were just added (so they are present).  This is what makes
        the engine's delta log bidirectional: composing the inverses of the
        log entries for versions ``v+1..b`` *newest first* replays a
        version-``b`` snapshot **backwards** to version ``v``.

        ``d.then(d.inverted())`` and ``d.inverted().then(d)`` are both the
        empty delta.
        """
        return GraphDelta(
            added_nodes=self.removed_nodes,
            removed_nodes=self.added_nodes,
            added_edges=self.removed_edges,
            removed_edges=self.added_edges,
        )

    # ------------------------------------------------------------------
    # canonical serialization (the WAL wire format)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to canonical bytes: equal deltas give equal bytes.

        The four change sets are emitted as ``repr``-sorted tuples (see
        :func:`_ordered`) pickled at a pinned protocol, so
        serialize → deserialize → serialize is byte-stable — the property
        the write-ahead log's CRC32 checksums depend on.  Labels may be any
        picklable hashable.
        """
        return pickle.dumps(
            (
                _ordered(self.added_nodes),
                _ordered(self.removed_nodes),
                _ordered(self.added_edges),
                _ordered(self.removed_edges),
            ),
            protocol=_WIRE_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "GraphDelta":
        """Rebuild a delta from :meth:`to_bytes` output.

        Raises
        ------
        ValueError
            If ``payload`` does not decode to a delta (truncated pickle,
            wrong shape) — the WAL reader maps this onto its corruption
            handling.
        """
        try:
            added_nodes, removed_nodes, added_edges, removed_edges = pickle.loads(
                payload
            )
        except Exception as exc:
            raise ValueError(f"not a serialized GraphDelta: {exc}") from exc
        return cls(
            added_nodes=added_nodes,
            removed_nodes=removed_nodes,
            added_edges=added_edges,
            removed_edges=removed_edges,
        )

    @staticmethod
    def chain(deltas: Iterable["GraphDelta"]) -> "GraphDelta":
        """Compose a sequence of deltas (oldest first) into one."""
        combined = GraphDelta()
        for delta in deltas:
            combined = combined.then(delta)
        return combined

    def __repr__(self) -> str:
        return (
            f"GraphDelta(+{len(self.added_nodes)}n/-{len(self.removed_nodes)}n, "
            f"+{len(self.added_edges)}e/-{len(self.removed_edges)}e)"
        )
