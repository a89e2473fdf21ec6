"""``CSRGraph``: a frozen, read-optimized snapshot of an :class:`UndirectedGraph`.

The mutable dict-of-sets :class:`~repro.graph.simple_graph.UndirectedGraph`
is the right store for updates (O(1) edge insertion/deletion), but it is a
poor substrate for the read-heavy analytical side of CTC search: every
neighbourhood walk chases pointers through hash sets, every per-edge
attribute lives behind a tuple-keyed dict, and nothing is cache-friendly.

``CSRGraph`` is the read replica.  It freezes a graph into compressed
sparse row (CSR) form:

* nodes are remapped to dense integer ids ``0..n-1`` (sorted by label when
  the labels are comparable, by ``repr`` otherwise, so the remapping is
  deterministic);
* the adjacency of node ``i`` is the sorted slice
  ``indices[indptr[i]:indptr[i + 1]]``, giving O(1) degree, O(log d)
  membership tests and merge-based common-neighbour intersection;
* every undirected edge gets a dense integer *edge id* in ``0..m-1``
  (assigned in row-major ``(u, v)`` order with ``u < v``), and the parallel
  ``slot_edge`` array maps each adjacency slot to its edge id, so per-edge
  attributes (support, trussness) can live in flat ``numpy`` arrays instead
  of tuple-keyed dicts.

A ``CSRGraph`` is immutable by contract: it represents one *version* of the
mutable store.  :class:`~repro.engine.CTCEngine` builds one per graph
version and serves every analytical query from it, which is the
HTAP-replica design the ROADMAP's scaling track builds on.

The array-based truss routines that consume this layout live in
:mod:`repro.trusses.csr_decomposition`.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Hashable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.delta import GraphDelta
from repro.graph.keys import EdgeKey, edge_key
from repro.graph.simple_graph import UndirectedGraph

__all__ = ["CSRGraph", "CSRPatch", "CSRSubgraph", "label_object_array"]


def _row_major_slots(
    num_nodes: int, edge_u: np.ndarray, edge_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(indptr, indices, slot_edge)`` of the edges ``(edge_u[e], edge_v[e])``.

    Both slots of every edge are grouped by row with each row's
    neighbours ascending; ``slot_edge`` maps a slot to its position ``e``
    in the input.  Endpoints are ids below ``num_nodes``.
    """
    num_edges = int(edge_u.size)
    rows = np.concatenate([edge_u, edge_v])
    neighbors = np.concatenate([edge_v, edge_u])
    slot_ids = np.concatenate([np.arange(num_edges, dtype=np.int64)] * 2)
    # The (row, neighbour) keys are distinct, so any argsort of them is
    # np.lexsort((neighbors, rows)).
    order = np.argsort(rows * (num_nodes + 1) + neighbors)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr, neighbors[order], slot_ids[order]


def label_object_array(labels: list[Hashable]) -> np.ndarray:
    """``labels`` as an ``object`` array (one slot per label, tuples kept whole)."""
    array = np.empty(len(labels), dtype=object)
    for position, label in enumerate(labels):
        array[position] = label
    return array


def _keeps_node_order(node_remap: np.ndarray | None) -> bool:
    """Return ``True`` if ``node_remap`` keeps the kept nodes' id order.

    ``None`` is the identity.  A remap is monotonic whenever the old and new
    label orders agree on kept labels: always, except when adding a label
    flips the node sort into its ``repr`` fallback.
    """
    if node_remap is None:
        return True
    kept = node_remap[node_remap >= 0]
    return kept.size <= 1 or bool(np.all(np.diff(kept) > 0))


@dataclass(frozen=True)
class CSRSubgraph:
    """The result of :meth:`CSRGraph.edge_subgraph`.

    The sub-snapshot uses its own dense ids; the two origin arrays map them
    back to the parent snapshot, which is how the CSR-native LCTC kernel
    (:mod:`repro.ctc.kernels`) translates communities found on a locally
    decomposed expansion back into parent-graph terms.

    Attributes
    ----------
    csr:
        The extracted snapshot (node labels shared with the parent).
    node_origin:
        ``int64`` array; entry ``i`` is the parent node id of sub node ``i``.
    edge_origin:
        ``int64`` array; entry ``e`` is the parent edge id of sub edge ``e``.
    """

    csr: "CSRGraph"
    node_origin: np.ndarray
    edge_origin: np.ndarray


@dataclass(frozen=True)
class CSRPatch:
    """The result of :meth:`CSRGraph.apply_delta`.

    Besides the patched snapshot itself, it carries the edge-id
    correspondence that incremental truss maintenance
    (:mod:`repro.trusses.incremental`) needs to transplant per-edge
    attributes between the two snapshots: edge ids are dense and assigned in
    row-major order, so any structural change renumbers them globally even
    though only a few adjacency rows were touched.

    Attributes
    ----------
    csr:
        The new snapshot (bit-for-bit identical to freezing the mutated
        graph from scratch).
    edge_origin:
        ``int64`` array of length ``csr.number_of_edges()``; entry ``e`` is
        the old edge id that new edge ``e`` carried over from, or ``-1`` if
        the edge was added by the delta.
    removed_edge_ids:
        ``int64`` array of the old edge ids the delta removed.
    node_remap:
        ``int64`` array mapping old node ids to new node ids (``-1`` for
        removed nodes), or ``None`` when the node set did not change (the
        identity mapping).
    new_of_old:
        ``int64`` array of length ``m`` of the old snapshot: the inverse of
        ``edge_origin``, mapping each old edge id to its new edge id or
        ``-1`` if the delta removed it.
    """

    csr: "CSRGraph"
    edge_origin: np.ndarray
    removed_edge_ids: np.ndarray
    node_remap: np.ndarray | None
    new_of_old: np.ndarray

    def inserted_edge_ids(self) -> np.ndarray:
        """Return the new edge ids the delta inserted, in ascending order."""
        return np.nonzero(self.edge_origin < 0)[0]

    def preserves_edge_order(self) -> bool:
        """Return ``True`` if surviving edges kept their relative id order.

        Edge ids are row-major over node ids, so the surviving edges'
        old-id order and new-id order agree exactly when the node remap is
        monotonic — always, except when adding a label flips the node sort
        into its ``repr`` fallback.  Consumers transplanting whole per-edge
        structures (:func:`repro.graph.csr_triangles.patch_incidence`) use
        this to splice them instead of re-canonicalizing.
        """
        return _keeps_node_order(self.node_remap)


class CSRGraph:
    """An immutable compressed-sparse-row snapshot of an undirected graph.

    Build one with :meth:`from_graph`; the constructor is internal.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; node ``i``'s adjacency occupies
        ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int64`` array of length ``2m`` holding neighbour ids, sorted
        within each row.
    slot_edge:
        ``int64`` array parallel to ``indices`` mapping each adjacency slot
        to the id of its undirected edge.
    edge_u, edge_v:
        ``int64`` arrays of length ``m``; edge ``e`` connects ids
        ``edge_u[e] < edge_v[e]``.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> csr = CSRGraph.from_graph(complete_graph(4))
    >>> csr.number_of_nodes(), csr.number_of_edges()
    (4, 6)
    >>> csr.degree(0)
    3
    """

    __slots__ = (
        "indptr", "indices", "slot_edge", "edge_u", "edge_v", "_labels", "_ids",
        "_label_cache", "_retained",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        slot_edge: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        labels: list[Hashable],
        ids: dict[Hashable, int],
        label_cache: dict[str, object] | None = None,
        retained: object = None,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.slot_edge = slot_edge
        self.edge_u = edge_u
        self.edge_v = edge_v
        self._labels = labels
        self._ids = ids
        #: The per-node-set memo of :meth:`label_memo`, shared like ``_labels``.
        self._label_cache = {} if label_cache is None else label_cache
        #: Keeps whatever backs the arrays alive, such as the shared-memory
        #: bundle a decoded snapshot's arrays view (``None`` for arrays the
        #: snapshot owns).
        self._retained = retained

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: UndirectedGraph) -> "CSRGraph":
        """Freeze ``graph`` into CSR form.

        The node-id remapping sorts labels directly when they are mutually
        comparable and by ``repr`` otherwise, so two structurally identical
        graphs always freeze to the same arrays.
        """
        try:
            labels = sorted(graph.nodes())
        except TypeError:
            labels = sorted(graph.nodes(), key=repr)
        ids = {label: position for position, label in enumerate(labels)}
        num_nodes = len(labels)
        degrees = np.fromiter(map(graph.degree, labels), dtype=np.int64, count=num_nodes)
        rows = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        neighbors = np.fromiter(
            (ids[other] for label in labels for other in graph.neighbors(label)),
            dtype=np.int64,
            count=rows.size,
        )
        # Keep each edge once, as (u, v) with u < v, in row-major order.
        forward = rows < neighbors
        edge_u, edge_v = rows[forward], neighbors[forward]
        order = np.argsort(edge_u * (num_nodes + 1) + edge_v)
        edge_u, edge_v = edge_u[order], edge_v[order]
        indptr, indices, slot_edge = _row_major_slots(num_nodes, edge_u, edge_v)
        return cls(
            indptr=indptr,
            indices=indices,
            slot_edge=slot_edge,
            edge_u=edge_u,
            edge_v=edge_v,
            labels=labels,
            ids=ids,
        )

    def to_graph(self) -> UndirectedGraph:
        """Thaw the snapshot back into a mutable :class:`UndirectedGraph`."""
        return self.thaw(self.label_memo("label_array", label_object_array))

    def thaw(
        self,
        label_of: np.ndarray,
        node_ids: Collection[int] | None = None,
        edge_ids: Collection[int] | None = None,
    ) -> UndirectedGraph:
        """Build the label-space graph of ``node_ids`` joined by ``edge_ids``.

        ``edge_ids=None`` thaws the whole snapshot (:meth:`to_graph`);
        otherwise ``node_ids`` holds every endpoint of ``edge_ids`` (a
        kernel's community).  ``label_of`` is the labels' gather table,
        :func:`label_object_array` memoized per node set (the kernels pass
        :attr:`~repro.ctc.kernels.QueryKernel.label_array`).  Each neighbour
        set is filled in ascending id order, the order ``add_edge`` calls in
        edge-id order give, so a thawed graph iterates like one built edge
        by edge.
        """
        if edge_ids is None:
            nodes = None
            indptr, indices = self.indptr, self.indices
        else:
            nodes = np.sort(np.fromiter(node_ids, dtype=np.int64, count=len(node_ids)))
            edges = np.fromiter(edge_ids, dtype=np.int64, count=len(edge_ids))
            local_id = np.empty(self.number_of_nodes(), dtype=np.int64)  # read at nodes only
            local_id[nodes] = np.arange(nodes.size, dtype=np.int64)
            indptr, local, _ = _row_major_slots(
                nodes.size, local_id[self.edge_u[edges]], local_id[self.edge_v[edges]]
            )
            indices = nodes[local]
        row_labels = self._labels if nodes is None else label_of[nodes].tolist()
        neighbor_labels = label_of[indices].tolist()
        bounds = indptr.tolist()
        adjacency = {
            label: set(neighbor_labels[start:stop])
            for label, start, stop in zip(row_labels, bounds, bounds[1:])
        }
        return UndirectedGraph._from_trusted_parts(adjacency, indices.size // 2)

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> CSRPatch:
        """Return a new snapshot with ``delta`` applied, patching touched rows only.

        The result is bit-for-bit identical to ``CSRGraph.from_graph`` of
        the mutated graph (same label order, same arrays), but no edge is
        renumbered by sorting: edge ids come from merging the sorted keys
        of the inserted edges into the surviving edges' keys, which are
        already in row-major order.  When the node set is unchanged,
        untouched rows are bulk-copied, their slots' edge ids mapped
        through the old-to-new edge map, and only edited rows look theirs
        up in the merged keys; when it changed, the surviving slots are
        remapped in one pass (and re-sorted only if the remap flips the ids
        into ``repr`` order) and the inserted edges' slots merged in the
        same way.  An edge-only delta shares the node labels, and the
        structures derived from them (:meth:`label_memo`), with this
        snapshot.

        ``delta`` must be normalized against this snapshot (see
        :mod:`repro.graph.delta`); violations raise
        :class:`~repro.exceptions.GraphError` or the usual not-found errors.
        """
        num_old_nodes = self.number_of_nodes()
        num_old_edges = self.number_of_edges()
        if delta.is_empty():
            identity = np.arange(num_old_edges, dtype=np.int64)
            return CSRPatch(
                csr=self,
                edge_origin=identity,
                removed_edge_ids=np.zeros(0, dtype=np.int64),
                node_remap=None,
                new_of_old=identity,
            )

        removed_nodes = delta.removed_nodes
        added_nodes = delta.added_nodes
        for label in removed_nodes:
            if label not in self._ids:
                raise NodeNotFoundError(label)
        for label in added_nodes:
            if label in self._ids:
                raise GraphError(f"delta adds node {label!r} which is already present")

        # --- label ordering and node remap -----------------------------
        if removed_nodes or added_nodes:
            universe = [label for label in self._labels if label not in removed_nodes]
            universe.extend(added_nodes)
            try:
                new_labels = sorted(universe)
            except TypeError:
                new_labels = sorted(universe, key=repr)
            new_ids = {label: position for position, label in enumerate(new_labels)}
            node_remap = np.full(num_old_nodes, -1, dtype=np.int64)
            for position, label in enumerate(self._labels):
                new_position = new_ids.get(label)
                if new_position is not None:
                    node_remap[position] = new_position
            label_cache = None
        else:
            new_labels = self._labels  # shared; snapshots never mutate it
            new_ids = self._ids
            node_remap = None
            label_cache = self._label_cache
        num_new_nodes = len(new_labels)
        stride = num_new_nodes + 1  # edge key: low * stride + high, in new ids

        # --- resolve edge changes into id space ------------------------
        removed_eids: list[int] = []
        removed_per_node: dict[int, int] = {}
        # (new_id -> neighbours to drop / insert): the rows _fill_rows_fast edits.
        drop_neighbors: dict[int, set[int]] = {}
        insert_neighbors: dict[int, list[int]] = {}
        inserted_keys: list[int] = []
        degree_delta: dict[int, int] = {}

        for a, b in delta.removed_edges:
            old_u, old_v = self.node_id(a), self.node_id(b)
            removed_eids.append(self.edge_id(old_u, old_v))
            for endpoint in (old_u, old_v):
                removed_per_node[endpoint] = removed_per_node.get(endpoint, 0) + 1
            if node_remap is None:
                new_u, new_v = old_u, old_v
            else:
                new_u, new_v = int(node_remap[old_u]), int(node_remap[old_v])
            if new_u >= 0 and new_v >= 0:
                drop_neighbors.setdefault(new_u, set()).add(new_v)
                drop_neighbors.setdefault(new_v, set()).add(new_u)
            for endpoint in (new_u, new_v):
                if endpoint >= 0:
                    degree_delta[endpoint] = degree_delta.get(endpoint, 0) - 1

        # Every edge incident to a removed node must be listed explicitly.
        for label in removed_nodes:
            old_id = self._ids[label]
            if removed_per_node.get(old_id, 0) != self.degree(old_id):
                raise GraphError(
                    f"delta removes node {label!r} but lists only "
                    f"{removed_per_node.get(old_id, 0)} of its {self.degree(old_id)} "
                    "incident edges"
                )

        for a, b in delta.added_edges:
            if a in removed_nodes or b in removed_nodes:
                raise GraphError(f"delta adds edge ({a!r}, {b!r}) incident to a removed node")
            try:
                new_u, new_v = new_ids[a], new_ids[b]
            except KeyError as missing:
                raise NodeNotFoundError(missing.args[0]) from None
            if a in self._ids and b in self._ids and self.has_edge(self._ids[a], self._ids[b]):
                raise GraphError(f"delta adds edge ({a!r}, {b!r}) which is already present")
            insert_neighbors.setdefault(new_u, []).append(new_v)
            insert_neighbors.setdefault(new_v, []).append(new_u)
            inserted_keys.append(min(new_u, new_v) * stride + max(new_u, new_v))
            for endpoint in (new_u, new_v):
                degree_delta[endpoint] = degree_delta.get(endpoint, 0) + 1

        # --- new degrees and indptr ------------------------------------
        old_degrees = np.diff(self.indptr)
        if node_remap is None:
            new_degrees = old_degrees.copy()
        else:
            new_degrees = np.zeros(num_new_nodes, dtype=np.int64)
            kept = node_remap >= 0
            new_degrees[node_remap[kept]] = old_degrees[kept]
        for node, change in degree_delta.items():
            new_degrees[node] += change
        new_indptr = np.zeros(num_new_nodes + 1, dtype=np.int64)
        np.cumsum(new_degrees, out=new_indptr[1:])
        total_slots = int(new_indptr[-1])

        # --- edge ids (row-major (u, v), u < v): merge insertions in ----
        removed_ids = np.asarray(sorted(removed_eids), dtype=np.int64)
        surviving = np.delete(np.arange(num_old_edges, dtype=np.int64), removed_ids)
        surviving_u, surviving_v = self.edge_u[surviving], self.edge_v[surviving]
        monotonic = _keeps_node_order(node_remap)
        if node_remap is not None:
            surviving_u, surviving_v = node_remap[surviving_u], node_remap[surviving_v]
            if surviving.size and min(surviving_u.min(), surviving_v.min()) < 0:
                raise GraphError(
                    "delta removed an edge implicitly (not listed in removed_edges)"
                )
        if monotonic:
            surviving_keys = surviving_u * stride + surviving_v  # already ascending
        else:
            surviving_keys = (
                np.minimum(surviving_u, surviving_v) * stride
                + np.maximum(surviving_u, surviving_v)
            )
            order = np.argsort(surviving_keys)
            surviving_keys, surviving = surviving_keys[order], surviving[order]
        inserted = np.sort(np.asarray(inserted_keys, dtype=np.int64))
        positions = np.searchsorted(surviving_keys, inserted)
        edge_keys = np.insert(surviving_keys, positions, inserted)
        edge_origin = np.insert(surviving, positions, -1)
        if (
            total_slots % 2
            or total_slots != 2 * edge_keys.size
            or np.any(edge_keys[1:] <= edge_keys[:-1])
        ):
            raise GraphError("delta produced an asymmetric adjacency structure")

        # --- adjacency rows and their slot edge ids --------------------
        # Old edge id -> new edge id, and each old slot's new edge id; -1
        # where the edge was removed.
        new_of_old = np.full(num_old_edges, -1, dtype=np.int64)
        survived = edge_origin >= 0
        new_of_old[edge_origin[survived]] = np.flatnonzero(survived)
        carried = new_of_old[self.slot_edge]
        if node_remap is None:
            new_indices, new_slot_edge = self._fill_rows_fast(
                new_indptr, carried, edge_keys, drop_neighbors, insert_neighbors
            )
        else:
            new_indices, new_slot_edge = self._merge_remapped_slots(
                node_remap, monotonic, stride, carried, edge_keys, edge_origin
            )

        new_edge_u, new_edge_v = np.divmod(edge_keys, stride)
        patched = CSRGraph(
            indptr=new_indptr,
            indices=new_indices,
            slot_edge=new_slot_edge,
            edge_u=new_edge_u,
            edge_v=new_edge_v,
            labels=new_labels,
            ids=new_ids,
            label_cache=label_cache,
        )
        return CSRPatch(
            csr=patched,
            edge_origin=edge_origin,
            removed_edge_ids=removed_ids,
            node_remap=node_remap,
            new_of_old=new_of_old,
        )

    def _edited_row(
        self,
        row: np.ndarray,
        dropped: set[int] | None,
        inserted: list[int] | None,
    ) -> np.ndarray:
        """Return ``row`` (sorted ids) with ``dropped`` removed and ``inserted`` merged."""
        if dropped:
            row = row[~np.isin(row, np.fromiter(dropped, dtype=np.int64, count=len(dropped)))]
        if inserted:
            row = np.concatenate([row, np.asarray(inserted, dtype=np.int64)])
            row.sort(kind="stable")
        return row

    def _fill_rows_fast(
        self,
        new_indptr: np.ndarray,
        carried: np.ndarray,
        edge_keys: np.ndarray,
        drop_neighbors: dict[int, set[int]],
        insert_neighbors: dict[int, list[int]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, slot_edge)`` when the node set is unchanged.

        Untouched rows are bulk-copied, their slots' edge ids taken from
        ``carried``; only edited rows look theirs up in ``edge_keys``.
        """
        stride = new_indptr.size  # the edge-key stride, num_nodes + 1
        new_indices = np.empty(int(new_indptr[-1]), dtype=np.int64)
        new_slot_edge = np.empty_like(new_indices)
        touched = sorted(set(drop_neighbors) | set(insert_neighbors))
        previous = 0
        for node in touched:
            # Rows [previous, node) are untouched: identical content, shifted offset.
            old_start, old_stop = int(self.indptr[previous]), int(self.indptr[node])
            new_start = int(new_indptr[previous])
            new_stop = new_start + (old_stop - old_start)
            new_indices[new_start:new_stop] = self.indices[old_start:old_stop]
            new_slot_edge[new_start:new_stop] = carried[old_start:old_stop]
            row = self._edited_row(
                self.indices[self.indptr[node]:self.indptr[node + 1]],
                drop_neighbors.get(node),
                insert_neighbors.get(node),
            )
            # The row is sorted, so its edge keys ascend: one searchsorted.
            keys = np.minimum(row, node) * stride + np.maximum(row, node)
            edge_ids = np.searchsorted(edge_keys, keys)
            if edge_ids.size and (
                edge_ids[-1] >= edge_keys.size
                or not np.array_equal(edge_keys[edge_ids], keys)
            ):
                raise GraphError("delta produced an asymmetric adjacency structure")
            new_indices[new_indptr[node]:new_indptr[node + 1]] = row
            new_slot_edge[new_indptr[node]:new_indptr[node + 1]] = edge_ids
            previous = node + 1
        old_start = int(self.indptr[previous])
        new_start = int(new_indptr[previous])
        new_indices[new_start:] = self.indices[old_start:]
        new_slot_edge[new_start:] = carried[old_start:]
        if new_slot_edge.size and new_slot_edge.min() < 0:
            raise GraphError("delta removed an edge implicitly (not listed in removed_edges)")
        return new_indices, new_slot_edge

    def _merge_remapped_slots(
        self,
        node_remap: np.ndarray,
        monotonic: bool,
        stride: int,
        carried: np.ndarray,
        edge_keys: np.ndarray,
        edge_origin: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, slot_edge)`` when the node set changed.

        The slots of surviving edges, remapped to new ids, keep their
        row-major ``(row, neighbour)`` order under a ``monotonic`` remap
        (see :func:`_keeps_node_order`) and are re-sorted otherwise; the
        two slots of every inserted edge are merged in by the same key.
        """
        alive = carried >= 0
        rows = np.repeat(node_remap, np.diff(self.indptr))[alive]
        neighbors = node_remap[self.indices[alive]]
        slot_edge = carried[alive]
        keys = rows * stride + neighbors
        if not monotonic:
            order = np.argsort(keys)
            keys, neighbors, slot_edge = keys[order], neighbors[order], slot_edge[order]
        inserted_ids = np.flatnonzero(edge_origin < 0)
        low, high = np.divmod(edge_keys[inserted_ids], stride)
        inserted_keys = np.concatenate([low * stride + high, high * stride + low])
        order = np.argsort(inserted_keys)
        positions = np.searchsorted(keys, inserted_keys[order])
        return (
            np.insert(neighbors, positions, np.concatenate([high, low])[order]),
            np.insert(slot_edge, positions, np.concatenate([inserted_ids] * 2)[order]),
        )

    # ------------------------------------------------------------------
    # subgraph extraction
    # ------------------------------------------------------------------
    def edge_subgraph(
        self,
        edge_ids: np.ndarray | list[int],
        include_node_ids: np.ndarray | list[int] = (),
    ) -> CSRSubgraph:
        """Return the sub-snapshot induced by ``edge_ids`` (plus isolated nodes).

        The node set is every endpoint of the selected edges, union
        ``include_node_ids`` (which lets callers keep nodes that lost all
        their edges — e.g. a single-terminal Steiner tree).  Duplicate ids
        are tolerated.  The whole extraction is vectorized: because the
        node remap is monotonic and parent edge ids are row-major, sub edge
        ``e`` simply corresponds to the ``e``-th smallest selected parent
        edge id, and every adjacency row stays sorted after remapping.

        Raises
        ------
        GraphError
            If an edge or node id is out of range.
        """
        edges = np.unique(np.asarray(edge_ids, dtype=np.int64))
        if edges.size and (edges[0] < 0 or edges[-1] >= self.number_of_edges()):
            raise GraphError("edge id out of range in edge_subgraph")
        extra = np.unique(np.asarray(include_node_ids, dtype=np.int64))
        if extra.size and (extra[0] < 0 or extra[-1] >= self.number_of_nodes()):
            raise GraphError("node id out of range in edge_subgraph")

        old_u = self.edge_u[edges]
        old_v = self.edge_v[edges]
        node_origin = np.unique(np.concatenate([old_u, old_v, extra]))
        num_nodes = int(node_origin.size)
        remap = np.full(self.number_of_nodes(), -1, dtype=np.int64)
        remap[node_origin] = np.arange(num_nodes, dtype=np.int64)
        new_u = remap[old_u]
        new_v = remap[old_v]

        indptr, indices, slot_edge = _row_major_slots(num_nodes, new_u, new_v)
        labels = [self._labels[old_id] for old_id in node_origin.tolist()]
        ids = {label: position for position, label in enumerate(labels)}
        sub = CSRGraph(
            indptr=indptr,
            indices=indices,
            slot_edge=slot_edge,
            edge_u=new_u,
            edge_v=new_v,
            labels=labels,
            ids=ids,
        )
        return CSRSubgraph(csr=sub, node_origin=node_origin, edge_origin=edges)

    # ------------------------------------------------------------------
    # counts
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        """Return the number of nodes."""
        return len(self._labels)

    def number_of_edges(self) -> int:
        """Return the number of undirected edges."""
        return len(self.edge_u)

    def __len__(self) -> int:
        return len(self._labels)

    # ------------------------------------------------------------------
    # label <-> id mapping
    # ------------------------------------------------------------------
    def node_id(self, label: Hashable) -> int:
        """Return the dense integer id of ``label``.

        Raises
        ------
        NodeNotFoundError
            If ``label`` is not in the snapshot.
        """
        try:
            return self._ids[label]
        except KeyError:
            raise NodeNotFoundError(label) from None

    def node_label(self, node_id: int) -> Hashable:
        """Return the original label of integer id ``node_id``."""
        return self._labels[node_id]

    def labels(self) -> list[Hashable]:
        """Return the labels in id order (a fresh list)."""
        return list(self._labels)

    def label_memo(self, name: str, build: Callable[[list[Hashable]], object]) -> object:
        """Return the structure ``name`` derived from the node labels alone.

        On a miss, ``build(labels)`` computes it from the labels in id
        order.  The memo belongs to the node set: every snapshot an
        edge-only :meth:`apply_delta` derives from this one shares it.
        Concurrent first uses may each build; all return the value stored
        first.  Callers must not mutate the result.
        """
        value = self._label_cache.get(name)
        if value is None:
            value = self._label_cache.setdefault(name, build(self._labels))
        return value

    def has_node(self, label: Hashable) -> bool:
        """Return ``True`` if ``label`` is a node of the snapshot."""
        return label in self._ids

    def __contains__(self, label: Hashable) -> bool:
        return label in self._ids

    # ------------------------------------------------------------------
    # adjacency (all by integer id; O(1) degree, O(log d) membership)
    # ------------------------------------------------------------------
    def degree(self, node_id: int) -> int:
        """Return the degree of ``node_id`` in O(1)."""
        return int(self.indptr[node_id + 1] - self.indptr[node_id])

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        """Return the sorted neighbour-id array of ``node_id`` (a view, not a copy)."""
        return self.indices[self.indptr[node_id]:self.indptr[node_id + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if ids ``u`` and ``v`` are adjacent (binary search)."""
        row = self.neighbor_ids(u)
        slot = int(np.searchsorted(row, v))
        return slot < len(row) and int(row[slot]) == v

    def edge_id(self, u: int, v: int) -> int:
        """Return the edge id of the undirected edge between ids ``u`` and ``v``.

        Raises
        ------
        EdgeNotFoundError
            If the edge does not exist.
        """
        row = self.neighbor_ids(u)
        slot = int(np.searchsorted(row, v))
        if slot >= len(row) or int(row[slot]) != v:
            raise EdgeNotFoundError(self._labels[u], self._labels[v])
        return int(self.slot_edge[int(self.indptr[u]) + slot])

    def common_neighbor_ids(self, u: int, v: int) -> np.ndarray:
        """Return the sorted common-neighbour ids of ``u`` and ``v`` (merge-based)."""
        return np.intersect1d(self.neighbor_ids(u), self.neighbor_ids(v), assume_unique=True)

    def support(self, u: int, v: int) -> int:
        """Return the support (triangle count) of the edge between ids ``u`` and ``v``."""
        return int(self.common_neighbor_ids(u, v).size)

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def edge_endpoint_ids(self, e: int) -> tuple[int, int]:
        """Return the endpoint ids ``(u, v)`` with ``u < v`` of edge ``e``."""
        return int(self.edge_u[e]), int(self.edge_v[e])

    def edge_key_of(self, e: int) -> EdgeKey:
        """Return the canonical label-space :func:`edge_key` of edge ``e``.

        This is the bridge between the array world (dense edge ids) and the
        dict world (tuple-keyed per-edge attributes): converting a per-edge
        array ``values`` into ``{csr.edge_key_of(e): values[e]}`` yields a
        dict interchangeable with the dict-path outputs.
        """
        return edge_key(self._labels[int(self.edge_u[e])], self._labels[int(self.edge_v[e])])

    def edge_keys(self) -> list[EdgeKey]:
        """Return the canonical edge key of every edge, indexed by edge id."""
        return [self.edge_key_of(e) for e in range(self.number_of_edges())]

    def edges(self) -> Iterator[EdgeKey]:
        """Iterate over canonical label-space edge keys in edge-id order."""
        for e in range(self.number_of_edges()):
            yield self.edge_key_of(e)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )
