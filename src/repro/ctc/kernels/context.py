""":class:`QueryKernel`: the shared execution context of the CSR-native kernels.

Every kernel in this package operates on one frozen ``(CSRGraph, trussness
ndarray)`` pair — the exact artifacts :class:`~repro.engine.EngineSnapshot`
already carries.  ``QueryKernel`` bundles that pair with the derived
structures the kernels need, all built **lazily** and cached, so a snapshot
that only ever serves, say, FindG0 queries never pays for the structures the
Steiner kernel wants:

* ``sorted adjacency`` — each row re-ordered by *decreasing edge trussness*
  (ties by ``repr`` of the neighbour label), the array twin of
  :class:`~repro.trusses.index.TrussIndex`'s per-node lists.  The parallel
  ``sorted_neg_trussness`` list holds negated trussness values, so the
  qualifying prefix for "incident edges with trussness >= k" is one
  ``bisect_right`` on a flat list;
* ``repr ranks`` — the position of every node in the ``repr``-sorted label
  order.  The dict-path algorithms break ties with ``repr(node)`` string
  comparisons; the kernels compare the precomputed integer ranks instead and
  make identical choices.  Like the ``label_array`` gather table, they
  depend on the node labels alone, so they are built once per node set and
  shared by every snapshot over it (:meth:`CSRGraph.label_memo`).

The tie-break mirroring is what buys the package its contract: for the same
query, a kernel and its dict-path twin return **identical** communities
(``tests/ctc/test_kernel_equivalence.py``), so the engine can route through
whichever is faster without observable differences.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Sequence

import numpy as np

from repro.exceptions import QueryError
from repro.graph.csr import CSRGraph, label_object_array
from repro.graph.csr_triangles import TriangleIncidence

__all__ = ["QueryKernel", "validate_query_ids"]


def validate_query_ids(
    csr: CSRGraph, query: Sequence[Hashable]
) -> tuple[list[Hashable], list[int]]:
    """Validate ``query`` against the snapshot and map it to dense node ids.

    Mirrors :func:`repro.trusses.extraction.validate_query`: deduplicates
    while preserving order, then checks non-emptiness and membership.

    Raises
    ------
    QueryError
        If the query is empty or contains nodes missing from the snapshot.
    """
    normalized = list(dict.fromkeys(query))
    if not normalized:
        raise QueryError("the query node set must not be empty")
    missing = [node for node in normalized if not csr.has_node(node)]
    if missing:
        raise QueryError(f"query nodes not present in the graph: {missing!r}")
    return normalized, [csr.node_id(node) for node in normalized]


def _repr_ranks(labels: list[Hashable]) -> list[int]:
    """Rank of every node id in the ``repr``-sorted label order."""
    order = sorted(range(len(labels)), key=lambda node: repr(labels[node]))
    rank = [0] * len(labels)
    for position, node in enumerate(order):
        rank[node] = position
    return rank


class QueryKernel:
    """Lazily derived, cached query-execution structures over one snapshot.

    Parameters
    ----------
    csr:
        The frozen snapshot to execute against.
    trussness:
        Per-edge-id trussness (``int64``, length ``csr.number_of_edges()``),
        as produced by
        :func:`~repro.trusses.csr_decomposition.csr_truss_decomposition`.
    incidence:
        Optional :class:`~repro.graph.csr_triangles.TriangleIncidence` of
        the snapshot (shared by the engine when its full rebuild enumerated
        one).  The LCTC kernel re-decomposes its local expansions on
        restrictions of it instead of re-enumerating triangles; ``None``
        falls back to per-subgraph decomposition with identical results.
    on_enumerate:
        Optional callback receiving the freshly built
        :class:`TriangleIncidence` whenever :meth:`ensure_incidence` had to
        enumerate from scratch.  The engine passes a callback here that
        holds its snapshot weakly, so lazy kernel-side enumerations land
        back on the snapshot (making the artifact patchable forward) and are
        counted in :attr:`~repro.engine.EngineStats.incidence_enumerations`
        without the kernel keeping the snapshot alive.

    A ``QueryKernel`` is immutable-by-contract like the snapshot it wraps;
    :class:`~repro.engine.EngineSnapshot` memoizes one per snapshot so the
    derived structures amortize across every query on that graph version.
    The label structures (:attr:`repr_rank`, :attr:`repr_rank_array`,
    :attr:`label_array`) amortize further: they are memoized on the node
    set (:meth:`CSRGraph.label_memo`), so the kernels of every snapshot an
    edge-only delta derives share one copy.

    Thread-safety: the serving layer shares one kernel between reader
    threads.  The memos that are derived through multiple dependent fields
    or fire observer callbacks (:meth:`ensure_incidence`,
    :attr:`sorted_arrays`) build under an internal lock; the remaining
    lazies are single-assignment value caches of deterministic conversions,
    where the worst concurrent outcome is two threads computing the same
    value once each.
    """

    __slots__ = (
        "csr",
        "trussness",
        "incidence",
        "_tau_list",
        "_sorted",
        "_sorted_np",
        "_repr_rank",
        "_repr_rank_np",
        "_vertex_tau",
        "_levels",
        "_label_array",
        "_edge_u_list",
        "_edge_v_list",
        "_on_enumerate",
        "_lock",
    )

    def __init__(
        self,
        csr: CSRGraph,
        trussness: np.ndarray,
        incidence: TriangleIncidence | None = None,
        *,
        on_enumerate=None,
    ) -> None:
        self.csr = csr
        self.trussness = np.asarray(trussness, dtype=np.int64)
        self.incidence = incidence
        self._on_enumerate = on_enumerate
        if self.trussness.shape != (csr.number_of_edges(),):
            raise ValueError(
                f"trussness must have one entry per edge "
                f"({csr.number_of_edges()}), got shape {self.trussness.shape}"
            )
        self._tau_list: list[int] | None = None
        self._sorted: tuple[list[int], list[int], list[int], list[int]] | None = None
        self._sorted_np: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._repr_rank: list[int] | None = None
        self._repr_rank_np: np.ndarray | None = None
        self._vertex_tau: list[int] | None = None
        self._levels: list[int] | None = None
        self._label_array: np.ndarray | None = None
        self._edge_u_list: list[int] | None = None
        self._edge_v_list: list[int] | None = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # lazy derived structures
    # ------------------------------------------------------------------
    @property
    def tau(self) -> list[int]:
        """Per-edge trussness as a plain list (fast scalar access)."""
        if self._tau_list is None:
            self._tau_list = self.trussness.tolist()
        return self._tau_list

    @property
    def edge_u(self) -> list[int]:
        """Lower endpoint id of every edge, as a plain list."""
        if self._edge_u_list is None:
            self._edge_u_list = self.csr.edge_u.tolist()
        return self._edge_u_list

    @property
    def edge_v(self) -> list[int]:
        """Upper endpoint id of every edge, as a plain list."""
        if self._edge_v_list is None:
            self._edge_v_list = self.csr.edge_v.tolist()
        return self._edge_v_list

    @property
    def repr_rank(self) -> list[int]:
        """Rank of every node id in the ``repr``-sorted label order.

        ``repr_rank[u] < repr_rank[v]`` iff ``repr(label(u)) <
        repr(label(v))`` (ties between equal ``repr`` strings keep id
        order), which lets the kernels reproduce the dict paths'
        ``repr``-based tie-breaks with integer comparisons.
        """
        if self._repr_rank is None:
            self._repr_rank = self.csr.label_memo("repr_rank", _repr_ranks)
        return self._repr_rank

    @property
    def repr_rank_array(self) -> np.ndarray:
        """:attr:`repr_rank` as an ``int64`` array (for vectorized tie-breaks)."""
        if self._repr_rank_np is None:
            self._repr_rank_np = self.csr.label_memo(
                "repr_rank_array", lambda _: np.asarray(self.repr_rank, dtype=np.int64)
            )
        return self._repr_rank_np

    @property
    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(bounds, neighbors, edges, neg_trussness)``: trussness-sorted rows.

        The ``numpy`` form of :attr:`sorted_adjacency` (same ordering, same
        slots); one argsort derives both.
        """
        if self._sorted_np is None:
            with self._lock:
                if self._sorted_np is None:
                    csr = self.csr
                    num_nodes = csr.number_of_nodes()
                    row_of_slot = np.repeat(
                        np.arange(num_nodes, dtype=np.int64), np.diff(csr.indptr)
                    )
                    neg_tau = -self.trussness[csr.slot_edge]
                    rank = self.repr_rank_array[csr.indices]
                    # One composite-key argsort instead of a three-key lexsort
                    # (the keys are small non-negative ints, so the packed
                    # value is exact and ~10x faster to sort); equivalent to
                    # np.lexsort((rank, neg_tau, row_of_slot)).
                    tau_span = self.max_trussness + 1
                    if num_nodes * tau_span < 2**62 // max(num_nodes, 1):
                        composite = (
                            row_of_slot * tau_span + (neg_tau + self.max_trussness)
                        ) * max(num_nodes, 1) + rank
                        order = np.argsort(composite, kind="stable")
                    else:  # packed key would overflow int64 (beyond ~1e9 slots)
                        order = np.lexsort((rank, neg_tau, row_of_slot))
                    self._sorted_np = (
                        csr.indptr,
                        csr.indices[order],
                        csr.slot_edge[order],
                        neg_tau[order],
                    )
        return self._sorted_np

    @property
    def sorted_adjacency(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """``(bounds, neighbors, edges, neg_trussness)``: trussness-sorted rows.

        Each row is ordered by decreasing edge trussness, ties by the
        neighbour's ``repr`` rank — exactly the order
        :meth:`TrussIndex.incident_edges_at_least` yields.  The qualifying
        prefix for trussness >= k ends at
        ``bisect_right(neg_trussness, -k, start, stop)``.  Plain-list form
        of :attr:`sorted_arrays` for the scalar hot loops (the Steiner
        witness search and the LCTC expansion); both derive from one
        argsort.
        """
        if self._sorted is None:
            bounds, neighbors, edges, neg_tau = self.sorted_arrays
            self._sorted = (
                bounds.tolist(),
                neighbors.tolist(),
                edges.tolist(),
                neg_tau.tolist(),
            )
        return self._sorted

    def ensure_incidence(self) -> TriangleIncidence:
        """Return the snapshot's triangle incidence, enumerating it if absent.

        Snapshots built by a vector-strategy full rebuild share the
        incidence the rebuild enumerated; a bare kernel (or a bucket-path
        snapshot) enumerates it here once, on first demand, and caches it —
        the array peel engine needs it to restrict supports to working
        subgraphs, and one enumeration amortizes over every query on the
        snapshot.
        """
        if self.incidence is None:
            with self._lock:
                if self.incidence is None:
                    from repro.graph.csr_triangles import csr_triangle_incidence

                    self.incidence = csr_triangle_incidence(self.csr)
                    if self._on_enumerate is not None:
                        self._on_enumerate(self.incidence)
        return self.incidence

    @property
    def vertex_trussness(self) -> list[int]:
        """Trussness of every node: max over incident edges, 1 if isolated."""
        if self._vertex_tau is None:
            csr = self.csr
            num_nodes = csr.number_of_nodes()
            result = np.ones(num_nodes, dtype=np.int64)
            degrees = np.diff(csr.indptr)
            nonempty = degrees > 0
            if csr.slot_edge.size:
                # Segmented max over each non-empty row; a reduceat segment
                # between consecutive non-empty starts spans exactly that
                # row's slots (intervening empty rows contribute none).
                slot_tau = self.trussness[csr.slot_edge]
                starts = csr.indptr[:-1][nonempty]
                result[nonempty] = np.maximum.reduceat(slot_tau, starts)
            self._vertex_tau = result.tolist()
        return self._vertex_tau

    @property
    def max_trussness(self) -> int:
        """``tau_bar(empty set)``: the maximum edge trussness (2 if no edges)."""
        if self.trussness.size == 0:
            return 2
        return int(self.trussness.max())

    @property
    def levels(self) -> list[int]:
        """Distinct trussness levels present, in decreasing order."""
        if self._levels is None:
            self._levels = np.flatnonzero(np.bincount(self.trussness))[::-1].tolist()
        return self._levels

    @property
    def label_array(self) -> np.ndarray:
        """Node labels as an ``object`` array indexed by node id.

        One vectorized gather maps whole id arrays back to label space —
        how the search entry points materialize communities without a
        Python ``node_label`` call per member.
        """
        if self._label_array is None:
            self._label_array = self.csr.label_memo("label_array", label_object_array)
        return self._label_array

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.csr.number_of_nodes()}, "
            f"edges={self.csr.number_of_edges()})"
        )
