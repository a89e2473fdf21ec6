"""Algorithm 4 (``BulkDelete`` / BD): bulk peeling for fast termination.

Instead of removing the single farthest vertex per iteration, BulkDelete
removes *every* vertex whose query distance is at least ``d - 1``, where
``d`` is the smallest graph query distance seen so far.  Lemma 6 shows each
iteration then removes at least ``k`` vertices, so the number of iterations
drops from O(min(n', m'/k)) to O(n'/k), at the cost of a slightly weaker
``(2 + eps)``-approximation (Theorem 6, ``eps = 2 / diam(H*)``).

A stricter variant (``threshold_offset=0``) deletes only vertices with
distance >= ``d``; it keeps the 2-approximation and is the shrinking step
LCTC applies to its locally-explored truss (Section 5.2, "Reduce the
diameter of G0").

Paper cross-references
----------------------
* Algorithm 4 — the bulk-deletion loop (:meth:`BulkDeleteCTC._select_victims`
  plugged into the shared peel engine of :class:`~repro.ctc.basic.BasicCTC`).
* Lemma 6 / Theorem 6 (Section 4.4) — iteration bound O(n'/k) and the
  ``(2 + eps)``-approximation guarantee.
* Section 5.2 — the conservative ``threshold_offset=0`` variant used inside
  LCTC.
* Figures 5-10 — the experiments where BD's speed/quality trade-off against
  Basic is measured (reproduced in ``benchmarks/bench_fig5_*`` ..
  ``bench_fig10_*``).

Vertex deletions are applied through
:class:`~repro.trusses.maintenance.KTrussMaintainer` (Algorithm 3), whose
per-edge support table is keyed by :func:`repro.graph.keys.edge_key` (see
that module for the key contract).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.ctc.basic import BasicCTC
from repro.ctc.kernels import bulk_delete_search as _kernel_bulk_delete_search
from repro.ctc.query_distance import QueryDistanceSnapshot
from repro.trusses.index import TrussIndex

__all__ = ["BulkDeleteCTC"]


class BulkDeleteCTC(BasicCTC):
    """Bulk-deletion CTC search (the paper's ``BD``).

    Parameters
    ----------
    index:
        Truss index over the graph.
    threshold_offset:
        ``1`` (default) reproduces Algorithm 4: peel vertices with
        ``dist(v, Q) >= d - 1``.  ``0`` gives the conservative variant used
        inside LCTC: peel only vertices with ``dist(v, Q) >= d``.
    batch_limit:
        Optional cap on how many vertices are removed per iteration.  The
        paper's LCTC implementation "carefully removes only a subset of nodes
        in L' which have the largest total of distances from all query
        nodes"; a finite ``batch_limit`` reproduces that behaviour (vertices
        are ranked by total query distance before truncation).
    """

    method_name = "bulk-delete"

    def __init__(
        self,
        index: TrussIndex,
        threshold_offset: int = 1,
        batch_limit: int | None = None,
        max_iterations: int | None = None,
        time_budget_seconds: float | None = None,
    ) -> None:
        super().__init__(
            index, max_iterations=max_iterations, time_budget_seconds=time_budget_seconds
        )
        if threshold_offset not in (0, 1):
            raise ValueError("threshold_offset must be 0 or 1")
        self._threshold_offset = threshold_offset
        self._batch_limit = batch_limit
        self._best_distance_seen = float("inf")

    # ------------------------------------------------------------------
    def _kernel_search(self, query: Sequence[Hashable]):
        """BulkDelete's CSR-native kernel (selected by the base-class seam)."""
        return _kernel_bulk_delete_search(
            self._kernel,
            query,
            threshold_offset=self._threshold_offset,
            batch_limit=self._batch_limit,
            max_iterations=self._max_iterations,
            time_budget_seconds=self._time_budget,
        )

    def search(self, query: Sequence[Hashable]):
        # The running minimum distance d is per-query state; reset it so the
        # searcher object can be reused across queries.
        self._best_distance_seen = float("inf")
        return super().search(query)

    # ------------------------------------------------------------------
    def _select_victims(self, snapshot: QueryDistanceSnapshot) -> set[Hashable]:
        current = snapshot.graph_query_distance
        if current <= 0:
            return set()
        # Algorithm 4 lines 6-8: d is the smallest graph query distance seen
        # so far; the deletion threshold is d - 1 (or d for the strict variant).
        if current < self._best_distance_seen:
            self._best_distance_seen = current
        threshold = self._best_distance_seen - self._threshold_offset
        if threshold <= 0:
            return set()
        victims = snapshot.vertices_at_least(threshold)
        if not victims:
            return set()
        if self._batch_limit is not None and len(victims) > self._batch_limit:
            # Keep the vertices farthest in *total* distance from the query
            # (the tie-break the paper's LCTC implementation describes).
            ranked = sorted(
                victims,
                key=lambda node: (snapshot.distances[node], repr(node)),
                reverse=True,
            )
            victims = set(ranked[: self._batch_limit])
        return victims
