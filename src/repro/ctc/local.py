"""Algorithm 5 (``LCTC``): local exploration around a truss-aware Steiner tree.

The global algorithms (Basic, BD) touch the whole maximal connected k-truss
``G0``, which on large networks is most of the graph.  LCTC instead:

1. connects the query nodes with a Steiner tree ``T`` under the truss
   distance (Section 5.2, Definition 7), so the seed avoids low-trussness
   bridges;
2. expands ``T`` outward in BFS order through edges whose trussness is at
   least ``k_t = min_{e in T} tau(e)``, stopping once the expanded node set
   reaches the size budget ``eta``;
3. truss-decomposes the (small) expanded graph and extracts the maximal
   connected k-truss containing ``Q`` with the largest ``k <= k_t``;
4. shrinks it with the conservative BulkDelete variant (peel vertices at
   query distance >= d, i.e. ``threshold_offset=0``), which preserves the
   2-approximation on the *local* graph.

LCTC is a heuristic overall: its answer may have lower trussness than the
global optimum when the expansion budget cuts the community short, which is
exactly the trade-off Figure 13(b) of the paper quantifies.

Paper cross-references
----------------------
* Algorithm 5 — the four-step pipeline implemented by
  :meth:`LocalCTC.search`.
* Definition 7 / Section 5.1 — the truss distance minimised by the Steiner
  tree seed (:mod:`repro.ctc.steiner`), with gamma weighting the trussness
  penalty.
* Section 5.2 — local expansion under the budget ``eta`` and the
  conservative BulkDelete shrink (``threshold_offset=0``).
* Figures 13(b), 15, 16 — quality vs. the global methods, and the eta /
  gamma sensitivity experiments (``benchmarks/bench_fig15_vary_eta.py``,
  ``benchmarks/bench_fig16_vary_gamma.py``).

Step 3's local re-decomposition consumes per-edge trussness dicts keyed by
:func:`repro.graph.keys.edge_key` (see that module for the key contract).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Hashable, Sequence

from repro.ctc.bulk_delete import BulkDeleteCTC
from repro.ctc.kernels import lctc_search as _kernel_lctc_search
from repro.ctc.kernels import split_dispatch
from repro.ctc.result import CommunityResult
from repro.ctc.steiner import build_truss_steiner_tree, minimum_trussness_of_tree
from repro.exceptions import NoCommunityFoundError
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.extraction import find_maximal_connected_truss, validate_query
from repro.trusses.index import TrussIndex

__all__ = ["LocalCTC", "DEFAULT_ETA", "DEFAULT_GAMMA"]

#: Default expansion budget; the paper tunes eta in [500, 2000] and settles on
#: 1000 for the SNAP networks.  The synthetic stand-ins are smaller, so
#: experiment configs usually scale this down.
DEFAULT_ETA = 1000

#: Default trussness penalty weight; the paper selects gamma = 3.
DEFAULT_GAMMA = 3.0


class LocalCTC:
    """Local-exploration CTC search (the paper's ``LCTC``).

    Parameters
    ----------
    index:
        Truss index over the full graph, or an
        :class:`~repro.engine.EngineSnapshot` (the search then runs on the
        snapshot's CSR-native kernels — see :mod:`repro.ctc.kernels` —
        with identical results).
    eta:
        Node-count budget for the local expansion (``|V(Gt)| <= eta``).
    gamma:
        Weight of the trussness penalty in the truss distance.
    max_trussness_k:
        Optional cap on the community trussness.  ``None`` (default)
        reproduces the parameter-free model; a finite value reproduces the
        "given maximum trussness k" experiment of Figure 14.
    """

    method_name = "lctc"

    def __init__(
        self,
        index: TrussIndex,
        eta: int = DEFAULT_ETA,
        gamma: float = DEFAULT_GAMMA,
        max_trussness_k: int | None = None,
    ) -> None:
        if eta < 1:
            raise ValueError(f"eta must be positive, got {eta}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        self._kernel, self._index = split_dispatch(index)
        self._eta = eta
        self._gamma = gamma
        self._max_trussness_k = max_trussness_k

    # ------------------------------------------------------------------
    def search(self, query: Sequence[Hashable]) -> CommunityResult:
        """Run LCTC for ``query`` and return the community found."""
        if self._kernel is not None:
            return _kernel_lctc_search(
                self._kernel,
                query,
                eta=self._eta,
                gamma=self._gamma,
                max_trussness_k=self._max_trussness_k,
            )
        start_time = time.perf_counter()
        graph = self._index.graph
        query_nodes = tuple(validate_query(graph, query))

        # Step 1: truss-aware Steiner tree over the query nodes.
        steiner_tree = build_truss_steiner_tree(self._index, query_nodes, self._gamma)
        k_t = minimum_trussness_of_tree(self._index, steiner_tree)
        if self._max_trussness_k is not None:
            k_t = min(k_t, self._max_trussness_k)

        # Step 2: expand the tree through edges of trussness >= k_t.
        expanded = self._expand(steiner_tree, k_t)

        # Step 3: extract the best connected truss containing Q from the
        # expansion.  The expansion's trussness may be below k_t, so we
        # re-decompose locally and take the largest feasible k.
        local_index = TrussIndex(expanded)
        try:
            candidate, k = find_maximal_connected_truss(local_index, query_nodes)
        except NoCommunityFoundError:
            # The expansion could not connect Q inside any truss; fall back to
            # the expansion itself (trussness 2) so the caller still gets a
            # connected subgraph containing the query.
            candidate, k = expanded, 2
        if self._max_trussness_k is not None and k > self._max_trussness_k:
            k = self._max_trussness_k
            candidate = self._restrict_to_level(local_index, query_nodes, k, fallback=candidate)

        # Step 4: shrink with the conservative BulkDelete variant.
        candidate_index = TrussIndex(candidate)
        shrinker = BulkDeleteCTC(candidate_index, threshold_offset=0)
        best_graph, best_distance, iterations, _timed_out = shrinker.peel(
            candidate, k, query_nodes, start_time
        )

        elapsed = time.perf_counter() - start_time
        return CommunityResult(
            graph=best_graph,
            query=query_nodes,
            trussness=k,
            method=self.method_name,
            query_distance=best_distance,
            elapsed_seconds=elapsed,
            iterations=iterations,
            extras={
                "steiner_nodes": steiner_tree.number_of_nodes(),
                "k_t": k_t,
                "expanded_nodes": expanded.number_of_nodes(),
                "expanded_edges": expanded.number_of_edges(),
                "eta": self._eta,
                "gamma": self._gamma,
            },
        )

    # ------------------------------------------------------------------
    def _expand(self, steiner_tree: UndirectedGraph, k_t: int) -> UndirectedGraph:
        """Grow the Steiner tree through trussness >= k_t edges up to ``eta`` nodes."""
        expanded = UndirectedGraph()
        expanded.add_nodes_from(steiner_tree.nodes())
        for u, v in steiner_tree.edges():
            expanded.add_edge(u, v)

        queue: deque[Hashable] = deque(sorted(steiner_tree.nodes(), key=repr))
        enqueued = set(queue)
        while queue:
            node = queue.popleft()
            for neighbor, _trussness in self._index.incident_edges_at_least(node, k_t):
                if expanded.number_of_nodes() >= self._eta and not expanded.has_node(neighbor):
                    # Budget reached: keep closing edges among already-included
                    # nodes (they are free density-wise) but add no new nodes.
                    continue
                expanded.add_edge(node, neighbor)
                if neighbor not in enqueued:
                    enqueued.add(neighbor)
                    queue.append(neighbor)
        return expanded

    def _restrict_to_level(
        self,
        local_index: TrussIndex,
        query_nodes: Sequence[Hashable],
        k: int,
        fallback: UndirectedGraph,
    ) -> UndirectedGraph:
        """Return the connected k-truss containing Q at level ``k`` of the local graph."""
        from repro.trusses.extraction import find_connected_truss_at_k

        try:
            return find_connected_truss_at_k(local_index, query_nodes, k)
        except NoCommunityFoundError:
            return fallback
