"""Top-level CSR-native searches: the kernel twins of the algorithm classes.

Each function takes a :class:`~repro.ctc.kernels.context.QueryKernel` and a
query, executes entirely on the snapshot arrays, and returns the same
:class:`~repro.ctc.result.CommunityResult` (community, trussness, query
distance, iteration count, extras) the corresponding dict-path class
produces — the equivalence suite (``tests/ctc/test_kernel_equivalence.py``)
holds them identical.  The algorithm classes
(:class:`~repro.ctc.basic.BasicCTC` & friends) dispatch here when
constructed from an :class:`~repro.engine.EngineSnapshot`.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence

import numpy as np

from repro.ctc.kernels.context import QueryKernel, validate_query_ids
from repro.ctc.kernels.find_g0 import connected_truss_at_k, find_g0
from repro.ctc.kernels.local import expand
from repro.ctc.kernels.peeling import (
    basic_selector,
    bulk_delete_selector,
    peel,
)
from repro.ctc.kernels.steiner import build_truss_steiner_tree, minimum_trussness_of_tree
from repro.ctc.result import CommunityResult
from repro.exceptions import NoCommunityFoundError
from repro.graph.csr_bfs import masked_query_distances
from repro.graph.csr_triangles import subset_incidence
from repro.trusses.csr_decomposition import (
    DEFAULT_VECTOR_THRESHOLD,
    csr_decompose,
    peel_incidence,
)

__all__ = ["basic_search", "bulk_delete_search", "lctc_search", "truss_search"]


def _global_search(
    kernel: QueryKernel,
    query: Sequence[Hashable],
    method_name: str,
    selector_factory,
    max_iterations: int | None,
    time_budget_seconds: float | None,
    peel_engine: str,
) -> CommunityResult:
    """The shared Basic/BulkDelete pipeline: FindG0, then greedy peeling."""
    start_time = time.perf_counter()
    labels, query_ids = validate_query_ids(kernel.csr, query)
    g0_nodes, g0_edges, k = find_g0(kernel, query_ids)
    outcome = peel(
        kernel,
        g0_nodes,
        g0_edges,
        k,
        query_ids,
        selector_factory(kernel, query_ids),
        start_time=start_time,
        time_budget=time_budget_seconds,
        max_iterations=max_iterations,
        engine=peel_engine,
    )
    elapsed = time.perf_counter() - start_time
    return CommunityResult(
        graph=kernel.csr.thaw(kernel.label_array, outcome.node_ids, outcome.edge_ids),
        query=tuple(labels),
        trussness=k,
        method=method_name,
        query_distance=outcome.query_distance,
        elapsed_seconds=elapsed,
        iterations=outcome.iterations,
        extras={
            "g0_nodes": len(g0_nodes),
            "g0_edges": len(g0_edges),
            "timed_out": outcome.timed_out,
        },
    )


def basic_search(
    kernel: QueryKernel,
    query: Sequence[Hashable],
    *,
    max_iterations: int | None = None,
    time_budget_seconds: float | None = None,
    peel_engine: str = "auto",
) -> CommunityResult:
    """Algorithm 1 (``Basic``) on arrays: peel the single farthest vertex."""
    return _global_search(
        kernel, query, "basic", basic_selector, max_iterations,
        time_budget_seconds, peel_engine,
    )


def bulk_delete_search(
    kernel: QueryKernel,
    query: Sequence[Hashable],
    *,
    threshold_offset: int = 1,
    batch_limit: int | None = None,
    max_iterations: int | None = None,
    time_budget_seconds: float | None = None,
    peel_engine: str = "auto",
) -> CommunityResult:
    """Algorithm 4 (``BulkDelete``) on arrays: peel every vertex past the threshold."""

    def factory(kernel_: QueryKernel, query_ids: list[int]):
        return bulk_delete_selector(
            kernel_, query_ids, threshold_offset=threshold_offset, batch_limit=batch_limit
        )

    return _global_search(
        kernel, query, "bulk-delete", factory, max_iterations,
        time_budget_seconds, peel_engine,
    )


def truss_search(kernel: QueryKernel, query: Sequence[Hashable]) -> CommunityResult:
    """The ``Truss`` baseline on arrays: FindG0 with no shrinking."""
    start_time = time.perf_counter()
    labels, query_ids = validate_query_ids(kernel.csr, query)
    g0_nodes, g0_edges, k = find_g0(kernel, query_ids)
    # The graph query distance of G0, straight off the masked frontier BFS
    # (edge mask = the component's edges; identical maxima to the old
    # adjacency-map BFS, without materializing the subgraph).
    g0_mask = np.zeros(kernel.csr.number_of_edges(), dtype=bool)
    g0_mask[np.asarray(g0_edges, dtype=np.int64)] = True
    maxima = masked_query_distances(kernel.csr, query_ids, edge_alive=g0_mask)
    query_distance = float(maxima[np.asarray(g0_nodes, dtype=np.int64)].max())
    elapsed = time.perf_counter() - start_time
    return CommunityResult(
        graph=kernel.csr.thaw(kernel.label_array, g0_nodes, g0_edges),
        query=tuple(labels),
        trussness=k,
        method="truss",
        query_distance=query_distance,
        elapsed_seconds=elapsed,
        iterations=0,
    )


def lctc_search(
    kernel: QueryKernel,
    query: Sequence[Hashable],
    *,
    eta: int,
    gamma: float,
    max_trussness_k: int | None = None,
    peel_engine: str = "auto",
) -> CommunityResult:
    """Algorithm 5 (``LCTC``) on arrays: Steiner seed, budgeted expansion,
    local decomposition, conservative bulk shrink."""
    start_time = time.perf_counter()
    labels, query_ids = validate_query_ids(kernel.csr, query)

    # Step 1: truss-aware Steiner tree over the query nodes.
    tree_nodes, tree_edges = build_truss_steiner_tree(kernel, query_ids, gamma)
    k_t = minimum_trussness_of_tree(kernel, tree_nodes, tree_edges)
    if max_trussness_k is not None:
        k_t = min(k_t, max_trussness_k)

    # Step 2: expand the tree through edges of trussness >= k_t.
    expanded_nodes, expanded_edges = expand(kernel, tree_nodes, tree_edges, k_t, eta)

    # Step 3: decompose the (small) expansion on its own sub-snapshot and
    # extract the best connected truss containing Q, mapping ids back.
    sub = kernel.csr.edge_subgraph(
        sorted(expanded_edges), include_node_ids=sorted(expanded_nodes)
    )
    if (
        kernel.incidence is not None
        and sub.csr.number_of_edges() >= DEFAULT_VECTOR_THRESHOLD
    ):
        # Reuse the snapshot's triangle enumeration: restrict its incidence
        # arrays to the expansion (a local gather) and level-synchronously
        # peel — bit-identical to decomposing the sub-snapshot from scratch.
        # Tiny expansions skip the reuse for the same reason "auto" picks
        # the bucket queue there: the sequential peel undercuts the fixed
        # numpy costs below the threshold.
        local_incidence = subset_incidence(kernel.incidence, sub.edge_origin)
        local_trussness = peel_incidence(local_incidence)
    else:
        local_result = csr_decompose(sub.csr)
        local_trussness = local_result.trussness
        local_incidence = local_result.incidence  # None from the bucket path
    local_kernel = QueryKernel(sub.csr, local_trussness, incidence=local_incidence)
    node_origin = sub.node_origin.tolist()
    edge_origin = sub.edge_origin.tolist()
    local_id_of = {old: new for new, old in enumerate(node_origin)}
    local_query = [local_id_of[node] for node in query_ids]
    try:
        local_nodes, local_edges, k = find_g0(local_kernel, local_query)
        candidate_nodes = [node_origin[node] for node in local_nodes]
        candidate_edges = [edge_origin[edge] for edge in local_edges]
    except NoCommunityFoundError:
        # The expansion could not connect Q inside any truss; fall back to
        # the expansion itself (trussness 2), as the dict path does.
        candidate_nodes, candidate_edges = sorted(expanded_nodes), sorted(expanded_edges)
        local_edges = list(range(sub.csr.number_of_edges()))
        k = 2
    if max_trussness_k is not None and k > max_trussness_k:
        k = max_trussness_k
        try:
            local_nodes, local_edges = connected_truss_at_k(local_kernel, local_query, k)
            candidate_nodes = [node_origin[node] for node in local_nodes]
            candidate_edges = [edge_origin[edge] for edge in local_edges]
        except NoCommunityFoundError:
            pass  # keep the unrestricted candidate, as the dict path does

    # Step 4: shrink with the conservative BulkDelete variant.  The local
    # expansion already holds a triangle incidence of the candidate region;
    # restrict *that* (a subset of a subset, all in expansion-local ids)
    # and thread it through, so the peel never re-counts its starting
    # supports from scratch.
    candidate_incidence = None
    if local_incidence is not None:
        candidate_incidence = subset_incidence(
            local_incidence, np.asarray(sorted(local_edges), dtype=np.int64)
        )
    outcome = peel(
        kernel,
        candidate_nodes,
        candidate_edges,
        k,
        query_ids,
        bulk_delete_selector(kernel, query_ids, threshold_offset=0),
        start_time=start_time,
        engine=peel_engine,
        incidence=candidate_incidence,
    )
    elapsed = time.perf_counter() - start_time
    return CommunityResult(
        graph=kernel.csr.thaw(kernel.label_array, outcome.node_ids, outcome.edge_ids),
        query=tuple(labels),
        trussness=k,
        method="lctc",
        query_distance=outcome.query_distance,
        elapsed_seconds=elapsed,
        iterations=outcome.iterations,
        extras={
            "steiner_nodes": len(tree_nodes),
            "k_t": k_t,
            "expanded_nodes": len(expanded_nodes),
            "expanded_edges": len(expanded_edges),
            "eta": eta,
            "gamma": gamma,
        },
    )
