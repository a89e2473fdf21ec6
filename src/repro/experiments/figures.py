"""Per-figure experiment drivers (Figures 5-16 of the paper).

Every function returns a list of flat row dictionaries — one row per
(swept-parameter value, method) — that the benchmarks print with
:func:`repro.experiments.reporting.format_table`.  The row schema mirrors the
panels of the corresponding figure: query time, FRE-avoidance percentage and
density for the efficiency figures; F1 / time / size for the ground-truth
figure; diameter and trussness for the approximation figures.

Each driver builds one :class:`~repro.engine.CTCEngine` per network and
runs every method through :func:`~repro.ctc.api.search` on it, so the
timed queries are the ones a production caller would run.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence
from typing import Any

from repro.datasets.collaboration import CASE_STUDY_QUERY, build_collaboration_network
from repro.datasets.queries import QueryWorkloadGenerator, ground_truth_query_sets
from repro.datasets.registry import load_dataset
from repro.engine import CTCEngine
from repro.experiments.config import ExperimentConfig, QUICK_CONFIG
from repro.experiments.runner import (
    MethodRun,
    aggregate_percentage_and_density,
    mean_or_nan,
    run_method_on_queries,
    score_against_ground_truth,
)
from repro.graph.simple_graph import UndirectedGraph
from repro.metrics.approximation import diameter_bounds
from repro.metrics.structure import community_statistics

__all__ = [
    "vary_query_size",
    "vary_degree_rank",
    "vary_inter_distance",
    "case_study",
    "ground_truth_quality",
    "approximation_quality",
    "vary_trussness_k",
    "vary_eta",
    "vary_gamma",
]

#: Default method set of the efficiency figures (Figures 5-10).  ``basic`` is
#: included for the small facebook-like network only, mirroring the paper
#: where Basic fails to finish on DBLP within the time limit.
DEFAULT_EFFICIENCY_METHODS = ("bulk-delete", "lctc")


# ----------------------------------------------------------------------
# Figures 5-10: one property of the query sets swept against Truss
# ----------------------------------------------------------------------
def _query_sets(
    graph: UndirectedGraph, config: ExperimentConfig, axis: str
) -> Iterator[tuple[int, list[list[Hashable]]]]:
    """Yield ``(value, query sets)`` for every configured value of ``axis``.

    ``axis`` is ``"query_size"``, ``"degree_rank"`` or ``"inter_distance"``.
    Each value draws its query sets from a generator seeded with
    ``config.seed + value``; a value with no query sets (no node pair at
    that inter-distance, say) is skipped.
    """
    values = {
        "query_size": config.query_sizes,
        "degree_rank": config.degree_ranks,
        "inter_distance": config.inter_distances,
    }[axis]
    for value in values:
        generator = QueryWorkloadGenerator(graph, seed=config.seed + value)
        if axis == "query_size":
            queries = generator.random_queries(value, config.queries_per_point)
        elif axis == "degree_rank":
            queries = generator.degree_rank_queries(
                value, config.default_query_size, config.queries_per_point
            )
        else:
            queries = generator.inter_distance_queries(
                value, config.default_query_size, config.queries_per_point
            )
        if queries:
            yield value, queries


def _efficiency_sweep(
    dataset_name: str, config: ExperimentConfig, methods: Sequence[str], axis: str
) -> list[dict[str, Any]]:
    """Figures 5-10: sweep ``axis`` and compare each method with ``Truss``.

    Per axis value, every method reports its query time, the percentage of
    ``G0`` nodes it keeps (against the ``Truss`` run on the same query
    sets) and its community edge density; a ``truss`` row closes the value.
    """
    network = load_dataset(dataset_name)
    engine = CTCEngine(network.graph)
    rows: list[dict[str, Any]] = []
    for value, queries in _query_sets(network.graph, config, axis):
        reference = run_method_on_queries("truss", engine, queries, config)
        for method in methods:
            run = run_method_on_queries(method, engine, queries, config)
            panel = aggregate_percentage_and_density(run, reference)
            rows.append(
                {
                    "dataset": dataset_name,
                    axis: value,
                    "method": method,
                    "time_s": panel["time_s"],
                    "percentage": panel["percentage"],
                    "density": panel["density"],
                    "failures": run.failures,
                }
            )
        rows.append(
            {
                "dataset": dataset_name,
                axis: value,
                "method": "truss",
                "time_s": reference.mean_elapsed,
                "percentage": 100.0,
                "density": reference.mean_density,
                "failures": reference.failures,
            }
        )
    return rows


def vary_query_size(
    dataset_name: str,
    config: ExperimentConfig = QUICK_CONFIG,
    methods: Sequence[str] = DEFAULT_EFFICIENCY_METHODS,
) -> list[dict[str, Any]]:
    """Reproduce Figure 5 (DBLP) / Figure 6 (Facebook): sweep |Q|."""
    return _efficiency_sweep(dataset_name, config, methods, "query_size")


def vary_degree_rank(
    dataset_name: str,
    config: ExperimentConfig = QUICK_CONFIG,
    methods: Sequence[str] = DEFAULT_EFFICIENCY_METHODS,
) -> list[dict[str, Any]]:
    """Reproduce Figure 7 (DBLP) / Figure 8 (Facebook): sweep the degree-rank bucket."""
    return _efficiency_sweep(dataset_name, config, methods, "degree_rank")


def vary_inter_distance(
    dataset_name: str,
    config: ExperimentConfig = QUICK_CONFIG,
    methods: Sequence[str] = DEFAULT_EFFICIENCY_METHODS,
) -> list[dict[str, Any]]:
    """Reproduce Figure 9 (DBLP) / Figure 10 (Facebook): sweep the inter-distance l."""
    return _efficiency_sweep(dataset_name, config, methods, "inter_distance")


# ----------------------------------------------------------------------
# Figure 11: the DBLP case study
# ----------------------------------------------------------------------
def case_study(config: ExperimentConfig = QUICK_CONFIG) -> list[dict[str, Any]]:
    """Reproduce Figure 11: the collaboration-network case study.

    Returns two rows — the raw maximal connected k-truss ``G0`` (Figure
    11(a)) and the LCTC community (Figure 11(b)) — with node/edge counts,
    density, diameter and trussness, so the "73 authors, density 0.18,
    diameter 4" versus "14 authors, density 0.89, diameter 2" contrast of the
    paper can be compared against the stand-in network.
    """
    network = build_collaboration_network()
    engine = CTCEngine(network.graph)
    query = list(CASE_STUDY_QUERY)

    truss_run = run_method_on_queries("truss", engine, [query], config)
    lctc_run = run_method_on_queries("lctc", engine, [query], config)

    rows: list[dict[str, Any]] = []
    for label, run in (("truss-G0", truss_run), ("lctc", lctc_run)):
        result = run.results[0]
        if result is None:
            rows.append({"community": label, "found": False})
            continue
        stats = community_statistics(result.graph, query)
        rows.append(
            {
                "community": label,
                "found": True,
                "nodes": stats["nodes"],
                "edges": stats["edges"],
                "density": stats["density"],
                "diameter": stats["diameter"],
                "trussness": result.trussness,
                "contains_all_query_authors": result.contains_query(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 12: quality against ground-truth communities
# ----------------------------------------------------------------------
def ground_truth_quality(
    dataset_names: Sequence[str] = ("amazon-like", "dblp-like", "youtube-like", "lj-like", "orkut-like"),
    config: ExperimentConfig = QUICK_CONFIG,
    methods: Sequence[str] = ("mdc", "qdc", "truss", "lctc"),
) -> list[dict[str, Any]]:
    """Reproduce Figure 12: F1 (a), query time (b) and community size (c).

    Query sets are drawn from single ground-truth communities (the paper's
    protocol); every method is scored by F1 against the community its query
    was drawn from, and the community sizes of ``truss`` versus ``lctc`` give
    the panel-(c) reduction.
    """
    rows: list[dict[str, Any]] = []
    for dataset_name in dataset_names:
        network = load_dataset(dataset_name)
        engine = CTCEngine(network.graph)
        pairs = ground_truth_query_sets(
            network, config.ground_truth_queries, size_range=(1, 8), seed=config.seed
        )
        queries = [query for query, _truth in pairs]
        truths = [truth for _query, truth in pairs]
        for method in methods:
            run = run_method_on_queries(method, engine, queries, config)
            rows.append(
                {
                    "dataset": dataset_name,
                    "method": method,
                    "f1": score_against_ground_truth(run, truths),
                    "time_s": run.mean_elapsed,
                    "nodes": run.mean_nodes,
                    "edges": run.mean_edges,
                    "failures": run.failures,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 13: diameter / trussness approximation versus the inter-distance
# ----------------------------------------------------------------------
def approximation_quality(
    dataset_name: str = "facebook-like",
    config: ExperimentConfig = QUICK_CONFIG,
    methods: Sequence[str] = ("basic", "bulk-delete", "lctc"),
) -> list[dict[str, Any]]:
    """Reproduce Figure 13: community diameter and trussness with LB/UB-OPT curves.

    The Basic run provides the lower bound (its optimal query distance,
    Lemma 5) and the upper bound (twice that, Lemma 2); the diameters of the
    other methods are reported against those bounds.
    """
    network = load_dataset(dataset_name)
    engine = CTCEngine(network.graph)
    rows: list[dict[str, Any]] = []
    for inter_distance, queries in _query_sets(network.graph, config, "inter_distance"):
        runs: dict[str, MethodRun] = {
            method: run_method_on_queries(method, engine, queries, config)
            for method in methods
        }
        reference = runs.get("basic") or next(iter(runs.values()))
        lower_bounds = []
        upper_bounds = []
        for result in reference.results:
            if result is None:
                continue
            lower, upper = diameter_bounds(result)
            lower_bounds.append(lower)
            upper_bounds.append(upper)
        for method, run in runs.items():
            rows.append(
                {
                    "dataset": dataset_name,
                    "inter_distance": inter_distance,
                    "method": method,
                    "diameter": mean_or_nan(
                        [result.diameter() for result in run.successful]
                    ),
                    "trussness": run.mean_trussness,
                    "failures": run.failures,
                }
            )
        rows.append(
            {
                "dataset": dataset_name,
                "inter_distance": inter_distance,
                "method": "lb-opt",
                "diameter": mean_or_nan(lower_bounds),
                "trussness": reference.mean_trussness,
                "failures": 0,
            }
        )
        rows.append(
            {
                "dataset": dataset_name,
                "inter_distance": inter_distance,
                "method": "ub-opt",
                "diameter": mean_or_nan(upper_bounds),
                "trussness": reference.mean_trussness,
                "failures": 0,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 14: diameter versus the maximum-trussness constraint k
# ----------------------------------------------------------------------
def vary_trussness_k(
    dataset_name: str = "facebook-like",
    config: ExperimentConfig = QUICK_CONFIG,
) -> list[dict[str, Any]]:
    """Reproduce Figure 14: LCTC with a capped trussness k versus the lower bound.

    Queries are drawn from inside single ground-truth communities (as in the
    paper's quality experiments) so that the uncapped maximum trussness is
    non-trivial and the sweep over k is meaningful.
    """
    network = load_dataset(dataset_name)
    engine = CTCEngine(network.graph)
    pairs = ground_truth_query_sets(
        network,
        config.queries_per_point,
        size_range=(config.default_query_size, config.default_query_size),
        seed=config.seed,
    )
    queries = [query for query, _truth in pairs]
    reference = run_method_on_queries("basic", engine, queries, config)
    lower_bounds = [
        diameter_bounds(result)[0] for result in reference.results if result is not None
    ]
    rows: list[dict[str, Any]] = []
    for level in config.trussness_levels:
        run = run_method_on_queries("lctc", engine, queries, config, max_trussness_k=level)
        rows.append(
            {
                "dataset": dataset_name,
                "max_k": "max" if level is None else level,
                "method": "lctc",
                "diameter": mean_or_nan([result.diameter() for result in run.successful]),
                "trussness": run.mean_trussness,
                "lb_opt": mean_or_nan(lower_bounds),
                "failures": run.failures,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figures 15-16: LCTC parameter sensitivity (eta and gamma)
# ----------------------------------------------------------------------
def _lctc_sensitivity(
    dataset_name: str,
    config: ExperimentConfig,
    parameter_name: str,
    values: Sequence[Any],
) -> list[dict[str, Any]]:
    network = load_dataset(dataset_name)
    engine = CTCEngine(network.graph)
    pairs = ground_truth_query_sets(
        network, config.ground_truth_queries, size_range=(2, 4), seed=config.seed
    )
    queries = [query for query, _truth in pairs]
    truths = [truth for _query, truth in pairs]
    rows: list[dict[str, Any]] = []
    for value in values:
        run = run_method_on_queries("lctc", engine, queries, config, **{parameter_name: value})
        rows.append(
            {
                "dataset": dataset_name,
                parameter_name: value,
                "nodes": run.mean_nodes,
                "f1": score_against_ground_truth(run, truths),
                "time_s": run.mean_elapsed,
                "failures": run.failures,
            }
        )
    return rows


def vary_eta(
    dataset_name: str = "dblp-like", config: ExperimentConfig = QUICK_CONFIG
) -> list[dict[str, Any]]:
    """Reproduce Figure 15: LCTC community size, F1 and time as eta varies."""
    return _lctc_sensitivity(dataset_name, config, "eta", list(config.eta_values))


def vary_gamma(
    dataset_name: str = "dblp-like", config: ExperimentConfig = QUICK_CONFIG
) -> list[dict[str, Any]]:
    """Reproduce Figure 16: LCTC community size, F1 and time as gamma varies."""
    return _lctc_sensitivity(dataset_name, config, "gamma", list(config.gamma_values))
