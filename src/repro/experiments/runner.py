"""Shared experiment machinery: run methods over query workloads and aggregate.

Each figure of the paper reports, for one network, one or more *panels*
(query time, FRE-avoidance percentage, density, F1, diameter, ...) as a
function of one swept parameter, averaged over a workload of query sets.
:func:`run_method_on_queries` executes one (method, workload) cell through
:func:`~repro.ctc.api.search` and returns the aggregate; the figure drivers
in :mod:`repro.experiments.figures` assemble cells into the paper's panels.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING, Any

from repro.ctc.api import search
from repro.ctc.result import CommunityResult
from repro.exceptions import NoCommunityFoundError, QueryError
from repro.experiments.config import ExperimentConfig
from repro.metrics.quality import f1_score
from repro.metrics.structure import percentage_retained

if TYPE_CHECKING:
    from repro.engine import CTCEngine

__all__ = [
    "MethodRun",
    "run_method_on_queries",
    "aggregate_percentage_and_density",
    "score_against_ground_truth",
    "mean_or_nan",
]


def mean_or_nan(values: Sequence[float]) -> float:
    """Mean of the finite entries of ``values``, or NaN when none are finite."""
    finite = [value for value in values if value == value and value != float("inf")]
    return statistics.fmean(finite) if finite else float("nan")


@dataclasses.dataclass
class MethodRun:
    """Aggregated outcome of one method over one query workload.

    ``results`` is aligned with the input query list: entry *i* is the
    :class:`CommunityResult` for query *i*, or ``None`` if that query failed
    (no community exists / query invalid on this graph), so pairwise
    comparisons between methods stay query-aligned.
    """

    method: str
    results: list[CommunityResult | None]

    # ------------------------------------------------------------------
    @property
    def successful(self) -> list[CommunityResult]:
        """The results of the queries that produced a community."""
        return [result for result in self.results if result is not None]

    @property
    def failures(self) -> int:
        """Number of queries for which no community was found."""
        return sum(1 for result in self.results if result is None)

    @property
    def mean_elapsed(self) -> float:
        """Mean wall-clock seconds per successful query."""
        return mean_or_nan([result.elapsed_seconds for result in self.successful])

    @property
    def mean_nodes(self) -> float:
        """Mean community size in nodes."""
        return mean_or_nan([result.num_nodes for result in self.successful])

    @property
    def mean_edges(self) -> float:
        """Mean community size in edges."""
        return mean_or_nan([result.num_edges for result in self.successful])

    @property
    def mean_density(self) -> float:
        """Mean community edge density."""
        return mean_or_nan([result.density() for result in self.successful])

    @property
    def mean_trussness(self) -> float:
        """Mean community trussness."""
        return mean_or_nan([result.trussness for result in self.successful])

    def as_row(self) -> dict[str, Any]:
        """Flatten to a reporting row."""
        return {
            "method": self.method,
            "queries": len(self.results),
            "failures": self.failures,
            "time_s": self.mean_elapsed,
            "nodes": self.mean_nodes,
            "edges": self.mean_edges,
            "density": self.mean_density,
            "trussness": self.mean_trussness,
        }


def run_method_on_queries(
    method: str,
    target: "CTCEngine",
    queries: Sequence[Sequence[Hashable]],
    config: ExperimentConfig,
    **overrides: Any,
) -> MethodRun:
    """Run one method on every query set and collect query-aligned results.

    Every query is one :func:`~repro.ctc.api.search` call on ``target``.
    Pass a :class:`~repro.engine.CTCEngine` built once per dataset, so every
    query runs on its cached snapshot; given a plain graph, ``search()``
    builds a :class:`~repro.trusses.index.TrussIndex` on every call.
    ``config`` supplies ``eta`` (``lctc_eta``), ``gamma`` (``lctc_gamma``)
    and ``time_budget_seconds``; ``overrides`` are further ``search()``
    keyword arguments and win over those defaults.

    Query sets for which no community exists (or that are invalid on this
    graph) yield ``None`` entries rather than aborting the sweep — the paper
    similarly averages over successful queries only.  An unknown ``method``
    raises :class:`~repro.exceptions.ConfigurationError`.
    """
    options = {
        "eta": config.lctc_eta,
        "gamma": config.lctc_gamma,
        "time_budget_seconds": config.time_budget_seconds,
        **overrides,
    }
    results: list[CommunityResult | None] = []
    for query in queries:
        started = time.perf_counter()
        try:
            result = search(target, list(query), method, **options)
        except (NoCommunityFoundError, QueryError):
            results.append(None)
            continue
        if result.elapsed_seconds == 0.0:
            result.elapsed_seconds = time.perf_counter() - started
        results.append(result)
    return MethodRun(method=method, results=results)


def aggregate_percentage_and_density(run: MethodRun, reference: MethodRun) -> dict[str, float]:
    """Pair a method run with the Truss reference run (Figures 5-10 panels b/c).

    Entry *i* of both runs corresponds to the same query set, so the
    FRE-avoidance percentage is averaged pairwise over queries where both
    methods produced a community.
    """
    percentages = []
    for result, reference_result in zip(run.results, reference.results):
        if result is None or reference_result is None:
            continue
        percentages.append(percentage_retained(result.graph, reference_result.graph))
    return {
        "percentage": mean_or_nan(percentages),
        "density": run.mean_density,
        "time_s": run.mean_elapsed,
    }


def score_against_ground_truth(run: MethodRun, truths: Sequence[set[Hashable]]) -> float:
    """Return the mean F1 of a run against per-query ground-truth communities."""
    scores = []
    for result, truth in zip(run.results, truths):
        if result is None:
            scores.append(0.0)
        else:
            scores.append(f1_score(result.nodes, truth))
    return mean_or_nan(scores)
