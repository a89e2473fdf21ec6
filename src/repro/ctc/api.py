"""The one-call public facade: :func:`search`.

Most users want "give me the closest truss community for these query nodes"
without wiring the index, algorithm class and parameters themselves.  The
facade accepts a plain graph, a prebuilt :class:`TrussIndex`, or a
:class:`~repro.engine.CTCEngine` (whose cached snapshot is queried through
its CSR kernels), a query, and a method name, and dispatches to the right
implementation:

======================  ===========================================================
``method``              algorithm
======================  ===========================================================
``"basic"``             Algorithm 1 — single-vertex peeling, 2-approximation
``"bulk-delete"``       Algorithm 4 — bulk peeling, (2 + eps)-approximation
``"lctc"``              Algorithm 5 — local exploration heuristic (default)
``"truss"``             the maximal connected k-truss ``G0`` only (no shrinking)
``"mdc"``               minimum-degree community search baseline
``"qdc"``               query-biased densest subgraph baseline
======================  ===========================================================
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING

from repro.ctc.basic import BasicCTC
from repro.ctc.bulk_delete import BulkDeleteCTC
from repro.ctc.local import DEFAULT_ETA, DEFAULT_GAMMA, LocalCTC
from repro.ctc.result import CommunityResult
from repro.exceptions import ConfigurationError
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.index import TrussIndex

if TYPE_CHECKING:
    from repro.engine import CTCEngine, EngineSnapshot  # noqa: F401 (docstring types)

__all__ = ["search", "available_methods", "build_index", "build_engine"]

_CTC_METHODS = ("basic", "bulk-delete", "lctc", "truss")
_BASELINE_METHODS = ("mdc", "qdc")


def available_methods() -> tuple[str, ...]:
    """Return the method names accepted by :func:`search`."""
    return _CTC_METHODS + _BASELINE_METHODS


def build_index(graph: UndirectedGraph) -> TrussIndex:
    """Build (and return) a truss index for ``graph``.

    The paper's Section 4.3 index: what Table 3 measures, and what the
    dict-path algorithms read when :func:`search` is handed one.  Callers
    issuing repeated queries against the same graph should use
    :func:`build_engine` instead, whose cached snapshot serves every query
    on the array kernels and survives mutations.
    """
    return TrussIndex(graph)


def build_engine(
    graph: UndirectedGraph | None = None,
    *,
    cache_size: int | None = None,
    delta_threshold: float | None = None,
    window: int | None = None,
    copy: bool = True,
) -> "CTCEngine":
    """Build (and return) a :class:`~repro.engine.CTCEngine` over ``graph``.

    The engine is the right entry point for *mixed* workloads: reads are
    served from cached CSR snapshots, and mutations issued
    through the engine propagate to those snapshots as structured
    :class:`~repro.graph.delta.GraphDelta` batches (patched in place while
    small, rebuilt from scratch past ``delta_threshold``).  ``window``
    selects the sliding-window mode instead: the returned
    :class:`~repro.engine.SlidingWindowEngine` retains only the most
    recently inserted ``window`` edges and expires the rest incrementally.
    ``None`` keeps an engine default; see :class:`~repro.engine.CTCEngine`
    for the knobs.
    """
    from repro.engine import CTCEngine, SlidingWindowEngine

    kwargs: dict = {"copy": copy}
    if cache_size is not None:
        kwargs["cache_size"] = cache_size
    if delta_threshold is not None:
        kwargs["delta_threshold"] = delta_threshold
    if window is not None:
        return SlidingWindowEngine(graph, window=window, **kwargs)
    return CTCEngine(graph, **kwargs)


def search(
    graph: UndirectedGraph | TrussIndex | "CTCEngine | EngineSnapshot",
    query: Sequence[Hashable],
    method: str = "lctc",
    *,
    eta: int = DEFAULT_ETA,
    gamma: float = DEFAULT_GAMMA,
    max_trussness_k: int | None = None,
    time_budget_seconds: float | None = None,
    at_version: int | None = None,
) -> CommunityResult:
    """Find a community containing ``query`` in ``graph``.

    Parameters
    ----------
    graph:
        An :class:`UndirectedGraph` (the CTC methods build an index on the
        fly — pay this cost once per graph by preferring the alternatives
        for repeated queries; ``mdc`` and ``qdc`` read the graph as is), a
        prebuilt :class:`TrussIndex`, a
        :class:`~repro.engine.CTCEngine` (served from its cached snapshot),
        or a pinned :class:`~repro.engine.EngineSnapshot`.  Graphs and
        indexes run the dict-path algorithms; engines and snapshots run the
        same algorithms on the snapshot's array kernels
        (:mod:`repro.ctc.kernels`), which return identical communities.
    query:
        Non-empty sequence of query nodes; duplicates are ignored.
    method:
        One of :func:`available_methods`.
    eta, gamma:
        LCTC parameters (ignored by other methods).
    max_trussness_k:
        Optional cap on the trussness (the Figure 14 experiment); supported
        by ``lctc``.
    time_budget_seconds:
        Optional wall-clock cap for the global methods (``basic``,
        ``bulk-delete``), mirroring the paper's one-hour limit.
    at_version:
        Pin the read to a historical store version (a time-travel read via
        :meth:`~repro.engine.CTCEngine.snapshot_at`).  Only valid when
        ``graph`` is a :class:`~repro.engine.CTCEngine`; raises
        :class:`~repro.exceptions.VersionEvictedError` when the version has
        aged out of the engine's delta log.

    Returns
    -------
    CommunityResult
        The community plus per-run statistics.

    Raises
    ------
    ConfigurationError
        If ``method`` is unknown.
    QueryError, NoCommunityFoundError
        Propagated from the underlying algorithm when the query is invalid
        or no community exists.
    """
    # Imported lazily: repro.engine depends on this module for search().
    from repro.engine import CTCEngine, EngineSnapshot

    if method not in available_methods():
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {available_methods()}"
        )
    if at_version is not None and not isinstance(graph, CTCEngine):
        raise ConfigurationError(
            "at_version requires a CTCEngine input (only the engine's delta "
            "log can materialize historical versions)"
        )
    if isinstance(graph, CTCEngine):
        graph = graph.snapshot_at(at_version)
    if method in _BASELINE_METHODS:
        # The baselines read only the graph, so a plain one needs no index.
        if isinstance(graph, (TrussIndex, EngineSnapshot)):
            graph = graph.graph
        if method == "mdc":
            from repro.baselines.mdc import MinimumDegreeCommunity

            return MinimumDegreeCommunity(graph).search(query)
        from repro.baselines.qdc import QueryBiasedDensestCommunity

        return QueryBiasedDensestCommunity(graph).search(query)

    # The CTC algorithm classes dispatch on what they are handed: an
    # EngineSnapshot selects the CSR-native kernels, a TrussIndex the dict
    # path (see repro.ctc.kernels.kernel_of).
    target = graph if isinstance(graph, (TrussIndex, EngineSnapshot)) else TrussIndex(graph)
    if method == "basic":
        return BasicCTC(target, time_budget_seconds=time_budget_seconds).search(query)
    if method == "bulk-delete":
        return BulkDeleteCTC(target, time_budget_seconds=time_budget_seconds).search(query)
    if method == "lctc":
        searcher = LocalCTC(target, eta=eta, gamma=gamma, max_trussness_k=max_trussness_k)
        return searcher.search(query)
    from repro.baselines.truss_only import TrussOnly

    return TrussOnly(target).search(query)
