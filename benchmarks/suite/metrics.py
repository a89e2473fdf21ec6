"""Metric definitions and their computation from one workload run.

``END_TO_END`` is the set every workload reports and ``BENCHMARK.json``
bounds.  ``WORKLOAD_SPECIFIC`` holds what only some workloads have (no
time-travel reads outside ``churn``, no disk outside ``durable``); they
are printed and compared by ``compare.py`` with the bounds given here, but
cannot sit in ``BENCHMARK.json``, which needs every metric on every
workload.  ``error_rate`` is among them because its healthy value is 0: a
run's failures also reach the result line as ``failed`` out of
``attempted``.

``PER_LAYER`` metrics come from the ``--trace`` run.  Layer times are
means: the core, graph and trusses layers per read request (a query, a
time-travel read or a served batch), kernel phases per query of their
method, everything else per event of its own kind.  A layer a workload
never enters reads 0; a metric whose wrap target is gone reads ``null``.
"""

from __future__ import annotations

import resource
import statistics

from inputs import METHODS
from tracing import ATTRS, END, NAME, PARENT, REQUEST, START, THREAD

#: name -> unit; bounded in BENCHMARK.json, reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    **{f"{method}_p50_ms": "ms" for method in METHODS},
    "peak_rss_mb": "MB",
}

#: name -> (unit, bound); reported only where the workload has the operation.
WORKLOAD_SPECIFIC = {
    "timetravel_p50_ms": ("ms", 0.25),
    "mutation_p50_ms": ("ms", 0.25),
    "mutation_p99_ms": ("ms", 0.25),
    "cold_start_s": ("s", 0.25),
    "error_rate": ("ratio", 0.0),
    "query_count": ("count", 0.0),
    "mutation_count": ("count", 0.0),
}

#: p99 is reported only with at least this many mutations (ten beyond it).
P99_MIN_SAMPLES = 1000

#: ``qps`` and every p50 are medians over at most this many slices of the
#: timed phase, in the order it ran ...
SLICES = 10
#: ... each holding at least this many latency samples.
MIN_SLICE = 8

_PHASES = {
    "lctc": ("steiner", "expand", "local_decomp", "find_g0", "peel", "materialize"),
    "lctc_eta1000": ("steiner", "expand", "local_decomp", "find_g0", "peel", "materialize"),
    "bulk_delete": ("find_g0", "peel", "materialize"),
    "truss": ("find_g0", "distance", "materialize"),
}
_PEELING = ("lctc", "lctc_eta1000", "bulk_delete")
_CORE_COUNTS = (
    "hits", "misses", "delta_applies", "full_rebuilds", "evictions",
    "time_travel_reads", "incidence_enumerations", "incidence_patches",
)

#: name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "core.resolve_ms": "ms",
    "core.store_copy_ms": "ms",
    "core.kernel_derive_ms": "ms",
    "core.full_rebuild_ms": "ms",
    **{f"core.{name}": "count" for name in _CORE_COUNTS},
    "graph.apply_delta_ms": "ms",
    "graph.patch_incidence_ms": "ms",
    "trusses.incremental_update_ms": "ms",
    **{
        f"kernels.{method}.{phase}_ms": "ms"
        for method, phases in _PHASES.items()
        for phase in phases
    },
    **{f"kernels.{method}.peel_rounds": "count" for method in _PEELING},
    "kernels.lctc.expanded_edges": "count",
    "kernels.bulk_delete.g0_edges": "count",
    "kernels.traced_share": "ratio",
    "persistence.wal_append_us": "us",
    "persistence.appends": "count",
    "persistence.fsyncs": "count",
    "persistence.checkpoint_p50_ms": "ms",
    "persistence.checkpoint_max_ms": "ms",
    "persistence.checkpoints": "count",
    "persistence.write_amp": "ratio",
    "persistence.recover_load_ms": "ms",
    "persistence.recover_replay_ms": "ms",
    "persistence.recover_first_query_ms": "ms",
    "persistence.deltas_replayed": "count",
    "serving.batch_ms": "ms",
    "serving.lease_ms": "ms",
    "serving.kernel_busy_ms": "ms",
    "serving.outside_kernel_ms": "ms",
    "serving.parallelism": "ratio",
    "serving.route_us": "us",
    "serving.respawns": "count",
    "serving.requeues": "count",
    "serving.timeouts": "count",
    "trace.overhead": "ratio",
}

_READ_KINDS = ("query", "timetravel", "batch")
_TIMED_KINDS = (*_READ_KINDS, "mutation")


def percentile(values, pct: float) -> float:
    """Inclusive percentile; the single value for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(pct) - 1]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _qps(marks) -> float:
    """Median over :data:`SLICES` equal slices of the timed rounds of reads per second.

    A slice's rate is its reads over its wall time, mutations included, so
    a stretch of the run that the host slowed moves the slices it covers,
    not the whole figure.
    """
    rounds = len(marks) - 1
    blocks = min(SLICES, rounds)
    cuts = [marks[rounds * block // blocks] for block in range(blocks + 1)]
    return statistics.median(
        (reads_b - reads_a) / (end - start)
        for (start, reads_a), (end, reads_b) in zip(cuts, cuts[1:])
    )


def p50(values: list) -> float:
    """Median of the medians of consecutive slices of ``values``, in measured order.

    Up to :data:`SLICES` slices of at least :data:`MIN_SLICE` samples each
    (one slice for fewer), for the reason :func:`_qps` gives.
    """
    count = len(values)
    slices = max(1, min(SLICES, count // MIN_SLICE))
    return statistics.median(
        statistics.median(values[count * i // slices : count * (i + 1) // slices])
        for i in range(slices)
    )


def end_to_end(run, workload: str) -> dict:
    """Every ``END_TO_END`` metric, then the workload's specific ones."""
    latencies = [seconds * 1e3 for _, seconds, _ in run.queries]
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "qps": _qps(run.marks),
        "query_p50_ms": p50(latencies),
        "query_p90_ms": percentile(latencies, 90),
    }
    served = workload.startswith("served")
    for method in METHODS:
        if served:
            # A served query's client latency is its batch's (query_p50_ms);
            # per method, the search time each query took inside the server.
            mine = [b.elapsed_seconds * 1e3 for key, _, b in run.queries if key == method and b]
        else:
            mine = [seconds * 1e3 for key, seconds, _ in run.queries if key == method]
        metrics[f"{method}_p50_ms"] = p50(mine)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if run.timetravel:
        metrics["timetravel_p50_ms"] = p50(run.timetravel) * 1e3
    if run.mutations:
        mutations = [seconds * 1e3 for seconds in run.mutations]
        metrics["mutation_p50_ms"] = p50(mutations)
        if len(mutations) >= P99_MIN_SAMPLES:
            metrics["mutation_p99_ms"] = percentile(mutations, 99)
    if run.cold_start_s:
        metrics["cold_start_s"] = statistics.median(run.cold_start_s)
    metrics["error_rate"] = run.failed / run.attempted
    metrics["query_count"] = len(run.queries) + len(run.timetravel)
    metrics["mutation_count"] = len(run.mutations)
    return metrics


class _Spans:
    """Read-side helpers over a tracer's span list."""

    def __init__(self, tracer) -> None:
        self.spans = spans = tracer.spans
        self.missing = tracer.missing
        #: Time each span's same-thread children cover (for self time).
        self.child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent is not None and spans[parent][THREAD] == span[THREAD]:
                self.child_time[parent] += span[END] - span[START]

    def kind(self, span) -> str | None:
        request = span[REQUEST]
        return None if request is None else self.spans[request][ATTRS]["kind"]

    def method(self, span) -> str | None:
        return self.spans[span[REQUEST]][ATTRS]["method"]

    def ancestor(self, span, name: str):
        """Index of the nearest enclosing span called ``name``, or ``None``."""
        parent = span[PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return parent
            parent = self.spans[parent][PARENT]
        return None

    def select(self, name: str, kinds=_TIMED_KINDS, inside: str | None = None) -> list:
        """Outermost spans called ``name`` under requests of ``kinds``."""
        return [
            span
            for span in self.spans
            if span[NAME] == name
            and self.kind(span) in kinds
            and self.ancestor(span, name) is None
            and (inside is None or self.ancestor(span, inside) is not None)
        ]

    def total(self, name: str, **select) -> float | None:
        if name in self.missing:
            return None
        return sum(span[END] - span[START] for span in self.select(name, **select))

    def durations(self, name: str, **select) -> list | None:
        if name in self.missing:
            return None
        return [span[END] - span[START] for span in self.select(name, **select)]

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return span[END] - span[START] - self.child_time[index]


def _per(value, count, scale: float = 1e3):
    """``value / count`` scaled to the unit; ``None`` stays ``None``."""
    if value is None:
        return None
    return value / count * scale if count else 0.0


def _kernel_layer(spans: _Spans, results: dict) -> dict:
    metrics = {}
    missing = "kernel.search" in spans.missing
    searches: dict[str, list[int]] = {method: [] for method in _PHASES}
    phase_time = {(method, phase): 0.0 for method, phases in _PHASES.items() for phase in phases}
    for index, span in enumerate(spans.spans):
        if span[NAME] == "kernel.search" and spans.kind(span) in _READ_KINDS:
            searches[spans.method(span)].append(index)
    for index, span in enumerate(spans.spans):
        name = span[NAME]
        if not name.startswith("kernel.") or name == "kernel.search":
            continue
        search = spans.ancestor(span, "kernel.search")
        if search is None or spans.kind(span) not in _READ_KINDS:
            continue
        key = (spans.method(span), name[len("kernel."):])
        if key in phase_time:
            phase_time[key] += spans.self_time(index)
    for method, phases in _PHASES.items():
        count = len(searches[method])
        for phase in phases:
            if phase == "materialize":
                value = sum(spans.self_time(index) for index in searches[method])
            else:
                value = phase_time[(method, phase)]
            if missing or f"kernel.{phase}" in spans.missing:
                value = None
            metrics[f"kernels.{method}.{phase}_ms"] = _per(value, count)
    for method in _PEELING:
        metrics[f"kernels.{method}.peel_rounds"] = _mean(
            [result.iterations for result in results[method]]
        )
    metrics["kernels.lctc.expanded_edges"] = _mean(
        [result.extras["expanded_edges"] for result in results["lctc"]]
    )
    metrics["kernels.bulk_delete.g0_edges"] = _mean(
        [result.extras["g0_edges"] for result in results["bulk_delete"]]
    )
    everything = [index for indexes in searches.values() for index in indexes]
    total = sum(spans.spans[i][END] - spans.spans[i][START] for i in everything)
    covered = sum(spans.child_time[i] for i in everything)
    metrics["kernels.traced_share"] = None if missing else (covered / total if total else 0.0)
    return metrics


def _persistence_layer(spans: _Spans, run) -> dict:
    before, after = run.durability_before, run.durability_after

    def counter(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    appends = spans.durations("persistence.wal_append")
    checkpoints = spans.durations("persistence.checkpoint")
    written = None
    if not {"persistence.wal_write", "persistence.checkpoint"} & spans.missing:
        written = sum(
            span[ATTRS]["bytes"]
            for span in spans.spans
            if span[NAME] in ("persistence.wal_write", "persistence.checkpoint")
            and spans.kind(span) in _TIMED_KINDS
            and span[ATTRS]
        )
    recovers = [
        index
        for index, span in enumerate(spans.spans)
        if span[NAME] == "persistence.recover" and spans.kind(span) == "recover"
    ]
    recover_queries = [
        span[END] - span[START]
        for span in spans.spans
        if span[NAME] == "request" and span[ATTRS]["kind"] == "recover_query"
    ]
    return {
        "persistence.wal_append_us": None if appends is None else _mean(appends) * 1e6,
        "persistence.appends": counter("wal_appends"),
        "persistence.fsyncs": counter("wal_fsyncs"),
        "persistence.checkpoint_p50_ms": (
            None if checkpoints is None else (statistics.median(checkpoints) * 1e3 if checkpoints else 0.0)
        ),
        "persistence.checkpoint_max_ms": (
            None if checkpoints is None else max(checkpoints, default=0.0) * 1e3
        ),
        "persistence.checkpoints": counter("checkpoints"),
        "persistence.write_amp": _per(written, run.logical_delta_bytes, 1.0),
        "persistence.recover_load_ms": _per(
            spans.total("persistence.recover_load", kinds=("recover",)), len(recovers)
        ),
        "persistence.recover_replay_ms": (
            None
            if "persistence.recover" in spans.missing
            else _mean([spans.self_time(index) for index in recovers]) * 1e3
        ),
        "persistence.recover_first_query_ms": _mean(recover_queries) * 1e3,
        "persistence.deltas_replayed": _mean([r["replayed_deltas"] for r in run.recoveries]),
    }


def _serving_layer(spans: _Spans, run) -> dict:
    batches = run.batches
    batch_requests = [
        index
        for index, span in enumerate(spans.spans)
        if span[NAME] == "request" and span[ATTRS]["kind"] == "batch"
    ]
    # Kernel time per lane (worker thread) of each batch, from its spans;
    # process mode has no worker spans and uses the shards instead.
    thread_lanes: dict[int, dict] = {}
    for span in spans.spans:
        if span[NAME] == "kernel.search" and span[REQUEST] is not None:
            lanes = thread_lanes.setdefault(span[REQUEST], {})
            lanes[span[THREAD]] = lanes.get(span[THREAD], 0.0) + span[END] - span[START]
    busy, outside = [], []
    for position, (_, seconds, _, results) in enumerate(batches):
        elapsed = [result.elapsed_seconds if result is not None else 0.0 for result in results]
        if run.batch_lanes:
            lanes = {}
            for lane, value in zip(run.batch_lanes[position], elapsed):
                lanes[lane] = lanes.get(lane, 0.0) + value
        else:
            lanes = thread_lanes.get(batch_requests[position], {})
        busy.append(sum(elapsed))
        outside.append(seconds - max(lanes.values(), default=0.0))
    wall = sum(seconds for _, seconds, _, _ in batches)
    routes = spans.durations("serving.route", kinds=("batch",))
    stats = run.serving_stats
    return {
        "serving.batch_ms": _mean([seconds for _, seconds, _, _ in batches]) * 1e3,
        "serving.lease_ms": _per(spans.total("serving.lease", kinds=("batch",)), len(batches)),
        "serving.kernel_busy_ms": _mean(busy) * 1e3,
        "serving.outside_kernel_ms": (
            None if "kernel.search" in spans.missing and not run.batch_lanes else _mean(outside) * 1e3
        ),
        "serving.parallelism": sum(busy) / wall if wall else 0.0,
        "serving.route_us": None if routes is None else _mean(routes) * 1e6,
        "serving.respawns": stats.get("respawns", 0),
        "serving.requeues": stats.get("requeued_queries", 0),
        "serving.timeouts": stats.get("timeouts", 0),
    }


def per_layer(run, tracer) -> dict:
    """Every ``PER_LAYER`` metric but ``trace.overhead`` (the caller's)."""
    spans = _Spans(tracer)
    reads = sum(
        1 for span in spans.spans if span[NAME] == "request" and span[ATTRS]["kind"] in _READ_KINDS
    )
    metrics = {
        "core.resolve_ms": _per(spans.total("core.resolve"), reads),
        "core.store_copy_ms": _per(spans.total("core.store_copy", inside="core.resolve"), reads),
        "core.kernel_derive_ms": _per(spans.total("core.kernel_derive"), reads),
        "core.full_rebuild_ms": _per(spans.total("core.full_rebuild"), reads),
    }
    for name in _CORE_COUNTS:
        metrics[f"core.{name}"] = run.stats_after.get(name, 0) - run.stats_before.get(name, 0)
    for name in ("graph.apply_delta", "graph.patch_incidence", "trusses.incremental_update"):
        metrics[f"{name}_ms"] = _per(spans.total(name), reads)
    results: dict[str, list] = {method: [] for method in METHODS}
    for method, _, result in run.queries:
        if result is not None:
            results[method].append(result)
    metrics.update(_kernel_layer(spans, results))
    metrics.update(_persistence_layer(spans, run))
    metrics.update(_serving_layer(spans, run))
    return metrics
