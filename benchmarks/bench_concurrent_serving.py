"""Mixed read/write throughput: concurrent serving layer vs single-thread engine.

This is the acceptance gate for the serving layer.  The workload is a
stream of arrivals over a union of ``REPLICAS`` disjoint relabeled
dblp-like networks (relabeled ``(replica, node)``, so the union has
``REPLICAS`` connected components): per batch window, ``MUTATIONS``
edge mutations arrive interleaved with ``BATCH`` CTC queries.

* **baseline** — a single-thread :class:`CTCEngine` serves the arrivals
  in order: every query lands right after a mutation, misses the snapshot
  cache, and pays a delta apply over the whole ~49k-edge union.
* **thread serving** — :class:`ServingEngine` in thread mode coalesces
  each window's queries into one ``query_batch`` against one epoch-pinned
  lease, answered on the calling thread: the window's mutations are
  absorbed by a *single* composed delta apply, amortized over the whole
  batch.  This is batching alone; thread mode has no worker pool, so its
  ``workers`` argument does not change the measurement and the arm is not
  swept.
* **process serving** — shard-per-process workers over shared-memory
  snapshot buffers: each mutation dirties only its own shard (~1/N of the
  union), so a window's misses patch small per-shard snapshots instead of
  the union — the dominant win on this single-core container, on top of
  whatever hardware parallelism the host offers.

``test_thread_batching_speedup_at_least_1_5x`` and
``test_process_4worker_speedup_at_least_2_5x`` gate the two modes on the
median of ``GATE_ROUNDS`` back-to-back measurements;
``test_serving_json_artifact`` records one thread row and sweeps the
process arm over ``WORKER_COUNTS``, with queries/sec and speedup per row
and scaling efficiency (speedup / workers) per process row.
CI runs the cheap parity/artifact tests and deselects the wall-clock
gates (``-k "not speedup"``); override the sweep with the
``BENCH_SERVING_WORKERS`` / ``BENCH_SERVING_BATCHES`` env vars for smoke
runs.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_concurrent_serving.py -q -s
"""

from __future__ import annotations

import os
import statistics
import time

import pytest
from _artifact import write_artifact

from repro.datasets.queries import EdgeChurn, QueryWorkloadGenerator
from repro.datasets.registry import load_dataset
from repro.engine import CTCEngine, ServingEngine
from repro.graph.simple_graph import UndirectedGraph

#: Disjoint relabeled dblp-like copies forming the served union graph.
REPLICAS = 8

#: Queries per batch window (one serving query_batch call).
BATCH = 8

#: Mutations arriving inside each batch window (one per query in the
#: baseline's arrival order, so every baseline query misses the cache).
MUTATIONS = 8

#: Batch windows per measured round (env-overridable for CI smoke).
BATCHES = int(os.environ.get("BENCH_SERVING_BATCHES", "6"))

#: Process worker counts swept by the artifact (env-overridable for CI smoke).
WORKER_COUNTS = tuple(
    int(w) for w in os.environ.get("BENCH_SERVING_WORKERS", "1,4,8").split(",")
)

#: Acceptance gates, median-of-rounds: thread batching, process at 4 workers.
TARGET_THREAD_SPEEDUP = 1.5
TARGET_PROCESS_SPEEDUP = 2.5
GATE_ROUNDS = 3

METHOD = "lctc"
ETA = 50


@pytest.fixture(scope="module")
def union_graph():
    base = load_dataset("dblp-like").graph
    union = UndirectedGraph()
    for replica in range(REPLICAS):
        for u, v in base.edges():
            union.add_edge((replica, u), (replica, v))
    return union


@pytest.fixture(scope="module")
def queries(union_graph):
    """Two 2-node queries per replica, relabeled into the union."""
    base = load_dataset("dblp-like").graph
    generator = QueryWorkloadGenerator(base, seed=7)
    per_replica = generator.random_queries(2, 2)
    pool = []
    for replica in range(REPLICAS):
        for query in per_replica:
            pool.append([(replica, node) for node in query])
    return pool


def _batch_windows(queries):
    """Yield ``BATCHES`` windows of ``BATCH`` queries, rotating the pool."""
    for index in range(BATCHES):
        start = (index * BATCH) % len(queries)
        window = [queries[(start + offset) % len(queries)] for offset in range(BATCH)]
        yield window


def _run_baseline(engine, queries) -> tuple[int, list]:
    """Serve the arrival stream in order on a single-thread engine.

    Each window interleaves its MUTATIONS mutations between the first
    queries, the arrival order a non-batching front-end is stuck with.
    """
    protected = {node for query in queries for node in query}
    churn = EdgeChurn(engine, seed=11, protect=protected)
    assert churn.mutable_edges > 0
    results = []
    count = 0
    for window in _batch_windows(queries):
        for position, query in enumerate(window):
            if position < MUTATIONS:
                assert churn.step()
            result = engine.query(query, method=METHOD, eta=ETA)
            results.append((result.nodes, result.trussness))
            count += 1
    return count, results


def _run_serving(serving, queries) -> tuple[int, list]:
    """Serve the same stream through the batching front-end.

    The window's mutations land first (the writer is never blocked), then
    the window's queries run as one coalesced batch.
    """
    protected = {node for query in queries for node in query}
    churn = EdgeChurn(serving, seed=11, protect=protected)
    assert churn.mutable_edges > 0
    results = []
    count = 0
    for window in _batch_windows(queries):
        for _ in range(MUTATIONS):
            assert churn.step()
        for result in serving.query_batch(window, method=METHOD, eta=ETA):
            results.append((result.nodes, result.trussness))
            count += 1
    return count, results


def _measure(union_graph, queries, mode, workers) -> float:
    """Return serving queries/sec for one (mode, workers) configuration."""
    with ServingEngine(union_graph, workers=workers, mode=mode) as serving:
        serving.query(queries[0], method=METHOD, eta=ETA)  # warm-up
        started = time.perf_counter()
        count, _ = _run_serving(serving, queries)
        elapsed = time.perf_counter() - started
    return count / elapsed


def _measure_baseline(union_graph, queries) -> float:
    engine = CTCEngine(union_graph)
    engine.query(queries[0], method=METHOD, eta=ETA)  # warm-up
    started = time.perf_counter()
    count, _ = _run_baseline(engine, queries)
    elapsed = time.perf_counter() - started
    return count / elapsed


# ----------------------------------------------------------------------
# correctness smokes (kept cheap; these DO run in CI)
# ----------------------------------------------------------------------
def test_modes_agree_on_static_results(union_graph, queries):
    """Without churn, every front-end returns the baseline's communities."""
    engine = CTCEngine(union_graph)
    sample = queries[:4]
    expected = [
        (r.nodes, r.trussness)
        for r in (engine.query(q, method=METHOD, eta=ETA) for q in sample)
    ]
    for mode in ("thread", "process"):
        with ServingEngine(union_graph, workers=2, mode=mode) as serving:
            got = [
                (r.nodes, r.trussness)
                for r in serving.query_batch(sample, method=METHOD, eta=ETA)
            ]
            assert got == expected, f"{mode} serving diverged"


def test_thread_serving_coalesces_the_windows(union_graph, queries):
    """The batched front-end resolves one lease per window, not per query."""
    with ServingEngine(union_graph, workers=2) as serving:
        count, _ = _run_serving(serving, queries)
        assert count == BATCHES * BATCH
        assert serving.stats.batches == BATCHES
        assert serving.stats.leases == BATCHES
        assert serving.stats.coalesced_queries == BATCHES * (BATCH - 1)


def test_process_serving_shards_by_replica(union_graph, queries):
    """Component sharding splits the union; churn stays within shards."""
    with ServingEngine(union_graph, workers=4, mode="process") as serving:
        assert serving.shard_count == 4
        count, _ = _run_serving(serving, queries)
        assert count == BATCHES * BATCH
        assert serving.stats.cross_shard_rejects == 0


def test_serving_json_artifact(union_graph, queries):
    """Measure the thread arm, sweep the process worker counts, write the JSON."""
    baseline_qps = _measure_baseline(union_graph, queries)
    thread_qps = _measure(union_graph, queries, "thread", 1)
    rows = [
        {
            "mode": "baseline",
            "workers": 1,
            "queries_per_sec": round(baseline_qps, 2),
        },
        {
            "mode": "thread",
            "workers": 1,
            "queries_per_sec": round(thread_qps, 2),
            "speedup": round(thread_qps / baseline_qps, 2),
        },
    ]
    for workers in WORKER_COUNTS:
        qps = _measure(union_graph, queries, "process", workers)
        speedup = qps / baseline_qps
        rows.append(
            {
                "mode": "process",
                "workers": workers,
                "queries_per_sec": round(qps, 2),
                "speedup": round(speedup, 2),
                "scaling_efficiency": round(speedup / workers, 2),
            }
        )
    path = write_artifact(
        "bench_concurrent_serving",
        {
            "dataset": f"{REPLICAS}x dblp-like (disjoint relabeled replicas)",
            "batch": BATCH,
            "mutations_per_batch": MUTATIONS,
            "batches": BATCHES,
            "gate": {
                "thread_batching_speedup": TARGET_THREAD_SPEEDUP,
                "process_4worker_speedup": TARGET_PROCESS_SPEEDUP,
            },
        },
        env_var="BENCH_SERVING_JSON",
        default_path="BENCH_serving.json",
        rows=rows,
        medians=("queries_per_sec", "speedup"),
    )
    report = [f"serving trajectory -> {path}"]
    for row in rows:
        speedup = row.get("speedup")
        suffix = f" ({speedup:.2f}x)" if speedup is not None else ""
        report.append(
            f"{row['mode']:>8} x{row['workers']}: "
            f"{row['queries_per_sec']:8.1f} queries/sec{suffix}"
        )
    print("\n" + "\n".join(report))
    assert all(row["queries_per_sec"] > 0 for row in rows)


# ----------------------------------------------------------------------
# wall-clock gates (median-of-rounds; deselected in CI via -k "not speedup")
# ----------------------------------------------------------------------
def _gate(union_graph, queries, mode, workers, label, target):
    ratios = []
    report = [""]
    for round_index in range(GATE_ROUNDS):
        baseline_qps = _measure_baseline(union_graph, queries)
        serving_qps = _measure(union_graph, queries, mode, workers)
        ratios.append(serving_qps / baseline_qps)
        report.append(
            f"round {round_index}: baseline {baseline_qps:8.1f} q/s, "
            f"{label} {serving_qps:8.1f} q/s ({ratios[-1]:.2f}x)"
        )
    median = statistics.median(ratios)
    report.append(f"median: {median:.2f}x (target {target}x)")
    print("\n".join(report))
    assert median >= target, (
        f"{label} reached only {median:.2f}x the in-order single-thread "
        f"baseline (target {target}x); rounds: "
        + ", ".join(f"{r:.2f}x" for r in ratios)
    )


def test_thread_batching_speedup_at_least_1_5x(union_graph, queries):
    """Gate: batched thread serving >= 1.5x the in-order single-thread engine."""
    _gate(
        union_graph, queries, "thread", 1,
        "thread serving (batched, calling thread)", TARGET_THREAD_SPEEDUP,
    )


def test_process_4worker_speedup_at_least_2_5x(union_graph, queries):
    """Gate: shard-per-process serving >= 2.5x the single-thread engine."""
    _gate(
        union_graph, queries, "process", 4,
        "process serving at 4 workers", TARGET_PROCESS_SPEEDUP,
    )
