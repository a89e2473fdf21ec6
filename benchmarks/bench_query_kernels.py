"""Queries/sec: CSR-native kernels vs. the dict path, over one snapshot graph.

Both contenders answer over the *same* graph version with its truss index
prebuilt — no per-query decomposition on either side — so the comparison
isolates pure query execution: the array kernels of
:mod:`repro.ctc.kernels` on a cached :class:`CTCEngine` snapshot against
the dict-of-sets algorithms walking a :class:`TrussIndex` built once over
that snapshot's graph, outside every timed region.

``test_kernel_speedup_at_least_2x`` is the acceptance gate for this PR's
tentpole: CSR-native LCTC queries must deliver at least 2x the dict path's
queries/sec on the synthetic benchmark graph.  The equivalence suite
(``tests/ctc/test_kernel_equivalence.py``) proves the two paths return
identical communities, so the gate measures a pure execution-layer win.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_query_kernels.py -q -s
"""

from __future__ import annotations

import time

import pytest

from repro.ctc.api import search
from repro.datasets.queries import QueryWorkloadGenerator
from repro.datasets.registry import load_dataset
from repro.engine import CTCEngine
from repro.trusses.index import TrussIndex

#: How many times the query workload is replayed when measuring throughput.
ROUNDS = 3

#: Community-search method under test; lctc is the paper's headline method
#: and the regime the kernels target (many small, local queries per
#: snapshot).  The eta budget matches bench_engine_throughput.py.
METHOD = "lctc"
ETA = 50


@pytest.fixture(scope="module")
def network():
    return load_dataset("dblp-like")


@pytest.fixture(scope="module")
def queries(network):
    generator = QueryWorkloadGenerator(network.graph, seed=7)
    return generator.random_queries(2, 4)


@pytest.fixture(scope="module")
def engine(network, queries):
    """The kernel path's engine; its first query builds the kernel outside timing."""
    engine = CTCEngine(network.graph)
    engine.query(queries[0], method=METHOD, eta=ETA)
    return engine


@pytest.fixture(scope="module")
def index(engine):
    """The dict path's TrussIndex over the same snapshot graph, built once."""
    return TrussIndex(engine.snapshot().graph)


def _run(target, queries) -> int:
    """Answer ``queries`` ROUNDS times on ``target`` (an engine or an index)."""
    count = 0
    for _ in range(ROUNDS):
        results = [search(target, query, method=METHOD, eta=ETA) for query in queries]
        assert all(result.contains_query() for result in results)
        count += len(results)
    return count


def test_bench_dict_path(benchmark, index, queries):
    """Dict path: prebuilt TrussIndex, dict-of-sets execution."""
    count = benchmark.pedantic(_run, args=(index, queries), rounds=1, iterations=1)
    assert count == ROUNDS * len(queries)


def test_bench_kernel_path(benchmark, engine, queries):
    """Kernel path: the cached snapshot, array-native execution."""
    count = benchmark.pedantic(_run, args=(engine, queries), rounds=1, iterations=1)
    assert count == ROUNDS * len(queries)
    # Every query hit the cached snapshot; only the cold build missed.
    assert engine.stats.misses == 1


def test_kernel_speedup_at_least_2x(engine, index, queries):
    """Acceptance gate: CSR-kernel throughput >= 2x dict-path throughput."""
    started = time.perf_counter()
    dict_count = _run(index, queries)
    dict_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    kernel_count = _run(engine, queries)
    kernel_elapsed = time.perf_counter() - started

    dict_qps = dict_count / dict_elapsed
    kernel_qps = kernel_count / kernel_elapsed
    print(
        f"\ndict path:   {dict_qps:8.1f} queries/sec"
        f"\nkernel path: {kernel_qps:8.1f} queries/sec"
        f"\nspeedup:     {kernel_qps / dict_qps:8.1f}x"
    )
    assert kernel_qps >= 2.0 * dict_qps, (
        f"kernel path ({kernel_qps:.1f} q/s) is not >= 2x dict path ({dict_qps:.1f} q/s)"
    )
