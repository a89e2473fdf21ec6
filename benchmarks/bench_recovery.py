"""Recovery benchmark: cold start from a checkpoint vs full rebuild.

This is the acceptance gate for the durability layer
(:mod:`repro.engine.persistence`).  A durable engine at rebuild scale
(the same ``scaled_dblp_like`` population ``bench_full_rebuild.py`` gates
on) writes one atomic checkpoint and shuts down; the measured comparison
is what it costs to get a queryable snapshot back:

* **full rebuild** — construct a fresh :class:`~repro.engine.CTCEngine`
  over the raw graph and take its first snapshot, paying the from-scratch
  truss decomposition; versus
* **cold start** — :meth:`CTCEngine.recover`, which memory-maps the
  checkpoint's CSR/trussness/supports arrays, replays the (empty) WAL
  tail, and serves the same snapshot without decomposing anything.

The second measured quantity is the WAL's *append overhead*: sustained
mutations/sec through the engine with durability off, and with the WAL
under each fsync policy (``off``/``batch``/``always``) — the price of
crash safety per mutation.

* ``test_recovery_results_identical`` (runs in CI) proves the recovered
  snapshot is bit-identical to the uninterrupted engine's — CSR buffers,
  trussness, supports — after a mixed add/remove stream and an
  intermediate checkpoint.
* ``test_recovery_json_artifact`` (runs in CI) measures both quantities
  and writes ``BENCH_recovery.json``.
* ``test_recovery_speedup_at_least_10x`` (wall-clock gate, deselected in
  CI via ``-k "not speedup"``) gates the median cold-start speedup at
  >= ``TARGET_SPEEDUP`` x the full rebuild at rebuild scale.

Override the scale with the ``BENCH_RECOVERY_SCALE`` /
``BENCH_RECOVERY_MUTATIONS`` / ``BENCH_RECOVERY_ROUNDS`` env vars for
smoke runs (CI uses scale 2 x 1 round).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py -q -s
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest
from _artifact import write_artifact
from _populations import scaled_dblp_like

from repro.datasets.queries import EdgeChurn
from repro.datasets.registry import load_dataset
from repro.engine import CTCEngine, DurabilityConfig

#: Scale factor of the gate graph relative to the registry's dblp-like
#: (env-overridable; CI smoke uses 2).
SCALE = int(os.environ.get("BENCH_RECOVERY_SCALE", "8"))

#: Mutations per append-overhead measurement (env-overridable).
MUTATIONS = int(os.environ.get("BENCH_RECOVERY_MUTATIONS", "200"))

#: Measured rounds; gates and the artifact use the median (CI uses 1).
ROUNDS = int(os.environ.get("BENCH_RECOVERY_ROUNDS", "3"))

#: Acceptance gate: full-rebuild seconds / cold-start seconds, median.
TARGET_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def population():
    """The registry's dblp-like recipe at :data:`SCALE` x size."""
    return scaled_dblp_like(SCALE)


@pytest.fixture(scope="module")
def checkpoint_dir(population, tmp_path_factory):
    """A data directory holding one published checkpoint of the population."""
    data_dir = tmp_path_factory.mktemp("recovery") / "store"
    engine = CTCEngine(
        population,
        copy=False,
        durability=DurabilityConfig(
            path=data_dir, fsync="off", checkpoint_every=None
        ),
    )
    engine.checkpoint()
    engine.close()
    return data_dir


def _rebuild_seconds(population) -> float:
    started = time.perf_counter()
    engine = CTCEngine(population, copy=False)
    engine.snapshot()
    return time.perf_counter() - started


def _recover_seconds(checkpoint_dir) -> float:
    started = time.perf_counter()
    engine = CTCEngine.recover(checkpoint_dir)
    engine.snapshot()
    elapsed = time.perf_counter() - started
    engine.close()
    return elapsed


def _mutations_per_second(graph, durability) -> float:
    engine = CTCEngine(graph, durability=durability)
    churn = EdgeChurn(engine, seed=7)
    started = time.perf_counter()
    for _ in range(MUTATIONS):
        churn.step()
    elapsed = time.perf_counter() - started
    engine.close()
    return MUTATIONS / elapsed


def _append_overhead_rows(tmp_path) -> list[dict]:
    graph = load_dataset("dblp-like").graph
    rows = []
    baseline = _mutations_per_second(graph, None)
    rows.append(
        {"durability": "none", "mutations_per_sec": round(baseline, 1)}
    )
    for policy in ("off", "batch", "always"):
        durable = _mutations_per_second(
            graph,
            DurabilityConfig(
                path=tmp_path / f"wal-{policy}",
                fsync=policy,
                checkpoint_every=None,
            ),
        )
        rows.append(
            {
                "durability": f"fsync={policy}",
                "mutations_per_sec": round(durable, 1),
                "append_overhead": round(baseline / durable, 3),
            }
        )
    return rows


def test_recovery_results_identical(tmp_path):
    """Recovered snapshots are bit-identical to the uninterrupted engine's."""
    graph = load_dataset("dblp-like").graph
    oracle = CTCEngine(graph)
    durable = CTCEngine(
        graph,
        durability=DurabilityConfig(
            path=tmp_path / "store", fsync="batch", checkpoint_every=None
        ),
    )
    oracle_churn = EdgeChurn(oracle, seed=11)
    durable_churn = EdgeChurn(durable, seed=11)
    for step in range(60):
        oracle_churn.step()
        durable_churn.step()
        if step == 29:
            durable.checkpoint()  # mid-stream: recovery replays the rest
    durable.close()

    recovered = CTCEngine.recover(tmp_path / "store")
    expected = oracle.snapshot()
    actual = recovered.snapshot()
    assert recovered.version == durable.version
    assert np.array_equal(expected.csr.indptr, actual.csr.indptr)
    assert np.array_equal(expected.csr.indices, actual.csr.indices)
    assert np.array_equal(expected.csr.edge_u, actual.csr.edge_u)
    assert np.array_equal(expected.csr.edge_v, actual.csr.edge_v)
    assert np.array_equal(expected.trussness, actual.trussness)
    if expected.incidence is not None and actual.incidence is not None:
        assert np.array_equal(
            expected.incidence.inc_indptr, actual.incidence.inc_indptr
        )
    assert set(expected.graph.edges()) == set(actual.graph.edges())
    recovered.close()


def test_recovery_json_artifact(population, checkpoint_dir, tmp_path):
    """Measure cold start vs rebuild and WAL overhead; write the trajectory."""
    rows = []
    for round_index in range(1, ROUNDS + 1):
        rebuild_s = _rebuild_seconds(population)
        recover_s = _recover_seconds(checkpoint_dir)
        rows.append(
            {
                "round": round_index,
                "rebuild_s": round(rebuild_s, 4),
                "recover_s": round(recover_s, 4),
                "cold_start_speedup": round(rebuild_s / recover_s, 2),
            }
        )
    rows.extend(_append_overhead_rows(tmp_path))
    path = write_artifact(
        "bench_recovery",
        {
            "dataset": f"dblp-like (registry recipe at {SCALE}x scale)",
            "rounds": ROUNDS,
            "wal_mutations": MUTATIONS,
            "gate": {"cold_start_speedup": TARGET_SPEEDUP},
        },
        env_var="BENCH_RECOVERY_JSON",
        default_path="BENCH_recovery.json",
        rows=rows,
        medians=("cold_start_speedup", "mutations_per_sec"),
    )
    report = [f"recovery trajectory -> {path}"]
    for row in rows:
        if "round" in row:
            report.append(
                f"round {row['round']}: rebuild {row['rebuild_s']:8.3f}s, "
                f"cold start {row['recover_s']:8.3f}s "
                f"({row['cold_start_speedup']:.1f}x)"
            )
        else:
            overhead = row.get("append_overhead")
            suffix = f" ({overhead:.2f}x slower)" if overhead else ""
            report.append(
                f"{row['durability']:>14}: "
                f"{row['mutations_per_sec']:8.1f} mutations/sec{suffix}"
            )
    print("\n" + "\n".join(report))
    assert all(
        row["recover_s"] > 0 for row in rows if "recover_s" in row
    )


def test_recovery_speedup_at_least_10x(population, checkpoint_dir):
    """Acceptance gate: cold start from checkpoint >= 10x the full rebuild."""
    speedups = []
    for _ in range(ROUNDS):
        rebuild_s = _rebuild_seconds(population)
        recover_s = _recover_seconds(checkpoint_dir)
        speedups.append(rebuild_s / recover_s)
    median = statistics.median(speedups)
    print(
        f"\ncold start speedup over {ROUNDS} rounds: "
        f"{', '.join(f'{s:.1f}x' for s in speedups)} (median {median:.1f}x)"
    )
    assert median >= TARGET_SPEEDUP, (
        f"cold start from checkpoint is only {median:.1f}x faster than a "
        f"full rebuild (gate: {TARGET_SPEEDUP}x)"
    )
