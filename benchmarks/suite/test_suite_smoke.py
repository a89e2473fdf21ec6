"""Smoke test of the benchmark suite: every workload at its smallest run length.

Run by path from the repository root::

    PYTHONPATH=src python3 -m pytest benchmarks/suite/test_suite_smoke.py -q

One traced invocation covers both runs of every workload (the untraced one
reports the end-to-end metrics, the traced one the per-layer metrics), so
the whole test takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def traced_run():
    done = subprocess.run(
        [sys.executable, str(RUN), "--seconds", "0", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()
        printed[(workload, metric)] = (value, unit)
    return printed, json.loads(lines[-1])


def test_every_benchmark_metric_is_printed_with_its_unit(traced_run):
    printed, _ = traced_run
    for workload in WORKLOADS:
        for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            value, unit = printed[(workload, entry["name"])]
            assert unit == entry["unit"], (workload, entry["name"])
            assert value != "null", (workload, entry["name"])


def test_no_operation_fails_and_every_answer_matches(traced_run):
    printed, result = traced_run
    for workload in WORKLOADS:
        assert float(printed[(workload, "error_rate")][0]) == 0.0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_per_layer_counts_are_present(traced_run):
    printed, result = traced_run
    counts = [entry["name"] for entry in BENCHMARK["per_layer"] if entry["unit"] == "count"]
    for workload in WORKLOADS:
        for name in counts:
            assert float(printed[(workload, name)][0]) >= 0
            assert result["metrics"][f"{workload}.{name}"]["unit"] == "count"
    # Each workload enters the layers it was chosen for.
    assert float(printed[("read", "core.hits")][0]) > 0
    assert float(printed[("churn", "core.delta_applies")][0]) > 0
    assert float(printed[("churn", "core.time_travel_reads")][0]) > 0
    assert float(printed[("durable", "persistence.appends")][0]) > 0
    assert float(printed[("durable", "persistence.checkpoints")][0]) > 0
    for served in ("served_thread", "served_process"):
        assert float(printed[(served, "serving.batch_ms")][0]) > 0


def test_result_line_keys(traced_run):
    printed, result = traced_run
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Without --workload every workload of the suite runs; BENCHMARK.json
    # lists the ones the regression check runs.
    suite = {workload for workload, _ in printed}
    assert set(WORKLOADS) <= suite
    names = {entry["name"] for entry in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == {f"{w}.{n}" for w in suite for n in names}


def test_fails_without_the_program_sources(tmp_path):
    """In a directory holding only the benchmark, it must refuse to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__")
        )
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
