#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark runs.

Usage (from the repository root)::

    python3 benchmarks/suite/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold the rows ``run.py --out`` appends, one per workload run.
Rows pair up by workload and seed, in file order.  For every end-to-end
metric on every workload the report gives each side's median and
quartiles, how many pairs the change won, and a verdict:

* ``improved`` — the change won at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's own
  spread (the distance between its quartiles);
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's spread, as a share of its median, is wider
  than the bound, so the bound cannot be checked (unless every run of the
  change reads better than every run of the parent: then ``improved``);
* ``unchanged`` — none of the above.

Bounds and directions come from ``BENCHMARK.json``; metrics only some
workloads have take theirs from ``metrics.WORKLOAD_SPECIFIC`` (all
lower-is-better), and any rise of ``error_rate`` is a regression.  With
traced rows on both sides, per-layer medians are listed too: they show
where a change moved time, and carry no verdict.  The exit code is 1 when
anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from metrics import WORKLOAD_SPECIFIC  # noqa: E402 (needs the sources on the path)

#: Sample counts, reported but never judged.
_UNJUDGED = ("query_count", "mutation_count")


def _load(path: str) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                rows[row["workload"]].append(row)
    return rows


def _pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for row in change:
        by_seed[row["seed"]].append(row)
    pairs = []
    for row in parent:
        if by_seed[row["seed"]]:
            pairs.append((row, by_seed[row["seed"]].pop(0)))
    return pairs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            bound: float, higher_is_better: bool) -> str:
    """The verdict for one metric on one workload (see the module docstring)."""
    sign = -1.0 if higher_is_better else 1.0
    q1, median_a, q3 = _quartiles(parent)
    median_b = _quartiles(change)[1]
    if bound == 0.0:  # error_rate: any rise fails
        return "regressed" if max(change) > max(parent) else "unchanged"
    better = sign * (median_b - median_a) < 0
    if pairs and wins >= 0.9 * pairs and better and abs(median_b - median_a) > q3 - q1:
        return "improved"
    spread = (q3 - q1) / abs(median_a) if median_a else 0.0
    if spread > bound:
        every_better = all(sign * (b - a) < 0 for a in parent for b in change)
        return "improved" if every_better else "unresolved"
    worse = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    return "regressed" if worse > bound else "unchanged"


def _judged_metrics(benchmark: dict) -> dict[str, tuple[float, bool]]:
    """metric -> (bound, higher is better)."""
    judged = {
        entry["name"]: (entry["bound"], entry["better"] == "higher")
        for entry in benchmark["end_to_end"]
    }
    for name, (_, bound) in WORKLOAD_SPECIFIC.items():
        if name not in _UNJUDGED:
            judged[name] = (bound, False)
    return judged


def compare(parent_rows: dict, change_rows: dict, benchmark: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<15} {'metric':<22} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>7} {'bound':>6}  verdict"
    ]
    regressed = False
    for workload in sorted(set(parent_rows) & set(change_rows)):
        pairs = _pairs(parent_rows[workload], change_rows[workload])
        for metric, (bound, higher) in _judged_metrics(benchmark).items():
            parent = [a["metrics"][metric] for a, _ in pairs if metric in a["metrics"]]
            change = [b["metrics"][metric] for _, b in pairs if metric in b["metrics"]]
            if not parent or len(parent) != len(change):
                continue
            sign = -1.0 if higher else 1.0
            wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
            result = verdict(parent, change, wins, len(pairs), bound, higher)
            regressed = regressed or result == "regressed"
            qa, qb = _quartiles(parent), _quartiles(change)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            cell_a = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
            cell_b = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
            lines.append(
                f"{workload:<15} {metric:<22} {cell_a:>34} {cell_b:>34} {delta:>+8.1%} "
                f"{wins:>3}/{len(pairs):<3} {bound:>6.0%}  {result}"
            )
        traced = [(a["per_layer"], b["per_layer"]) for a, b in pairs
                  if "per_layer" in a and "per_layer" in b]
        for metric in traced[0][0] if traced else ():
            parent = [a[metric] for a, _ in traced if a[metric] is not None]
            change = [b[metric] for _, b in traced if b[metric] is not None]
            if parent and change:
                lines.append(
                    f"{workload:<15} {metric:<40} parent {statistics.median(parent):.4g}"
                    f"  change {statistics.median(change):.4g}"
                )
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="rows of the parent commit")
    parser.add_argument("change", help="rows of the change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    lines, regressed = compare(_load(args.parent), _load(args.change), benchmark)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
