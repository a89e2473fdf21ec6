#!/usr/bin/env python3
"""Evaluate community-search methods against planted ground truth (Figure 12).

This example runs the full quality pipeline of the paper's Exp-3 on one of
the built-in synthetic networks: draw query sets from single ground-truth
communities, run MDC, QDC, Truss and LCTC for each query, and report the mean
F1 score, runtime and community size per method.

Run with::

    python examples/ground_truth_evaluation.py [dataset] [num_queries]

where ``dataset`` is one of the registry names (default ``dblp-like``) and
``num_queries`` defaults to 15.
"""

from __future__ import annotations

import sys

from repro import build_engine
from repro.datasets import dataset_names, ground_truth_query_sets, load_dataset
from repro.experiments.config import QUICK_CONFIG
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_method_on_queries, score_against_ground_truth

METHODS = ("mdc", "qdc", "truss", "lctc")


def main(argv: list[str]) -> int:
    dataset = argv[1] if len(argv) > 1 else "dblp-like"
    num_queries = int(argv[2]) if len(argv) > 2 else 15
    if dataset not in dataset_names():
        print(f"unknown dataset {dataset!r}; choose from {', '.join(dataset_names())}")
        return 2

    network = load_dataset(dataset)
    graph = network.graph
    print(
        f"dataset {dataset}: {graph.number_of_nodes()} nodes, "
        f"{graph.number_of_edges()} edges, {len(network.communities)} ground-truth communities"
    )
    print(f"running {num_queries} query sets per method...\n")

    engine = build_engine(graph)
    pairs = ground_truth_query_sets(network, num_queries, size_range=(1, 8), seed=42)
    queries = [query for query, _truth in pairs]
    truths = [truth for _query, truth in pairs]

    rows = []
    for method in METHODS:
        run = run_method_on_queries(method, engine, queries, QUICK_CONFIG, eta=200)
        rows.append(
            {
                "method": method,
                "f1": score_against_ground_truth(run, truths),
                "time_s": run.mean_elapsed,
                "nodes": run.mean_nodes,
                "edges": run.mean_edges,
                "failures": run.failures,
            }
        )

    print(format_table(rows, title=f"Figure 12-style evaluation on {dataset}"))
    best = max(rows, key=lambda row: row["f1"])
    print(f"\nbest-aligned method on this workload: {best['method']} (F1 = {best['f1']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
