#!/usr/bin/env python3
"""Demonstrate the free-rider effect and how the CTC model avoids it.

Section 3.2 of the paper defines the free-rider effect: a community
definition suffers from it when bolting a query-independent dense subgraph
onto the answer does not hurt the goodness metric.  This example shows, on a
synthetic social network:

1. the maximal connected k-truss (the ``Truss`` baseline) drags in nodes far
   from the query — the free riders;
2. the CTC algorithms (BulkDelete and LCTC) trim them while keeping the same
   trussness;
3. the retained percentage, density and diameter before/after, which is
   exactly what Figures 5-10 of the paper measure.

Run with::

    python examples/free_rider_demo.py
"""

from __future__ import annotations

from repro import build_engine, search
from repro.ctc.free_rider import free_riders, retained_node_percentage
from repro.datasets import ground_truth_query_sets, load_dataset
from repro.graph.traversal import query_distances


def main() -> None:
    network = load_dataset("facebook-like")
    graph = network.graph
    print(
        f"facebook-like network: {graph.number_of_nodes()} nodes, "
        f"{graph.number_of_edges()} edges\n"
    )
    engine = build_engine(graph)

    # Pick a query from inside one planted community.
    (query, community), *_ = ground_truth_query_sets(network, 1, size_range=(3, 3), seed=11)
    print(f"query nodes: {sorted(query)} (drawn from a planted community of size {len(community)})\n")

    reference = search(engine, query, method="truss")
    print("[truss] the raw maximal connected k-truss G0")
    print(f"  trussness {reference.trussness}, nodes {reference.num_nodes}, "
          f"density {reference.density():.2f}, diameter {reference.diameter()}")

    for method in ("bulk-delete", "lctc"):
        result = search(engine, query, method=method, eta=200)
        riders = free_riders(result.graph, reference.graph)
        kept = retained_node_percentage(result.graph, reference.graph)
        print(f"\n[{method}]")
        print(f"  trussness {result.trussness}, nodes {result.num_nodes}, "
              f"density {result.density():.2f}, diameter {result.diameter()}")
        print(f"  kept {kept:.0f}% of G0's nodes, removed {len(riders)} free riders")
        if riders:
            distances = query_distances(reference.graph, query)
            farthest = max(riders, key=lambda node: distances.get(node, 0))
            print(
                f"  farthest removed node sits {distances[farthest]:.0f} hops from the "
                f"query inside G0"
            )

    print(
        "\nThe trimmed communities keep the maximum trussness while dropping the\n"
        "distant riders, which is the defining behaviour of the closest truss\n"
        "community model."
    )


if __name__ == "__main__":
    main()
