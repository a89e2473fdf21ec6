#!/usr/bin/env python3
"""The Figure 11 case study: who is in the community of four DB researchers?

The paper queries the DBLP co-authorship graph with {Alon Y. Halevy,
Michael J. Franklin, Jeffrey D. Ullman, Jennifer Widom}.  The raw maximal
connected 9-truss around them has 73 authors, most only loosely related to
all four; LCTC trims it to a 14-author, density-0.89 community of senior
database researchers.

The raw DBLP dump is not bundled, so this example runs on the synthetic
collaboration network of :mod:`repro.datasets.collaboration`, which plants
the same structure (a dense senior core plus satellite research groups that
act as free riders).

Run with::

    python examples/dblp_case_study.py
"""

from __future__ import annotations

from repro import build_engine, search
from repro.ctc.free_rider import free_riders, retained_node_percentage
from repro.datasets import CASE_STUDY_QUERY, build_collaboration_network


def describe(label: str, result) -> None:
    print(f"[{label}]")
    print(f"  authors   : {result.num_nodes}")
    print(f"  edges     : {result.num_edges}")
    print(f"  trussness : {result.trussness}")
    print(f"  density   : {result.density():.2f}")
    print(f"  diameter  : {result.diameter()}")
    print()


def main() -> None:
    network = build_collaboration_network()
    graph = network.graph
    print(
        f"collaboration network: {graph.number_of_nodes()} authors, "
        f"{graph.number_of_edges()} co-authorship edges"
    )
    print(f"query authors: {', '.join(CASE_STUDY_QUERY)}")
    print()

    engine = build_engine(graph)

    # Figure 11(a): the raw maximal connected k-truss containing the query.
    truss_result = search(engine, list(CASE_STUDY_QUERY), method="truss")
    describe("G0 — maximal connected k-truss (Figure 11a)", truss_result)

    # Figure 11(b): the closest truss community found by LCTC.
    lctc_result = search(engine, list(CASE_STUDY_QUERY), method="lctc", eta=300)
    describe("LCTC — closest truss community (Figure 11b)", lctc_result)

    print("community members found by LCTC:")
    for author in sorted(lctc_result.nodes, key=str):
        marker = "*" if author in CASE_STUDY_QUERY else " "
        print(f"  {marker} {author}")
    print()

    removed = free_riders(lctc_result.graph, truss_result.graph)
    kept = retained_node_percentage(lctc_result.graph, truss_result.graph)
    print(
        f"LCTC kept {kept:.0f}% of the G0 authors and removed {len(removed)} free riders\n"
        f"(satellite-group and peripheral authors loosely tied to the query)."
    )


if __name__ == "__main__":
    main()
