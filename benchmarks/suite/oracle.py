"""From-scratch answer checks, run after the timed phase.

During a run the workloads only record which answers to check: the query,
the result, and the store version it was answered at (the count of
scripted mutations applied before it, since every scripted mutation bumps
the version by one).  Afterwards :func:`verify` replays the script's
mutations onto one plain :class:`~repro.graph.simple_graph.UndirectedGraph`
per ``dblp8`` copy, in the copy's own labels, and recomputes each recorded
query with :func:`repro.search` through a freshly built dict-path
:class:`~repro.trusses.index.TrussIndex` — a path that shares no snapshot,
cache or array kernel with the engine under test.  Nodes, trussness and
query distance must all match.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from inputs import METHODS, REPLICAS, Query, apply_op, undo_op

from repro import TrussIndex, UndirectedGraph, search


@dataclass(frozen=True)
class Check:
    """One answer to verify: read at ``at_version`` once ``version`` mutations ran."""

    version: int
    at_version: int
    query: Query
    result: object


def _local(op: tuple) -> tuple[int, tuple]:
    """``(replica, op in the copy's labels)`` of a scripted mutation."""
    kind, (replica, u), (_, v) = op
    return replica, (kind, u, v)


def verify(base: UndirectedGraph, mutations: list[tuple], checks: list[Check]) -> int:
    """Check every recorded answer; return the number of mismatches."""
    copies = [base.copy() for _ in range(REPLICAS)]
    applied = 0
    #: (replica, version) -> index, kept while no mutation is replayed;
    #: ``read`` never mutates and so indexes each copy once.
    indexes: dict[tuple[int, int], TrussIndex] = {}
    mismatches = 0
    for check in sorted(checks, key=lambda c: c.version):
        if applied < check.version:
            indexes.clear()
        while applied < check.version:
            replica, op = _local(mutations[applied])
            apply_op(copies[replica], op)
            applied += 1
        replica = check.query.replica
        key = (replica, check.at_version)
        if key not in indexes:
            graph = copies[replica].copy()
            for op in reversed(mutations[check.at_version : check.version]):
                owner, local = _local(op)
                if owner == replica:
                    undo_op(graph, local)
            indexes[key] = TrussIndex(graph)
        method, kwargs = METHODS[check.query.method]
        expected = search(indexes[key], check.query.base_nodes(), method, **kwargs)
        got = check.result
        got_nodes = {node for _, node in got.nodes}
        if (
            got_nodes != expected.nodes
            or got.trussness != expected.trussness
            or got.query_distance != expected.query_distance
        ):
            mismatches += 1
            print(
                f"oracle mismatch: {check.query.method} {list(check.query.nodes)} at "
                f"version {check.at_version}: got k={got.trussness} "
                f"dist={got.query_distance} |H|={len(got_nodes)}, expected "
                f"k={expected.trussness} dist={expected.query_distance} "
                f"|H|={len(expected.nodes)}",
                file=sys.stderr,
            )
    return mismatches
