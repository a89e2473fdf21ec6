"""Seeded inputs of the suite: the ``dblp8`` graph and the scripted operations.

Every workload runs on ``dblp8``: eight disjoint relabeled copies of the
registry ``dblp-like`` graph, with node ``n`` of copy ``r`` labelled
``(r, n)``.  A query's nodes all come from one copy, so its answer depends
only on that copy; the oracle therefore recomputes answers on a single
6,077-edge copy instead of the 48,616-edge union.

A *scout pass* (:func:`build_script`) turns ``--seed`` into the complete
operation script before anything is timed: the queries, the single-edge
mutations (sampled by :class:`~repro.datasets.queries.EdgeChurn` against a
recording stand-in, query nodes protected), and which reads are time-travel
reads.  The scout replays its own mutations and swaps out any query whose
nodes the churn disconnected, so no scripted operation fails.  The program
under test only ever receives the generated operations, so mutation
latencies time the engine call and never the sampling.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.datasets.queries import EdgeChurn, QueryWorkloadGenerator
from repro.datasets.registry import load_dataset
from repro.graph.components import connected_components, nodes_are_connected
from repro.graph.simple_graph import UndirectedGraph

#: Disjoint copies of ``dblp-like`` in the served union.
REPLICAS = 8

#: Method configurations of the query mix ``M``: name -> (method, kwargs).
#: ``lctc_eta1000`` passes no ``eta`` so it runs the API default (1000).
METHODS: dict[str, tuple[str, dict]] = {
    "lctc": ("lctc", {"eta": 50}),
    "lctc_eta1000": ("lctc", {}),
    "bulk_delete": ("bulk-delete", {}),
    "truss": ("truss", {}),
}

#: One period of the method ratio lctc : lctc_eta1000 : bulk_delete : truss
#: = 4 : 1 : 2 : 1.
MIX = ("lctc",) * 4 + ("lctc_eta1000",) + ("bulk_delete",) * 2 + ("truss",)

#: The two query kinds of ``M``: the paper's defaults (inter-distance l=2,
#: |Q|=3) and random pairs.
KINDS = ("inter", "random")

#: Spare queries the scout may swap in for one the churn disconnected.
RESERVE = 32

#: How far back a time-travel read pins (``at_version = version - 6``).
TIMETRAVEL_LAG = 6


@dataclass(frozen=True)
class Query:
    """One scripted query: its copy, its union-labelled nodes and its method."""

    replica: int
    nodes: tuple
    method: str

    def base_nodes(self) -> list:
        """The query's nodes as labelled inside its own copy."""
        return [node for _, node in self.nodes]


@dataclass
class Round:
    """One closed-loop step: mutations first, then the reads that follow them."""

    mutations: list
    queries: list
    timetravel: bool


@dataclass
class Script:
    """A workload's complete operation stream, derived from the seed alone."""

    rounds: list
    recovery_queries: list
    digest: str = ""


def load_base() -> UndirectedGraph:
    """The registry ``dblp-like`` graph: one copy of ``dblp8``."""
    return load_dataset("dblp-like").graph


def build_dblp8(base: UndirectedGraph) -> UndirectedGraph:
    """The union of :data:`REPLICAS` disjoint relabeled copies of ``base``."""
    union = UndirectedGraph()
    for replica in range(REPLICAS):
        for u, v in base.edges():
            union.add_edge((replica, u), (replica, v))
    return union


class _QuerySource:
    """Draws queries of a given kind from per-copy seeded generators."""

    def __init__(self, base: UndirectedGraph, rng: random.Random, seed: int) -> None:
        self._rng = rng
        self._generators = [
            QueryWorkloadGenerator(base, seed=seed * 1009 + replica)
            for replica in range(REPLICAS)
        ]

    def draw(self, kind: str, method: str) -> Query:
        replica = self._rng.randrange(REPLICAS)
        generator = self._generators[replica]
        if kind == "inter":
            found = generator.inter_distance_queries(2, 3, 1)
            if not found:
                raise RuntimeError("dblp-like produced no inter-distance query")
            nodes = found[0]
        else:
            nodes = generator.random_queries(2, 1)[0]
        return Query(replica, tuple((replica, node) for node in nodes), method)


class _Recorder:
    """Stand-in store for :class:`EdgeChurn`: applies and records each op."""

    def __init__(self, graph: UndirectedGraph) -> None:
        self.graph = graph
        self.ops: list[tuple] = []

    def add_edge(self, u, v) -> None:
        self.graph.add_edge(u, v)
        self.ops.append(("add", u, v))

    def remove_edge(self, u, v) -> None:
        self.graph.remove_edge(u, v)
        self.ops.append(("remove", u, v))


def apply_op(graph: UndirectedGraph, op: tuple) -> None:
    """Apply one scripted mutation to a plain graph."""
    kind, u, v = op
    if kind == "add":
        graph.add_edge(u, v)
    else:
        graph.remove_edge(u, v)


def undo_op(graph: UndirectedGraph, op: tuple) -> None:
    """Apply the inverse of one scripted mutation to a plain graph."""
    kind, u, v = op
    if kind == "add":
        graph.remove_edge(u, v)
    else:
        graph.add_edge(u, v)


def _query_plan(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """``count`` (kind, method) slots in blocks that hold ``M`` exactly.

    Each block of 16 pairs every method slot of :data:`MIX` with both
    kinds, shuffled, so every method sees half inter-distance and half
    random queries.
    """
    plan: list[tuple[str, str]] = []
    while len(plan) < count:
        block = [(kind, method) for method in MIX for kind in KINDS]
        rng.shuffle(block)
        plan.extend(block)
    return plan[:count]


def _batch_methods(rng: random.Random, count: int) -> list[str]:
    """One method per served batch, rotating through shuffled periods of ``M``."""
    methods: list[str] = []
    while len(methods) < count:
        period = list(MIX)
        rng.shuffle(period)
        methods.extend(period)
    return methods[:count]


@dataclass(frozen=True)
class Shape:
    """How a workload's rounds look: ops per round and extra reads."""

    mutations: int
    queries: int
    batched: bool = False
    timetravel_every: int = 0
    recovery_queries: int = 0


def build_script(
    shape: Shape, rounds: int, base: UndirectedGraph, dblp8: UndirectedGraph, seed: int
) -> Script:
    """The scout pass: draw every operation of a run from ``seed``."""
    rng = random.Random(seed)
    source = _QuerySource(base, rng, seed)
    total = rounds * shape.queries
    if shape.batched:
        methods = _batch_methods(rng, rounds)
        plan = []
        for method in methods:
            kinds = list(KINDS) * (shape.queries // 2) + list(KINDS[: shape.queries % 2])
            rng.shuffle(kinds)
            plan.extend((kind, method) for kind in kinds)
    else:
        plan = _query_plan(rng, total)
    queries = [source.draw(kind, method) for kind, method in plan]
    reserve = {
        method: [source.draw(KINDS[i % 2], method) for i in range(RESERVE)]
        for method in METHODS
    }
    recovery = [
        source.draw(KINDS[i % 2], MIX[i % len(MIX)]) for i in range(shape.recovery_queries)
    ]

    protected = {
        node
        for query in [*queries, *recovery, *(q for spare in reserve.values() for q in spare)]
        for node in query.nodes
    }
    recorder = _Recorder(dblp8.copy())
    churn = EdgeChurn(recorder, seed=seed, protect=protected)

    pristine = {
        node: index for index, part in enumerate(connected_components(dblp8)) for node in part
    }

    def connected(query: Query) -> bool:
        if not recorder.ops:  # nothing mutated yet: one lookup per node
            return len({pristine[node] for node in query.nodes}) == 1
        return nodes_are_connected(recorder.graph, query.nodes)

    def usable(query: Query, lag: int) -> bool:
        # Connected now and, for a time-travel read, ``lag`` versions back.
        if not connected(query):
            return False
        if lag == 0:
            return True
        undone = recorder.ops[-lag:]
        for op in reversed(undone):
            undo_op(recorder.graph, op)
        try:
            return nodes_are_connected(recorder.graph, query.nodes)
        finally:
            for op in undone:
                apply_op(recorder.graph, op)

    def pick(query: Query, lag: int) -> Query:
        if usable(query, lag):
            return query
        spares = reserve[query.method]
        while spares:
            spare = spares.pop(0)
            if usable(spare, lag):
                return spare
        raise RuntimeError("no connected spare query left for the script")

    script_rounds = []
    for index in range(rounds):
        start = len(recorder.ops)
        for _ in range(shape.mutations):
            if not churn.step():
                raise RuntimeError("edge churn ran out of mutable edges")
        timetravel = bool(
            shape.timetravel_every
            and (index + 1) % shape.timetravel_every == 0
            and len(recorder.ops) >= TIMETRAVEL_LAG
        )
        lag = TIMETRAVEL_LAG if timetravel else 0
        chosen = [
            pick(query, lag)
            for query in queries[index * shape.queries : (index + 1) * shape.queries]
        ]
        script_rounds.append(Round(list(recorder.ops[start:]), chosen, timetravel))

    script = Script(script_rounds, [pick(query, 0) for query in recovery])
    script.digest = _digest(script)
    return script


def _digest(script: Script) -> str:
    """A stable hash of every scripted operation, printed with the results."""
    payload = {
        "rounds": [
            [r.mutations, [[q.nodes, q.method] for q in r.queries], r.timetravel]
            for r in script.rounds
        ],
        "recovery": [[q.nodes, q.method] for q in script.recovery_queries],
    }
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]
