"""The five workloads: set-up, then the timed closed loop.

Each workload is one client in one process issuing its scripted operations
back to back (a closed loop: the next operation is sent when the previous
one has answered), against at most two worker threads or processes.  Run
length is a fixed number of rounds, ``rounds_per_second * --seconds``; the
rates were calibrated on the suite's parent commit (2-core host) so that a
run's timed phase lasts about ``--seconds`` there at the host's median
pace.  Both sides of a paired comparison therefore do identical work.  Only
a run that falls far behind that pace — a host slowed by other tenants, or
a severe regression — stops early, after :data:`OVERRUN` times its
calibrated duration, so that a slow host cannot stretch the suite past its
time budget; its row says so.

The timed loop only issues operations and notes which answers to check;
the oracle (``oracle.py``) checks them after the clock stops.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

from inputs import METHODS, TIMETRAVEL_LAG, Script, Shape
from oracle import Check

from repro import CTCEngine, GraphDelta
from repro.engine import DurabilityConfig, ServingEngine

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Cold starts after the ``durable`` stream; ``cold_start_s`` is their median.
COLD_STARTS = 5

#: A timed phase stops after this many times its calibrated duration ...
OVERRUN = 1.3
#: ... but never before this many seconds.
MIN_BUDGET_S = 5.0

_NULL = nullcontext()


@dataclass(frozen=True)
class Workload:
    """What a workload runs and how long, in rounds per second of run."""

    name: str
    shape: Shape
    rounds_per_second: float
    #: Check one query out of this many (served: one batch out of this many).
    check_every: int
    #: Smallest run that still holds every method and read kind.
    min_rounds: int

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(self.rounds_per_second * seconds))

    def budget_s(self, rounds: int) -> float:
        """How long the timed phase may run before it stops early."""
        return max(MIN_BUDGET_S, OVERRUN * rounds / self.rounds_per_second)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("read", Shape(mutations=0, queries=1), 110.0, 64, 16),
        Workload("churn", Shape(mutations=1, queries=1, timetravel_every=8), 9.5, 16, 16),
        Workload("durable", Shape(mutations=4, queries=1, recovery_queries=COLD_STARTS), 9.0, 16, 16),
        Workload("served_thread", Shape(mutations=8, queries=8, batched=True), 5.0, 8, 8),
        Workload("served_process", Shape(mutations=8, queries=8, batched=True), 7.5, 8, 8),
    )
}


class Brief(NamedTuple):
    """What the metrics need of a result; whole communities are not kept."""

    iterations: int
    elapsed_seconds: float
    extras: dict


def _brief(result) -> Brief | None:
    if result is None:
        return None
    extras = {key: result.extras[key] for key in ("expanded_edges", "g0_edges") if key in result.extras}
    return Brief(result.iterations, result.elapsed_seconds, extras)


@dataclass
class Run:
    """Everything one workload run measured, raw."""

    tracer: object = None
    setup_s: list = field(default_factory=list)
    #: (method, seconds, Brief) per query of the mix; a served query
    #: carries its batch's latency.
    queries: list = field(default_factory=list)
    timetravel: list = field(default_factory=list)
    mutations: list = field(default_factory=list)
    #: (method, seconds, queries, Briefs) per served batch.
    batches: list = field(default_factory=list)
    cold_start_s: list = field(default_factory=list)
    recoveries: list = field(default_factory=list)
    #: Answers the oracle verifies after the run.
    checks: list = field(default_factory=list)
    wall_s: float = 0.0
    #: (clock, reads answered so far) at the start of the timed phase and
    #: at the end of every round; ``qps`` is read off it in slices.
    marks: list = field(default_factory=list)
    #: Rounds the timed phase completed (fewer than scripted if it overran).
    rounds_done: int = 0
    attempted: int = 0
    failed: int = 0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    durability_before: dict = field(default_factory=dict)
    durability_after: dict = field(default_factory=dict)
    serving_stats: dict = field(default_factory=dict)
    #: Process mode: the shard of every query of every batch.
    batch_lanes: list = field(default_factory=list)
    logical_delta_bytes: int = 0

    @property
    def version(self) -> int:
        """The store version: every scripted mutation bumps it by one."""
        return len(self.mutations)

    @property
    def reads(self) -> int:
        """Reads answered so far: queries of the mix plus time-travel reads."""
        return len(self.queries) + len(self.timetravel)

    def mark(self) -> None:
        self.marks.append((perf_counter(), self.reads))

    def call(self, kind: str, method: str | None, fn, *args, **kwargs):
        """Issue one operation; return ``(result or None, seconds)``."""
        self.attempted += 1
        tracing = self.tracer is not None and self.tracer.enabled
        started = perf_counter()
        try:
            with self.tracer.request(kind, method) if tracing else _NULL:
                result = fn(*args, **kwargs)
        except Exception as exc:  # counted in error_rate; the loop goes on
            self.failed += 1
            if self.failed <= 5:
                print(f"{kind} {method or ''} failed: {exc!r}", file=sys.stderr)
            return None, perf_counter() - started
        return result, perf_counter() - started

    def check(self, query, result, at_version: int | None = None) -> None:
        if result is not None:
            version = self.version
            self.checks.append(Check(version, version if at_version is None else at_version, query, result))


def _mutate(run: Run, target, op: tuple) -> None:
    kind, u, v = op
    fn = target.add_edge if kind == "add" else target.remove_edge
    _, seconds = run.call("mutation", None, fn, u, v)
    run.mutations.append(seconds)


# ----------------------------------------------------------------------
# set-up: build the system up to ready, warm-up queries included
# ----------------------------------------------------------------------
def _warm(target, script: Script) -> None:
    """One query per method, so lazy per-version structures are built."""
    query = script.rounds[0].queries[0]
    for method, kwargs in METHODS.values():
        target.query(list(query.nodes), method, **kwargs)


def _durable_config(path: str) -> DurabilityConfig:
    return DurabilityConfig(path, fsync="always", checkpoint_every=64)


def _open(name: str, dblp8, data_dir: str):
    if name == "read":
        return CTCEngine(dblp8)
    if name == "churn":
        return CTCEngine(dblp8, cache_size=4)
    if name == "durable":
        return CTCEngine(dblp8, durability=_durable_config(data_dir))
    mode = "thread" if name == "served_thread" else "process"
    return ServingEngine(dblp8, mode=mode, workers=2)


def setup(run: Run, name: str, dblp8, script: Script, workdir: str):
    """Set up :data:`SETUP_REPEATS` times; return the last system and its data dir."""
    system = data_dir = None
    for attempt in range(SETUP_REPEATS):
        if system is not None:
            system.close()
            shutil.rmtree(data_dir, ignore_errors=True)
            system = None
            gc.collect()
        data_dir = os.path.join(workdir, f"data-{attempt}")
        started = perf_counter()
        system = _open(name, dblp8, data_dir)
        _warm(system, script)
        run.setup_s.append(perf_counter() - started)
    return system, data_dir


# ----------------------------------------------------------------------
# timed loops
# ----------------------------------------------------------------------
def _rounds(run: Run, script: Script, deadline: float):
    """The scripted rounds, until the clock passes ``deadline``."""
    run.mark()
    for index, step in enumerate(script.rounds):
        if perf_counter() > deadline:
            print(f"run overran its budget after {index} of {len(script.rounds)} rounds",
                  file=sys.stderr)
            return
        yield index, step
        run.mark()
        run.rounds_done = index + 1


def _loop_engine(run: Run, engine, script: Script, check_every: int, deadline: float) -> None:
    """``read``, ``churn`` and ``durable``: mutations, then one query."""
    for index, step in _rounds(run, script, deadline):
        for op in step.mutations:
            _mutate(run, engine, op)
        query = step.queries[0]
        method, kwargs = METHODS[query.method]
        result, seconds = run.call("query", query.method, engine.query, list(query.nodes), method, **kwargs)
        run.queries.append((query.method, seconds, _brief(result)))
        if index % check_every == 0:
            run.check(query, result)
        if step.timetravel:
            version = run.version - TIMETRAVEL_LAG
            result, seconds = run.call(
                "timetravel", query.method, engine.query, list(query.nodes), method,
                at_version=version, **kwargs,
            )
            run.timetravel.append(seconds)
            run.check(query, result, version)


def _loop_served(run: Run, serving, script: Script, check_every: int, deadline: float) -> None:
    """Served workloads: a window of routed mutations, then one batch."""
    for index, window in _rounds(run, script, deadline):
        for op in window.mutations:
            _mutate(run, serving, op)
        method_key = window.queries[0].method
        method, kwargs = METHODS[method_key]
        batch = [list(query.nodes) for query in window.queries]
        run.attempted += len(batch) - 1  # run.call counts the batch once
        results, seconds = run.call("batch", method_key, serving.query_batch, batch, method, **kwargs)
        if results is None:
            run.failed += len(batch) - 1
            results = [None] * len(batch)
        if index % check_every == 0:
            position = (index // check_every) % len(window.queries)
            run.check(window.queries[position], results[position])
        briefs = [_brief(result) for result in results]
        run.batches.append((method_key, seconds, window.queries, briefs))
        run.queries.extend((method_key, seconds, brief) for brief in briefs)


def _delta_bytes(rounds: list) -> int:
    """``GraphDelta.to_bytes`` size of the rounds' mutations (write_amp's base)."""
    total = 0
    for step in rounds:
        for kind, u, v in step.mutations:
            if kind == "add":
                total += len(GraphDelta(added_edges=[(u, v)]).to_bytes())
            else:
                total += len(GraphDelta(removed_edges=[(u, v)]).to_bytes())
    return total


def _cold_starts(run: Run, data_dir: str, script: Script) -> None:
    """``durable``'s epilogue: recover, answer one query, close; five times."""
    for query in script.recovery_queries:
        method, kwargs = METHODS[query.method]
        started = perf_counter()
        engine, _ = run.call("recover", None, CTCEngine.recover, _durable_config(data_dir))
        if engine is None:
            continue
        try:
            result, _ = run.call(
                "recover_query", query.method, engine.query, list(query.nodes), method, **kwargs
            )
            run.cold_start_s.append(perf_counter() - started)
            run.recoveries.append(engine.last_recovery.as_dict())
        finally:
            engine.close()
        run.check(query, result)


def _trace(run: Run, enabled: bool) -> None:
    if run.tracer is not None:
        run.tracer.enabled = enabled


def execute(run: Run, name: str, system, script: Script, data_dir: str) -> None:
    """The timed phase (plus ``durable``'s cold starts, timed on their own)."""
    workload = WORKLOADS[name]
    served = name.startswith("served")
    stats = system.engine_stats if served else (lambda: system.stats.as_dict())
    run.stats_before = stats()
    if name == "durable":
        run.durability_before = system.durability_stats()
    gc.collect()  # every run starts its clock from the same collector state
    _trace(run, True)
    started = perf_counter()
    deadline = started + workload.budget_s(len(script.rounds))
    loop = _loop_served if served else _loop_engine
    loop(run, system, script, workload.check_every, deadline)
    run.wall_s = perf_counter() - started
    _trace(run, False)
    run.stats_after = stats()
    if served:
        run.serving_stats = system.stats.as_dict()
        if name == "served_process":
            run.batch_lanes = [
                [system.shard_of(query.nodes[0]) for query in queries]
                for _, _, queries, _ in run.batches
            ]
    if name == "durable":
        run.durability_after = system.durability_stats()
        run.logical_delta_bytes = _delta_bytes(script.rounds[: run.rounds_done])
        system.close()
        _trace(run, True)
        _cold_starts(run, data_dir, script)
        _trace(run, False)
