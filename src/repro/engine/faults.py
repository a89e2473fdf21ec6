""":class:`FaultPlan`: deterministic fault injection for the serving layer.

Production-scale serving treats worker failure as routine, but failures
that only happen "sometimes, under load" cannot be regression-tested.  A
``FaultPlan`` is a *scripted, seeded* schedule of faults that the
:class:`~repro.engine.serving.ServingEngine` consults at well-defined
points of its dispatch loop, so every recovery path — crash detection,
respawn + delta replay, requeue, quarantine, deadline expiry — can be
exercised deterministically by the test suite and the fault-recovery
benchmark (``benchmarks/bench_fault_recovery.py``).

Fault vocabulary
----------------
Faults are addressed by ``(shard, batch)`` where ``batch`` is the shard's
0-indexed *dispatch sequence number*: the Nth ``query_batch`` message the
front-end dispatches to that shard.  Plans apply to process mode only:
thread mode has no worker to fault, and a thread-mode
:class:`~repro.engine.serving.ServingEngine` refuses a plan with
:class:`~repro.exceptions.ConfigurationError`.

* :meth:`kill_worker` — the parent SIGKILLs the shard worker immediately
  before dispatching that batch, simulating a crash: the batch's queries
  hit the dead pipe and take the crash → respawn → requeue path.
* :meth:`delay_reply` — the worker computes the batch, then sleeps before
  replying, simulating a stalled worker; with a ``timeout=`` this
  deterministically exercises the deadline path.
* :meth:`poison_query` — the worker exits mid-batch *without* replying
  (``os._exit``), simulating a query that takes its executor down.
* :meth:`fail_attach` — the next ``times`` (re)spawns of that shard's
  worker abort before attaching the shared-memory bundle, simulating an
  shm attach failure; with ``times >= max_respawns`` this drives the
  shard into quarantine.

Every fault actually applied is journaled in :attr:`events` (the applied
schedule, in application order), so tests and benchmarks can assert the
script ran as written.  :meth:`scripted_random` derives a schedule from a
seed — same seed, same faults — for randomized-but-reproducible chaos
runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["FaultEvent", "FaultPlan"]


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault: what happened, where, and any detail (seconds)."""

    kind: str
    shard: int
    batch: int | None = None
    detail: float | None = None


class FaultPlan:
    """A scripted schedule of serving-layer faults (see the module docstring).

    Builder methods return ``self`` so schedules chain::

        plan = FaultPlan().kill_worker(0, before_batch=2).delay_reply(1, 3, 0.5)

    The plan is consumed by the engine as it serves: each ``(shard, batch)``
    slot fires at most once.  Plans hold mutable bookkeeping (the
    ``fail_attach`` countdown, the event journal) and must not be shared
    between concurrently running engines.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._kills: set[tuple[int, int]] = set()
        self._delays: dict[tuple[int, int], float] = {}
        self._poisons: set[tuple[int, int]] = set()
        self._attach_failures: dict[int, int] = {}
        #: Applied faults, in application order (the engine journals here).
        self.events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    # schedule builders
    # ------------------------------------------------------------------
    def kill_worker(self, shard: int, before_batch: int) -> "FaultPlan":
        """SIGKILL ``shard``'s worker right before its ``before_batch``-th dispatch."""
        self._kills.add((shard, before_batch))
        return self

    def delay_reply(self, shard: int, batch: int, seconds: float) -> "FaultPlan":
        """Stall ``shard``'s reply to its ``batch``-th dispatch by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"delay must be >= 0, got {seconds}")
        self._delays[(shard, batch)] = float(seconds)
        return self

    def poison_query(self, shard: int, batch: int) -> "FaultPlan":
        """Make ``shard``'s ``batch``-th dispatch take its executor down mid-query."""
        self._poisons.add((shard, batch))
        return self

    def fail_attach(self, shard: int, times: int = 1) -> "FaultPlan":
        """Abort ``shard``'s next ``times`` worker (re)spawns before the shm attach."""
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self._attach_failures[shard] = self._attach_failures.get(shard, 0) + times
        return self

    @classmethod
    def kill_each_worker_once(
        cls, shards: int, *, first_batch: int = 1, stride: int = 1, seed: int = 0
    ) -> "FaultPlan":
        """One kill per shard, staggered: shard ``i`` dies before batch
        ``first_batch + i * stride``.  The schedule the acceptance stress
        test and the fault-recovery benchmark script their runs with."""
        plan = cls(seed)
        for shard in range(shards):
            plan.kill_worker(shard, first_batch + shard * stride)
        return plan

    @classmethod
    def scripted_random(
        cls,
        shards: int,
        batches: int,
        *,
        kills: int = 1,
        delays: int = 0,
        poisons: int = 0,
        delay_seconds: float = 0.2,
        seed: int = 0,
    ) -> "FaultPlan":
        """Derive a reproducible random schedule from ``seed``.

        Draws ``kills``/``delays``/``poisons`` distinct ``(shard, batch)``
        slots uniformly from ``shards x batches`` (batch 0 is exempt so the
        engine always serves one clean batch first).  Same arguments, same
        seed, same schedule — the point is chaos testing without flakes.
        """
        if batches < 2:
            raise ValueError("scripted_random needs batches >= 2 (batch 0 stays clean)")
        rng = random.Random(seed)
        slots = [(s, b) for s in range(shards) for b in range(1, batches)]
        total = kills + delays + poisons
        if total > len(slots):
            raise ValueError(
                f"{total} faults do not fit in {len(slots)} (shard, batch) slots"
            )
        drawn = rng.sample(slots, total)
        plan = cls(seed)
        for shard, batch in drawn[:kills]:
            plan.kill_worker(shard, batch)
        for shard, batch in drawn[kills : kills + delays]:
            plan.delay_reply(shard, batch, delay_seconds)
        for shard, batch in drawn[kills + delays :]:
            plan.poison_query(shard, batch)
        return plan

    # ------------------------------------------------------------------
    # consumption (called by the serving engine)
    # ------------------------------------------------------------------
    def directives_for(self, shard: int, batch: int) -> dict:
        """Pop the faults scheduled for this dispatch; journal what fired.

        Returns a (possibly empty) directive dict the engine acts on:
        ``{"kill": True}`` is handled parent-side, ``{"delay": s}`` and
        ``{"poison": True}`` ride the dispatch message to the worker.
        """
        slot = (shard, batch)
        directives: dict = {}
        if slot in self._kills:
            self._kills.discard(slot)
            directives["kill"] = True
            self.events.append(FaultEvent("kill", shard, batch))
        if slot in self._delays:
            seconds = self._delays.pop(slot)
            directives["delay"] = seconds
            self.events.append(FaultEvent("delay", shard, batch, seconds))
        if slot in self._poisons:
            self._poisons.discard(slot)
            directives["poison"] = True
            self.events.append(FaultEvent("poison", shard, batch))
        return directives

    def take_attach_failure(self, shard: int) -> bool:
        """Consume one scheduled attach failure for ``shard`` (if any)."""
        remaining = self._attach_failures.get(shard, 0)
        if remaining <= 0:
            return False
        if remaining == 1:
            del self._attach_failures[shard]
        else:
            self._attach_failures[shard] = remaining - 1
        self.events.append(FaultEvent("fail_attach", shard))
        return True

    def pending_faults(self) -> int:
        """Return how many scheduled faults have not fired yet."""
        return (
            len(self._kills)
            + len(self._delays)
            + len(self._poisons)
            + sum(self._attach_failures.values())
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(seed={self.seed}, "
            f"pending={self.pending_faults()}, applied={len(self.events)})"
        )
