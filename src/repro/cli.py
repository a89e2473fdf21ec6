"""Command-line interface: ``ctc-search``.

Two subcommands:

* ``search`` — load a graph from an edge-list file, run one of the community
  search methods for a set of query nodes, and print the community.
* ``experiment`` — run one of the paper's experiment drivers (tables and
  figures) on the built-in synthetic datasets and print the rows.

Examples
--------
::

    ctc-search search graph.txt --query q1 q2 q3 --method lctc
    ctc-search search graph.txt --query q1 q2 --repeat 100
    ctc-search search graph.txt --query q1 q2 --repeat 100 --mutate-every 5
    ctc-search search graph.txt --query q1 q2 --repeat 100 --mutate-every 5 --at-version 0
    ctc-search search graph.txt --query q1 q2 --repeat 100 --window 500
    ctc-search search graph.txt --query q1 q2 --repeat 100 --workers 4
    ctc-search search graph.txt --query q1 q2 --repeat 100 --workers 4 --serving-mode process
    ctc-search search graph.txt --query q1 q2 --data-dir ./store --fsync batch
    ctc-search search --query q1 q2 --data-dir ./store --recover
    ctc-search experiment table2
    ctc-search experiment fig12 --queries 10

Every search is served by a :class:`~repro.engine.CTCEngine`: the graph is
frozen into a CSR snapshot and the methods run on the array kernels of
:mod:`repro.ctc.kernels`.  ``--cache-size`` and ``--delta-threshold`` are
the engine's snapshot-LRU and rebuild-policy knobs, and ``--mutate-every
N`` interleaves one edge mutation every N queries (a mixed read/write
workload served through the delta path instead of full snapshot
rebuilds).  The temporal layer rides on the same log: ``--at-version V``
pins every query at historical store version ``V`` (time-travel reads that
stay put while ``--mutate-every`` advances the store), and ``--window W``
serves the queries from a :class:`~repro.engine.SlidingWindowEngine` that
retains only the ``W`` most recently inserted edges, expiring the rest
through incremental truss maintenance.  ``--workers N`` serves the
``--repeat`` loop through the concurrent
:class:`~repro.engine.ServingEngine` front-end in batches of ``max(2N, 8)``
queries (``--mutate-every`` queries when set), one pinned snapshot per
batch; ``--serving-mode`` picks the thread back end (default: each batch
runs on the calling thread) or the shard-per-process one (up to N worker
processes).
``--query-timeout S`` puts a per-query deadline on every served query:
an overdue query fails with a typed timeout instead of stalling its
batch (the serving layer's fault-tolerance machinery — crashed shard
workers are likewise respawned transparently, with the recovery counters
reported in the stats footer).

The durability layer (:mod:`repro.engine.persistence`) is exposed through
``--data-dir DIR``: every mutation is appended to a checksummed
write-ahead log under ``DIR`` before it is applied, and checkpoints are
published atomically every ``--checkpoint-every N`` mutations with the
``--fsync`` policy (``always``/``batch``/``off``) controlling how
aggressively the log is flushed to stable storage.  ``--recover``
cold-starts the engine from ``DIR`` instead of an edge-list file (the
graph argument is omitted) and prints the recovery statistics — the
checkpoint used, the WAL records replayed, and any torn tail truncated.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from repro.ctc.api import available_methods, search
from repro.datasets.queries import EdgeChurn
from repro.engine import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_DELTA_THRESHOLD,
    CTCEngine,
    DurabilityConfig,
    EngineStats,
    ServingEngine,
    SlidingWindowEngine,
)
from repro.exceptions import (
    ConfigurationError,
    QueryTimeoutError,
    VersionEvictedError,
    WalCorruptionError,
)
from repro.experiments import figures, tables
from repro.experiments.config import QUICK_CONFIG
from repro.experiments.reporting import format_table
from repro.graph.io import read_edge_list

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table2": lambda config: tables.table2_network_statistics(),
    "table3": lambda config: tables.table3_index_statistics(),
    "fig5": lambda config: figures.vary_query_size("dblp-like", config),
    "fig6": lambda config: figures.vary_query_size("facebook-like", config),
    "fig7": lambda config: figures.vary_degree_rank("dblp-like", config),
    "fig8": lambda config: figures.vary_degree_rank("facebook-like", config),
    "fig9": lambda config: figures.vary_inter_distance("dblp-like", config),
    "fig10": lambda config: figures.vary_inter_distance("facebook-like", config),
    "fig11": lambda config: figures.case_study(config),
    "fig12": lambda config: figures.ground_truth_quality(config=config),
    "fig13": lambda config: figures.approximation_quality(config=config),
    "fig14": lambda config: figures.vary_trussness_k(config=config),
    "fig15": lambda config: figures.vary_eta(config=config),
    "fig16": lambda config: figures.vary_gamma(config=config),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ctc-search",
        description="Closest Truss Community search (reproduction of Huang et al., VLDB 2015)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    search_parser = subparsers.add_parser("search", help="search a community in an edge-list graph")
    search_parser.add_argument(
        "graph",
        nargs="?",
        default=None,
        help=(
            "path to a whitespace-separated edge-list file (omitted with "
            "--recover, which reads the store from --data-dir instead)"
        ),
    )
    search_parser.add_argument("--query", nargs="+", required=True, help="query node ids")
    search_parser.add_argument(
        "--method", default="lctc", choices=available_methods(), help="search algorithm"
    )
    search_parser.add_argument("--eta", type=int, default=1000, help="LCTC expansion budget")
    search_parser.add_argument("--gamma", type=float, default=3.0, help="LCTC trussness penalty")
    search_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the query N times and report throughput (repeats hit the snapshot cache)",
    )
    search_parser.add_argument(
        "--cache-size",
        type=int,
        default=DEFAULT_CACHE_SIZE,
        help="engine snapshot-LRU capacity: how many graph versions stay cached",
    )
    search_parser.add_argument(
        "--delta-threshold",
        type=float,
        default=DEFAULT_DELTA_THRESHOLD,
        help=(
            "engine rebuild policy: patch cached snapshots while the accumulated "
            "delta is at most this fraction of the snapshot's edges (0 = always "
            "rebuild from scratch)"
        ),
    )
    search_parser.add_argument(
        "--mutate-every",
        type=int,
        default=0,
        metavar="N",
        help=(
            "mixed workload: apply one edge mutation every N queries of the "
            "--repeat loop (alternating removals and re-insertions)"
        ),
    )
    search_parser.add_argument(
        "--at-version",
        type=int,
        default=None,
        metavar="V",
        help=(
            "time-travel read: pin every query at historical store version V "
            "(resolved through the engine's delta log; evicted versions fail "
            "with the retained range)"
        ),
    )
    search_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "serve the --repeat loop through the concurrent ServingEngine "
            "front-end in batches of max(2N, 8) queries (--mutate-every "
            "queries when set) against one pinned snapshot per batch; process "
            "mode runs up to N shard workers (0 disables)"
        ),
    )
    search_parser.add_argument(
        "--serving-mode",
        choices=("thread", "process"),
        default=None,
        help=(
            "ServingEngine back end with --workers: 'thread' (default) runs "
            "each batch on the calling thread over one shared engine, "
            "'process' shards the store by connected component across worker "
            "processes mapping shared-memory snapshot buffers"
        ),
    )
    search_parser.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "per-query deadline in seconds for the serving layer: an overdue "
            "query fails with a typed timeout instead of stalling its batch "
            "(requires --workers)"
        ),
    )
    search_parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help=(
            "durable mode: append every mutation to a checksummed write-ahead "
            "log under DIR and publish atomic snapshot checkpoints there"
        ),
    )
    search_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "checkpoint after every N logged mutations, trimming the replayed "
            f"WAL prefix (default {DEFAULT_CHECKPOINT_EVERY}; requires --data-dir)"
        ),
    )
    search_parser.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default=None,
        help=(
            "WAL flush policy with --data-dir: 'always' fsyncs per append, "
            "'batch' (default) fsyncs periodically and at checkpoints, 'off' "
            "leaves flushing to the OS (process crashes still lose nothing; "
            "only power loss is exposed)"
        ),
    )
    search_parser.add_argument(
        "--recover",
        action="store_true",
        help=(
            "cold-start the engine from --data-dir (latest checkpoint + WAL "
            "replay, truncating any torn tail) instead of loading an edge-list "
            "file, and print the recovery statistics"
        ),
    )
    search_parser.add_argument(
        "--window",
        type=int,
        default=0,
        metavar="W",
        help=(
            "sliding-window mode: retain only the W most recently inserted "
            "edges, expiring older ones through incremental truss maintenance "
            "(the loaded graph seeds the window)"
        ),
    )

    experiment_parser = subparsers.add_parser(
        "experiment", help="run one of the paper's tables/figures on the synthetic datasets"
    )
    experiment_parser.add_argument("name", choices=sorted(_EXPERIMENTS), help="experiment id")
    experiment_parser.add_argument(
        "--queries", type=int, default=None, help="override the per-point query count"
    )
    return parser


def _run_search(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise SystemExit("--repeat must be >= 1")
    if args.mutate_every < 0:
        raise SystemExit("--mutate-every must be >= 0")
    if args.cache_size < 1:
        raise SystemExit("--cache-size must be >= 1")
    if args.delta_threshold < 0:
        raise SystemExit("--delta-threshold must be >= 0")
    if args.at_version is not None and args.at_version < 0:
        raise SystemExit("--at-version must be >= 0")
    if args.window < 0:
        raise SystemExit("--window must be >= 1 (0 disables windowing)")
    if args.workers < 0:
        raise SystemExit("--workers must be >= 1 (0 disables the serving layer)")
    if args.serving_mode and not args.workers:
        raise SystemExit("--serving-mode requires --workers")
    if args.query_timeout is not None and not args.workers:
        raise SystemExit("--query-timeout requires --workers (deadlines live in the serving layer)")
    if args.query_timeout is not None and args.query_timeout <= 0:
        raise SystemExit("--query-timeout must be > 0")
    if args.workers and args.window:
        raise SystemExit(
            "--workers does not combine with --window (window expiry bookkeeping "
            "is not routed through the serving layer)"
        )
    if args.checkpoint_every is not None and not args.data_dir:
        raise SystemExit("--checkpoint-every requires --data-dir")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise SystemExit("--checkpoint-every must be >= 1")
    if args.fsync and not args.data_dir:
        raise SystemExit("--fsync requires --data-dir")
    if args.recover and not args.data_dir:
        raise SystemExit("--recover requires --data-dir (it names the store to recover)")
    if args.recover and args.graph is not None:
        raise SystemExit("--recover reads the store from --data-dir; omit the graph argument")
    if not args.recover and args.graph is None:
        raise SystemExit("a graph edge-list file is required unless --recover is given")
    serving_mode = args.serving_mode or "thread"
    if args.data_dir and args.workers and serving_mode == "process":
        raise SystemExit(
            "--data-dir does not combine with --serving-mode process (mutations "
            "routed to shard workers bypass the parent's write-ahead log)"
        )
    if args.workers and serving_mode == "process" and args.at_version is not None:
        raise SystemExit(
            "--at-version requires --serving-mode thread (shard workers hold "
            "independent version histories)"
        )
    durability = None
    if args.data_dir:
        durability = DurabilityConfig(
            path=args.data_dir,
            fsync=args.fsync or "batch",
            checkpoint_every=args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY,
        )
    engine_kwargs = dict(
        cache_size=args.cache_size,
        delta_threshold=args.delta_threshold,
    )
    if args.recover:
        try:
            if args.window:
                target = SlidingWindowEngine.recover(
                    durability, window=args.window, **engine_kwargs
                )
            else:
                target = CTCEngine.recover(durability, **engine_kwargs)
        except (ConfigurationError, WalCorruptionError) as exc:
            raise SystemExit(f"--recover failed: {exc}") from exc
    else:
        graph = read_edge_list(args.graph)
        if args.window:
            target = SlidingWindowEngine(
                graph,
                window=args.window,
                copy=False,
                durability=durability,
                **engine_kwargs,
            )
        else:
            target = CTCEngine(
                graph, copy=False, durability=durability, **engine_kwargs
            )
    serving = None
    # Every exit below, error or not, closes the serving layer and then the
    # durable engine, whose close() runs the WAL's final fsync.
    try:
        if args.workers:
            serving = ServingEngine(
                target,
                workers=args.workers,
                mode=serving_mode,
                **engine_kwargs,
            )
        mutator = None
        if args.mutate_every:
            mutator = EdgeChurn(serving or target, seed=0, protect=args.query)
            if not mutator.mutable_edges:
                raise SystemExit(
                    "--mutate-every has nothing to mutate: every edge is incident to a "
                    "query node"
                )
        started = time.perf_counter()
        try:
            if serving is not None:
                # One pinned snapshot per batch: mutations land between batches,
                # so every batch boundary is also a consistency boundary.
                batch_size = args.mutate_every or max(2 * args.workers, 8)
                remaining = args.repeat
                while remaining:
                    if mutator is not None and remaining != args.repeat:
                        mutator.step()
                    size = min(batch_size, remaining)
                    results = serving.query_batch(
                        [args.query] * size,
                        args.method,
                        at_version=args.at_version,
                        timeout=args.query_timeout,
                        eta=args.eta,
                        gamma=args.gamma,
                    )
                    result = results[-1]
                    remaining -= size
            else:
                for iteration in range(args.repeat):
                    if mutator is not None and iteration and iteration % args.mutate_every == 0:
                        mutator.step()
                    result = search(
                        target,
                        args.query,
                        method=args.method,
                        eta=args.eta,
                        gamma=args.gamma,
                        at_version=args.at_version,
                    )
        except QueryTimeoutError as error:
            raise SystemExit(f"--query-timeout: {error}") from None
        except VersionEvictedError as error:
            raise SystemExit(f"--at-version: {error}") from None
        except ValueError as error:
            if args.at_version is not None:
                raise SystemExit(f"--at-version: {error}") from None
            raise
        elapsed = time.perf_counter() - started
        print(f"method:        {result.method}")
        print(f"trussness:     {result.trussness}")
        print(f"nodes:         {result.num_nodes}")
        print(f"edges:         {result.num_edges}")
        print(f"density:       {result.density():.3f}")
        print(f"diameter:      {result.diameter()}")
        print(f"query distance:{result.query_distance}")
        print("members:")
        for node in sorted(result.nodes, key=repr):
            print(f"  {node}")
        if args.repeat > 1:
            print(f"throughput:    {args.repeat / elapsed:.1f} queries/sec ({args.repeat} runs)")
        _print_stats(args, target, serving)
    finally:
        if serving is not None:
            serving.close()
        if durability is not None:
            target.close()
    return 0


def _print_stats(
    args: argparse.Namespace, target: CTCEngine, serving: ServingEngine | None
) -> None:
    """The engine footer, plus one line per enabled layer."""
    if serving is not None and serving.mode == "process":
        stats = EngineStats(**serving.engine_stats())  # summed over shards
    else:
        stats = target.stats
    print(
        f"engine cache:  {stats.hits} hits, {stats.misses} misses "
        f"({stats.delta_applies} delta applies, {stats.full_rebuilds} full rebuilds)"
    )
    print(
        f"incidence:     {stats.incidence_patches} patches, "
        f"{stats.incidence_enumerations} full enumerations"
    )
    print(
        f"pins:          {stats.leases} leases, "
        f"{stats.deferred_reclamations} deferred reclamations"
    )
    if serving is not None:
        sstats = serving.stats
        print(
            f"serving:       mode={sstats.mode}, workers={sstats.workers}, "
            f"{sstats.batches} batches"
        )
        print(
            f"coalescing:    {sstats.coalesced_queries}/{sstats.queries} queries "
            f"coalesced, {sstats.snapshot_reuses} snapshot reuses, "
            f"{sstats.cross_shard_rejects} cross-shard rejects"
        )
        print(
            f"faults:        {sstats.worker_crashes} crashes, "
            f"{sstats.respawns} respawns, {sstats.requeued_queries} requeued, "
            f"{sstats.timeouts} timeouts, "
            f"{sstats.quarantined_shards} quarantined shards"
        )
    if args.at_version is not None or stats.time_travel_reads:
        retained = target.retained_versions()
        print(
            f"time travel:   {stats.time_travel_reads} pinned reads, "
            f"retained versions {retained[0]}..{retained[1]}"
        )
    if args.window:
        print(
            f"window:        {len(target.window_edges())}/{target.window} live edges "
            f"(version {target.version})"
        )
    if args.recover and target.last_recovery is not None:
        recovery = target.last_recovery
        checkpoint = (
            f"checkpoint v{recovery.checkpoint_version}"
            if recovery.checkpoint_version is not None
            else "no checkpoint (WAL only)"
        )
        print(
            f"recovery:      {checkpoint}, {recovery.replayed_deltas} deltas "
            f"replayed of {recovery.wal_records} WAL records, "
            f"{recovery.truncated_bytes} torn bytes truncated "
            f"-> version {recovery.recovered_version} "
            f"in {recovery.seconds:.3f}s"
        )
    if args.data_dir:
        dstats = target.durability_stats()
        print(
            f"durability:    fsync={dstats['fsync_policy']}, "
            f"{dstats['wal_appends']} WAL appends ({dstats['wal_fsyncs']} fsyncs, "
            f"{dstats['wal_bytes']} bytes), {dstats['checkpoints']} checkpoints "
            f"(last v{dstats['last_checkpoint_version']}, "
            f"{dstats['deltas_since_checkpoint']} deltas since)"
        )


def _run_experiment(args: argparse.Namespace) -> int:
    config = QUICK_CONFIG
    if args.queries is not None:
        config = config.scaled(args.queries / max(1, config.queries_per_point))
    rows = _EXPERIMENTS[args.name](config)
    print(format_table(rows, title=f"Experiment {args.name}"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search":
        return _run_search(args)
    if args.command == "experiment":
        return _run_experiment(args)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
