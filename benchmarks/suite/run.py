#!/usr/bin/env python3
"""The benchmark of CTC serving: five workloads, end to end and layer by layer.

Run from the repository root::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N] [--seconds S]
                                    [--trace [0|1]] [--out FILE]

Each selected workload (default: all five) runs in a fresh subprocess
without tracing.  Every metric is printed as ``workload metric value unit``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Answers are checked against a
from-scratch oracle and any mismatch or failed operation makes the exit
code non-zero.

``--trace`` adds a second, traced subprocess per workload and reports the
per-layer metrics instead; its ``trace.overhead`` compares the two runs'
timed wall clock per round.  ``--seconds`` sets the run length: every workload runs
a fixed number of rounds per second of it (see ``workloads.py``), so a
given value means the same work on every commit.  ``--out`` appends one
JSON row per workload (commit, host core count, Python version, script
digest and every metric) for ``compare.py``.

See ``README.md`` next to this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space of running children (data directories, span dumps).
WORK = HERE / ".work"

#: A child that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 170


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="run length (default 25)")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from an extra traced run",
    )
    parser.add_argument("--out", help="append one JSON row per workload to this file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# child: one workload, in-process
# ----------------------------------------------------------------------
def _child(args) -> None:
    from inputs import build_dblp8, build_script, load_base
    from metrics import end_to_end, per_layer
    from oracle import verify
    from tracing import Tracer, install
    from workloads import WORKLOADS, Run, execute, setup

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    base = load_base()
    dblp8 = build_dblp8(base)
    script = build_script(workload.shape, workload.rounds(args.seconds), base, dblp8, args.seed)
    # The harness's own long-lived objects (dataset, script) leave the
    # cyclic collector's view, so the program's collections do not scan them.
    gc.collect()
    gc.freeze()
    run = Run(tracer=tracer)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        system, data_dir = setup(run, workload.name, dblp8, script, str(workdir))
        try:
            execute(run, workload.name, system, script, data_dir)
        finally:
            system.close()
        metrics = end_to_end(run, workload.name)  # peak RSS before the oracle allocates
        mutations = [op for step in script.rounds for op in step.mutations]
        mismatches = verify(base, mutations, run.checks)
        run.failed += mismatches
        metrics["error_rate"] = run.failed / run.attempted
        result = {
            "digest": script.digest,
            "rounds": len(script.rounds),
            "rounds_done": run.rounds_done,
            "attempted": run.attempted,
            "failed": run.failed,
            "checks": len(run.checks),
            "mismatches": mismatches,
            "wall_s": run.wall_s,
            "metrics": metrics,
        }
        if tracer is not None:
            result["per_layer"] = per_layer(run, tracer)
            tracer.write(str(WORK / f"spans-{workload.name}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    print(json.dumps(result))


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process shared memory made multiprocessing start.

    Process-mode serving registers shared-memory segments, which starts
    multiprocessing's resource tracker; left alone it outlives this process.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# parent: one subprocess per workload (two with --trace), then report
# ----------------------------------------------------------------------
def _spawn(workload: str, args, trace: int) -> dict | None:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: run exceeded {CHILD_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload}: run failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _commit() -> str:
    """The commit of the program under test; ``-dirty`` if ``src/`` differs from it."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def _format(value) -> str:
    return "null" if value is None else repr(value)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: the program's sources ({SRC}/repro) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = _parse(argv)
    if args.child:
        _child(args)
        return 0

    from metrics import END_TO_END, PER_LAYER, WORKLOAD_SPECIFIC
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    reported: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    rows = []
    for name in names:
        plain = _spawn(name, args, 0)
        traced = _spawn(name, args, 1) if args.trace else None
        if plain is None or (args.trace and traced is None):
            return 1
        for result in filter(None, (plain, traced)):
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["failed"] == 0
        print(f"{name} script_digest {plain['digest']} sha256")
        metrics = plain["metrics"]
        for metric, value in metrics.items():
            unit = END_TO_END.get(metric) or WORKLOAD_SPECIFIC[metric][0]
            print(f"{name} {metric} {_format(value)} {unit}")
        row = {
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "digest": plain["digest"],
            "rounds": plain["rounds"],
            "rounds_done": plain["rounds_done"],
            "correct": plain["failed"] == 0,
            "metrics": metrics,
        }
        wanted = END_TO_END
        values = metrics
        if traced is not None:
            layers = dict(traced["per_layer"])
            layers["trace.overhead"] = (traced["wall_s"] / traced["rounds_done"]) / (
                plain["wall_s"] / plain["rounds_done"]
            ) - 1
            for metric, unit in PER_LAYER.items():
                print(f"{name} {metric} {_format(layers[metric])} {unit}")
            row["per_layer"] = layers
            wanted, values = PER_LAYER, layers
        rows.append(row)
        for metric, unit in wanted.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            reported[key] = {"value": values[metric], "unit": unit}

    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
