#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the service as
shipped; ``--trace 1`` is the separate traced run that prints the
per-layer metrics (and the tracing overhead).  Metric names and units
come from ``BENCHMARK.json``.  Every output is checked against a
reference; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status 0 means
every output was correct, 1 that one was not, 2 that the benchmark
could not run (for example, no ``src/repro`` beside it).
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("serve_cold", "serve_cached", "triangles", "ingest")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, required=True,
        help="request seed: sources, parameters, mix order, edge weights",
    )
    parser.add_argument(
        "--graph-seed", type=int, default=1,
        help="RMAT seed of the graphs: the served scale-14 one and the "
             "ingested scale-16 one (default 1, whose scale-14 triangle "
             "total is pinned)",
    )
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    args.trace = bool(args.trace)
    return args


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker.

    It is a child process of this one.  Left alone it exits only after
    this process does; stopping it here waits for it, and makes it
    report any segment a service failed to unlink while the run's
    output is still being written.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def exit_on_sigterm(signum, frame) -> None:
    """Turn SIGTERM into SystemExit, so that every ``finally`` closes
    its service and no shard worker outlives the run."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        report = WORKLOADS[args.workload](args, OUT_DIR).run()
    finally:
        stop_resource_tracker()
    measured = report.layers if args.trace else report.e2e
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: BENCHMARK.json metrics not measured: {missing}",
              file=sys.stderr)
        return 2
    metrics = {}
    for m in wanted:
        value = float(measured[m["name"]])
        if not math.isfinite(value):
            print(f"error: {m['name']} is {value}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} graph_seed={args.graph_seed} "
          f"seconds={args.seconds} ({mode})")
    for name, entry in metrics.items():
        print(f"{name:<48} {entry['value']:>14.4f} {entry['unit']}")
    for name, (value, unit) in sorted(report.extra.items()):
        print(f"{name:<48} {value:>14.4f} {unit}")
    if not report.counts_ok:
        print("error: exact counts drifted from an earlier run with the "
              "same seeds", file=sys.stderr)
    correct = report.failed == 0 and report.counts_ok
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
