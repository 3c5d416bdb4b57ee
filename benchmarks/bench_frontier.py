"""Direction-optimized BFS, on one core and on the sharded engine.

The performance claim from the frontier work, gated by the bench
ledger: the pre-frontier BFS always swept the whole arc array top-down
and materialized the inbox every superstep.  The adaptive run switches
to sparse selections on small frontiers and to bottom-up past the apex,
with bit-identical distances and modeled message counts — only wall
time and performed arc scans change.

The same BFS also runs on a 2-worker
:class:`~repro.bsp.parallel.ShardedBSPEngine`, asserted bit-identical
to the adaptive dense run.  Its
:attr:`~repro.bsp.parallel.ShardedBSPEngine.pipe_bytes` is recorded as
``pipe_bytes``: every pipe frame has a fixed layout, so the count is
deterministic for a given config and any drift is a protocol change.
"""

import time

from _emit import emit_bench
from conftest import once

import numpy as np

from repro.analysis.report import format_seconds
from repro.bsp import DenseBSPEngine, FrontierPolicy, ShardedBSPEngine
from repro.bsp_algorithms import DenseBreadthFirstSearch

#: Timing repetitions per strategy (min is reported — the ledger gates
#: the ratio, so the estimator must be stable at reduced CI scale).
REPS = 3


class _EagerBFS(DenseBreadthFirstSearch):
    """Pre-frontier execution: top-down with an eagerly delivered inbox.

    Reading ``ctx.messages`` forces the payload gather and combiner fold
    the lazy inbox otherwise skips; paired with a dense-forced policy
    this reproduces the engine's per-superstep work before the frontier
    abstraction (results are bit-identical either way).
    """

    def __init__(self, source):
        super().__init__(source, direction="top-down")

    def compute(self, ctx):
        if ctx.superstep > 0:
            ctx.messages
        return super().compute(ctx)


def bench_frontier(benchmark, workload, capsys):
    graph = workload.graph
    source = int(np.argmax(graph.degrees()))

    def timed(make_engine, make_program):
        best, result, program = np.inf, None, None
        for _ in range(REPS):
            program = make_program()
            with make_engine() as engine:
                t0 = time.perf_counter()
                result = engine.run(program)
                best = min(best, time.perf_counter() - t0)
        return best, result, program

    def run():
        # Legacy execution: full-mask selection, eager delivery.
        t_legacy, legacy, _ = timed(
            lambda: DenseBSPEngine(
                graph, frontier_policy=FrontierPolicy(mode="dense")
            ),
            lambda: _EagerBFS(source),
        )
        # Adaptive execution: GBBS mode switch + Beamer direction switch.
        t_adaptive, adaptive, adaptive_program = timed(
            lambda: DenseBSPEngine(graph),
            lambda: DenseBreadthFirstSearch(source),
        )
        # The same BFS over 2 shard workers.
        with ShardedBSPEngine(graph, num_workers=2) as engine:
            sharded = engine.run(DenseBreadthFirstSearch(source))
        return (
            legacy, adaptive, adaptive_program,
            t_legacy, t_adaptive, sharded, engine.pipe_bytes,
        )

    (
        legacy, adaptive, adaptive_program,
        t_legacy, t_adaptive, sharded, pipe_bytes,
    ) = once(benchmark, run)

    # Same computation under every execution strategy, not merely the
    # same distances.
    assert np.array_equal(legacy.values, adaptive.values)
    assert legacy.num_supersteps == adaptive.num_supersteps
    assert legacy.messages_per_superstep == adaptive.messages_per_superstep
    assert np.array_equal(adaptive.values, sharded.values)
    assert adaptive.num_supersteps == sharded.num_supersteps
    assert adaptive.messages_per_superstep == sharded.messages_per_superstep
    assert pipe_bytes > 0

    speedup = t_legacy / t_adaptive
    scanned = adaptive_program.edges_scanned
    info = dict(
        supersteps=adaptive.num_supersteps,
        messages=sum(adaptive.messages_per_superstep),
        bottom_up_supersteps=adaptive_program.direction_history.count(
            "bottom-up"
        ),
        edges_scanned=dict(scanned),
        pipe_bytes=pipe_bytes,
        seconds={
            "legacy": round(t_legacy, 4),
            "adaptive": round(t_adaptive, 4),
        },
        speedup=round(speedup, 2),
    )
    benchmark.extra_info.update(info)
    emit_bench(
        "frontier",
        config={
            "algorithm": "bfs",
            "scale": workload.config.scale,
            "edge_factor": workload.config.edge_factor,
            "seed": workload.config.seed,
            "source": source,
        },
        data=info,
    )
    with capsys.disabled():
        print(
            f"\nfrontier (BFS, scale {workload.config.scale}): legacy "
            f"{format_seconds(t_legacy)} -> adaptive "
            f"{format_seconds(t_adaptive)} ({speedup:.1f}x, "
            f"{info['bottom_up_supersteps']} bottom-up supersteps, "
            f"{scanned['bottom-up']:,} arcs scanned); 2-worker pipe "
            f"{pipe_bytes:,} B"
        )
