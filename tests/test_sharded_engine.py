"""Equivalence suite: the sharded engine against the dense engine.

The contract under test: :class:`~repro.bsp.parallel.ShardedBSPEngine`
runs the *same* dense programs as :class:`~repro.bsp.dense.DenseBSPEngine`
and produces the same :class:`~repro.bsp.engine.BSPResult` — identical
values, superstep counts, per-superstep active/message counts, and work
traces — at any worker count and under either partition policy.  Plus
the pool's own mechanics: reuse across runs, crash safety, checkpoint
interchange with the dense engine, and constructor validation.

Set ``SHARDED_WORKERS`` (comma-separated) to restrict the worker counts
exercised — CI's multiprocessing smoke job runs the suite with
``SHARDED_WORKERS=2``.
"""

import os

import numpy as np
import pytest

from repro.bsp import (
    CheckpointStore,
    DenseBSPEngine,
    ShardedBSPEngine,
    ShardedWorkerError,
    SumAggregator,
    make_engine,
)
from repro.bsp_algorithms import (
    DenseBreadthFirstSearch,
    DenseConnectedComponents,
    DenseKCore,
    DensePageRank,
    DenseShortestPaths,
)
from repro.graph import from_edge_list, rmat, star_graph
from repro.telemetry.flightrec import (
    FlightRecorder,
    list_postmortems,
    load_postmortem,
)
from tests.test_dense_engine import assert_results_equal

WORKER_COUNTS = [
    int(w) for w in os.environ.get("SHARDED_WORKERS", "1,2,4").split(",")
]
POLICIES = ["hash", "balanced-edge"]

GRAPHS = {
    "star": lambda: star_graph(8),
    "isolated": lambda: from_edge_list([(0, 1), (2, 3)], num_vertices=7),
    "rmat8": lambda: rmat(scale=8, edge_factor=8, seed=7),
}

#: name -> (program factory, engine kwargs, float-tolerant values?)
ALGORITHMS = {
    "cc": (lambda: DenseConnectedComponents(), {}, False),
    "bfs": (lambda: DenseBreadthFirstSearch(0), {}, False),
    "sssp": (lambda: DenseShortestPaths(0), {}, False),
    # Sharded float summation may differ from the single-pass fold in
    # the last ulp (per-shard partial sums merge in shard order) — the
    # same tolerance the dense-vs-reference PageRank test uses.
    "pagerank": (
        lambda: DensePageRank(num_supersteps=8),
        {"aggregators": {"dangling": SumAggregator()}},
        True,
    ),
    "kcore": (lambda: DenseKCore(2), {}, False),
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def graph(request):
    return GRAPHS[request.param]()


@pytest.fixture(params=WORKER_COUNTS, ids=lambda w: f"w{w}", scope="module")
def num_workers(request):
    return request.param


@pytest.fixture(params=POLICIES, scope="module")
def partition(request):
    return request.param


class TestShardedEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_matches_dense(self, graph, num_workers, partition, algorithm):
        make_program, engine_kwargs, float_values = ALGORITHMS[algorithm]
        dense = DenseBSPEngine(graph, **engine_kwargs).run(make_program())
        with ShardedBSPEngine(
            graph,
            num_workers=num_workers,
            partition=partition,
            **engine_kwargs,
        ) as engine:
            sharded = engine.run(make_program())
        assert_results_equal(dense, sharded, float_values=float_values)

    def test_pool_reuse_across_runs(self, graph):
        """One warm pool serves many programs back to back."""
        with ShardedBSPEngine(graph, num_workers=2) as engine:
            for name in ("cc", "bfs", "sssp"):
                make_program, engine_kwargs, float_values = ALGORITHMS[name]
                dense = DenseBSPEngine(graph, **engine_kwargs).run(
                    make_program()
                )
                sharded = engine.run(make_program())
                assert_results_equal(dense, sharded, float_values=float_values)

    def test_exact_at_one_worker_pagerank(self, graph):
        """A single shard is one fold — bit-identical even for floats."""
        dense = DenseBSPEngine(graph).run(DensePageRank(num_supersteps=8))
        with ShardedBSPEngine(graph, num_workers=1) as engine:
            sharded = engine.run(DensePageRank(num_supersteps=8))
        assert np.array_equal(dense.values, sharded.values)

    def test_combine_messages_accounting(self, graph):
        dense = DenseBSPEngine(graph, combine_messages=True).run(
            DenseConnectedComponents()
        )
        with ShardedBSPEngine(
            graph, num_workers=2, combine_messages=True
        ) as engine:
            sharded = engine.run(DenseConnectedComponents())
        assert_results_equal(dense, sharded)

    def test_custom_assignment(self, graph):
        """An explicit per-vertex placement array is honoured."""
        n = graph.num_vertices
        assignment = (np.arange(n) < n // 2).astype(np.int64)
        dense = DenseBSPEngine(graph).run(DenseConnectedComponents())
        with ShardedBSPEngine(
            graph, num_workers=2, partition=assignment
        ) as engine:
            assert engine.partition_policy == "custom"
            sharded = engine.run(DenseConnectedComponents())
        assert_results_equal(dense, sharded)

    def test_weighted_sssp(self):
        rng = np.random.default_rng(11)
        edges = [(i % 20, (i * 7 + 3) % 20) for i in range(40)]
        weights = rng.uniform(0.1, 5.0, size=len(edges))
        g = from_edge_list(edges, num_vertices=20, weights=weights)
        dense = DenseBSPEngine(g).run(DenseShortestPaths(0))
        with ShardedBSPEngine(g, num_workers=2) as engine:
            sharded = engine.run(DenseShortestPaths(0))
        assert_results_equal(dense, sharded)

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=0)
        with ShardedBSPEngine(g, num_workers=2) as engine:
            result = engine.run(DenseConnectedComponents())
        assert result.num_supersteps == 0
        assert result.values.size == 0

    def test_spawn_start_method(self):
        """The pool also works under the spawn start method."""
        g = star_graph(6)
        dense = DenseBSPEngine(g).run(DenseConnectedComponents())
        with ShardedBSPEngine(
            g, num_workers=2, start_method="spawn"
        ) as engine:
            sharded = engine.run(DenseConnectedComponents())
        assert_results_equal(dense, sharded)


# -- crash safety ----------------------------------------------------------


class PoisonPayloadCC(DenseConnectedComponents):
    """CC whose arc payload (computed *inside the workers*) raises."""

    def arc_payload(self, graph, values, arc_mask):
        raise RuntimeError("injected shard failure")


class TestShardedCrashSafety:
    def test_raising_program_surfaces_worker_error(self, tmp_path):
        g = rmat(scale=6, edge_factor=8, seed=3)
        recorder = FlightRecorder(
            postmortem_dir=tmp_path / "postmortem",
            beacon_dir=tmp_path / "flightrec",
        )
        engine = ShardedBSPEngine(g, num_workers=2, flight_recorder=recorder)
        try:
            with pytest.raises(ShardedWorkerError, match="injected"):
                engine.run(PoisonPayloadCC())
            # The pool survives a program failure: workers answered with
            # an error instead of dying, so the engine stays usable.
            dense = DenseBSPEngine(g).run(DenseConnectedComponents())
            recovered = engine.run(DenseConnectedComponents())
            assert_results_equal(dense, recovered)
        finally:
            engine.close()
        assert all(not p.is_alive() for p in engine._procs)
        (bundle,) = list_postmortems(tmp_path / "postmortem")
        pm = load_postmortem(tmp_path / "postmortem", bundle)
        assert pm["reason"] == "worker_error"

    def test_gather_without_scatter_is_an_error(self):
        """A gather frame names a generation the worker must have
        scattered; any other generation is a protocol fault, reported
        as a worker error instead of being silently recomputed."""
        g = star_graph(5)
        with ShardedBSPEngine(
            g, num_workers=2, flight_recorder=False
        ) as engine:
            engine.run(DenseConnectedComponents())
            stale = engine._generation + 1
            with pytest.raises(
                ShardedWorkerError, match=f"gather for generation {stale}"
            ):
                engine._exchange(
                    {w: ("gather", stale) for w in range(2)},
                    phase="gather",
                )
            # Both workers replied with an error frame, so the pipes
            # stay in step and the engine stays usable.
            dense = DenseBSPEngine(g).run(DenseConnectedComponents())
            assert_results_equal(dense, engine.run(DenseConnectedComponents()))

    def test_close_is_idempotent_and_terminal(self):
        g = star_graph(5)
        engine = ShardedBSPEngine(g, num_workers=2)
        engine.run(DenseConnectedComponents())
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.run(DenseConnectedComponents())

    def test_values_survive_close(self):
        g = star_graph(5)
        engine = ShardedBSPEngine(g, num_workers=2)
        result = engine.run(DenseConnectedComponents())
        engine.close()
        assert np.array_equal(result.values, np.zeros(6, dtype=np.int64))
        assert engine.values.shape == (6,)


# -- checkpoint interchange ------------------------------------------------


class TestShardedCheckpoints:
    def test_dense_checkpoint_resumes_on_sharded(self):
        g = rmat(scale=7, edge_factor=8, seed=5)
        clean = DenseBSPEngine(g).run(DenseConnectedComponents())
        store = CheckpointStore()
        DenseBSPEngine(g).run(
            DenseConnectedComponents(),
            max_supersteps=3,
            checkpoint_every=2,
            checkpoint_store=store,
        )
        with ShardedBSPEngine(g, num_workers=2) as engine:
            resumed = engine.run(
                DenseConnectedComponents(), resume_from=store.latest
            )
        assert np.array_equal(resumed.values, clean.values)
        assert resumed.num_supersteps == clean.num_supersteps

    def test_sharded_checkpoint_resumes_on_dense(self):
        g = rmat(scale=7, edge_factor=8, seed=5)
        clean = DenseBSPEngine(g).run(DenseConnectedComponents())
        store = CheckpointStore()
        with ShardedBSPEngine(g, num_workers=2) as engine:
            engine.run(
                DenseConnectedComponents(),
                max_supersteps=3,
                checkpoint_every=2,
                checkpoint_store=store,
            )
        resumed = DenseBSPEngine(g).run(
            DenseConnectedComponents(), resume_from=store.latest
        )
        assert np.array_equal(resumed.values, clean.values)
        assert resumed.num_supersteps == clean.num_supersteps


# -- construction & selection ----------------------------------------------


class TestEngineSelection:
    def test_make_engine_modes(self):
        g = star_graph(4)
        dense = make_engine(g)
        assert type(dense) is DenseBSPEngine
        dense.close()
        with make_engine(g, "sharded", num_workers=2) as engine:
            assert isinstance(engine, ShardedBSPEngine)
            assert engine.num_workers == 2
        with make_engine(g, num_workers=2) as engine:
            assert isinstance(engine, ShardedBSPEngine)
        with pytest.raises(ValueError, match="mode"):
            make_engine(g, "turbo")

    def test_invalid_partition_policy(self):
        g = star_graph(4)
        with pytest.raises(ValueError, match="partition"):
            ShardedBSPEngine(g, num_workers=2, partition="nope")

    def test_invalid_assignment_shape(self):
        g = star_graph(4)
        with pytest.raises(ValueError, match="one entry per vertex"):
            ShardedBSPEngine(g, num_workers=2, partition=np.zeros(3))

    def test_assignment_out_of_range(self):
        g = star_graph(4)
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            ShardedBSPEngine(
                g, num_workers=2, partition=np.full(5, 7, dtype=np.int64)
            )

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="num_workers"):
            ShardedBSPEngine(star_graph(4), num_workers=0)
