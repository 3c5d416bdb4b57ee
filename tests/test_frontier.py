"""Frontier representation, direction-optimized BFS, and pipe accounting.

Three contracts from the frontier/direction work:

* **Representation independence** — the sparse (arc-index) and dense
  (boolean-mask) arc selections are interchangeable at *every* superstep
  of *every* algorithm: forcing either mode, or switching between them
  on any schedule, yields results bit-identical to the reference engine
  (values, superstep counts, message counts, work traces), on the dense
  and sharded engines alike.
* **Direction independence** — top-down and bottom-up BFS discover the
  identical frontier, so distances, message counts, and
  ``frontier_sizes`` are unchanged under any switch schedule; the
  decision surfaces only in telemetry and ``direction_history``.
* **Pipe accounting** — the sharded engine's per-superstep
  ``pipe_bytes`` telemetry counters add up to its cumulative
  ``pipe_bytes`` total.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp import (
    BSPEngine,
    DenseBSPEngine,
    FrontierPolicy,
    ShardedBSPEngine,
)
from repro.bsp._scatter import arcs_from
from repro.bsp.frontier import (
    DENSE,
    SPARSE,
    arc_indices,
    select_arcs,
    selected_arc_count,
)
from repro.bsp_algorithms import (
    BSPBreadthFirstSearch,
    BSPConnectedComponents,
    BSPKCore,
    BSPShortestPaths,
    DenseBreadthFirstSearch,
    DenseConnectedComponents,
    DenseKCore,
    DenseShortestPaths,
)
from repro.bsp_algorithms.bfs import UNREACHED
from repro.graph import from_edge_list, path_graph, rmat, star_graph
from repro.telemetry.core import Telemetry
from tests.test_dense_engine import assert_results_equal

WORKER_COUNTS = (1, 2, 4)


def reference_bfs(graph, source):
    """Reference-engine BFS with UNREACHED-normalized values."""
    ref = BSPEngine(graph).run(BSPBreadthFirstSearch(source))
    ref.values = [UNREACHED if v is None else v for v in ref.values]
    return ref


class ScheduledPolicy:
    """Frontier policy fixed by an explicit per-superstep schedule.

    Duck-types :class:`FrontierPolicy` — the engines only call
    ``choose`` — so tests can force any sparse/dense switch pattern.
    """

    def __init__(self, schedule, default=SPARSE):
        self.schedule = dict(schedule)
        self.default = default

    def choose(self, *, superstep, **_):
        return self.schedule.get(superstep, self.default)


class ScheduledBFS(DenseBreadthFirstSearch):
    """BFS whose top-down/bottom-up choice follows an explicit schedule."""

    def __init__(self, source, bottom_up_from):
        super().__init__(source)
        self.bottom_up_from = bottom_up_from

    def _use_bottom_up(self, ctx):
        return ctx.superstep >= self.bottom_up_from


# -- selection helpers -----------------------------------------------------


class TestSelection:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="mode"):
            FrontierPolicy(mode="turbo")
        with pytest.raises(ValueError, match="k"):
            FrontierPolicy(k=0)

    def test_policy_threshold(self):
        policy = FrontierPolicy(k=3)
        common = dict(superstep=1, frontier_size=4, num_vertices=100)
        assert (
            policy.choose(frontier_arcs=100, num_arcs=300, **common) == SPARSE
        )
        assert (
            policy.choose(frontier_arcs=101, num_arcs=300, **common) == DENSE
        )

    def test_forced_modes_ignore_density(self):
        common = dict(
            superstep=1, frontier_size=4, num_vertices=10, num_arcs=30
        )
        sparse = FrontierPolicy(mode="sparse")
        dense = FrontierPolicy(mode="dense")
        assert sparse.choose(frontier_arcs=30, **common) == SPARSE
        assert dense.choose(frontier_arcs=0, **common) == DENSE

    @pytest.mark.parametrize(
        "make_graph",
        [lambda: rmat(scale=7, edge_factor=8, seed=3), lambda: star_graph(9)],
        ids=["rmat7", "star"],
    )
    def test_sparse_selects_same_arcs_as_mask(self, make_graph):
        g = make_graph()
        rng = np.random.default_rng(5)
        for size in (0, 1, g.num_vertices // 2, g.num_vertices):
            senders = np.sort(
                rng.choice(g.num_vertices, size=size, replace=False)
            ).astype(np.int64)
            mask = arcs_from(senders, g.row_ptr)
            idx = arc_indices(senders, g.row_ptr)
            assert np.array_equal(np.flatnonzero(mask), idx)
            assert np.array_equal(
                select_arcs(senders, g.row_ptr, DENSE), mask
            )
            assert np.array_equal(
                select_arcs(senders, g.row_ptr, SPARSE), idx
            )
            assert selected_arc_count(mask) == selected_arc_count(idx)
            # Both representations index arc-parallel arrays identically.
            assert np.array_equal(g.col_idx[mask], g.col_idx[idx])


# -- representation independence -------------------------------------------


@pytest.fixture(scope="module")
def medium_graph():
    return rmat(scale=8, edge_factor=8, seed=7)


PROGRAMS = {
    "cc": (BSPConnectedComponents, DenseConnectedComponents, ()),
    "bfs": (BSPBreadthFirstSearch, DenseBreadthFirstSearch, (0,)),
    "sssp": (BSPShortestPaths, DenseShortestPaths, (0,)),
    "kcore": (BSPKCore, DenseKCore, (2,)),
}


class TestRepresentationIndependence:
    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_forced_mode_matches_reference(self, medium_graph, name, mode):
        make_ref, make_dense, args = PROGRAMS[name]
        ref = BSPEngine(medium_graph).run(make_ref(*args))
        if name == "bfs":
            ref.values = [UNREACHED if v is None else v for v in ref.values]
        forced = DenseBSPEngine(
            medium_graph, frontier_policy=FrontierPolicy(mode=mode)
        ).run(make_dense(*args))
        assert_results_equal(ref, forced)

    def test_switch_at_every_superstep(self, medium_graph):
        """Flipping sparse->dense at any superstep changes nothing."""
        ref = BSPEngine(medium_graph).run(BSPConnectedComponents())
        supersteps = ref.num_supersteps
        for flip in range(supersteps + 1):
            policy = ScheduledPolicy(
                {s: DENSE for s in range(flip, supersteps + 1)}
            )
            got = DenseBSPEngine(medium_graph, frontier_policy=policy).run(
                DenseConnectedComponents()
            )
            assert_results_equal(ref, got)

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_sharded_forced_modes(self, medium_graph, num_workers):
        ref = BSPEngine(medium_graph).run(BSPConnectedComponents())
        for mode in ("sparse", "dense"):
            with ShardedBSPEngine(
                medium_graph,
                num_workers=num_workers,
                frontier_policy=FrontierPolicy(mode=mode),
            ) as engine:
                got = engine.run(DenseConnectedComponents())
            assert_results_equal(ref, got)


# -- direction-optimized BFS -----------------------------------------------


class TestDirectionOptimizedBFS:
    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            DenseBreadthFirstSearch(0, direction="sideways")
        with pytest.raises(ValueError, match="alpha"):
            DenseBreadthFirstSearch(0, alpha=0)

    @pytest.mark.parametrize("direction", ["auto", "top-down", "bottom-up"])
    def test_directions_match_reference(self, medium_graph, direction):
        ref = reference_bfs(medium_graph, 0)
        got = DenseBSPEngine(medium_graph).run(
            DenseBreadthFirstSearch(0, direction=direction)
        )
        assert_results_equal(ref, got)

    def test_switch_at_every_superstep(self, medium_graph):
        ref = reference_bfs(medium_graph, 0)
        for flip in range(ref.num_supersteps + 1):
            program = ScheduledBFS(0, bottom_up_from=flip)
            got = DenseBSPEngine(medium_graph).run(program)
            assert_results_equal(ref, got)
            expected = [
                "bottom-up" if s >= flip else "top-down"
                for s in range(1, got.num_supersteps)
            ]
            assert program.direction_history == expected

    def test_auto_goes_bottom_up_past_apex(self, medium_graph):
        program = DenseBreadthFirstSearch(0, direction="auto")
        DenseBSPEngine(medium_graph).run(program)
        assert "bottom-up" in program.direction_history
        assert program.edges_scanned["bottom-up"] > 0
        # Top-down performs no per-arc work: the flood is modeled only.
        assert program.edges_scanned["top-down"] == 0

    def test_auto_stays_top_down_on_directed_graphs(self):
        g = from_edge_list(
            [(i, i + 1) for i in range(30)] + [(0, j) for j in range(2, 30)],
            num_vertices=31,
            directed=True,
        )
        program = DenseBreadthFirstSearch(0, direction="auto")
        DenseBSPEngine(g).run(program)
        assert set(program.direction_history) == {"top-down"}

    def test_forced_bottom_up_on_directed_graph_uses_transpose(self):
        g = from_edge_list(
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (3, 5)],
            num_vertices=7,
            directed=True,
        )
        ref = reference_bfs(g, 0)
        program = DenseBreadthFirstSearch(0, direction="bottom-up")
        got = DenseBSPEngine(g).run(program)
        assert_results_equal(ref, got)
        assert program.edges_scanned["bottom-up"] > 0

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("direction", ["auto", "bottom-up"])
    def test_sharded_directions(self, medium_graph, num_workers, direction):
        ref = reference_bfs(medium_graph, 0)
        with ShardedBSPEngine(
            medium_graph, num_workers=num_workers
        ) as engine:
            got = engine.run(
                DenseBreadthFirstSearch(0, direction=direction)
            )
        assert_results_equal(ref, got)

    @pytest.mark.parametrize("direction", ["auto", "top-down", "bottom-up"])
    def test_frontier_sizes_report_true_discoveries(
        self, medium_graph, direction
    ):
        """``frontier_sizes`` equals the per-level discovery counts from
        the reference engine's distances, under every direction —
        including no trailing zero for the final empty superstep."""
        ref = reference_bfs(medium_graph, 0)
        levels = np.asarray(
            [v for v in ref.values if v != UNREACHED], dtype=np.int64
        )
        truth = np.bincount(levels).tolist()
        program = DenseBreadthFirstSearch(0, direction=direction)
        DenseBSPEngine(medium_graph).run(program)
        assert program.frontier_sizes == truth

    def test_frontier_sizes_no_trailing_zero_on_path(self):
        g = path_graph(5)
        program = DenseBreadthFirstSearch(0)
        DenseBSPEngine(g).run(program)
        assert program.frontier_sizes == [1, 1, 1, 1, 1]


# -- property tests: random graphs x random schedules ----------------------


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    m = draw(st.integers(min_value=0, max_value=40))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m, max_size=m,
        )
    )
    return from_edge_list(edges, n)


class TestPropertySchedules:
    @given(random_graph(), st.integers(min_value=0, max_value=63))
    @settings(max_examples=60, deadline=None)
    def test_any_mode_schedule_matches_reference(self, g, schedule_bits):
        """Sparse/dense chosen per superstep by arbitrary bits: CC stays
        bit-identical to the reference engine."""
        ref = BSPEngine(g).run(BSPConnectedComponents())
        policy = ScheduledPolicy(
            {
                s: DENSE if (schedule_bits >> s) & 1 else SPARSE
                for s in range(ref.num_supersteps + 1)
            }
        )
        got = DenseBSPEngine(g, frontier_policy=policy).run(
            DenseConnectedComponents()
        )
        assert_results_equal(ref, got)

    @given(random_graph(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_any_direction_switch_matches_reference(self, g, flip):
        ref = reference_bfs(g, 0)
        got = DenseBSPEngine(g).run(ScheduledBFS(0, bottom_up_from=flip))
        assert_results_equal(ref, got)


# -- telemetry counters ----------------------------------------------------


class TestFrontierTelemetry:
    def test_dense_bfs_counters(self, medium_graph):
        tel = Telemetry("t")
        DenseBSPEngine(medium_graph, telemetry=tel).run(
            DenseBreadthFirstSearch(0)
        )
        names = {c.name for c in tel.counters}
        assert {"frontier_mode", "direction", "edges_scanned"} <= names
        modes = [c for c in tel.counters if c.name == "frontier_mode"]
        assert all(c.value in (0, 1) for c in modes)
        # The apex superstep floods most of the graph: dense must appear.
        assert any(c.value == 1 for c in modes)
        directions = [c for c in tel.counters if c.name == "direction"]
        scanned = [c for c in tel.counters if c.name == "edges_scanned"]
        assert len(directions) == len(scanned)
        assert all(c.superstep >= 0 for c in directions)

    def test_sharded_pipe_byte_counters(self, medium_graph, monkeypatch):
        tel = Telemetry("t")
        with ShardedBSPEngine(
            medium_graph, num_workers=2, telemetry=tel
        ) as engine:
            # The per-run setup exchange happens outside any superstep,
            # so no counter records it; measure it on its own.
            begin_run = engine._begin_run
            setup = []

            def counted_begin_run(program, values):
                before = engine.pipe_bytes
                begin_run(program, values)
                setup.append(engine.pipe_bytes - before)

            monkeypatch.setattr(engine, "_begin_run", counted_begin_run)
            engine.run(DenseConnectedComponents())
        superstep_bytes = engine.pipe_bytes - sum(setup)
        assert setup and superstep_bytes > 0
        assert superstep_bytes == sum(
            c.value for c in tel.counters if c.name == "pipe_bytes"
        )

