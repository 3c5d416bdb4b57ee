"""Closed-wedge kernel equivalence.

:func:`~repro.graph.wedges.triangle_corners` (a row-blocked masked
sparse product) against the explicit wedge scan
:func:`~repro.graph.wedges.iter_closed_wedges`, and both triangle
counters against runs that close their wedges with that scan.  Results
and work traces must be bit-identical under either vertex ordering and
at any row-block size; ``WEDGE_BATCH`` is shrunk so that the products
split into many row blocks even on tiny graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bsp_algorithms.triangles as bsp_triangles
import repro.graph.wedges as wedges
import repro.graphct.triangles as graphct_triangles
from repro.bsp_algorithms import bsp_count_triangles
from repro.graph import from_edge_list
from repro.graph.dag import ascending_orientation, degree_orientation
from repro.graph.wedges import (
    TriangleCorners,
    build_wedge_index,
    iter_closed_wedges,
    triangle_corners,
)
from repro.graphct import count_triangles
from repro.telemetry.core import Telemetry
from tests.test_telemetry import _trace_rows

ORIENTATIONS = {"id": ascending_orientation, "degree": degree_orientation}
BATCHES = st.sampled_from([1, 2, 7, 64, wedges.WEDGE_BATCH])


@st.composite
def graphs(draw, max_vertices=24, max_edges=120):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n == 0:
        return from_edge_list([], 0)
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(st.tuples(vertex, vertex), max_size=max_edges)
    )
    return from_edge_list(edges, n)


def scan_corners(dag, *, middle=False):
    """Reference :func:`triangle_corners`: bincount every closed wedge."""
    n = dag.num_vertices
    first, mid, last = (np.zeros(n, dtype=np.int64) for _ in range(3))
    for u, centre, w, hit in iter_closed_wedges(build_wedge_index(dag)):
        first += np.bincount(u[hit], minlength=n)
        mid += np.bincount(centre[hit], minlength=n)
        last += np.bincount(w[hit], minlength=n)
    return TriangleCorners(first, mid if middle else None, last)


def run_with(module, counter, batch, *args, **kwargs):
    """Run ``counter`` with the product kernel at block budget ``batch``
    and again with ``module``'s kernel swapped for the scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wedges, "WEDGE_BATCH", batch)
        product = counter(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "triangle_corners", scan_corners)
        scan = counter(*args, **kwargs)
    return product, scan


def assert_bsp_identical(product, scan, graph):
    assert product.total_triangles == scan.total_triangles
    assert product.per_vertex.dtype == scan.per_vertex.dtype
    np.testing.assert_array_equal(product.per_vertex, scan.per_vertex)
    assert product.possible_triangles == scan.possible_triangles
    assert product.num_supersteps == scan.num_supersteps
    assert product.messages_per_superstep == scan.messages_per_superstep
    assert product.active_per_superstep == scan.active_per_superstep
    assert _trace_rows(product.trace) == _trace_rows(scan.trace)
    index = build_wedge_index(ascending_orientation(graph))
    assert product.possible_triangles == index.total_wedges


def assert_graphct_identical(product, scan, graph, ordering):
    assert product.total_triangles == scan.total_triangles
    assert product.per_vertex.dtype == scan.per_vertex.dtype
    np.testing.assert_array_equal(product.per_vertex, scan.per_vertex)
    assert product.wedges_checked == scan.wedges_checked
    assert _trace_rows(product.trace) == _trace_rows(scan.trace)
    index = build_wedge_index(ORIENTATIONS[ordering](graph))
    assert product.wedges_checked == index.total_wedges


class TestTriangleCorners:
    @given(graphs(), BATCHES)
    @settings(max_examples=60, deadline=None)
    def test_matches_scan(self, graph, batch):
        for orient in ORIENTATIONS.values():
            dag = orient(graph)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wedges, "WEDGE_BATCH", batch)
                got = triangle_corners(dag, middle=True)
            want = scan_corners(dag, middle=True)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                np.testing.assert_array_equal(g, w)

    def test_middle_only_on_request(self, two_triangles):
        corners = triangle_corners(ascending_orientation(two_triangles))
        assert corners.middle is None
        assert corners.first.tolist() == [1, 0, 1, 0, 0]
        assert corners.last.tolist() == [0, 0, 1, 0, 1]


class TestCountersMatchScan:
    @given(graphs(), BATCHES)
    @settings(max_examples=40, deadline=None)
    def test_bsp(self, graph, batch):
        product, scan = run_with(
            bsp_triangles, bsp_count_triangles, batch, graph
        )
        assert_bsp_identical(product, scan, graph)

    @given(graphs(), BATCHES, st.sampled_from(sorted(ORIENTATIONS)))
    @settings(max_examples=40, deadline=None)
    def test_graphct(self, graph, batch, ordering):
        product, scan = run_with(
            graphct_triangles, count_triangles, batch, graph,
            ordering=ordering,
        )
        assert_graphct_identical(product, scan, graph, ordering)

    def test_rmat_in_many_blocks(self, small_rmat):
        batch = 10_000
        dag = ascending_orientation(small_rmat)
        assert build_wedge_index(dag).total_wedges > 10 * batch
        tel = Telemetry("tri")
        product, scan = run_with(
            bsp_triangles, bsp_count_triangles, batch, small_rmat,
            telemetry=tel,
        )
        assert_bsp_identical(product, scan, small_rmat)
        # One superstep span per superstep, per run.
        spans = tel.spans_named("superstep")
        assert len(spans) == product.num_supersteps + scan.num_supersteps
        for ordering in ORIENTATIONS:
            product, scan = run_with(
                graphct_triangles, count_triangles, batch, small_rmat,
                ordering=ordering,
            )
            assert_graphct_identical(product, scan, small_rmat, ordering)
