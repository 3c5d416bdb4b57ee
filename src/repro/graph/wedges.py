"""Closed-wedge counting over an oriented DAG.

Both triangle counters — the shared-memory GraphCT kernel
(:mod:`repro.graphct.triangles`) and the BSP Algorithm 3 rendition
(:mod:`repro.bsp_algorithms.triangles`) — walk the same wedge set: for
every DAG arc ``centre → w``, one wedge per in-neighbour ``u`` of the
centre, closed iff the arc ``u → w`` exists.  Both find the closed
wedges with one kernel, :func:`triangle_corners`, so the two counters
cannot drift; they differ only in how wedges are *charged* (implicit
loop reads vs. materialized possible-triangle messages).

:func:`triangle_corners` intersects adjacency rows as a masked sparse
product over the DAG's adjacency matrix ``U``.  :func:`build_wedge_index`
and :func:`iter_closed_wedges` enumerate every wedge explicitly and
close it with a binary search; they are the reference the kernel is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_arange

__all__ = [
    "WEDGE_BATCH",
    "TriangleCorners",
    "WedgeIndex",
    "build_wedge_index",
    "iter_closed_wedges",
    "triangle_corners",
]

#: Work per vectorized batch, in wedges or sparse-product multiply-adds.
#: Bounds peak memory, which triangle jobs add to the serving process:
#: a scale-14 count peaks ~24 MB higher at 4M than at 500k.
WEDGE_BATCH = 500_000


class TriangleCorners(NamedTuple):
    """Triangles per vertex, split by the corner the vertex occupies.

    A triangle ``u → c → w`` (with ``u → w``) of the DAG counts once at
    its ``first`` corner ``u``, once at its ``middle`` corner ``c`` and
    once at its ``last`` corner ``w``.
    """

    first: np.ndarray
    #: None unless requested (it costs a second sparse product).
    middle: np.ndarray | None
    last: np.ndarray


def triangle_corners(dag: CSRGraph, *, middle: bool = False) -> TriangleCorners:
    """Count the DAG's triangles at each corner position.

    With ``U`` the DAG's 0/1 adjacency matrix, ``(U @ U) ∘ U`` holds at
    ``[u, w]`` the number of triangles whose first and last corners are
    ``u`` and ``w``: its row sums are the first-corner counts and its
    column sums the last-corner counts.  Likewise ``(U @ Uᵀ) ∘ Uᵀ``
    holds at ``[c, u]`` the number of triangles with middle corner
    ``c`` and first corner ``u``; its row sums are the middle-corner
    counts.
    """
    # Deferred: scipy costs every importer of this module ~20 MB of RSS.
    from scipy import sparse

    n = dag.num_vertices
    # Product entries count paths, at most n, so int32 values suffice;
    # the row and column sums accumulate in int64.
    adj = sparse.csr_array(
        (np.ones(dag.num_arcs, dtype=np.int32), dag.col_idx, dag.row_ptr),
        shape=(n, n),
    )
    first, last = _masked_product_sums(adj, adj, adj)
    mid = None
    if middle:
        adj_t = adj.T.tocsr()
        mid, _ = _masked_product_sums(adj, adj_t, adj_t)
    return TriangleCorners(first, mid, last)


def _masked_product_sums(left, right, mask):
    """Row and column sums of ``(left @ right) ∘ mask``.

    The product is evaluated in contiguous row blocks whose multiply-add
    count stays near :data:`WEDGE_BATCH` (always at least one row per
    block), which bounds the intermediate's memory.
    """
    n = left.shape[0]
    rows = np.zeros(n, dtype=np.int64)
    cols = np.zeros(n, dtype=np.int64)
    # Row r of left costs one multiply-add per nonzero of every row of
    # right it selects; row_cum[r] is the cost of the rows before r.
    nnz_cum = np.zeros(left.nnz + 1, dtype=np.int64)
    np.cumsum(np.diff(right.indptr)[left.indices], out=nnz_cum[1:])
    row_cum = nnz_cum[left.indptr]
    lo = 0
    while lo < n:
        hi = int(
            np.searchsorted(row_cum, row_cum[lo] + WEDGE_BATCH, "right")
        ) - 1
        hi = min(max(hi, lo + 1), n)
        closed = (left[lo:hi] @ right).multiply(mask[lo:hi])
        rows[lo:hi] = closed.sum(axis=1)
        cols += closed.sum(axis=0)
        lo = hi
    return rows, cols


@dataclass(frozen=True)
class WedgeIndex:
    """Precomputed wedge structure of an oriented DAG.

    Wedges centred at ``v``: (in-neighbour ``u``) x (out-neighbour ``w``)
    in the orientation, enumerated per *out-arc* so each wedge appears
    exactly once.
    """

    num_vertices: int
    #: DAG arcs as parallel (source, destination) vectors, CSR order.
    dag_src: np.ndarray
    dag_dst: np.ndarray
    #: ``src * n + dst`` — sorted, for O(log m) closure tests.
    arc_keys: np.ndarray
    #: DAG in-degree per vertex (= messages received in BSP superstep 1).
    in_degree: np.ndarray
    #: Wedges enumerated at each out-arc: ``in_degree[dag_src]``.
    wedges_per_arc: np.ndarray
    #: In-adjacency of the DAG: sources of reversed arcs grouped by
    #: destination, with ``rev_ptr`` the per-vertex group offsets.
    rev_src: np.ndarray
    rev_ptr: np.ndarray

    @property
    def total_wedges(self) -> int:
        """Ordered wedges = the BSP algorithm's "possible triangles"."""
        return int(self.wedges_per_arc.sum())


def build_wedge_index(dag: CSRGraph) -> WedgeIndex:
    """Index an oriented DAG (from :mod:`repro.graph.dag`) for wedges."""
    n = dag.num_vertices
    dag_src = dag.arc_sources()
    dag_dst = dag.col_idx
    # (src, dst) is lexicographically sorted in CSR order, so the fused
    # keys are sorted too.
    arc_keys = dag_src * n + dag_dst
    in_degree = (
        np.bincount(dag_dst, minlength=n).astype(np.int64, copy=False)
        if dag_dst.size
        else np.zeros(n, dtype=np.int64)
    )
    rev_order = np.argsort(dag_dst, kind="stable")
    rev_src = dag_src[rev_order]
    rev_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(in_degree, out=rev_ptr[1:])
    return WedgeIndex(
        num_vertices=n,
        dag_src=dag_src,
        dag_dst=dag_dst,
        arc_keys=arc_keys,
        in_degree=in_degree,
        wedges_per_arc=in_degree[dag_src],
        rev_src=rev_src,
        rev_ptr=rev_ptr,
    )


def iter_closed_wedges(
    index: WedgeIndex,
    *,
    batch_size: int = WEDGE_BATCH,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Enumerate wedges in batches with their closure verdicts.

    Yields ``(u, centre, w, hit)`` per batch: the wedge corners
    ``u < centre < w`` (in the DAG's total order) and a boolean mask —
    ``hit[i]`` iff the arc ``u[i] → w[i]`` exists, i.e. the wedge closes
    into a triangle.  Batches cover the out-arcs in CSR order and are
    sized to roughly ``batch_size`` wedges (always at least one arc, so
    a single pathological hub cannot stall progress).
    """
    dag_src = index.dag_src
    dag_dst = index.dag_dst
    arc_keys = index.arc_keys
    rev_src = index.rev_src
    rev_ptr = index.rev_ptr
    wedges_per_arc = index.wedges_per_arc
    n = index.num_vertices

    arc_lo, arc_end = 0, int(dag_dst.size)
    arc_starts = np.concatenate([[0], np.cumsum(wedges_per_arc)])
    while arc_lo < arc_end:
        arc_hi = int(
            np.searchsorted(arc_starts, arc_starts[arc_lo] + batch_size, "right")
        ) - 1
        arc_hi = min(max(arc_hi, arc_lo + 1), arc_end)
        sel = slice(arc_lo, arc_hi)
        counts = wedges_per_arc[sel]
        if counts.sum():
            centre = np.repeat(dag_src[sel], counts)
            w = np.repeat(dag_dst[sel], counts)
            u_pos = np.repeat(rev_ptr[dag_src[sel]], counts) + _ragged_arange(
                counts
            )
            u = rev_src[u_pos]
            keys = u * n + w
            # counts.sum() > 0 implies the DAG has arcs, so arc_keys is
            # non-empty here and clamping the insertion point is safe.
            pos = np.minimum(np.searchsorted(arc_keys, keys), arc_keys.size - 1)
            hit = arc_keys[pos] == keys
            yield u, centre, w, hit
        arc_lo = arc_hi
