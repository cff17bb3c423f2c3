"""Proximity graphs — Gabriel and Relative-Neighborhood, by direct
geometric characterization.

Reference: /root/reference/libpysal/weights/gabriel.py:156-259 and
graph/_triangulation.py:455-539 compute these as filters over a scipy
Delaunay triangulation (no scipy in this environment). Both graphs have
closed-form pairwise-triple definitions that need no triangulation:

* Gabriel: edge (i, j) survives iff NO third point k lies in the closed
  disc with diameter ij — equivalently no k with
  d²(i,k) + d²(j,k) ≤ d²(i,j)  (the reference's circle test,
  gabriel.py:184-189 `d² > d²ik + d²jk` kept).
* RNG (Toussaint): edge (i, j) survives iff no k with
  max(d(i,k), d(j,k)) ≤ d(i,j)  (gabriel.py:230-240).

Engine plan: ONE tile shuffle (``tile_points``, cell = halo = max_edge)
co-locates every candidate pair with every possible witness: a witness k
for pair (i, j) satisfies d(i,k) ≤ d(i,j) ≤ max_edge (both definitions
imply it), so k is within the halo of i's home tile. Per tile the
candidate scan and the triple test are one vectorized kernel — no
broadcast of the global point set, no driver collect; pairs are emitted
from each endpoint's home tile (the graphs are symmetric, so both
directions arrive without a dedup pass).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from libpysal_ray.builders.distance import tile_points
from libpysal_ray.core import edges as E
from libpysal_ray.core import joins as J
from libpysal_ray.core.graph import RayGraph

_PCHUNK = 512  # candidate-pair chunk per witness matrix


def _filtered_band(
    points: ray.data.Dataset,
    max_edge: float,
    kind: str,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> RayGraph:
    me = float(max_edge)
    tiled = tile_points(points, me, me, id_col=id_col, x_col=x_col,
                        y_col=y_col)

    def _tile(t: pa.Table) -> pa.Table:
        ids = t.column("id").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core)
        out_f, out_n = [], []
        for s in range(0, len(ci), _PCHUNK):
            c = ci[s: s + _PCHUNK]
            d2c = (x[c, None] - x[None, :]) ** 2 + \
                  (y[c, None] - y[None, :]) ** 2
            cand = (d2c <= me * me) & (ids[c, None] != ids[None, :])
            pr, pc = np.nonzero(cand)
            if len(pr) == 0:
                continue
            gi = c[pr]
            gj = pc
            ix, iy, jx, jy = x[gi], y[gi], x[gj], y[gj]
            d2ij = d2c[pr, pc]
            keep = np.ones(len(gi), dtype=bool)
            for ps in range(0, len(gi), _PCHUNK):
                sl = slice(ps, ps + _PCHUNK)
                d2ik = (ix[sl, None] - x[None, :]) ** 2 + \
                       (iy[sl, None] - y[None, :]) ** 2
                d2jk = (jx[sl, None] - x[None, :]) ** 2 + \
                       (jy[sl, None] - y[None, :]) ** 2
                self_mask = (ids[None, :] == ids[gi][sl, None]) | \
                            (ids[None, :] == ids[gj][sl, None])
                if kind == "gabriel":
                    wit = (d2ik + d2jk) <= d2ij[sl, None]
                else:  # rng
                    wit = np.maximum(d2ik, d2jk) <= d2ij[sl, None]
                wit &= ~self_mask
                keep[sl] = ~wit.any(axis=1)
            out_f.append(ids[gi][keep])
            out_n.append(ids[gj][keep])
        if not out_f:
            return E.empty_edges()
        return E.edge_table(
            np.concatenate(out_f), np.concatenate(out_n), 1.0
        )

    # NOT per_group: the per-tile kernel is compute-heavy (local
    # triangulation / witness scans), so the coalesced small path would
    # serialize real work — the native groupby's stage cost is amortized
    # by parallel per-tile compute here
    edges = tiled.groupby("tile").map_groups(_tile, batch_format="pyarrow")
    ids = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    return RayGraph(edges, ids=ids)


def gabriel(points: ray.data.Dataset, max_edge: float, **kw) -> RayGraph:
    """Gabriel graph restricted to edges ≤ max_edge (gabriel.py:156-207)."""
    return _filtered_band(points, max_edge, "gabriel", **kw)


def relative_neighborhood(
    points: ray.data.Dataset, max_edge: float, **kw
) -> RayGraph:
    """Relative-neighborhood graph restricted to edges ≤ max_edge
    (gabriel.py:210-259)."""
    return _filtered_band(points, max_edge, "rng", **kw)
