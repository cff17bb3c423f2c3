"""Point-in-polygon join — a broadcast map stage.

Reference semantics: cg/standalone.py:380-433 ``get_polygon_point_intersect``
(bbox prefilter + even-odd ray casting ``_point_in_vertices``
standalone.py:1023-1081) and the STRtree predicate join of
graph/_contiguity.py:94-135. No shapely in this environment, so the engine
implements the same computational geometry directly in vectorized numpy.

Ray-Data plan: the polygon layer (the SMALL side — admin boundaries, grid
tiles) is ``ray.put`` ONCE; the join runs as ordinary ``map_batches``
tasks that fuse with the neighbouring maps. Each worker process builds the
cell-bucketed polygon index (``PIPJoiner``, the equivalent of the
reference's in-process quadtree, cg/polygonQuadTreeStructure.py) once and
memoizes it; each batch does a vectorized candidate lookup + ray-cast.
Points are never shuffled for this join — it's a broadcast join, the right
plan when polygons ≪ points (SURVEY §2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from libpysal_ray.spatial.cells import cell_encode


def polygon_index(polygons_tbl: pa.Table, res: int):
    """Build (rings, buckets): per-polygon vertex arrays + cell → candidate
    polygon indices from bbox polyfill at quadcell resolution ``res``."""
    pids = polygons_tbl.column("polygon_id").to_numpy(zero_copy_only=False)
    xs = polygons_tbl.column("xs").to_pylist()
    ys = polygons_tbl.column("ys").to_pylist()
    rings = [
        (np.asarray(x, np.float64), np.asarray(y, np.float64))
        for x, y in zip(xs, ys)
    ]
    n = 1 << res
    from libpysal_ray.spatial.cells import LAT_SPAN, LON_SPAN

    buckets: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(rings):
        cx0 = int(np.clip(np.floor((x.min() + 180.0) / LON_SPAN * n), 0, n - 1))
        cx1 = int(np.clip(np.floor((x.max() + 180.0) / LON_SPAN * n), 0, n - 1))
        cy0 = int(np.clip(np.floor((y.min() + 85.0) / LAT_SPAN * n), 0, n - 1))
        cy1 = int(np.clip(np.floor((y.max() + 85.0) / LAT_SPAN * n), 0, n - 1))
        for cy in range(cy0, cy1 + 1):
            for cx in range(cx0, cx1 + 1):
                buckets.setdefault(cy * n + cx, []).append(i)
    return pids.astype(np.int64), rings, buckets


def points_in_ring(px: np.ndarray, py: np.ndarray,
                   rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, vectorized over points for one ring
    (semantics of _point_in_vertices, standalone.py:1023-1081)."""
    inside = np.zeros(len(px), dtype=bool)
    x1, y1 = rx[:-1], ry[:-1]
    x2, y2 = rx[1:], ry[1:]
    for j in range(len(x1)):
        cond = (y1[j] > py) != (y2[j] > py)
        if not cond.any():
            continue
        xint = (x2[j] - x1[j]) * (py - y1[j]) / (y2[j] - y1[j]) + x1[j]
        inside ^= cond & (px < xint)
    return inside


_TASK_CACHE: dict = {}


class PIPJoiner:
    """Batch fn: (id, x, y[, cell]) → (id, cell, polygon_id), holding the
    polygon index built once in ``__init__``.

    Points matching no polygon get polygon_id = -1 when keep_unmatched,
    else are dropped. Passthrough columns are preserved.
    """

    def __init__(self, polygons_ref, res: int, id_col: str = "id",
                 keep_unmatched: bool = False, passthrough: tuple = ()):
        tbl = ray.get(polygons_ref) if not isinstance(polygons_ref, pa.Table) else polygons_ref
        self.pids, self.rings, self.buckets = polygon_index(tbl, res)
        self.res = res
        self.id_col = id_col
        self.keep_unmatched = keep_unmatched
        self.passthrough = passthrough

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column(self.id_col).to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        if "cell" in t.schema.names:
            cell = t.column("cell").to_numpy(zero_copy_only=False)
        else:
            cell = cell_encode(x, y, self.res)
        out_id, out_cell, out_poly, out_rowidx = [], [], [], []
        matched = np.zeros(len(ids), dtype=bool)
        order = np.argsort(cell, kind="stable")
        bounds = np.searchsorted(
            cell[order], np.unique(cell[order]), side="left"
        )
        uniq = np.unique(cell)
        bounds = np.append(bounds, len(order))
        for u_i, c in enumerate(uniq):
            rows = order[bounds[u_i]: bounds[u_i + 1]]
            cands = self.buckets.get(int(c), ())
            if not cands:
                continue
            px, py = x[rows], y[rows]
            for pi in cands:
                rx, ry = self.rings[pi]
                # bbox prefilter
                m = (px >= rx.min()) & (px <= rx.max()) & \
                    (py >= ry.min()) & (py <= ry.max())
                if not m.any():
                    continue
                hit = np.zeros(len(rows), dtype=bool)
                hit[m] = points_in_ring(px[m], py[m], rx, ry)
                if hit.any():
                    rsel = rows[hit]
                    out_id.append(ids[rsel])
                    out_cell.append(cell[rsel])
                    out_poly.append(np.full(len(rsel), self.pids[pi], np.int64))
                    out_rowidx.append(rsel)
                    matched[rsel] = True
        if self.keep_unmatched:
            un = np.flatnonzero(~matched)
            out_id.append(ids[un])
            out_cell.append(cell[un])
            out_poly.append(np.full(len(un), -1, np.int64))
            out_rowidx.append(un)
        if not out_id:
            cols = {
                self.id_col: pa.array([], t.schema.field(self.id_col).type),
                "cell": pa.array([], pa.int64()),
                "polygon_id": pa.array([], pa.int64()),
            }
            for p in self.passthrough:
                cols[p] = pa.array([], t.schema.field(p).type)
            return pa.table(cols)
        rowidx = np.concatenate(out_rowidx)
        cols = {
            self.id_col: pa.array(np.concatenate(out_id)),
            "cell": pa.array(np.concatenate(out_cell).astype(np.int64)),
            "polygon_id": pa.array(np.concatenate(out_poly)),
        }
        out = pa.table(cols)
        for p in self.passthrough:
            out = out.append_column(p, t.column(p).take(pa.array(rowidx)))
        return out


def pip_join(
    points: ray.data.Dataset,
    polygons_tbl: pa.Table,
    res: int = 8,
    id_col: str = "id",
    keep_unmatched: bool = False,
    passthrough: tuple = (),
) -> ray.data.Dataset:
    """Broadcast PIP join: points × polygon layer → (id, cell, polygon_id).

    The stage runs as ordinary map tasks that build (and memoize per
    worker process) the polygon index from the broadcast ref. Tasks scale
    elastically over every free CPU and fuse with the neighbouring maps;
    the index build is cheap (the polygon layer is the broadcast SMALL
    side), so the worker-local rebuild-once cost is noise."""
    ref = ray.put(polygons_tbl)
    joiner_kw = {
        "id_col": id_col,
        "keep_unmatched": keep_unmatched,
        "passthrough": passthrough,
    }

    def _pip_task(t: pa.Table) -> pa.Table:
        key = ref.hex()
        j = _TASK_CACHE.get(key)
        if j is None:
            j = PIPJoiner(ref, res, **joiner_kw)
            _TASK_CACHE.clear()
            _TASK_CACHE[key] = j
        return j(t)

    # default batch size → the stage fuses with neighboring map_batches
    # ops (a custom batch_size breaks operator fusion and adds a
    # standalone operator's scheduling overhead)
    return points.map_batches(_pip_task, batch_format="pyarrow")
