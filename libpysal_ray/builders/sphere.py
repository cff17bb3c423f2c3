"""Spherical (great-circle) distance builders — arc KNN and arc
distance band over lon/lat points.

Reference semantics: cg/sphere.py:47-500 (arcdist / haversine toolkit)
and cg/kdtree.py:90-344 (Arc_KDTree: KD-tree over 3-d embeddings, the
chord↔arc conversion trick). The key identity: embedding lon/lat on the
sphere of radius R as XYZ, the CHORD length c and ARC length a satisfy
c = 2R·sin(a/2R) — strictly monotone — so k-nearest-by-arc equals
k-nearest-by-chord, and an arc band a ≤ t equals a chord band
c ≤ 2R·sin(t/2R). Both therefore reduce to 3-d Euclidean problems.

Ray-Data plan: the same ONE-shuffle tile pipeline as the 2-d builders,
generalized to a 3-d cell grid (only ~(4πR²)/cs² surface cells are ever
populated). KNN uses the identical per-tile guard: a point's k-th chord
is trusted only inside its tile's guaranteed 3-d coverage radius;
unresolved points finish in a broadcast full-scan pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from libpysal_ray.core import edges as E
from libpysal_ray.core import joins as J
from libpysal_ray.core.graph import RayGraph

EARTH_RADIUS_KM = 6371.0

_TOFF3 = 1 << 19
_SPAN3 = 1 << 20
_CHUNK = 1024


def _to_xyz(lon: np.ndarray, lat: np.ndarray, radius: float):
    """lon/lat degrees → XYZ on the radius-R sphere (cg/sphere.py
    ``toXYZ`` semantics)."""
    phi = np.radians(lat)
    lam = np.radians(lon)
    cphi = np.cos(phi)
    return (
        radius * cphi * np.cos(lam),
        radius * cphi * np.sin(lam),
        radius * np.sin(phi),
    )


def _chord_to_arc(d: np.ndarray, radius: float) -> np.ndarray:
    return 2.0 * radius * np.arcsin(
        np.clip(d / (2.0 * radius), 0.0, 1.0)
    )


def _pack3(tx, ty, tz):
    return ((tx + _TOFF3) * _SPAN3 + (ty + _TOFF3)) * _SPAN3 + (tz + _TOFF3)


def tile_points3(
    points: ray.data.Dataset,
    cs: float,
    halo: float,
    id_col: str,
    lon_col: str,
    lat_col: str,
    radius: float,
) -> ray.data.Dataset:
    """(tile, id, x, y, z, core) rows — home cell + ghosts to each of the
    26 neighbor cells whose boundary is within ``halo``."""

    def _emit(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table(
                {
                    "tile": pa.array([], pa.int64()),
                    "id": pa.array([], pa.int64()),
                    "x": pa.array([], pa.float64()),
                    "y": pa.array([], pa.float64()),
                    "z": pa.array([], pa.float64()),
                    "core": pa.array([], pa.bool_()),
                }
            )
        lon = t.column(lon_col).to_numpy(zero_copy_only=False).astype(np.float64)
        lat = t.column(lat_col).to_numpy(zero_copy_only=False).astype(np.float64)
        x, y, z = _to_xyz(lon, lat, radius)
        v = np.stack([x, y, z], axis=1)
        tc = np.floor(v / cs).astype(np.int64)
        lo = v - tc * cs
        hi = (tc + 1) * cs - v
        rows_t, rows_i, rows_v, rows_c = [], [], [], []
        rows_t.append(_pack3(tc[:, 0], tc[:, 1], tc[:, 2]))
        rows_i.append(ids)
        rows_v.append(v)
        rows_c.append(np.ones(len(ids), dtype=np.bool_))
        for off in np.ndindex(3, 3, 3):
            d3 = np.array(off) - 1
            if (d3 == 0).all():
                continue
            m = np.ones(len(ids), dtype=np.bool_)
            for j, dj in enumerate(d3):
                if dj == -1:
                    m &= lo[:, j] <= halo
                elif dj == 1:
                    m &= hi[:, j] <= halo
            if not m.any():
                continue
            tt = tc[m] + d3
            rows_t.append(_pack3(tt[:, 0], tt[:, 1], tt[:, 2]))
            rows_i.append(ids[m])
            rows_v.append(v[m])
            rows_c.append(np.zeros(int(m.sum()), dtype=np.bool_))
        allv = np.concatenate(rows_v)
        return pa.table(
            {
                "tile": pa.array(np.concatenate(rows_t)),
                "id": pa.array(np.concatenate(rows_i)),
                "x": pa.array(allv[:, 0]),
                "y": pa.array(allv[:, 1]),
                "z": pa.array(allv[:, 2]),
                "core": pa.array(np.concatenate(rows_c)),
            }
        )

    return points.map_batches(_emit, batch_format="pyarrow")


def distance_band_arc(
    points: ray.data.Dataset,
    arc_threshold: float,
    binary: bool = True,
    alpha: float = -1.0,
    radius: float = EARTH_RADIUS_KM,
    id_col: str = "id",
    lon_col: str = "lon",
    lat_col: str = "lat",
) -> RayGraph:
    """All pairs within great-circle distance ``arc_threshold`` (same
    units as ``radius``); weight 1 or arc^alpha."""
    chord = 2.0 * radius * np.sin(arc_threshold / (2.0 * radius))
    ids = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    tiled = tile_points3(points, chord, chord, id_col, lon_col, lat_col,
                         radius)

    def _pairs(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        v = np.stack(
            [
                t.column(c).to_numpy(zero_copy_only=False)
                for c in ("x", "y", "z")
            ],
            axis=1,
        )
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core)
        out_f, out_n, out_w = [], [], []
        for s in range(0, len(ci), _CHUNK):
            sel = ci[s: s + _CHUNK]
            diff = v[sel, None, :] - v[None, :, :]
            d = np.sqrt((diff * diff).sum(axis=2))
            keep = (d <= chord) & (i[sel, None] != i[None, :])
            r, c = np.nonzero(keep)
            out_f.append(i[sel][r])
            out_n.append(i[c])
            if binary:
                out_w.append(np.ones(len(r)))
            else:
                arc = _chord_to_arc(d[keep], radius)
                out_w.append(np.power(arc, alpha))
        if not out_f:
            return E.empty_edges()
        return E.edge_table(
            np.concatenate(out_f), np.concatenate(out_n),
            np.concatenate(out_w),
        )

    _pairs._size_expanding = True  # pair emission
    edges = J.per_group(tiled, ("tile",), _pairs)
    return RayGraph(edges, ids=ids)


def knn_arc_edges(
    points: ray.data.Dataset,
    k: int,
    radius: float = EARTH_RADIUS_KM,
    id_col: str = "id",
    lon_col: str = "lon",
    lat_col: str = "lat",
    cs: float | None = None,
) -> ray.data.Dataset:
    """(focal, neighbor, arc) — k nearest by great-circle distance; ties
    broken by (chord, neighbor id). Tile pass with 3-d coverage guard +
    broadcast fallback for unresolved points (exact for any geometry)."""
    if cs is None:
        n = max(points.count(), 1)
        area = 4.0 * np.pi * radius * radius
        cs = float(np.sqrt(area * 4.0 * (k + 1) / n))
        cs = min(cs, radius)  # keep the cell grid meaningful
    halo = cs
    tiled = tile_points3(points, cs, halo, id_col, lon_col, lat_col, radius)
    kk = k

    def _local(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        v = np.stack(
            [
                t.column(c).to_numpy(zero_copy_only=False)
                for c in ("x", "y", "z")
            ],
            axis=1,
        )
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core)
        tile = int(t.column("tile")[0].as_py())
        tz = tile % _SPAN3 - _TOFF3
        ty = (tile // _SPAN3) % _SPAN3 - _TOFF3
        tx = tile // (_SPAN3 * _SPAN3) - _TOFF3
        g0 = np.array([tx, ty, tz]) * cs - halo
        g1 = (np.array([tx, ty, tz]) + 1) * cs + halo
        out_f, out_n, out_d, out_ok = [], [], [], []
        for s in range(0, len(ci), _CHUNK):
            sel = ci[s: s + _CHUNK]
            diff = v[sel, None, :] - v[None, :, :]
            d = np.sqrt((diff * diff).sum(axis=2))
            d[i[sel, None] == i[None, :]] = np.inf
            m = d.shape[1]
            take = min(kk, m - 1)
            if take > 0:
                ord_ = np.lexsort(
                    (np.broadcast_to(i, d.shape), d), axis=1
                )[:, :take]
                rows = np.repeat(np.arange(len(sel)), take)
                cols = ord_.ravel()
                dd = d[rows, cols]
                guard = np.minimum(
                    (v[sel] - g0[None, :]).min(axis=1),
                    (g1[None, :] - v[sel]).min(axis=1),
                )
                kth = dd.reshape(len(sel), take)[:, -1]
                resolved = (kth < guard) & (take == kk)
                out_f.append(np.repeat(i[sel], take))
                out_n.append(i[cols])
                out_d.append(dd)
                out_ok.append(np.repeat(resolved, take))
            if take < kk:
                out_f.append(i[sel])
                out_n.append(np.full(len(sel), -1, dtype=np.int64))
                out_d.append(np.full(len(sel), np.inf))
                out_ok.append(np.zeros(len(sel), dtype=np.bool_))
        if not out_f:
            return pa.table(
                {
                    "focal": pa.array([], pa.int64()),
                    "neighbor": pa.array([], pa.int64()),
                    "chord": pa.array([], pa.float64()),
                    "resolved": pa.array([], pa.bool_()),
                }
            )
        return pa.table(
            {
                "focal": pa.array(np.concatenate(out_f).astype(np.int64)),
                "neighbor": pa.array(np.concatenate(out_n).astype(np.int64)),
                "chord": pa.array(np.concatenate(out_d)),
                "resolved": pa.array(np.concatenate(out_ok)),
            }
        )

    local = J.per_group(tiled, ("tile",), _local).materialize()
    import pyarrow.compute as pc

    resolved = local.map_batches(
        lambda t: t.filter(t.column("resolved")).drop_columns(["resolved"]),
        batch_format="pyarrow",
    )
    unresolved_ds = (
        local.map_batches(
            lambda t: t.filter(pc.invert(t.column("resolved"))),
            batch_format="pyarrow",
        )
        .select_columns(["focal"])
        .groupby("focal")
        .count()
        .select_columns(["focal"])
        .materialize()
    )
    n_unres = unresolved_ds.count()
    if n_unres > 0:
        # CHUNKED fallback (ADVICE r2 #5): the unresolved query set is
        # streamed in bounded chunks — each chunk is one ray.put + one
        # scan pass — so clustered inputs with a large unresolved
        # fraction never pin an O(U) payload on the driver or run one
        # O(U×n) task. Each focal lives in exactly one chunk, so the
        # per-chunk groupby(focal) merge is still the global top-k.
        # Size-switched selection (VERDICT r3 #3): small unresolved sets
        # broadcast a driver id array; above FALLBACK_SEMI_IDS a
        # distributed semi-join selects the points instead.
        from libpysal_ray.builders.distance import FALLBACK_SEMI_IDS

        q_chunk = 65536
        pts_sel = points.select_columns([id_col, lon_col, lat_col])
        if n_unres <= FALLBACK_SEMI_IDS:
            uq = np.array(
                [r["focal"] for r in unresolved_ds.take_all()],
                dtype=np.int64,
            )
            qfiltered = pts_sel.map_batches(
                lambda t: t.filter(
                    pa.array(
                        np.isin(
                            t.column(id_col).to_numpy(zero_copy_only=False),
                            uq,
                        )
                    )
                ),
                batch_format="pyarrow",
            )
        else:
            key_ds = unresolved_ds.map_batches(
                lambda t: t.rename_columns([id_col]),
                batch_format="pyarrow",
            )
            qfiltered = J.bucket_join(pts_sel, key_ds, on=id_col, how="semi")

        def _scan_for(qref):
            def _scan(t: pa.Table) -> pa.Table:
                return _scan_impl(t, qref)

            return _scan

        def _scan_impl(t: pa.Table, qref) -> pa.Table:
            qi, qv = ray.get(qref)
            i = t.column(id_col).to_numpy(zero_copy_only=False)
            x_, y_, z_ = _to_xyz(
                t.column(lon_col).to_numpy(zero_copy_only=False),
                t.column(lat_col).to_numpy(zero_copy_only=False),
                radius,
            )
            v = np.stack([x_, y_, z_], axis=1)
            out_f, out_n, out_d = [], [], []
            for s in range(0, len(qi), _CHUNK):
                diff = qv[s: s + _CHUNK, None, :] - v[None, :, :]
                dq = np.sqrt((diff * diff).sum(axis=2))
                dq[qi[s: s + _CHUNK, None] == i[None, :]] = np.inf
                take = min(kk, dq.shape[1])
                ord_ = np.lexsort(
                    (np.broadcast_to(i, dq.shape), dq), axis=1
                )[:, :take]
                rows = np.repeat(np.arange(dq.shape[0]), take)
                cols = ord_.ravel()
                out_f.append(np.repeat(qi[s: s + _CHUNK], take))
                out_n.append(i[cols])
                out_d.append(dq[rows, cols])
            return pa.table(
                {
                    "focal": pa.array(
                        np.concatenate(out_f).astype(np.int64)
                    ),
                    "neighbor": pa.array(
                        np.concatenate(out_n).astype(np.int64)
                    ),
                    "chord": pa.array(np.concatenate(out_d)),
                }
            )

        def _merge_topk(t: pa.Table) -> pa.Table:
            d = t.column("chord").to_numpy(zero_copy_only=False)
            nb = t.column("neighbor").to_numpy(zero_copy_only=False)
            ord_ = np.lexsort((nb, d))
            seen: set = set()
            keep = []
            for j in ord_:
                if np.isinf(d[j]):
                    continue
                if nb[j] not in seen:
                    seen.add(nb[j])
                    keep.append(j)
                if len(keep) == kk:
                    break
            return t.take(pa.array(np.array(keep, dtype=np.int64)))

        parts = []
        for qb in qfiltered.iter_batches(
            batch_size=q_chunk, batch_format="pyarrow"
        ):
            qid = qb.column(id_col).to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            qx, qy, qz = _to_xyz(
                qb.column(lon_col).to_numpy(zero_copy_only=False),
                qb.column(lat_col).to_numpy(zero_copy_only=False),
                radius,
            )
            qref = ray.put((qid, np.stack([qx, qy, qz], axis=1)))
            # NATIVE groupby, not per_group: the scan EXPANDS each block
            # to (#chunk-queries x k) rows, which the plan-walk size bound
            # cannot see (it assumes ~size-preserving maps)
            parts.append(
                points.map_batches(
                    _scan_for(qref), batch_format="pyarrow"
                )
                .groupby("focal")
                .map_groups(_merge_topk, batch_format="pyarrow")
            )
        out = resolved
        for p in parts:
            out = out.union(p)
    else:
        out = resolved

    def _arc(t: pa.Table) -> pa.Table:
        d = t.column("chord").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "focal": t.column("focal"),
                "neighbor": t.column("neighbor"),
                "arc": pa.array(_chord_to_arc(d, radius)),
            }
        )

    return out.map_batches(_arc, batch_format="pyarrow")


def knn_arc(
    points: ray.data.Dataset,
    k: int,
    radius: float = EARTH_RADIUS_KM,
    id_col: str = "id",
    lon_col: str = "lon",
    lat_col: str = "lat",
) -> RayGraph:
    """Arc-KNN weights — binary, k nearest by great-circle distance
    (cg/kdtree.py:90-344 Arc_KDTree semantics)."""
    ids = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    e = knn_arc_edges(points, k, radius, id_col, lon_col, lat_col)

    def _mk(t: pa.Table) -> pa.Table:
        return E.edge_table(
            t.column("focal").to_numpy(zero_copy_only=False),
            t.column("neighbor").to_numpy(zero_copy_only=False),
            1.0,
        )

    return RayGraph(
        e.map_batches(_mk, batch_format="pyarrow"), ids=ids,
    )


def arcdist(
    lon1: np.ndarray, lat1: np.ndarray, lon2: np.ndarray, lat2: np.ndarray,
    radius: float = EARTH_RADIUS_KM,
) -> np.ndarray:
    """Vectorized great-circle distance via the chord identity
    (cg/sphere.py ``arcdist``/``harcdist`` equivalent)."""
    x1, y1, z1 = _to_xyz(np.asarray(lon1, np.float64),
                         np.asarray(lat1, np.float64), radius)
    x2, y2, z2 = _to_xyz(np.asarray(lon2, np.float64),
                         np.asarray(lat2, np.float64), radius)
    chord = np.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2 + (z1 - z2) ** 2)
    return _chord_to_arc(chord, radius)
