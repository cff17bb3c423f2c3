"""Raster contiguity — pure index-offset arithmetic, shuffle-light.

Reference semantics: weights/raster.py:186-330 ``da2WSP`` flattens a
``(band, y, x)`` DataArray, masks nodata, and generates neighbor pairs by
integer offsets E/SE/S/SW (+ symmetric) with boundary guards
(raster.py:748-874, numba ``_compute_chunk``). Contiguity is within-band.

Ray-Data plan (works at any raster size, no broadcast state): each VALID
cell emits a *claim* row for every potential incident undirected pair
(keyed by the pair); a pair is a real edge iff BOTH endpoints claimed it —
checked by one ``groupby(pair).count()``-style cogroup. Nodata cells simply
never claim, so edges into nodata die for lack of a second claim. This
replaces the reference's in-memory mask lookup with a shuffle, which is the
scalable choice (the mask for a 10^12-cell raster fits nowhere).

Input: Dataset (band:int, row:int, col:int, value:float64); nodata cells
may be present (filtered by value == nodata) or pre-filtered. Cell id =
``band * nrows * ncols + row * ncols + col``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from libpysal_ray.core import edges as E
from libpysal_ray.core.graph import RayGraph


def _gen_offsets(criterion: str, k: int) -> list[tuple[int, int]]:
    """Undirected offset generators for the k-order WINDOW neighborhood:
    queen = Chebyshev distance ≤ k, rook = Manhattan distance ≤ k — the
    offset sets _compute_chunk enumerates order-by-order
    (weights/raster.py:797-873; rook's order-1 corners appear iff
    k/order ≥ 2, which is exactly the Manhattan-≤-k diamond)."""
    offs = []
    for dr in range(0, k + 1):
        for dc in range(-k, k + 1):
            if dr == 0 and dc <= 0:
                continue  # lower half = mirrors of the upper generators
            dist = (
                max(abs(dr), abs(dc))
                if criterion == "queen"
                else abs(dr) + abs(dc)
            )
            if dist <= k:
                offs.append((dr, dc))
    return offs


def raster_contiguity(
    cells: ray.data.Dataset,
    nrows: int,
    ncols: int,
    criterion: str = "rook",
    nodata: float | None = None,
    k: int = 1,
    include_nodata: bool = False,
) -> RayGraph:
    """``k``: contiguity order, lower orders included (da2WSP semantics,
    weights/raster.py:186-330). ``include_nodata=False`` (default) makes
    k-order neighborhoods path-based — reachable within ≤k hops through
    VALID cells (the reference's Σ_{x≤k} matrix-power branch,
    raster.py:318-330) — built here as higher_order(k, lower_order=True)
    over the order-1 graph (k−1 distributed self-joins).
    ``include_nodata=True`` treats nodata as passable when selecting
    higher-order neighbors (the numba branch): pure window offsets, no
    extra shuffle beyond the one claims cogroup."""
    if k > 1 and not include_nodata:
        base = raster_contiguity(cells, nrows, ncols, criterion, nodata)
        return base.higher_order(k, lower_order=True)
    offsets = _gen_offsets(criterion, k)

    def _claims(t: pa.Table) -> pa.Table:
        band = t.column("band").to_numpy(zero_copy_only=False).astype(np.int64)
        row = t.column("row").to_numpy(zero_copy_only=False).astype(np.int64)
        col = t.column("col").to_numpy(zero_copy_only=False).astype(np.int64)
        if nodata is not None:
            val = t.column("value").to_numpy(zero_copy_only=False)
            ok = val != nodata
            band, row, col = band[ok], row[ok], col[ok]
        cid = band * (nrows * ncols) + row * ncols + col
        out_a, out_b = [], []
        for dr, dc in offsets:
            # claim the +offset pair AND the mirrored -offset pair: for an
            # undirected pair (a,b), endpoint a claims via +off, endpoint b
            # via -off — each side exactly once, so count==2 ⇔ both valid.
            for sgn in (1, -1):
                rr, cc = row + sgn * dr, col + sgn * dc
                m = (rr >= 0) & (rr < nrows) & (cc >= 0) & (cc < ncols)
                nid = band[m] * (nrows * ncols) + rr[m] * ncols + cc[m]
                me = cid[m]
                out_a.append(np.minimum(me, nid))
                out_b.append(np.maximum(me, nid))
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a)),
                "b": pa.array(np.concatenate(out_b)),
            }
        )

    def _emit_both(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return E.edge_table(
            np.concatenate([a, b]), np.concatenate([b, a]), 1.0
        )

    claims = cells.map_batches(_claims, batch_format="pyarrow")
    edges = (
        claims.groupby(["a", "b"])
        .count()
        .rename_columns({"count()": "cnt"})
        .filter(expr="cnt == 2")
        .map_batches(_emit_both, batch_format="pyarrow")
    )

    def _ids(t: pa.Table) -> pa.Table:
        band = t.column("band").to_numpy(zero_copy_only=False).astype(np.int64)
        row = t.column("row").to_numpy(zero_copy_only=False).astype(np.int64)
        col = t.column("col").to_numpy(zero_copy_only=False).astype(np.int64)
        if nodata is not None:
            val = t.column("value").to_numpy(zero_copy_only=False)
            ok = val != nodata
            band, row, col = band[ok], row[ok], col[ok]
        cid = band * (nrows * ncols) + row * ncols + col
        return pa.table({"focal": pa.array(cid)})

    ids = cells.map_batches(_ids, batch_format="pyarrow")
    return RayGraph(edges, ids=ids)


def focal_mean(
    cells: ray.data.Dataset,
    nrows: int,
    ncols: int,
    nodata: int | None = None,
    val_col: str = "value",
) -> ray.data.Dataset:
    """3×3 focal (moving-window) mean of an integer raster — the classic
    map-algebra smoothing (queen window INCLUDING the center; cells
    whose value equals ``nodata`` neither contribute nor emit output,
    and nodata neighbors shrink the window like GIS focal stats do).
    Output (row, col, num, den, mean_f): num/den is the EXACT integer
    fraction Σwindow / #window, mean_f one pinned float division.

    100 TB shape: a stateless ×9 offset fanout per batch (vectorized
    repeat, in-bounds filtered) into ONE groupby(cell key) with native
    Sum/Count/Max aggregates — no raster-sized driver state, no join;
    Σ shuffled rows = 9·#valid cells. The center-validity flag rides
    the same aggregate (Max), so masked centers drop without a second
    pass."""
    if 9 * nrows * ncols >= (1 << 62) or nrows <= 0 or ncols <= 0:
        raise ValueError("focal_mean: bad raster shape")

    dr = np.repeat(np.array([-1, 0, 1], dtype=np.int64), 3)
    dc = np.tile(np.array([-1, 0, 1], dtype=np.int64), 3)
    ctr0 = ((dr == 0) & (dc == 0)).astype(np.int64)

    def _contrib(t: pa.Table) -> pa.Table:
        r = t.column("row").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("col").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        if nodata is not None:
            keep = v != nodata
            r, c, v = r[keep], c[keep], v[keep]
        if len(v) and 9 * int(np.abs(v).max()) >= (1 << 62):
            raise ValueError("focal_mean window sum would overflow "
                             "int64; rescale values")
        m = len(r)
        rr = np.repeat(r, 9) + np.tile(dr, m)
        cc = np.repeat(c, 9) + np.tile(dc, m)
        vv = np.repeat(v, 9)
        ct = np.tile(ctr0, m)
        inb = (rr >= 0) & (rr < nrows) & (cc >= 0) & (cc < ncols)
        return pa.table({
            "k": pa.array(rr[inb] * ncols + cc[inb]),
            "v": pa.array(vv[inb]),
            "ctr": pa.array(ct[inb]),
        })

    agg = (
        cells.map_batches(_contrib, batch_format="pyarrow")
        .groupby("k")
        .aggregate(
            ray.data.aggregate.Sum("v"),
            ray.data.aggregate.Count(),
            ray.data.aggregate.Max("ctr"),
        )
    )

    def _out(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(t.column("max(ctr)"), 1)
        t = t.filter(keep)
        k = t.column("k").to_numpy(zero_copy_only=False)
        num = t.column("sum(v)").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        den = t.column("count()").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table({
            "row": pa.array(k // ncols),
            "col": pa.array(k % ncols),
            "num": pa.array(num),
            "den": pa.array(den),
            "mean_f": pa.array(num.astype(np.float64)
                               / den.astype(np.float64)),
        })

    return agg.map_batches(_out, batch_format="pyarrow")


def bilinear_resample(
    pts: ray.data.Dataset,
    grid: np.ndarray,
    cell: int,
    id_col: str = "doc_id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Bilinear raster→point resampling at integer coordinates — the
    raster↔vector transfer step, EXACT fixed point: cell centers sit at
    (c·cell + cell/2); a point between four centers blends them with
    the integer weights (cell−tx)(cell−ty) / tx(cell−ty) / (cell−tx)ty
    / tx·ty over the common denominator cell². Points outside the
    interior (closer than cell/2 to the raster edge) are dropped —
    mirror the same filter on the comparison side. Output
    (id, val_num, val_den, val_f).

    ``grid`` is a SMALL dense int64 (nrows, ncols) array captured once
    in the task closure (a broadcast lookup — for rasters beyond
    closure size, ship it via ray.put or route through the tile-join
    path instead). One stateless vectorized pass, no shuffle."""
    if cell <= 0 or cell % 2:
        raise ValueError("bilinear_resample needs a positive even cell")
    grid = np.ascontiguousarray(grid, dtype=np.int64)
    gr, gc = grid.shape
    if 4 * int(np.abs(grid).max(initial=0)) * cell * cell >= (1 << 62):
        raise ValueError("bilinear_resample terms would overflow int64; "
                         "rescale values")
    half = cell // 2
    xmaxv = gc * cell - half  # exclusive interior bound
    ymaxv = gr * cell - half

    def _f(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        inb = (x >= half) & (x < xmaxv) & (y >= half) & (y < ymaxv)
        x, y, ids = x[inb], y[inb], ids[inb]
        c0 = (x - half) // cell
        r0 = (y - half) // cell
        tx = (x - half) % cell
        ty = (y - half) % cell
        v00 = grid[r0, c0]
        v01 = grid[r0, c0 + 1]
        v10 = grid[r0 + 1, c0]
        v11 = grid[r0 + 1, c0 + 1]
        num = (
            (cell - tx) * (cell - ty) * v00
            + tx * (cell - ty) * v01
            + (cell - tx) * ty * v10
            + tx * ty * v11
        )
        den = np.int64(cell * cell)
        return pa.table({
            id_col: pa.array(ids),
            "val_num": pa.array(num),
            "val_den": pa.array(np.full(len(ids), den, dtype=np.int64)),
            "val_f": pa.array(num.astype(np.float64) / np.float64(den)),
        })

    return pts.map_batches(_f, batch_format="pyarrow")


_HORN_WX = {(-1, -1): -1, (-1, 0): 0, (-1, 1): 1,
            (0, -1): -2, (0, 0): 0, (0, 1): 2,
            (1, -1): -1, (1, 0): 0, (1, 1): 1}
_HORN_WY = {(-1, -1): -1, (-1, 0): -2, (-1, 1): -1,
            (0, -1): 0, (0, 0): 0, (0, 1): 0,
            (1, -1): 1, (1, 0): 2, (1, 1): 1}


def raster_slope(
    cells: ray.data.Dataset,
    nrows: int,
    ncols: int,
    cellsize: int,
    nodata: int | None = None,
    val_col: str = "value",
) -> ray.data.Dataset:
    """Slope gradients by Horn's method (the standard GIS 3×3 finite
    difference): dz/dx = ((c+2f+i) − (a+2g+d... window letters a..i
    row-major) / (8·cellsize), dz/dy likewise with the transposed
    stencil. EXACT integers: output (row, col, gx_num, gy_num, den)
    with den = 8·cellsize constant, plus slope_f =
    √((gx/den)² + (gy/den)²) as one pinned IEEE chain (divisions,
    multiply, add, sqrt — all correctly rounded, no transcendental).
    Cells with an incomplete or nodata-contaminated 3×3 window emit
    nothing (the conservative GIS edge rule).

    100 TB shape: the :func:`focal_mean` fanout plan — ×9 stateless
    offset fanout carrying the two stencil weights, ONE groupby(cell)
    with Sum/Sum/Count aggregates; full-window validity is Count==9 on
    the same pass."""
    if cellsize <= 0:
        raise ValueError("raster_slope needs a positive cellsize")
    offs = sorted(_HORN_WX)
    dr = np.array([o[0] for o in offs], dtype=np.int64)
    dc = np.array([o[1] for o in offs], dtype=np.int64)
    wx = np.array([_HORN_WX[o] for o in offs], dtype=np.int64)
    wy = np.array([_HORN_WY[o] for o in offs], dtype=np.int64)
    den = 8 * int(cellsize)

    def _contrib(t: pa.Table) -> pa.Table:
        r = t.column("row").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("col").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        if nodata is not None:
            keep = v != nodata
            r, c, v = r[keep], c[keep], v[keep]
        if len(v) and 8 * int(np.abs(v).max()) >= (1 << 60):
            raise ValueError("raster_slope stencil sums would overflow "
                             "int64; rescale values")
        m = len(r)
        # contribution of THIS cell to each neighbor's window: the
        # neighbor at (+dr,+dc) sees this cell at offset (−dr,−dc) —
        # Horn weights are antisymmetric, so negate
        rr = np.repeat(r, 9) + np.tile(dr, m)
        cc = np.repeat(c, 9) + np.tile(dc, m)
        vv = np.repeat(v, 9)
        gx = vv * np.tile(-wx, m)
        gy = vv * np.tile(-wy, m)
        inb = (rr >= 0) & (rr < nrows) & (cc >= 0) & (cc < ncols)
        return pa.table({
            "k": pa.array(rr[inb] * ncols + cc[inb]),
            "gx": pa.array(gx[inb]),
            "gy": pa.array(gy[inb]),
            "one": pa.array(np.ones(int(inb.sum()), dtype=np.int64)),
        })

    agg = (
        cells.map_batches(_contrib, batch_format="pyarrow")
        .groupby("k")
        .aggregate(
            ray.data.aggregate.Sum("gx"),
            ray.data.aggregate.Sum("gy"),
            ray.data.aggregate.Sum("one"),
        )
    )

    def _out(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.equal(t.column("sum(one)"), 9))
        k = t.column("k").to_numpy(zero_copy_only=False)
        gx = t.column("sum(gx)").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        gy = t.column("sum(gy)").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        fx = gx.astype(np.float64) / np.float64(den)
        fy = gy.astype(np.float64) / np.float64(den)
        return pa.table({
            "row": pa.array(k // ncols),
            "col": pa.array(k % ncols),
            "gx_num": pa.array(gx),
            "gy_num": pa.array(gy),
            "den": pa.array(np.full(len(k), den, dtype=np.int64)),
            "slope_f": pa.array(np.sqrt(fx * fx + fy * fy)),
        })

    return agg.map_batches(_out, batch_format="pyarrow")


# ESRI D8 codes by (dr, dc) offset from the receiving cell
_D8_OFFSETS = (
    (0, 1, 1), (1, 1, 2), (1, 0, 4), (1, -1, 8),
    (0, -1, 16), (-1, -1, 32), (-1, 0, 64), (-1, 1, 128),
)


def d8_flow(
    cells: ray.data.Dataset,
    nrows: int,
    ncols: int,
    nodata: int | None = None,
    val_col: str = "value",
) -> ray.data.Dataset:
    """D8 flow direction (O'Callaghan & Mark 1984; the classic terrain
    routing op beside :func:`raster_slope`): each valid cell points to
    the neighbor of steepest DESCENT, ESRI codes E=1 SE=2 S=4 SW=8 W=16
    NW=32 N=64 NE=128, 0 when no neighbor is lower (pit/flat). The
    diagonal √2 distance never materializes: for positive drops Δ,
    rate_cardinal ≥ rate_diagonal ⇔ 2Δc² ≥ Δd², so the argmax runs on
    the EXACT integer key (2Δ² cardinal / Δ² diagonal) with ties broken
    by ascending code — bit-reproducible and SQL-mirrored. Nodata cells
    neither contribute nor emit. Output (row, col, d8) for every valid
    cell.

    100 TB shape: the :func:`focal_mean` plan — a stateless ×9 offset
    fanout (8 neighbor contributions + the center's own value) into ONE
    grouped_by_key(cell) pass whose segmented kernel computes the
    argmax per cell; Σ shuffled rows = 9·#valid cells, no raster-sized
    state anywhere. Overflow guard: |z|max < 2^30."""
    from libpysal_ray.core.joins import grouped_by_key

    if 9 * nrows * ncols >= (1 << 62) or nrows <= 0 or ncols <= 0:
        raise ValueError("d8_flow: bad raster shape")
    dr = np.array([o[0] for o in _D8_OFFSETS], dtype=np.int64)
    dc = np.array([o[1] for o in _D8_OFFSETS], dtype=np.int64)
    code = np.array([o[2] for o in _D8_OFFSETS], dtype=np.int64)

    def _contrib(t: pa.Table) -> pa.Table:
        r = t.column("row").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("col").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        if nodata is not None:
            keep = v != nodata
            r, c, v = r[keep], c[keep], v[keep]
        if len(v) and int(np.abs(v).max()) >= (1 << 30):
            raise ValueError("d8_flow: |value| >= 2^30 would overflow "
                             "the squared-drop key; rescale")
        m = len(r)
        # sender (r,c) lands in receiver (r+dr, c+dc); the direction
        # from the receiver back to the sender is (-dr, -dc), i.e. the
        # code at the NEGATED offset — _D8_OFFSETS is symmetric, so
        # negate by lookup: offset index i maps to index (i+4) % 8
        rcode = np.roll(code, 4)
        rr = np.repeat(r, 8) + np.tile(dr, m)
        cc = np.repeat(c, 8) + np.tile(dc, m)
        vv = np.repeat(v, 8)
        dd = np.tile(rcode, m)
        inb = (rr >= 0) & (rr < nrows) & (cc >= 0) & (cc < ncols)
        k = np.concatenate([rr[inb] * ncols + cc[inb], r * ncols + c])
        d = np.concatenate([dd[inb], np.zeros(m, dtype=np.int64)])
        z = np.concatenate([vv[inb], v])
        return pa.table({
            "k": pa.array(k), "dir": pa.array(d), "vz": pa.array(z),
        })

    fan = cells.map_batches(_contrib, batch_format="pyarrow")
    diag_codes = np.array([2, 8, 32, 128], dtype=np.int64)

    def _argmax(t: pa.Table) -> pa.Table:
        # bucket kernel: rows SORTED by k; per cell pick steepest drop
        k = t.column("k").to_numpy(zero_copy_only=False)
        d = t.column("dir").to_numpy(zero_copy_only=False)
        z = t.column("vz").to_numpy(zero_copy_only=False)
        if len(k) == 0:
            return pa.table({
                "row": pa.array([], pa.int64()),
                "col": pa.array([], pa.int64()),
                "d8": pa.array([], pa.int64()),
            })
        new = np.ones(len(k), bool)
        new[1:] = k[1:] != k[:-1]
        gid = np.cumsum(new) - 1
        # center value per group (cells without a center are nodata
        # receivers — drop the whole group)
        ctr = d == 0
        has_ctr = np.zeros(gid[-1] + 1, dtype=bool)
        z0 = np.zeros(gid[-1] + 1, dtype=np.int64)
        has_ctr[gid[ctr]] = True
        z0[gid[ctr]] = z[ctr]
        drop = z0[gid] - z
        isdiag = np.isin(d, diag_codes)
        key = np.where(isdiag, drop * drop, 2 * drop * drop)
        valid = (~ctr) & (drop > 0) & has_ctr[gid]
        # lexsort: per group, best key first, lowest code on ties;
        # invalid rows sink below every valid one
        order = np.lexsort((d, -key, ~valid, gid))
        gsorted = gid[order]
        first = np.ones(len(order), bool)
        first[1:] = gsorted[1:] != gsorted[:-1]
        top = order[first]
        gtop = gid[top]
        out_d8 = np.where(valid[top], d[top], 0)
        keep = has_ctr[gtop]
        kk = k[top][keep]
        return pa.table({
            "row": pa.array((kk // ncols).astype(np.int64)),
            "col": pa.array((kk % ncols).astype(np.int64)),
            "d8": pa.array(out_d8[keep].astype(np.int64)),
        })

    return grouped_by_key(fan, ["k"], _argmax)


def flow_accumulation(
    d8: ray.data.Dataset,
    nrows: int,
    ncols: int,
    max_rounds: int = 10_000,
) -> ray.data.Dataset:
    """D8 flow accumulation: for every cell of a :func:`d8_flow` output,
    the number of upstream cells whose flow path drains through it
    (self excluded — heads get 0). The D8 graph is a strict-descent
    in-forest (no cycles by construction), so synchronous LEAF PEELING
    terminates in longest-flow-path rounds: each round, every cell with
    no unprocessed inflow pushes (1 + its accumulated count) to its
    target, targets fold the sums in, processed cells retire. Exact
    integers throughout. Output (row, col, acc).

    100 TB shape: per round ONE groupby(target) sum over the current
    leaf frontier + one bucket_join update of the surviving nodes —
    frontier rows only, never the whole raster after round 1; rounds =
    max flow-path length (terrain-bounded, loudly capped at
    ``max_rounds``). The per-round Datasets are materialized (consumed
    twice; Ray shares no subplans)."""
    from libpysal_ray.core.joins import bucket_join

    code_dr = {1: 0, 2: 1, 4: 1, 8: 1, 16: 0, 32: -1, 64: -1, 128: -1}
    code_dc = {1: 1, 2: 1, 4: 0, 8: -1, 16: -1, 32: -1, 64: 0, 128: 1}

    def _mk(t: pa.Table) -> pa.Table:
        r = t.column("row").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("col").to_numpy(zero_copy_only=False).astype(np.int64)
        d = t.column("d8").to_numpy(zero_copy_only=False).astype(np.int64)
        dr = np.zeros(len(d), dtype=np.int64)
        dc = np.zeros(len(d), dtype=np.int64)
        for cd, v in code_dr.items():
            dr[d == cd] = v
        for cd, v in code_dc.items():
            dc[d == cd] = v
        tgt = np.where(d > 0, (r + dr) * ncols + (c + dc), -1)
        return pa.table({
            "k": pa.array(r * ncols + c),
            "tgt": pa.array(tgt),
            "acc": pa.array(np.zeros(len(d), dtype=np.int64)),
        })

    nodes = d8.map_batches(_mk, batch_format="pyarrow").materialize()
    deg = (
        nodes.map_batches(
            lambda t: pa.table({"tgt": t.column("tgt")}),
            batch_format="pyarrow",
        )
        .map_batches(
            lambda t: t.filter(
                pc.greater_equal(t.column("tgt"), 0)),
            batch_format="pyarrow",
        )
        .groupby("tgt")
        .count()
        .map_batches(
            lambda t: pa.table({
                "k": t.column("tgt"),
                "deg": pc.cast(t.column("count()"), pa.int64()),
            }),
            batch_format="pyarrow",
        )
    )
    live = bucket_join(nodes, deg, on="k", how="left").map_batches(
        lambda t: pa.table({
            "k": t.column("k"), "tgt": t.column("tgt"),
            "acc": t.column("acc"),
            "deg": pc.fill_null(
                pc.cast(t.column("deg"), pa.int64()), 0),
        }),
        batch_format="pyarrow",
    ).materialize()
    done = []
    for _ in range(max_rounds):
        if int(live.count()) == 0:
            break
        leaves = live.map_batches(
            lambda t: t.filter(pc.equal(t.column("deg"), 0)),
            batch_format="pyarrow",
        ).materialize()
        rest = live.map_batches(
            lambda t: t.filter(pc.greater(t.column("deg"), 0)),
            batch_format="pyarrow",
        )
        n_leaves = int(leaves.count())
        if n_leaves == 0:
            raise RuntimeError(
                "flow_accumulation: cycle detected — input is not a "
                "d8_flow forest"
            )
        done.append(leaves.map_batches(
            lambda t: t.select(["k", "acc"]), batch_format="pyarrow"
        ).materialize())
        rest = rest.materialize()
        if int(rest.count()) == 0:
            live = rest
            continue
        msgs = leaves.map_batches(
            lambda t: pa.table({
                "k": t.column("tgt"),
                "inc": pc.add(t.column("acc"), 1),
                "snd": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }),
            batch_format="pyarrow",
        ).map_batches(
            lambda t: t.filter(
                pc.greater_equal(t.column("k"), 0)),
            batch_format="pyarrow",
        ).groupby("k").sum(["inc", "snd"]).materialize()
        if int(msgs.count()) == 0:
            live = rest
            continue
        live = bucket_join(rest, msgs, on="k", how="left").map_batches(
            lambda t: pa.table({
                "k": t.column("k"), "tgt": t.column("tgt"),
                "acc": pc.add(
                    t.column("acc"),
                    pc.fill_null(pc.cast(
                        t.column("sum(inc)"), pa.int64()), 0)),
                "deg": pc.subtract(
                    t.column("deg"),
                    pc.fill_null(pc.cast(
                        t.column("sum(snd)"), pa.int64()), 0)),
            }),
            batch_format="pyarrow",
        ).materialize()
    else:
        raise RuntimeError("flow_accumulation: max_rounds exceeded")
    out = done[0]
    for d_ in done[1:]:
        out = out.union(d_)
    return out.map_batches(
        lambda t: pa.table({
            "row": pc.divide(t.column("k"), ncols),
            "col": pc.subtract(
                t.column("k"),
                pc.multiply(
                    pc.divide(t.column("k"), ncols), ncols)),
            "acc": t.column("acc"),
        }),
        batch_format="pyarrow",
    )


def focal_majority(
    cells: ray.data.Dataset,
    nrows: int,
    ncols: int,
    nodata: int | None = None,
    val_col: str = "value",
) -> ray.data.Dataset:
    """3×3 focal MAJORITY filter (the categorical map-algebra sibling
    of :func:`focal_mean`): each valid cell takes the most frequent
    category in its queen window INCLUDING itself, ties to the LOWEST
    category code (the :func:`~libpysal_ray.spatial.ops.zonal_majority`
    convention); nodata cells neither contribute nor emit. Output
    (row, col, majority).

    100 TB shape: the focal_mean ×9 offset fanout into ONE
    grouped_by_key(cell) pass whose kernel computes the windowed mode
    per cell vectorized (one lexsort over the bucket); center validity
    rides the fanout (a center row marks its own cell)."""
    from libpysal_ray.core.joins import grouped_by_key

    if 9 * nrows * ncols >= (1 << 62) or nrows <= 0 or ncols <= 0:
        raise ValueError("focal_majority: bad raster shape")
    dr = np.repeat(np.array([-1, 0, 1], dtype=np.int64), 3)
    dc = np.tile(np.array([-1, 0, 1], dtype=np.int64), 3)
    ctr0 = ((dr == 0) & (dc == 0)).astype(np.int64)

    def _contrib(t: pa.Table) -> pa.Table:
        r = t.column("row").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("col").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        if nodata is not None:
            keep = v != nodata
            r, c, v = r[keep], c[keep], v[keep]
        m = len(r)
        rr = np.repeat(r, 9) + np.tile(dr, m)
        cc = np.repeat(c, 9) + np.tile(dc, m)
        vv = np.repeat(v, 9)
        ct = np.tile(ctr0, m)
        inb = (rr >= 0) & (rr < nrows) & (cc >= 0) & (cc < ncols)
        return pa.table({
            "k": pa.array(rr[inb] * ncols + cc[inb]),
            "v": pa.array(vv[inb]),
            "ctr": pa.array(ct[inb]),
        })

    fan = cells.map_batches(_contrib, batch_format="pyarrow")

    def _mode(t: pa.Table) -> pa.Table:
        # bucket kernel: rows k-sorted; per cell, the modal v with ties
        # to the lowest code; cells with no center row drop
        k = t.column("k").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        ctr = t.column("ctr").to_numpy(zero_copy_only=False)
        if len(k) == 0:
            return pa.table({
                "row": pa.array([], pa.int64()),
                "col": pa.array([], pa.int64()),
                "majority": pa.array([], pa.int64()),
            })
        order = np.lexsort((v, k))
        ks, vs = k[order], v[order]
        pair_new = np.ones(len(ks), bool)
        pair_new[1:] = (ks[1:] != ks[:-1]) | (vs[1:] != vs[:-1])
        starts = np.flatnonzero(pair_new)
        runs = np.diff(np.append(starts, len(ks)))
        pk, pv = ks[starts], vs[starts]
        cell_new = np.ones(len(pk), bool)
        cell_new[1:] = pk[1:] != pk[:-1]
        gid = np.cumsum(cell_new) - 1
        # per cell: argmax by (count desc, code asc) via one lexsort
        o2 = np.lexsort((pv, -runs, gid))
        first = np.ones(len(o2), bool)
        first[1:] = gid[o2][1:] != gid[o2][:-1]
        top = o2[first]
        # center flag per cell, exactly from the raw sorted rows (the
        # pair index of raw row i is cumsum(pair_new)-1)
        ctr_cells = np.zeros(gid[-1] + 1, dtype=bool)
        raw_gid = gid[np.cumsum(pair_new) - 1]
        np.logical_or.at(ctr_cells, raw_gid, ctr[order] > 0)
        keep = ctr_cells[gid[top]]
        kk = pk[top][keep]
        return pa.table({
            "row": pa.array((kk // ncols).astype(np.int64)),
            "col": pa.array((kk % ncols).astype(np.int64)),
            "majority": pa.array(pv[top][keep].astype(np.int64)),
        })

    return grouped_by_key(fan, ["k"], _mode)


def ruggedness_index(
    cells: ray.data.Dataset,
    nrows: int,
    ncols: int,
    nodata: int | None = None,
    val_col: str = "value",
) -> ray.data.Dataset:
    """Terrain Ruggedness Index (Riley et al. 1999) without the square
    root — the exact integer core: per valid cell, the sum of absolute
    elevation differences to its valid queen neighbors,

        tri_sum_i = Σ_{n ∈ window} |z_i − z_n|     (exact int64)

    plus the neighbor count (nodata/edge cells shrink the window) and
    tri_f = tri_sum / n_nbrs, the mean absolute difference — the
    monotone equivalent of the classic √Σ(z_i−z_n)² under the engine's
    exactness discipline (documented deviation: sums of |Δ| are exact,
    sums under a square root are not). Output (row, col, n_nbrs,
    tri_sum, tri_f).

    100 TB shape: the :func:`d8_flow` fanout (8 neighbor contributions
    + center) into ONE grouped_by_key(cell) pass; |Δ| needs both
    values, so the kernel reads the center row per cell like d8_flow's.
    Overflow guard: |z|max·8 < 2^62 trivially holds for int32-scale
    elevations."""
    from libpysal_ray.core.joins import grouped_by_key

    if 9 * nrows * ncols >= (1 << 62) or nrows <= 0 or ncols <= 0:
        raise ValueError("ruggedness_index: bad raster shape")
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1),
            (1, 0), (1, 1)]
    dr = np.array([o[0] for o in offs], dtype=np.int64)
    dc = np.array([o[1] for o in offs], dtype=np.int64)

    def _contrib(t: pa.Table) -> pa.Table:
        r = t.column("row").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("col").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        if nodata is not None:
            keep = v != nodata
            r, c, v = r[keep], c[keep], v[keep]
        if len(v) and int(np.abs(v).max()) * 16 >= (1 << 62):
            raise ValueError("ruggedness_index: |z| too large")
        m = len(r)
        rr = np.repeat(r, 8) + np.tile(dr, m)
        cc = np.repeat(c, 8) + np.tile(dc, m)
        vv = np.repeat(v, 8)
        inb = (rr >= 0) & (rr < nrows) & (cc >= 0) & (cc < ncols)
        k = np.concatenate([rr[inb] * ncols + cc[inb], r * ncols + c])
        z = np.concatenate([vv[inb], v])
        ctr = np.concatenate([np.zeros(int(inb.sum()), dtype=np.int64),
                              np.ones(m, dtype=np.int64)])
        return pa.table({
            "k": pa.array(k), "vz": pa.array(z), "ctr": pa.array(ctr),
        })

    fan = cells.map_batches(_contrib, batch_format="pyarrow")

    def _tri(t: pa.Table) -> pa.Table:
        k = t.column("k").to_numpy(zero_copy_only=False)
        z = t.column("vz").to_numpy(zero_copy_only=False)
        ctr = t.column("ctr").to_numpy(zero_copy_only=False)
        if len(k) == 0:
            return pa.table({
                "row": pa.array([], pa.int64()),
                "col": pa.array([], pa.int64()),
                "n_nbrs": pa.array([], pa.int64()),
                "tri_sum": pa.array([], pa.int64()),
            })
        new = np.ones(len(k), bool)
        new[1:] = k[1:] != k[:-1]
        gid = np.cumsum(new) - 1
        ng = gid[-1] + 1
        has_ctr = np.zeros(ng, dtype=bool)
        z0 = np.zeros(ng, dtype=np.int64)
        cm = ctr == 1
        has_ctr[gid[cm]] = True
        z0[gid[cm]] = z[cm]
        nb = ~cm
        d = np.abs(z - z0[gid])
        tri = np.zeros(ng, dtype=np.int64)
        cnt = np.zeros(ng, dtype=np.int64)
        np.add.at(tri, gid[nb], d[nb])
        np.add.at(cnt, gid[nb], 1)
        first = np.flatnonzero(new)
        keep = has_ctr
        kk = k[first][keep]
        return pa.table({
            "row": pa.array((kk // ncols).astype(np.int64)),
            "col": pa.array((kk % ncols).astype(np.int64)),
            "n_nbrs": pa.array(cnt[keep]),
            "tri_sum": pa.array(tri[keep]),
        })

    out = grouped_by_key(fan, ["k"], _tri)
    return out.map_batches(
        lambda t: t.append_column("tri_f", pa.array(np.where(
            t.column("n_nbrs").to_numpy(zero_copy_only=False) > 0,
            t.column("tri_sum").to_numpy(zero_copy_only=False)
            .astype(np.float64)
            / np.maximum(
                t.column("n_nbrs").to_numpy(zero_copy_only=False), 1
            ).astype(np.float64),
            0.0,
        ))),
        batch_format="pyarrow",
    )
