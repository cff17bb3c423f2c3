"""Polygon contiguity builders — Queen/Rook by shared-vertex/edge hashing.

Reference semantics: weights/_contW_lists.py:70-128 (legacy hash builder)
and graph/_contiguity.py:13-91 ``_vertex_set_intersection``:

* Queen: two polygons are neighbors iff they share ≥1 vertex. The reference
  inverts a ``vertex → {polygon ids}`` hash map keyed on RAW coordinate
  tuples (no rounding — _contW_lists.py:89-99); we key on the float64 BIT
  PATTERNS, so equality semantics are bit-exact identical.
* Rook: neighbors iff they share ≥1 full edge; key = the sorted vertex pair
  of each boundary segment (_contW_lists.py:103-124).

Ray-Data plan: the reference's in-memory hash map becomes the shuffle —
``flat_map`` polygons → (vertex-key, poly_id) rows → ``groupby(key)`` →
per-bucket emit all ordered pairs → global dedup → isolate resolution.
Scales: the shuffle key space is the vertex set; no polygon geometry moves
after the explode.

Polygon input schema: ``polygon_id: int64, xs: list<double>,
ys: list<double>`` (single outer ring, closing vertex optional; multi-part
polygons may list parts under the same id — vertices are deduped per id so
no phantom self-edges arise, mirroring _contiguity.py:50-64's per-part
offset guard).

Also here: block/regime weights (util.py:235-294 — all members of a regime
are mutual neighbors) as one groupby(regime) cross-product.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from libpysal_ray.core import edges as E
from libpysal_ray.core import joins as J
from libpysal_ray.core.graph import RayGraph
from libpysal_ray.core.joins import grouped_by_key


def _f2i(a: np.ndarray) -> np.ndarray:
    """float64 → int64 bit pattern (exact-equality hash key; normalize -0.0)."""
    a = np.asarray(a, dtype=np.float64) + 0.0  # -0.0 → +0.0
    return a.view(np.int64)


def _ring_parts(t: pa.Table):
    """(pids, x, y, off): flat float64 vertex arrays + per-ring offsets —
    straight from the Arrow list buffers, no per-polygon Python (the
    Queen/Rook hot-path explode; VERDICT r2 #5)."""
    pids = t.column("polygon_id").to_numpy(zero_copy_only=False)
    xs = t.column("xs")
    ys = t.column("ys")
    if isinstance(xs, pa.ChunkedArray):
        xs = xs.combine_chunks()
    if isinstance(ys, pa.ChunkedArray):
        ys = ys.combine_chunks()
    off = np.asarray(xs.offsets, dtype=np.int64)
    off = off - off[0]
    x = xs.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    y = ys.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return pids, x, y, off


def _dedup_rows(cols: list[np.ndarray]) -> np.ndarray:
    """Indices of the first occurrence of each distinct row (lexsorted) —
    the vectorized replacement for per-group np.unique(axis=0)."""
    n = len(cols[0])
    if n == 0:
        return np.empty(0, np.int64)
    order = np.lexsort(cols[::-1])
    keep = np.zeros(n, dtype=bool)
    keep[0] = True
    for c in cols:
        s = c[order]
        keep[1:] |= s[1:] != s[:-1]
    return order[keep]


def _explode_vertices(t: pa.Table) -> pa.Table:
    """(polygon_id, xs, ys) → (kx, ky, poly) one row per DISTINCT vertex.
    Fully vectorized over the Arrow list offsets."""
    pids, x, y, off = _ring_parts(t)
    kx, ky = _f2i(x), _f2i(y)
    poly = np.repeat(pids.astype(np.int64), np.diff(off))
    keep = _dedup_rows([poly, kx, ky])
    return pa.table(
        {
            "kx": pa.array(kx[keep]),
            "ky": pa.array(ky[keep]),
            "poly": pa.array(poly[keep]),
        }
    )


def _segment_indices(off: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(a_idx, b_idx): flat vertex indices of every boundary segment —
    consecutive pairs within each ring plus a last→first wrap segment for
    rings not already closed. Vectorized; assumes non-empty rings."""
    total = off[-1]
    ends = off[1:] - 1
    starts = off[:-1]
    is_end = np.zeros(total, dtype=bool)
    if total:
        is_end[ends] = True
    a = np.flatnonzero(~is_end)
    b = a + 1
    closed = (x[starts] == x[ends]) & (y[starts] == y[ends])
    a = np.concatenate([a, ends[~closed]])
    b = np.concatenate([b, starts[~closed]])
    return a, b


def _explode_edges(t: pa.Table) -> pa.Table:
    """(polygon_id, xs, ys) → (k1x, k1y, k2x, k2y, poly) per boundary
    segment, vertex pair sorted so both polygons key identically. Fully
    vectorized over the Arrow list offsets."""
    pids, x, y, off = _ring_parts(t)
    a, b = _segment_indices(off, x, y)
    ring_of = np.repeat(np.arange(len(off) - 1), np.diff(off))
    poly = pids.astype(np.int64)[ring_of[a]]
    ax, ay = _f2i(x[a]), _f2i(y[a])
    bx, by = _f2i(x[b]), _f2i(y[b])
    ok = (ax != bx) | (ay != by)  # drop degenerate zero-length segments
    ax, ay, bx, by, poly = ax[ok], ay[ok], bx[ok], by[ok], poly[ok]
    swap = (ax > bx) | ((ax == bx) & (ay > by))
    k1x = np.where(swap, bx, ax)
    k1y = np.where(swap, by, ay)
    k2x = np.where(swap, ax, bx)
    k2y = np.where(swap, ay, by)
    keep = _dedup_rows([poly, k1x, k1y, k2x, k2y])
    return pa.table(
        {
            "k1x": pa.array(k1x[keep]),
            "k1y": pa.array(k1y[keep]),
            "k2x": pa.array(k2x[keep]),
            "k2y": pa.array(k2y[keep]),
            "poly": pa.array(poly[keep]),
        }
    )


def _bucket_pairs(t: pa.Table) -> pa.Table:
    """All ordered pairs of distinct polygon ids sharing one bucket."""
    p = np.unique(t.column("poly").to_numpy(zero_copy_only=False))
    m = len(p)
    if m < 2:
        return E.empty_edges()
    f = np.repeat(p, m)
    n = np.tile(p, m)
    keep = f != n
    return E.edge_table(f[keep], n[keep], 1.0)


def _pairs_sorted_block(key_cols: list[str]):
    """Vectorized multi-group pair emission over a key-SORTED table.

    Groups are found by run-length over the sorted keys, then pair
    cross-products are emitted per group-SIZE class with one broadcasted
    numpy op each (bucket sizes are tiny — ≤4 for lattice vertices — so
    there are only a handful of size classes per table). Feed through
    ``grouped_by_key`` so co-location of equal keys is guaranteed.
    """

    def f(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return E.empty_edges()
        keys = [
            t.column(c).to_numpy(zero_copy_only=False) for c in key_cols
        ]
        poly = t.column("poly").to_numpy(zero_copy_only=False)
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for k in keys:
            change[1:] |= k[1:] != k[:-1]
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, n))
        out_f, out_n = [], []
        for m in np.unique(sizes):
            if m < 2:
                continue
            s = starts[sizes == m]
            mat = poly[s[:, None] + np.arange(m)[None, :]]  # (G, m)
            ff = np.repeat(mat, m, axis=1).ravel()
            nn = np.tile(mat, (1, m)).ravel()
            keep = ff != nn
            out_f.append(ff[keep])
            out_n.append(nn[keep])
        if not out_f:
            return E.empty_edges()
        return E.edge_table(
            np.concatenate(out_f), np.concatenate(out_n), 1.0
        )

    return f


def queen(polygons: ray.data.Dataset) -> RayGraph:
    """Queen contiguity — shared-vertex hash shuffle."""
    ids = polygons.select_columns(["polygon_id"]).rename_columns(
        {"polygon_id": "focal"}
    )
    verts = polygons.map_batches(_explode_vertices, batch_format="pyarrow")
    pairs = grouped_by_key(
        verts, ["kx", "ky"], _pairs_sorted_block(["kx", "ky"])
    )
    edges = E.dedup(
        pairs.map_batches(E.batch_dedup, batch_format="pyarrow")
    )
    return RayGraph(edges, ids=ids)


def rook(polygons: ray.data.Dataset) -> RayGraph:
    """Rook contiguity — shared-edge hash shuffle."""
    ids = polygons.select_columns(["polygon_id"]).rename_columns(
        {"polygon_id": "focal"}
    )
    segs = polygons.map_batches(_explode_edges, batch_format="pyarrow")
    pairs = grouped_by_key(
        segs,
        ["k1x", "k1y", "k2x", "k2y"],
        _pairs_sorted_block(["k1x", "k1y", "k2x", "k2y"]),
    )
    edges = E.dedup(
        pairs.map_batches(E.batch_dedup, batch_format="pyarrow")
    )
    return RayGraph(edges, ids=ids)


def block(
    table: ray.data.Dataset, id_col: str, regime_col: str, salt: int = 8
) -> RayGraph:
    """Block/regime weights: members of a regime are mutual neighbors
    excluding self (util.py:235-294, graph/_contiguity.py:209-237).

    Regimes are HOT KEYS by construction (a web corpus has a handful of
    languages over billions of pages), so the cross product is emitted
    through a ``salt × salt`` GRID: member u with salt s(u) goes to the
    ``salt`` groups (s(u), j) in the left role and (i, s(u)) in the right
    role; group (i, j) crosses its left×right sides, so pair (u, v) lands
    exactly once — in (s(u), s(v)) — and the hottest regime fans out over
    salt² parallel tasks of ~(m/salt)² work each instead of one O(m²)
    task. Replication is 2·salt small key rows per member; the regime key
    travels as a 64-bit hash (collision ~2^-64).
    """
    from libpysal_ray.core.hashing import hash_strings_u64, splitmix64

    S = max(1, int(salt))
    ids = table.select_columns([id_col]).rename_columns({id_col: "focal"})

    def _emit(t: pa.Table) -> pa.Table:
        vals = [str(v) for v in t.column(regime_col).to_pylist()]
        rh = (hash_strings_u64(vals) >> np.uint64(1)).astype(np.int64)
        i = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        su = (splitmix64(i.view(np.uint64)) % np.uint64(S)).astype(np.int64)
        n = len(i)
        out_rh, out_cell, out_id, out_side = [], [], [], []
        for j in range(S):
            # left role: groups (su, j)
            out_rh.append(rh)
            out_cell.append(su * S + j)
            out_id.append(i)
            out_side.append(np.zeros(n, dtype=np.int8))
            # right role: groups (j, su)
            out_rh.append(rh)
            out_cell.append(np.full(n, j, dtype=np.int64) * S + su)
            out_id.append(i)
            out_side.append(np.ones(n, dtype=np.int8))
        return pa.table(
            {
                "__rh": pa.array(np.concatenate(out_rh)),
                "__cell": pa.array(np.concatenate(out_cell)),
                id_col: pa.array(np.concatenate(out_id)),
                "__side": pa.array(np.concatenate(out_side)),
            }
        )

    def _cross(t: pa.Table) -> pa.Table:
        side = t.column("__side").to_numpy(zero_copy_only=False)
        p = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        left = p[side == 0]
        right = p[side == 1]
        if len(left) == 0 or len(right) == 0:
            return E.empty_edges()
        f = np.repeat(left, len(right))
        n = np.tile(right, len(left))
        keep = f != n
        if not keep.any():
            return E.empty_edges()
        return E.edge_table(f[keep], n[keep], 1.0)

    edges = (
        table.map_batches(_emit, batch_format="pyarrow")
        .groupby(["__rh", "__cell"])
        .map_groups(_cross, batch_format="pyarrow")
    )
    return RayGraph(edges, ids=ids)


def rook_perimeter(polygons: ray.data.Dataset) -> RayGraph:
    """Perimeter-weighted contiguity: weight = length of the shared
    boundary (reference ``by_perimeter``, graph/_contiguity.py:185-206).

    For tessellations whose shared boundaries consist of exactly matching
    segments (the well-formed coverage case the reference also assumes),
    the shared length is the sum of lengths of segments keyed identically
    by both polygons — the same segment-hash shuffle as ``rook``, carrying
    the segment length and summing it per pair instead of binarizing.
    """
    ids = polygons.select_columns(["polygon_id"]).rename_columns(
        {"polygon_id": "focal"}
    )
    segs = polygons.map_batches(_explode_edges, batch_format="pyarrow")

    def _pairs_with_len(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return E.empty_edges()
        keys = [
            t.column(c).to_numpy(zero_copy_only=False)
            for c in ("k1x", "k1y", "k2x", "k2y")
        ]
        poly = t.column("poly").to_numpy(zero_copy_only=False)
        # segment length from the float bit-pattern keys
        x1 = keys[0].view(np.float64)
        y1 = keys[1].view(np.float64)
        x2 = keys[2].view(np.float64)
        y2 = keys[3].view(np.float64)
        seglen = np.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2)
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for k in keys:
            change[1:] |= k[1:] != k[:-1]
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, n))
        out_f, out_n, out_w = [], [], []
        for m in np.unique(sizes):
            if m < 2:
                continue
            s = starts[sizes == m]
            mat = poly[s[:, None] + np.arange(m)[None, :]]
            ll = seglen[s]  # same segment for the whole bucket
            ff = np.repeat(mat, m, axis=1).ravel()
            nn = np.tile(mat, (1, m)).ravel()
            ww = np.repeat(ll, m * m)
            keep = ff != nn
            out_f.append(ff[keep])
            out_n.append(nn[keep])
            out_w.append(ww[keep])
        if not out_f:
            return E.empty_edges()
        return E.edge_table(
            np.concatenate(out_f), np.concatenate(out_n),
            np.concatenate(out_w),
        )

    pairs = grouped_by_key(
        segs, ["k1x", "k1y", "k2x", "k2y"], _pairs_with_len
    )
    # a pair may share several segments → their lengths SUM
    edges = E.dedup(pairs, keep="sum")
    return RayGraph(edges, ids=ids)


# ---------------------------------------------------------------- fuzzy
def _seg_arrays(xs: list, ys: list):
    x = np.asarray(xs, np.float64)
    y = np.asarray(ys, np.float64)
    if x[0] != x[-1] or y[0] != y[-1]:
        x = np.append(x, x[0])
        y = np.append(y, y[0])
    return x, y


def _rings_intersect(ax, ay, bx, by, tol: float) -> bool:
    """True iff polygon boundaries are within ``tol`` of each other, any
    segments cross, or one polygon contains the other (vertex test).
    Equivalent to buffered-`intersects` (Minkowski property): A⊕tol meets B
    iff dist(A, B) ≤ tol or A already intersects B.
    """
    from libpysal_ray.spatial.pip import points_in_ring

    # containment (works when no boundary crossing): any vertex inside
    if points_in_ring(ax[:1], ay[:1], bx, by)[0]:
        return True
    if points_in_ring(bx[:1], by[:1], ax, ay)[0]:
        return True
    # pairwise segment min-distance ≤ tol (covers crossing: distance 0)
    a1x, a1y, a2x, a2y = ax[:-1], ay[:-1], ax[1:], ay[1:]
    b1x, b1y, b2x, b2y = bx[:-1], by[:-1], bx[1:], by[1:]
    # point-to-segment distances both directions, vectorized (E1 × E2)
    def pt_seg(px, py, sx1, sy1, sx2, sy2):
        # px,py: (m,1); seg arrays: (1,n)
        dx, dy = sx2 - sx1, sy2 - sy1
        ll = dx * dx + dy * dy
        tt = ((px - sx1) * dx + (py - sy1) * dy) / np.where(ll == 0, 1, ll)
        tt = np.clip(tt, 0.0, 1.0)
        cx = sx1 + tt * dx
        cy = sy1 + tt * dy
        return (px - cx) ** 2 + (py - cy) ** 2

    d1 = pt_seg(a1x[:, None], a1y[:, None], b1x[None, :], b1y[None, :],
                b2x[None, :], b2y[None, :]).min()
    if d1 <= tol * tol:
        return True
    d2 = pt_seg(b1x[:, None], b1y[:, None], a1x[None, :], a1y[None, :],
                a2x[None, :], a2y[None, :]).min()
    if d2 <= tol * tol:
        return True
    # proper crossings with no vertex near the other boundary
    o1 = np.sign(
        (a2x[:, None] - a1x[:, None]) * (b1y[None, :] - a1y[:, None])
        - (a2y[:, None] - a1y[:, None]) * (b1x[None, :] - a1x[:, None])
    )
    o2 = np.sign(
        (a2x[:, None] - a1x[:, None]) * (b2y[None, :] - a1y[:, None])
        - (a2y[:, None] - a1y[:, None]) * (b2x[None, :] - a1x[:, None])
    )
    o3 = np.sign(
        (b2x[None, :] - b1x[None, :]) * (a1y[:, None] - b1y[None, :])
        - (b2y[None, :] - b1y[None, :]) * (a1x[:, None] - b1x[None, :])
    )
    o4 = np.sign(
        (b2x[None, :] - b1x[None, :]) * (a2y[:, None] - b1y[None, :])
        - (b2y[None, :] - b1y[None, :]) * (a2x[:, None] - b1x[None, :])
    )
    return bool(((o1 != o2) & (o3 != o4)).any())


def fuzzy(
    polygons: ray.data.Dataset,
    tolerance: float = 0.0,
    cell_size: float | None = None,
) -> RayGraph:
    """Fuzzy contiguity (util.py:1471-1605 / graph/_contiguity.py:240-299):
    neighbors iff polygons intersect after buffering by ``tolerance``
    (tolerance=0 → plain `intersects`, the reference default predicate).

    Plan: expand each polygon's bbox by tolerance, emit (tile, poly rows)
    for every covered grid cell → ONE groupby(tile) shuffle → per-tile
    bbox-prefiltered exact ring tests → global pair dedup. The exact test
    replaces the reference's shapely sindex query + predicate with the same
    computational geometry in numpy (no GEOS in this environment).
    """
    ids = polygons.select_columns(["polygon_id"]).rename_columns(
        {"polygon_id": "focal"}
    )
    if cell_size is None:
        # one driver-side pass over bboxes to pick a tile size
        def _spans(t: pa.Table) -> pa.Table:
            spans = []
            for xs, ys in zip(t.column("xs").to_pylist(),
                              t.column("ys").to_pylist()):
                x = np.asarray(xs); y = np.asarray(ys)
                spans.append(max(x.max() - x.min(), y.max() - y.min()))
            return pa.table({"span": pa.array(spans)})

        cell_size = float(
            polygons.map_batches(_spans, batch_format="pyarrow").max("span")
        ) + 2 * tolerance
        cell_size = max(cell_size, 1e-9)

    cs = cell_size
    tol = tolerance

    def _emit(t: pa.Table) -> pa.Table:
        rows = {"tile": [], "polygon_id": [], "xs": [], "ys": []}
        pids = t.column("polygon_id").to_numpy(zero_copy_only=False)
        for pid, xs, ys in zip(pids, t.column("xs").to_pylist(),
                               t.column("ys").to_pylist()):
            x = np.asarray(xs); y = np.asarray(ys)
            cx0 = int(np.floor((x.min() - tol) / cs))
            cx1 = int(np.floor((x.max() + tol) / cs))
            cy0 = int(np.floor((y.min() - tol) / cs))
            cy1 = int(np.floor((y.max() + tol) / cs))
            for cy in range(cy0, cy1 + 1):
                for cx in range(cx0, cx1 + 1):
                    rows["tile"].append((cx + (1 << 20)) * (1 << 21) + cy + (1 << 20))
                    rows["polygon_id"].append(int(pid))
                    rows["xs"].append(list(xs))
                    rows["ys"].append(list(ys))
        return pa.table(
            {
                "tile": pa.array(rows["tile"], pa.int64()),
                "polygon_id": pa.array(rows["polygon_id"], pa.int64()),
                "xs": pa.array(rows["xs"], pa.list_(pa.float64())),
                "ys": pa.array(rows["ys"], pa.list_(pa.float64())),
            }
        )

    tiled = polygons.map_batches(_emit, batch_format="pyarrow")

    def _tile_pairs(t: pa.Table) -> pa.Table:
        pids = t.column("polygon_id").to_numpy(zero_copy_only=False)
        geoms = [
            _seg_arrays(xs, ys)
            for xs, ys in zip(t.column("xs").to_pylist(),
                              t.column("ys").to_pylist())
        ]
        bb = np.array(
            [[g[0].min(), g[0].max(), g[1].min(), g[1].max()] for g in geoms]
        )
        m = len(pids)
        out_f, out_n = [], []
        for i in range(m):
            # bbox prefilter (expanded by tol), j > i, distinct ids
            cand = np.flatnonzero(
                (bb[:, 0] <= bb[i, 1] + tol)
                & (bb[:, 1] >= bb[i, 0] - tol)
                & (bb[:, 2] <= bb[i, 3] + tol)
                & (bb[:, 3] >= bb[i, 2] - tol)
            )
            for j in cand:
                if j <= i or pids[j] == pids[i]:
                    continue
                if _rings_intersect(geoms[i][0], geoms[i][1],
                                    geoms[j][0], geoms[j][1], tol):
                    out_f.extend((pids[i], pids[j]))
                    out_n.extend((pids[j], pids[i]))
        if not out_f:
            return E.empty_edges()
        return E.edge_table(
            np.asarray(out_f, np.int64), np.asarray(out_n, np.int64), 1.0
        )

    pairs = tiled.groupby("tile").map_groups(
        _tile_pairs, batch_format="pyarrow"
    )
    edges = E.dedup(
        pairs.map_batches(E.batch_dedup, batch_format="pyarrow"), keep="max"
    )
    return RayGraph(edges, ids=ids)


def nonplanar_neighbors(
    g: RayGraph,
    polygons: ray.data.Dataset,
    tolerance: float = 0.001,
) -> RayGraph:
    """Island repair for non-planar polygon coverages
    (util.py:1346-1467 ``nonplanar_neighbors``): every ISLAND (isolate) of
    ``g`` gains neighbors that its polygon intersects after buffering by
    ``tolerance × min(total-bounds extent)``. (The reference runs a plain
    ``intersects`` pass first, then dilates every original island — the
    first pass is a subset of the dilated pass, so the union is exactly
    the dilated predicate.)

    Plan: reuse the ``fuzzy`` tile pipeline at the dilation distance, then
    restrict its edges to pairs touching an island via two distributed
    semi-joins — the second-pass island-restricted join. Returns a graph
    whose edges are g's edges ∪ the new island joins (symmetric).
    """
    islands = g.isolates().materialize()
    if islands.count() == 0:
        return g

    def _bounds(t: pa.Table) -> pa.Table:
        xs = t.column("xs").to_pylist()
        ys = t.column("ys").to_pylist()
        x = np.concatenate([np.asarray(v) for v in xs])
        y = np.concatenate([np.asarray(v) for v in ys])
        return pa.table(
            {
                "x0": pa.array([float(x.min())]),
                "x1": pa.array([float(x.max())]),
                "y0": pa.array([float(y.min())]),
                "y1": pa.array([float(y.max())]),
            }
        )

    b = polygons.map_batches(_bounds, batch_format="pyarrow")
    ext = min(
        float(b.max("x1")) - float(b.min("x0")),
        float(b.max("y1")) - float(b.min("y0")),
    )
    distance = tolerance * ext

    fz = fuzzy(polygons, tolerance=distance)
    fz_real = fz._real_edges().materialize()
    by_focal = J.bucket_join(fz_real, islands, on="focal", how="semi")
    isl_nbr = islands.map_batches(
        lambda t: pa.table({"neighbor": t.column("focal")}),
        batch_format="pyarrow",
    ).materialize()
    by_nbr = J.bucket_join(fz_real, isl_nbr, on="neighbor", how="semi")
    new = E.dedup(by_focal.union(by_nbr), keep="max")
    merged = E.dedup(g._real_edges().union(new), keep="max")
    out = RayGraph(merged, ids=g.ids())
    out.non_planar_joins = new
    return out


# ------------------------------------------------------- strict contiguity
def _explode_segments_raw(t: pa.Table) -> pa.Table:
    """(polygon_id, xs, ys) → (poly, ax, ay, bx, by) raw float segments
    (the strict-predicate input; no bit-pattern canonicalization)."""
    pids, x, y, off = _ring_parts(t)
    a, b = _segment_indices(off, x, y)
    ring_of = np.repeat(np.arange(len(off) - 1), np.diff(off))
    poly = pids.astype(np.int64)[ring_of[a]]
    ax, ay, bx, by = x[a], y[a], x[b], y[b]
    ok = (ax != bx) | (ay != by)
    return pa.table(
        {
            "poly": pa.array(poly[ok]),
            "ax": pa.array(ax[ok]),
            "ay": pa.array(ay[ok]),
            "bx": pa.array(bx[ok]),
            "by": pa.array(by[ok]),
        }
    )


def _seg_pair_touch(ax, ay, bx, by, cx, cy, dx, dy):
    """(any_touch, overlap_1d) for segment pairs (a→b) vs (c→d), vectorized.

    any_touch: the segments intersect at ≥1 point — orientation tests plus
    collinear/endpoint bbox checks (the boundary∩boundary ≠ ∅ half of GEOS
    ``touches``; graph/_contiguity.py:94-135. On a valid coverage, where
    interiors are disjoint, boundary contact ⟺ touches).
    overlap_1d: the pair is collinear AND overlaps over positive length —
    DE-9IM "F***1****" boundary-overlap semantics
    (graph/_contiguity.py:138-182). Exact for coordinates whose cross
    products stay within double precision (integer-derived layers; robust
    predicates would replace the arithmetic for adversarial floats)."""
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    d1 = ux * (cy - ay) - uy * (cx - ax)  # orient(a,b,c)
    d2 = ux * (dy - ay) - uy * (dx - ax)  # orient(a,b,d)
    d3 = vx * (ay - cy) - vy * (ax - cx)  # orient(c,d,a)
    d4 = vx * (by - cy) - vy * (bx - cx)  # orient(c,d,b)

    def _onseg(px, py, sx1, sy1, sx2, sy2):
        return (
            (px >= np.minimum(sx1, sx2)) & (px <= np.maximum(sx1, sx2))
            & (py >= np.minimum(sy1, sy2)) & (py <= np.maximum(sy1, sy2))
        )

    proper = (
        ((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0)
        & ((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0)
    )
    touch = (
        proper
        | ((d1 == 0) & _onseg(cx, cy, ax, ay, bx, by))
        | ((d2 == 0) & _onseg(dx, dy, ax, ay, bx, by))
        | ((d3 == 0) & _onseg(ax, ay, cx, cy, dx, dy))
        | ((d4 == 0) & _onseg(bx, by, cx, cy, dx, dy))
    )
    collinear = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
    # positive-length projection overlap on the dominant axis
    usex = np.abs(ux) >= np.abs(uy)
    lo_a = np.where(usex, np.minimum(ax, bx), np.minimum(ay, by))
    hi_a = np.where(usex, np.maximum(ax, bx), np.maximum(ay, by))
    lo_c = np.where(usex, np.minimum(cx, dx), np.minimum(cy, dy))
    hi_c = np.where(usex, np.maximum(cx, dx), np.maximum(cy, dy))
    overlap = collinear & (
        np.minimum(hi_a, hi_c) > np.maximum(lo_a, lo_c)
    )
    return touch, overlap


def _segment_spans(t: pa.Table) -> pa.Table:
    """Per-segment bbox and squared length: the inputs of the cell size."""
    ax = t.column("ax").to_numpy(zero_copy_only=False)
    ay = t.column("ay").to_numpy(zero_copy_only=False)
    bx = t.column("bx").to_numpy(zero_copy_only=False)
    by = t.column("by").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "lx": pa.array(np.minimum(ax, bx)),
            "hx": pa.array(np.maximum(ax, bx)),
            "ly": pa.array(np.minimum(ay, by)),
            "hy": pa.array(np.maximum(ay, by)),
            "ln": pa.array((bx - ax) ** 2 + (by - ay) ** 2),
        }
    )


def _strict_cell_size(
    lo_x: float, hi_x: float, lo_y: float, hi_y: float,
    mean_sq_len: float, n_segs: int,
) -> float:
    """Grid cell size of the strict filter from the w × h extent of the
    segment bboxes, the mean squared segment length and the segment count:
    ``max(2·RMS length, span/2^20, √(w·h/n_segs))``.

    Cells sit at segment scale so each holds few segments. The area term
    bounds replication: a segment's bbox lies inside the extent, so it
    covers at most w·h/cs² ≤ n_segs cells, and unlike ``span/√n_segs`` it
    does not assume a square extent (a long thin strip keeps
    segment-scale cells). ``span/2^20`` keeps cell coordinates within the
    21-bit tile packing. A zero-area extent falls back to 2·RMS length."""
    w, h = hi_x - lo_x, hi_y - lo_y
    span = max(w, h, 1e-300)
    return max(
        2.0 * mean_sq_len ** 0.5,
        span / (1 << 20),
        (w * h / max(n_segs, 1)) ** 0.5,
    )


def _segment_tiles(
    t: pa.Table, lo_x: float, lo_y: float, cs: float
) -> pa.Table:
    """(poly, ax, ay, bx, by) → one row per grid cell a segment's bbox
    covers, the cell packed as ``tile = x << 21 | y``."""
    ax = t.column("ax").to_numpy(zero_copy_only=False)
    ay = t.column("ay").to_numpy(zero_copy_only=False)
    bx = t.column("bx").to_numpy(zero_copy_only=False)
    by = t.column("by").to_numpy(zero_copy_only=False)
    poly = t.column("poly").to_numpy(zero_copy_only=False)
    cx0 = np.floor((np.minimum(ax, bx) - lo_x) / cs).astype(np.int64)
    cx1 = np.floor((np.maximum(ax, bx) - lo_x) / cs).astype(np.int64)
    cy0 = np.floor((np.minimum(ay, by) - lo_y) / cs).astype(np.int64)
    cy1 = np.floor((np.maximum(ay, by) - lo_y) / cs).astype(np.int64)
    nx = cx1 - cx0 + 1
    ny = cy1 - cy0 + 1
    reps = nx * ny
    idx = np.repeat(np.arange(len(ax)), reps)
    within = np.arange(int(reps.sum())) - np.repeat(
        np.cumsum(reps) - reps, reps
    )
    tx = cx0[idx] + within % nx[idx]
    ty = cy0[idx] + within // nx[idx]
    tile = (tx << np.int64(21)) | ty
    return pa.table(
        {
            "tile": pa.array(tile),
            "poly": pa.array(poly[idx]),
            "ax": pa.array(ax[idx]),
            "ay": pa.array(ay[idx]),
            "bx": pa.array(bx[idx]),
            "by": pa.array(by[idx]),
        }
    )


def _segment_tile_pairs(t: pa.Table) -> pa.Table:
    """Tiled segments sorted by tile (each tile a contiguous run) → edge
    rows for every touching segment pair of distinct polygons, both
    orientations. Pair indices are generated per tile-SIZE class with one
    broadcast each, then ONE vectorized predicate evaluation covers every
    candidate pair."""
    n = t.num_rows
    if n == 0:
        return E.empty_edges()
    tile = t.column("tile").to_numpy(zero_copy_only=False)
    poly = t.column("poly").to_numpy(zero_copy_only=False)
    ax = t.column("ax").to_numpy(zero_copy_only=False)
    ay = t.column("ay").to_numpy(zero_copy_only=False)
    bx = t.column("bx").to_numpy(zero_copy_only=False)
    by = t.column("by").to_numpy(zero_copy_only=False)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    change[1:] = tile[1:] != tile[:-1]
    starts = np.flatnonzero(change)
    sizes = np.diff(np.append(starts, n))
    ii, jj = [], []
    for m in np.unique(sizes):
        if m < 2:
            continue
        s = starts[sizes == m]
        base = s[:, None] + np.arange(m)[None, :]  # (G, m)
        ii.append(np.repeat(base, m, axis=1).ravel())
        jj.append(np.tile(base, (1, m)).ravel())
    if not ii:
        return E.empty_edges()
    i = np.concatenate(ii)
    j = np.concatenate(jj)
    keep = poly[i] < poly[j]  # distinct polys, one orientation
    i, j = i[keep], j[keep]
    if len(i) == 0:
        return E.empty_edges()
    touch, overlap = _seg_pair_touch(
        ax[i], ay[i], bx[i], by[i], ax[j], ay[j], bx[j], by[j]
    )
    # ONE predicate pass carries BOTH modes: weight 1 = point touch
    # (strict queen), weight 2 = positive-length collinear overlap
    # (strict rook; overlap ⊆ touch). The max-weight dedup keeps the max,
    # so a pair overlapping via any segment pair ranks 2.
    pi, pj = poly[i][touch], poly[j][touch]
    if len(pi) == 0:
        return E.empty_edges()
    w = 1.0 + overlap[touch].astype(np.float64)
    return E.edge_table(
        np.concatenate([pi, pj]), np.concatenate([pj, pi]),
        np.concatenate([w, w]),
    )


_segment_tile_pairs._size_expanding = True  # per-tile all-pairs emission

_max_weight_agg = J._grouped_agg_batch(
    ("focal", "neighbor"), ("weight",), "max"
)


def _max_weight_pairs(t: pa.Table) -> pa.Table:
    """One edge row per (focal, neighbor) of ``t``, with its max weight."""
    c = _max_weight_agg(t)
    return pa.Table.from_arrays(
        [c.column("focal"), c.column("neighbor"), c.column("max(weight)")],
        schema=E.EDGE_SCHEMA,
    )


def _strict_task(segs: pa.Table) -> pa.Table:
    """The whole strict pass over the FULL segment table in one task:
    stats, cell size, tiling, the tile-pair predicate and the max-weight
    dedup. Having seen every candidate pair, it needs no global dedup."""
    s = _segment_spans(segs)
    lx, hx, ly, hy, ln = (
        s.column(c).to_numpy(zero_copy_only=False)
        for c in ("lx", "hx", "ly", "hy", "ln")
    )
    lo_x, lo_y = float(lx.min()), float(ly.min())
    cs = _strict_cell_size(
        lo_x, float(hx.max()), lo_y, float(hy.max()), float(ln.mean()),
        len(ln),
    )
    tiled = _segment_tiles(segs, lo_x, lo_y, cs)
    order = np.argsort(
        tiled.column("tile").to_numpy(zero_copy_only=False), kind="stable"
    )
    return _max_weight_pairs(_segment_tile_pairs(tiled.take(order)))


_strict_task._size_expanding = True


def strict_pairs(
    polygons: ray.data.Dataset,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Shared strict queen/rook plan → (edges, ids): segment explode, a
    grid filter (segments tiled into the cells their bboxes cover), the
    exact vectorized segment-pair predicate within each cell, and a
    max-weight pair dedup. ONE pass serves BOTH modes: edge weight 1 =
    point touch (queen), 2 = positive-length collinear overlap (rook);
    callers memoize the materialized result.

    The cell size is :func:`_strict_cell_size`: segment scale, floored by
    √(area/n_segs) of the segment extent, so one segment covers at most
    n_segs cells. The result does not depend on it: two touching segments
    have overlapping bboxes, and ``floor((v − lo)/cs)`` is monotone, so
    they share at least one cell whatever ``cs`` is.

    Two plans, chosen by the engine's small-input switch
    (``joins._coalesced``) on the exploded segments:

    * **One task** (a provable size bound): :func:`_strict_task` runs the
      whole pass in numpy over the full segment table — one Dataset
      execution, materialized here.
    * **Sharded** (size unknown or large): the segments materialize, one
      stats ``aggregate()`` fixes the cell size, ``grouped_by_key`` on the
      tile runs the pair predicate per bucket, and a global max-weight
      dedup merges pairs found in several buckets.

    This is the no-GEOS strict path: unlike the vertex/edge HASH builders
    it detects neighbors whose shared boundary has mismatched vertices
    (T-junctions, partial collinear edge overlaps) — the reference's
    strict=True semantics (graph/_contiguity.py:94-182)."""
    from ray.data.aggregate import Count, Max, Mean, Min

    ids = polygons.select_columns(["polygon_id"]).rename_columns(
        {"polygon_id": "focal"}
    )
    segs = polygons.map_batches(
        _explode_segments_raw, batch_format="pyarrow"
    )
    one = J._coalesced(segs, _strict_task)
    if one is not None:
        return one.materialize(), ids
    segs = segs.materialize()
    st = segs.map_batches(_segment_spans, batch_format="pyarrow").aggregate(
        Min("lx"), Max("hx"), Min("ly"), Max("hy"), Mean("ln"), Count()
    )
    lo_x, lo_y = float(st["min(lx)"]), float(st["min(ly)"])
    cs = _strict_cell_size(
        lo_x, float(st["max(hx)"]), lo_y, float(st["max(hy)"]),
        float(st["mean(ln)"]), int(st["count()"]),
    )
    tiled = segs.map_batches(
        _segment_tiles, fn_args=(lo_x, lo_y, cs), batch_format="pyarrow"
    )
    pairs = grouped_by_key(tiled, ["tile"], _segment_tile_pairs)
    # combined pairs materialize FIRST: the pair emission is a marked
    # size-expander and the dedup sort-aggregate would re-execute the
    # lazy emission chain per consumption pass
    edges = E.dedup(
        pairs.map_batches(_max_weight_pairs, batch_format="pyarrow")
        .materialize(),
        keep="max",
    ).materialize()
    return edges, ids


def queen_strict(polygons: ray.data.Dataset, pairs=None) -> RayGraph:
    """Strict queen: neighbors ⟺ boundaries share ≥1 point, INCLUDING
    contacts at non-vertex locations (T-junctions) — GEOS ``touches``
    semantics on a valid coverage (graph/_contiguity.py:94-135), built
    without GEOS from vectorized segment orientation tests. Pass the
    memoized ``strict_pairs(polygons)`` result as ``pairs`` to share the
    predicate pass with rook_strict."""
    edges, ids = pairs if pairs is not None else strict_pairs(polygons)
    return RayGraph(
        edges.map_batches(_binarize_edges, batch_format="pyarrow"), ids=ids
    )


def rook_strict(polygons: ray.data.Dataset, pairs=None) -> RayGraph:
    """Strict rook: neighbors ⟺ boundaries share a positive-length
    collinear overlap, regardless of vertex placement — DE-9IM
    "F***1****" semantics (graph/_contiguity.py:138-182), without GEOS."""
    edges, ids = pairs if pairs is not None else strict_pairs(polygons)

    def _overlap_only(t: pa.Table) -> pa.Table:
        w = t.column("weight").to_numpy(zero_copy_only=False)
        return _binarize_edges(t.filter(pa.array(w >= 2.0)))

    return RayGraph(
        edges.map_batches(_overlap_only, batch_format="pyarrow"), ids=ids
    )


def _binarize_edges(t: pa.Table) -> pa.Table:
    w = t.column("weight").to_numpy(zero_copy_only=False)
    return pa.Table.from_arrays(
        [t.column("focal"), t.column("neighbor"),
         pa.array(np.ones(len(w)))],
        schema=E.EDGE_SCHEMA,
    )
