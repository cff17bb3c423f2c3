"""Delaunay triangulation and Voronoi-cell contiguity builders.

Reference semantics: graph/_triangulation.py:126-199 (``_delaunay`` — the
full Delaunay edge set via scipy), graph/_triangulation.py:345-428 and
weights/contiguity.py:619-694 (``_voronoi`` / ``Voronoi`` — rook contiguity
of Voronoi cells clipped to the point bounding box), golden-dict test
weights/tests/test_contiguity.py:205-217. No scipy/shapely in this
environment; both algorithms here are from-scratch numpy.

Two physical paths:

* ``delaunay`` / ``voronoi`` — exact global triangulation via an
  incremental Bowyer-Watson (public-domain algorithm; Bowyer 1981, Watson
  1981) vectorized over the live triangle set per insertion. Global
  triangulation is inherently a small-layer operation (the reference holds
  it in scipy in-process the same way); guarded by ``max_points`` with the
  bounded builder as the scale path.
* ``delaunay_bounded(points, max_radius)`` — the DISTRIBUTED scale path:
  the radius-bounded Delaunay graph (the 1-skeleton of the alpha-complex
  at alpha = max_radius): edge (i, j) survives iff SOME empty circle
  through i and j has radius ≤ max_radius. Unlike the unbounded graph
  this is exactly tileable: every witness circle lies inside
  ball(i, 2·max_radius), so a tile shuffle with halo = 2R (the same
  ``tile_points`` shuffle as the distance builders) sees every point that
  can matter. Per tile the test is a vectorized linear-programming-in-one-
  variable: circles through (i, j) are parameterized by their center
  m + t·u on the bisector; "k strictly inside" is the linear inequality
  a·t < b with a = 2u·(i-k), b = |i|²-|k|²-2m·(i-k), so the edge lives
  iff the closed allowed interval [max lower, min upper] ∩ [-tmax, tmax]
  is non-empty (tmax² = R² - d²/4). The same formula is expressible in
  SQL, which is what the DuckDB oracle runs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from libpysal_ray.builders.distance import tile_points
from libpysal_ray.core import edges as E
from libpysal_ray.core import joins as J
from libpysal_ray.core.graph import RayGraph

_PCHUNK = 256  # candidate-pair chunk per witness matrix


def _circumcircles(X: np.ndarray, Y: np.ndarray, tris: np.ndarray):
    """Circumcenter + squared radius per triangle (vectorized)."""
    ax, ay = X[tris[:, 0]], Y[tris[:, 0]]
    bx, by = X[tris[:, 1]], Y[tris[:, 1]]
    cx, cy = X[tris[:, 2]], Y[tris[:, 2]]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    d = np.where(d == 0.0, 1e-300, d)
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return ux, uy, r2


def _bw_once(px: np.ndarray, py: np.ndarray, D: float):
    """One Bowyer-Watson pass with super vertices at distance ~D."""
    n = len(px)
    minx, maxx = float(px.min()), float(px.max())
    miny, maxy = float(py.min()), float(py.max())
    span = max(maxx - minx, maxy - miny, 1.0)
    cx, cy = (minx + maxx) / 2.0, (miny + maxy) / 2.0
    X = np.concatenate([px, [cx - 1.5 * D, cx + 1.5 * D, cx]])
    Y = np.concatenate([py, [cy - D, cy - D, cy + 1.5 * D]])
    tris = np.array([[n, n + 1, n + 2]], dtype=np.int64)
    ccx, ccy, r2 = _circumcircles(X, Y, tris)
    # insertion in Morton-ish order (spatial locality keeps cavities small)
    order = np.lexsort(
        (py, np.floor((px - minx) / (span / 64)).astype(np.int64))
    )
    for p in order:
        dx = X[p] - ccx
        dy = Y[p] - ccy
        bad = dx * dx + dy * dy <= r2 * (1.0 + 1e-12)
        badt = tris[bad]
        ed = badt[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        ed.sort(axis=1)
        uniq, counts = np.unique(ed, axis=0, return_counts=True)
        boundary = uniq[counts == 1]
        new = np.column_stack(
            [np.full(len(boundary), p, dtype=np.int64), boundary]
        )
        nccx, nccy, nr2 = _circumcircles(X, Y, new)
        keep = ~bad
        tris = np.concatenate([tris[keep], new])
        ccx = np.concatenate([ccx[keep], nccx])
        ccy = np.concatenate([ccy[keep], nccy])
        r2 = np.concatenate([r2[keep], nr2])
    real = (tris < n).all(axis=1)
    rmax = float(np.sqrt(r2[real].max())) if real.any() else 0.0
    return tris, rmax, span


def bowyer_watson(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Delaunay triangulation of points ∪ super-triangle — returns (T, 3)
    vertex-index triangles INCLUDING those touching the 3 super vertices
    (indices n, n+1, n+2); callers filter as needed.

    This is the EXACT Delaunay of the augmented point set; restricted to
    real vertices it can MISS true Delaunay edges of the data whose empty
    circles are so large they contain a super vertex (near-collinear hull
    triples make such circles arbitrarily large). Every such masked edge
    has both endpoints adjacent to a super vertex, so ``delaunay`` repairs
    them exactly with ``_interval_alive`` over that small vertex set; the
    Voronoi builder needs no repair because a masked edge's dual Voronoi
    edge lies ≳ D/4 ≈ 7 spans outside the data bbox and is clipped away
    regardless."""
    n = len(px)
    if n < 2:
        return np.empty((0, 3), dtype=np.int64)
    minx, maxx = float(px.min()), float(px.max())
    miny, maxy = float(py.min()), float(py.max())
    span = max(maxx - minx, maxy - miny, 1.0)
    tris, _rmax, _span = _bw_once(px, py, 30.0 * span)
    return tris


def _collect_points(
    points: ray.data.Dataset, id_col: str, x_col: str, y_col: str,
    max_points: int,
):
    parts = []
    total = 0
    for b in points.select_columns([id_col, x_col, y_col]).iter_batches(
        batch_format="pyarrow"
    ):
        total += b.num_rows
        if total > max_points:
            raise ValueError(
                f"global triangulation over >{max_points} points exceeds "
                f"max_points={max_points}; use delaunay_distributed (exact "
                "certified-star tiling) or delaunay_bounded(points, R) at "
                "this scale"
            )
        parts.append(b)
    t = pa.concat_tables(parts)
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
    y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
    return ids, x, y


def _check_unique(x: np.ndarray, y: np.ndarray) -> None:
    """Reference parity: coplanar (duplicate) points make triangulations
    ill-posed and raise by default (graph/_triangulation.py coplanar
    ='raise'; CoplanarError)."""
    uniq = np.unique(np.column_stack([x, y]), axis=0)
    if len(uniq) != len(x):
        raise ValueError(
            f"{len(x) - len(uniq)} duplicate point locations; "
            "triangulation is undefined for coplanar points "
            "(reference coplanar='raise' semantics)"
        )


def _real_edges(tris: np.ndarray, n: int) -> np.ndarray:
    """Distinct undirected edges among real vertices (< n), as (E, 2)."""
    ed = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    ed = ed[(ed[:, 0] < n) & (ed[:, 1] < n)]
    ed.sort(axis=1)
    return np.unique(ed, axis=0)


def delaunay(
    points: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    max_points: int = 2_000_000,
) -> RayGraph:
    """Full Delaunay graph (reference ``_delaunay``), small-layer path.

    Exact: the Bowyer-Watson pass gives Delaunay(P ∪ super) whose
    real-real edges are a subset of Delaunay(P); the (rare) edges masked
    by the finite super triangle are restored by the exact empty-circle
    interval test over super-adjacent vertices (see ``bowyer_watson``).

    Above ``max_points`` the call routes to ``delaunay_distributed`` —
    the exact certified-star tiled path (no driver cap)."""
    try:
        ids, x, y = _collect_points(points, id_col, x_col, y_col, max_points)
    except ValueError as e:
        if "max_points" not in str(e):
            raise
        return delaunay_distributed(
            points, id_col=id_col, x_col=x_col, y_col=y_col
        )
    ed = _delaunay_edge_indices(x, y)
    f = np.concatenate([ed[:, 0], ed[:, 1]])
    nbr = np.concatenate([ed[:, 1], ed[:, 0]])
    edges = E.from_arrays(ids[f], ids[nbr], 1.0)
    id_ds = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    return RayGraph(edges, ids=id_ds)


def _delaunay_edge_indices(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact Delaunay edge set as sorted (E, 2) positional index pairs:
    Bowyer-Watson + super-masked-edge repair (see ``bowyer_watson``)."""
    n = len(x)
    _check_unique(x, y)
    tris = bowyer_watson(x, y)
    ed = _real_edges(tris, n)
    sup = tris[(tris >= n).any(axis=1)]
    hull = np.unique(sup[sup < n])
    if len(hull) >= 2:
        hi_, hj_ = np.triu_indices(len(hull), 1)
        pi, pj = hull[hi_], hull[hj_]
        alive = _interval_alive(
            x[pi], y[pi], x[pj], y[pj], pi, pj, x, y,
            np.arange(n), np.inf,
        )
        extra = np.column_stack([pi[alive], pj[alive]])
        ed = np.unique(np.concatenate([ed, extra]), axis=0)
    return ed


def voronoi(
    points: ray.data.Dataset,
    clip: str = "bounding_box",
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    max_points: int = 2_000_000,
) -> RayGraph:
    """Rook contiguity of Voronoi cells (reference ``Voronoi`` /
    ``_voronoi``): Delaunay edges whose dual Voronoi edge retains positive
    length after clipping to the point bounding box (``clip=None`` keeps
    the full Delaunay — in theory the unclipped rook graph).

    The dual edge of Delaunay edge (i, j) is the segment between the
    circumcenters of its two flanking triangles (a ray from the single
    flanking circumcenter for hull edges); clipping is Liang-Barsky
    against the bbox — no polygon construction needed.

    Above ``max_points``, ``clip='bounding_box'`` routes to
    ``voronoi_distributed`` (exact, no driver cap); the other clip modes
    need a global structure (kept-triangle union / hull polygon) and
    stay driver-side by declared design.
    """
    try:
        ids, x, y = _collect_points(points, id_col, x_col, y_col,
                                    max_points)
    except ValueError as e:
        if "max_points" not in str(e):
            raise
        if clip == "bounding_box":
            return voronoi_distributed(
                points, id_col=id_col, x_col=x_col, y_col=y_col
            )
        raise ValueError(
            f"voronoi(clip={clip!r}) above max_points={max_points} is "
            "driver-side only; clip='bounding_box' routes to "
            "voronoi_distributed at any scale"
        ) from e
    n = len(ids)
    if clip is None:
        ed = _delaunay_edge_indices(x, y)
    elif clip == "bounding_box":
        _check_unique(x, y)
        tris = bowyer_watson(x, y)
        ed = _clipped_dual_edges(tris, x, y, n)
    elif clip == "alpha_shape":
        # the legacy weights.Voronoi default (contiguity.py:619): cells
        # clipped to the auto alpha shape — adjacency = dual edges with
        # positive-length intersection with the kept-triangle union
        _check_unique(x, y)
        tris = bowyer_watson(x, y)
        ed = _alpha_clipped_dual_edges(tris, x, y, n)
    elif clip == "convex_hull":
        # cells clipped to the point hull (cg/voronoi.py clip='convex_hull'
        # / graph/_triangulation.py:345-428): adjacency = dual edges with
        # positive-length intersection with the hull polygon
        _check_unique(x, y)
        tris = bowyer_watson(x, y)
        hx, hy = _convex_hull(x, y)
        ed = _poly_clipped_dual_edges(tris, x, y, n, hx, hy)
    elif isinstance(clip, tuple) and len(clip) == 2:
        # explicit clip polygon (xs, ys) — CONVEX only (the parametric
        # half-plane clip; a concave Polygon would need even-odd span
        # splitting, out of scope)
        _check_unique(x, y)
        tris = bowyer_watson(x, y)
        hx = np.asarray(clip[0], dtype=np.float64)
        hy = np.asarray(clip[1], dtype=np.float64)
        hx, hy = _ensure_convex_ccw(hx, hy)
        ed = _poly_clipped_dual_edges(tris, x, y, n, hx, hy)
    else:
        raise NotImplementedError(
            "clip must be None, 'bounding_box', 'convex_hull', "
            "'alpha_shape', or an explicit CONVEX (xs, ys) polygon"
        )
    f = np.concatenate([ed[:, 0], ed[:, 1]])
    nbr = np.concatenate([ed[:, 1], ed[:, 0]])
    edges = E.from_arrays(ids[f], ids[nbr], 1.0)
    id_ds = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    return RayGraph(edges, ids=id_ds)


def _dual_segments(tris: np.ndarray, x: np.ndarray, y: np.ndarray, n: int):
    """Dual Voronoi segment per real Delaunay edge.

    Returns (edges (E, 2), p0x, p0y, p1x, p1y, rt, keep_tri_radii²):
    interior edges span their two flanking circumcenters; hull edges are
    outward rays truncated far beyond the data (long enough to cross any
    bounded clip region even when a sliver triangle pushes its
    circumcenter far away)."""
    minx, maxx = float(x.min()), float(x.max())
    miny, maxy = float(y.min()), float(y.max())
    span = max(maxx - minx, maxy - miny, 1.0)
    cx, cy = (minx + maxx) / 2.0, (miny + maxy) / 2.0
    Xe = np.concatenate([x, [cx - 30 * span, cx + 30 * span, cx]])
    Ye = np.concatenate([y, [cy - 20 * span, cy - 20 * span, cy + 30 * span]])

    real = (tris < n).all(axis=1)
    rt = tris[real]
    ccx, ccy, r2 = _circumcircles(Xe, Ye, rt)

    # map undirected real edge -> flanking real triangles (≤ 2)
    ed = rt[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    tri_of = np.repeat(np.arange(len(rt)), 3)
    opp = rt[:, [2, 0, 1]].reshape(-1)  # vertex opposite each edge
    ed_s = np.sort(ed, axis=1)
    key = ed_s[:, 0] * np.int64(n) + ed_s[:, 1]
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    _uniq, start = np.unique(key_s, return_index=True)
    count = np.diff(np.append(start, len(key_s)))

    e_all, p0x_a, p0y_a, p1x_a, p1y_a = [], [], [], [], []
    for m in (1, 2):
        sel = count == m
        if not sel.any():
            continue
        s = start[sel]
        e0 = ed_s[order[s]]
        t0 = tri_of[order[s]]
        p0x, p0y = ccx[t0], ccy[t0]
        if m == 2:
            t1 = tri_of[order[s + 1]]
            p1x, p1y = ccx[t1], ccy[t1]
        else:
            # hull edge: ray outward (away from the opposite vertex)
            i, j = e0[:, 0], e0[:, 1]
            mx_, my_ = (x[i] + x[j]) / 2, (y[i] + y[j]) / 2
            dx_, dy_ = -(y[j] - y[i]), (x[j] - x[i])
            L = np.sqrt(dx_ * dx_ + dy_ * dy_)
            dx_, dy_ = dx_ / L, dy_ / L
            ov = opp[order[s]]
            flip = (dx_ * (mx_ - x[ov]) + dy_ * (my_ - y[ov])) < 0
            dx_ = np.where(flip, -dx_, dx_)
            dy_ = np.where(flip, -dy_, dy_)
            ext = 2.0 * (np.hypot(p0x - cx, p0y - cy) + 10 * span)
            p1x = p0x + dx_ * ext
            p1y = p0y + dy_ * ext
        e_all.append(e0)
        p0x_a.append(p0x)
        p0y_a.append(p0y)
        p1x_a.append(p1x)
        p1y_a.append(p1y)
    if not e_all:
        z = np.empty(0)
        return (np.empty((0, 2), np.int64), z, z, z, z, rt,
                np.sqrt(r2))
    return (
        np.concatenate(e_all),
        np.concatenate(p0x_a), np.concatenate(p0y_a),
        np.concatenate(p1x_a), np.concatenate(p1y_a),
        rt, np.sqrt(r2),
    )


def _clipped_dual_edges(
    tris: np.ndarray, x: np.ndarray, y: np.ndarray, n: int
) -> np.ndarray:
    """Delaunay edges whose dual Voronoi edge intersects the point bbox
    with positive length."""
    e0, p0x, p0y, p1x, p1y, _rt, _radii = _dual_segments(tris, x, y, n)
    if len(e0) == 0:
        return e0
    minx, maxx = float(x.min()), float(x.max())
    miny, maxy = float(y.min()), float(y.max())
    keep = _segment_in_box(p0x, p0y, p1x, p1y, minx, maxx, miny, maxy)
    return e0[keep]


def _alpha_clipped_dual_edges(
    tris: np.ndarray, x: np.ndarray, y: np.ndarray, n: int
) -> np.ndarray:
    """Delaunay edges whose dual Voronoi edge retains positive length
    inside the AUTO alpha shape (= union of kept Delaunay triangles at
    the smallest covered+connected radius). A segment has positive-length
    intersection with the triangle union iff it does with SOME kept
    triangle (the triangles tile the shape), so the test is a per-segment
    convex clip against bbox-prefiltered kept triangles."""
    e0, p0x, p0y, p1x, p1y, rt, radii = _dual_segments(tris, x, y, n)
    if len(e0) == 0:
        return e0

    # auto alpha radius: same monotone binary search as alpha_shape_edges
    order = np.unique(radii)

    def ok(r: float) -> bool:
        kt = rt[radii <= r]
        if len(kt) == 0:
            return False
        covered = np.zeros(n, dtype=bool)
        covered[np.unique(kt)] = True
        return covered.all() and _complex_connected(kt)

    if not ok(order[-1]):
        r = float(order[-1])
    else:
        lo, hi = 0, len(order) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if ok(order[mid]):
                hi = mid
            else:
                lo = mid + 1
        r = float(order[lo])
    kt = rt[radii <= r]

    ax, ay = x[kt[:, 0]], y[kt[:, 0]]
    bx, by = x[kt[:, 1]], y[kt[:, 1]]
    cx_, cy_ = x[kt[:, 2]], y[kt[:, 2]]
    # orient counter-clockwise so inward normals are consistent
    area2 = (bx - ax) * (cy_ - ay) - (by - ay) * (cx_ - ax)
    sw = area2 < 0
    bx2 = np.where(sw, cx_, bx)
    by2 = np.where(sw, cy_, by)
    cx2 = np.where(sw, bx, cx_)
    cy2 = np.where(sw, by, cy_)
    bx, by, cx_, cy_ = bx2, by2, cx2, cy2
    tminx = np.minimum.reduce([ax, bx, cx_])
    tmaxx = np.maximum.reduce([ax, bx, cx_])
    tminy = np.minimum.reduce([ay, by, cy_])
    tmaxy = np.maximum.reduce([ay, by, cy_])

    keep = np.zeros(len(e0), dtype=bool)
    for s in range(len(e0)):
        sx0, sy0, sx1, sy1 = p0x[s], p0y[s], p1x[s], p1y[s]
        pre = (
            (tminx <= max(sx0, sx1))
            & (tmaxx >= min(sx0, sx1))
            & (tminy <= max(sy0, sy1))
            & (tmaxy >= min(sy0, sy1))
        )
        if not pre.any():
            continue
        ti = np.flatnonzero(pre)
        dx, dy = sx1 - sx0, sy1 - sy0
        t0v = np.zeros(len(ti))
        t1v = np.ones(len(ti))
        alive = np.ones(len(ti), dtype=bool)
        for ex0, ey0, ex1, ey1 in (
            (ax[ti], ay[ti], bx[ti], by[ti]),
            (bx[ti], by[ti], cx_[ti], cy_[ti]),
            (cx_[ti], cy_[ti], ax[ti], ay[ti]),
        ):
            nx_, ny_ = -(ey1 - ey0), ex1 - ex0  # inward normal (CCW)
            num = nx_ * (sx0 - ex0) + ny_ * (sy0 - ey0)
            den = nx_ * dx + ny_ * dy
            inside0 = num
            para = den == 0
            alive &= ~(para & (inside0 < 0))
            with np.errstate(divide="ignore", invalid="ignore"):
                tcross = -num / den
            ent = den > 0  # moving into the half-plane
            t0v = np.where(~para & ent, np.maximum(t0v, tcross), t0v)
            t1v = np.where(~para & ~ent, np.minimum(t1v, tcross), t1v)
        if (alive & (t0v < t1v)).any():
            keep[s] = True
    return e0[keep]


def _convex_hull(x: np.ndarray, y: np.ndarray):
    """Andrew's monotone chain (public-domain algorithm): CCW hull
    vertices, no repeated closing vertex."""
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]

    def _chain(idx):
        out: list[int] = []
        for i in idx:
            while len(out) >= 2:
                ox1, oy1 = xs[out[-2]], ys[out[-2]]
                ox2, oy2 = xs[out[-1]], ys[out[-1]]
                if (ox2 - ox1) * (ys[i] - oy1) - (oy2 - oy1) * (
                    xs[i] - ox1
                ) <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = _chain(range(len(xs)))
    upper = _chain(range(len(xs) - 1, -1, -1))
    hull = lower[:-1] + upper[:-1]
    return xs[hull], ys[hull]


def _ensure_convex_ccw(hx: np.ndarray, hy: np.ndarray):
    """Validate convexity; reorient CW input to CCW; drop a duplicated
    closing vertex."""
    if len(hx) > 1 and hx[0] == hx[-1] and hy[0] == hy[-1]:
        hx, hy = hx[:-1], hy[:-1]
    if len(hx) < 3:
        raise ValueError("clip polygon needs >= 3 vertices")
    ex = np.roll(hx, -1) - hx
    ey = np.roll(hy, -1) - hy
    cross = ex * np.roll(ey, -1) - ey * np.roll(ex, -1)
    if (cross >= 0).all():
        return hx, hy
    if (cross <= 0).all():
        return hx[::-1].copy(), hy[::-1].copy()
    raise NotImplementedError("explicit clip polygon must be convex")


def _segment_in_convex(
    x0, y0, x1, y1, hx: np.ndarray, hy: np.ndarray
) -> np.ndarray:
    """True per segment iff its intersection with the CCW convex polygon
    has positive length — the Liang-Barsky parametric clip generalized to
    arbitrary half-planes (Cyrus–Beck)."""
    dx = x1 - x0
    dy = y1 - y0
    t0 = np.zeros(len(np.atleast_1d(x0)))
    t1 = np.ones_like(t0)
    ok = np.ones_like(t0, dtype=bool)
    m = len(hx)
    for i in range(m):
        ex0, ey0 = hx[i], hy[i]
        ex1, ey1 = hx[(i + 1) % m], hy[(i + 1) % m]
        # interior is LEFT of the CCW edge: N = (-(ey1-ey0), ex1-ex0)
        nx_, ny_ = -(ey1 - ey0), ex1 - ex0
        s = nx_ * dx + ny_ * dy  # slope of N·(P(t) − E0)
        q = nx_ * (x0 - ex0) + ny_ * (y0 - ey0)
        para = s == 0
        ok &= ~(para & (q < 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = -q / s
        ent = s > 0  # f increasing → t ≥ r is inside
        t0 = np.where(~para & ent, np.maximum(t0, r), t0)
        t1 = np.where(~para & ~ent, np.minimum(t1, r), t1)
    return ok & (t0 < t1)


def _poly_clipped_dual_edges(
    tris: np.ndarray, x: np.ndarray, y: np.ndarray, n: int,
    hx: np.ndarray, hy: np.ndarray,
) -> np.ndarray:
    """Delaunay edges whose dual Voronoi edge intersects the convex
    polygon with positive length."""
    e0, p0x, p0y, p1x, p1y, _rt, _radii = _dual_segments(tris, x, y, n)
    if len(e0) == 0:
        return e0
    keep = _segment_in_convex(p0x, p0y, p1x, p1y, hx, hy)
    return e0[keep]


def _segment_in_box(
    x0, y0, x1, y1, minx, maxx, miny, maxy
) -> np.ndarray:
    """True per segment iff its intersection with the box has positive
    length (vectorized Liang-Barsky)."""
    dx = x1 - x0
    dy = y1 - y0
    t0 = np.zeros(len(np.atleast_1d(x0)))
    t1 = np.ones_like(t0)
    ok = np.ones_like(t0, dtype=bool)
    for p, q in (
        (-dx, x0 - minx),
        (dx, maxx - x0),
        (-dy, y0 - miny),
        (dy, maxy - y0),
    ):
        para = p == 0
        ok &= ~(para & (q < 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = q / p
        ent = (p < 0)
        t0 = np.where(~para & ent, np.maximum(t0, r), t0)
        t1 = np.where(~para & ~ent, np.minimum(t1, r), t1)
    return ok & (t0 < t1)


def delaunay_bounded(
    points: ray.data.Dataset,
    max_radius: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> RayGraph:
    """Radius-bounded Delaunay graph (alpha-complex 1-skeleton) — the
    distributed scale path; see module docstring for the derivation.

    ONE tile shuffle (cell = halo = 2R); per tile a vectorized candidate
    scan + one-variable interval test per pair. Edges are emitted from
    each endpoint's home tile (graph symmetric, no dedup pass needed)."""
    R = float(max_radius)
    me = 2.0 * R
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
            d2 = (x[c, None] - x[None, :]) ** 2 + (y[c, None] - y[None, :]) ** 2
            cand = (d2 <= me * me) & (ids[c, None] != ids[None, :])
            pr, pc = np.nonzero(cand)
            if len(pr) == 0:
                continue
            gi = c[pr]  # focal point index
            gj = pc  # neighbor point index
            # coincident locations make the pair's chord direction NaN and
            # every interval constraint a no-op — the duplicate pair would
            # silently gain an edge. Mirror the exact path's _check_unique
            # / reference coplanar='raise' (ADVICE r2 #3).
            dup = d2[pr, pc] == 0.0
            if dup.any():
                i_, j_ = ids[gi[dup][0]], ids[gj[dup][0]]
                raise ValueError(
                    "delaunay_bounded: coincident point locations (ids "
                    f"{int(i_)} and {int(j_)}); deduplicate or jitter the "
                    "input (reference coplanar='raise' semantics)"
                )
            keep = _interval_alive(
                x[gi], y[gi], x[gj], y[gj], ids[gi], ids[gj], x, y, ids, R
            )
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
    id_ds = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    return RayGraph(edges, ids=id_ds)


def _interval_alive(
    xi, yi, xj, yj, idi, idj, kx, ky, kid, R: float,
    chunk: int = _PCHUNK,
) -> np.ndarray:
    """Vectorized pair-survival test: for each pair row p, does an empty
    circle of radius ≤ R pass through (i_p, j_p) given witness points k?
    (R = inf ⇒ unbounded Delaunay test.)"""
    P = len(xi)
    d2 = (xi - xj) ** 2 + (yi - yj) ** 2
    d = np.sqrt(d2)
    if np.isinf(R):
        tmax = np.full(P, np.inf)
        too_far = np.zeros(P, dtype=bool)
    else:
        tmax = np.sqrt(np.maximum(R * R - d2 / 4.0, 0.0))
        # no circle of radius ≤ R passes through points farther than 2R
        # apart — dead regardless of witnesses (the clamped tmax=0 would
        # otherwise wrongly test the > R diametral circle)
        too_far = d2 > 4.0 * R * R
    mx, my = (xi + xj) / 2.0, (yi + yj) / 2.0
    ux, uy = (yj - yi) / d, (xi - xj) / d
    alive = np.ones(P, dtype=bool)
    # chunk pairs; witnesses full
    for s in range(0, P, chunk):
        sl = slice(s, s + min(chunk, P - s))
        dxk = xi[sl, None] - kx[None, :]
        dyk = yi[sl, None] - ky[None, :]
        a = 2.0 * (ux[sl, None] * dxk + uy[sl, None] * dyk)
        b = (
            xi[sl, None] ** 2 + yi[sl, None] ** 2
            - kx[None, :] ** 2 - ky[None, :] ** 2
            - 2.0 * (mx[sl, None] * dxk + my[sl, None] * dyk)
        )
        selfm = (kid[None, :] == idi[sl, None]) | (kid[None, :] == idj[sl, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = b / a
        lower = np.where((a > 0) & ~selfm, q, -np.inf).max(axis=1)
        upper = np.where((a < 0) & ~selfm, q, np.inf).min(axis=1)
        dead = ((a == 0) & (b > 0) & ~selfm).any(axis=1)
        lo = np.maximum(lower, -tmax[sl])
        hi = np.minimum(upper, tmax[sl])
        alive[sl] = ~dead & (lo <= hi) & ~too_far[sl]
    return alive


_DD_SCHEMA = pa.schema(
    [
        ("kind", pa.int8()),
        ("focal", pa.int64()),
        ("neighbor", pa.int64()),
        ("px", pa.float64()),
        ("py", pa.float64()),
        ("qx", pa.float64()),
        ("qy", pa.float64()),
    ]
)


def _dd_rows(kind, focal, neighbor, px, py, qx, qy) -> pa.Table:
    n = len(focal)
    return pa.table(
        {
            "kind": pa.array(np.full(n, kind, dtype=np.int8)),
            "focal": pa.array(np.asarray(focal, np.int64)),
            "neighbor": pa.array(np.asarray(neighbor, np.int64)),
            "px": pa.array(np.asarray(px, np.float64)),
            "py": pa.array(np.asarray(py, np.float64)),
            "qx": pa.array(np.asarray(qx, np.float64)),
            "qy": pa.array(np.asarray(qy, np.float64)),
        }
    )


def delaunay_distributed(
    points: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    r0: float | None = None,
    max_escalated: int = 2_000_000,
    prekill_blockers: int = 20_000,
) -> RayGraph:
    """EXACT full Delaunay graph with no driver-size cap — the tiled
    certified-star path (reference semantics graph/_triangulation.py:
    126-199; the reference itself is in-memory scipy).

    Physical plan — ONE tile shuffle plus one candidate-verify scan:

    1. ``tile_points`` shuffle with cell = halo = 2·r0.
    2. Per tile: the bounded-star interval test of ``delaunay_bounded``
       for every core focal — an alive pair has a ≤ r0 empty witness
       whose disk fits inside ball(i, 2 r0) ⊆ tile+halo, so local
       blockers are complete for it and the pair is a TRUE global
       Delaunay edge (emitted immediately, directed from its focal).
    3. Fan-closure certification per core point: its alive partners,
       sorted by angle, are CERTIFIED when the consecutive triangles
       leave no angular gap ≥ π, all have circumradius ≤ r0, and all
       have locally-empty circumdisks. Such disks are globally empty
       (⊆ the halo rect), so the fan triangles are globally Delaunay
       and tile 2π around i — i's global star is exactly its alive
       partners. Conversely any empty disk through an uncertified point
       grows (within the local set) to an incident local-Delaunay disk
       of at least its radius or to the local hull, and a certified
       fan IS the full local star — so every point incident to a > r0
       witness anywhere is FLAGGED here (soundness).
    4. Driver: collect flagged set S (loud ``max_escalated`` guard).
       Every true edge missing from pass 2 has only > r0 witnesses,
       hence BOTH endpoints flagged. If it is shorter than 2·r0 it is a
       within-halo pair of a flagged focal and already escalated as a
       kind-2 candidate (step 3's tile kernel keeps flagged focals'
       locally-alive-at-∞ rejects); if longer, it appears in DT(S) (its
       witness is empty of S ⊆ P) — so kind-2 ∪ the > 2·r0 pairs of the
       driver Bowyer-Watson over S is a complete candidate set.
    5. A deterministic sampled blocker set pre-kills candidates (dead
       under a blocker subset is conclusive), then ONE broadcast scan
       over all points computes each survivor's exact global constraint
       interval (per-block partials, one tiny aggregate). Emit pairs
       alive overall but NOT alive within the ≤ r0 band [-t0, t0]: a
       far blocker's constraint boundary inside the band would put it
       on a ≤ r0 circle through the pair, i.e. within 2 r0 of it —
       local — so the band decision provably equals the pass-2 local
       decision (no duplicate and no missing edges). Directions emitted
       for flagged endpoints only; certified endpoints already emitted
       theirs.

    Partitioning assumption (documented per the custom-operator rule):
    r0 (default 4·sqrt(bbox_area/n)) must make flagged points rare —
    |S| is O(data boundary + density-void boundaries). Sparse or heavily
    clustered data at a bad r0 trips the max_escalated guard loudly;
    raise r0 (coarser certification) rather than silently degrading.
    """
    edges_xy, id_ds, _bbox = _delaunay_distributed_xy(
        points, id_col, x_col, y_col, r0, max_escalated, prekill_blockers
    )
    edges = edges_xy.map_batches(_xy_strip, batch_format="pyarrow")
    return RayGraph(edges, ids=id_ds)


_XY_SCHEMA = pa.schema(
    [
        ("focal", pa.int64()),
        ("neighbor", pa.int64()),
        ("fx", pa.float64()),
        ("fy", pa.float64()),
        ("nx", pa.float64()),
        ("ny", pa.float64()),
    ]
)


def _xy_strip(t: pa.Table) -> pa.Table:
    """Project an xy-edge table down to the standard edge schema."""
    return E.edge_table(
        t.column("focal").to_numpy(zero_copy_only=False),
        t.column("neighbor").to_numpy(zero_copy_only=False),
        1.0,
    )


def _xy_select(t: pa.Table) -> pa.Table:
    """kind-0 tile rows → xy-edge rows (coords already carried)."""
    return t.select(
        ["focal", "neighbor", "px", "py", "qx", "qy"]
    ).rename_columns(["focal", "neighbor", "fx", "fy", "nx", "ny"])


def _delaunay_distributed_xy(
    points: ray.data.Dataset,
    id_col: str,
    x_col: str,
    y_col: str,
    r0: float | None,
    max_escalated: int,
    prekill_blockers: int,
):
    """Directed exact Delaunay edges WITH endpoint coordinates —
    columns (focal, neighbor, fx, fy, nx, ny) — plus the focal-id
    dataset and the global bbox (x0, x1, y0, y1). Both directions of
    every undirected edge are present (a ≤2·r0 pair's alive decision is
    identical from either endpoint's tile; escalated edges have both
    endpoints flagged and are emitted both ways). Internal engine shared
    by ``delaunay_distributed`` and ``voronoi_distributed``."""
    pruned = points.select_columns([id_col, x_col, y_col])

    def _stats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"n": pa.array([0], pa.int64()),
                 "x0": pa.array([np.inf]), "x1": pa.array([-np.inf]),
                 "y0": pa.array([np.inf]), "y1": pa.array([-np.inf])}
            )
        x = t.column(x_col).to_numpy(zero_copy_only=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {"n": pa.array([t.num_rows], pa.int64()),
             "x0": pa.array([float(x.min())]),
             "x1": pa.array([float(x.max())]),
             "y0": pa.array([float(y.min())]),
             "y1": pa.array([float(y.max())])}
        )

    n_tot, bx0, bx1, by0, by1 = 0, np.inf, -np.inf, np.inf, -np.inf
    for r in pruned.map_batches(_stats, batch_format="pyarrow").take_all():
        n_tot += r["n"]
        bx0, bx1 = min(bx0, r["x0"]), max(bx1, r["x1"])
        by0, by1 = min(by0, r["y0"]), max(by1, r["y1"])
    bbox = (bx0, bx1, by0, by1)
    if n_tot < 2:
        id_ds = pruned.select_columns([id_col]).rename_columns(
            {id_col: "focal"}
        )
        return ray.data.from_arrow(_XY_SCHEMA.empty_table()), id_ds, bbox

    # deterministic sample: used for the r0 density estimate AND later as
    # the candidate pre-kill blocker set (one pruned scan, shared)
    from libpysal_ray.core.hashing import splitmix64

    rate = min(1.0, prekill_blockers / max(n_tot, 1))
    thresh = np.uint64(min(int(rate * 2.0**64), 2**64 - 1))

    def _sample(t: pa.Table) -> pa.Table:
        kid = t.column(id_col).to_numpy(zero_copy_only=False)
        keep = splitmix64(kid.astype(np.uint64)) <= thresh
        return pa.table(
            {
                "kid": pa.array(kid[keep].astype(np.int64)),
                "kx": pa.array(
                    t.column(x_col).to_numpy(zero_copy_only=False)[keep]
                ),
                "ky": pa.array(
                    t.column(y_col).to_numpy(zero_copy_only=False)[keep]
                ),
            }
        )

    samp = pruned.map_batches(_sample, batch_format="pyarrow").take_all()
    smp_x = np.array([r["kx"] for r in samp], np.float64)
    smp_y = np.array([r["ky"] for r in samp], np.float64)
    smp_id = np.array([r["kid"] for r in samp], np.int64)

    if r0 is None:
        # density-adaptive default: the sample's median nearest-neighbor
        # distance, rescaled by sqrt(sample fraction), estimates the
        # MEDIAN local point spacing — robust to clustered densities
        # where the bbox-mean spacing would explode the dense tiles
        k = min(len(smp_x), 4096)
        if k >= 2:
            # hash-ordered subsample so the estimate is unbiased even
            # when the input is spatially sorted
            sub = np.argsort(splitmix64(smp_id.astype(np.uint64)))[:k]
            f_frac = k / max(n_tot, 1)
            dx = smp_x[sub, None] - smp_x[None, sub]
            dy = smp_y[sub, None] - smp_y[None, sub]
            dd = dx * dx + dy * dy
            np.fill_diagonal(dd, np.inf)
            nn = np.sqrt(np.median(dd.min(axis=1)))
            r0 = 8.0 * nn * float(np.sqrt(f_frac))
        if r0 is None or not np.isfinite(r0) or r0 <= 0:
            area = max((bx1 - bx0) * (by1 - by0), 1e-12)
            r0 = 4.0 * float(np.sqrt(area / n_tot))
    r0 = float(r0)
    me = 2.0 * r0

    tiled = tile_points(points, me, me, id_col=id_col, x_col=x_col,
                        y_col=y_col)

    def _tile(t: pa.Table) -> pa.Table:
        ids = t.column("id").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        core = t.column("core").to_numpy(zero_copy_only=False)
        m = len(ids)
        ci = np.flatnonzero(core)
        if len(ci) == 0:
            return _DD_SCHEMA.empty_table()
        if m > 2_000_000:
            raise ValueError(
                f"delaunay_distributed: one tile holds {m} points — r0 "
                f"({r0:.3g}) is far above the local point spacing; pass "
                "a smaller r0 for this density"
            )
        uniq = np.unique(np.column_stack([x, y]), axis=0)
        if len(uniq) != m:
            raise ValueError(
                "delaunay_distributed: coincident point locations; "
                "deduplicate or jitter (reference coplanar='raise')"
            )
        out: list[pa.Table] = []
        if m == 1:
            i = ci[0]
            return _dd_rows(1, ids[[i]], [-1], x[[i]], y[[i]], [0.0], [0.0])
        # bounded star of every core focal: alive pairs are TRUE global
        # Delaunay edges (any ≤ r0 witness ball fits inside the halo, so
        # local blockers are complete for it) — emit them all
        f_acc, n_acc, rf_acc, rn_acc = [], [], [], []
        for s in range(0, len(ci), _PCHUNK):
            c = ci[s: s + _PCHUNK]
            d2 = (x[c, None] - x[None, :]) ** 2 \
                + (y[c, None] - y[None, :]) ** 2
            cand = (d2 <= me * me) & (c[:, None] != np.arange(m)[None, :])
            pr, pc = np.nonzero(cand)
            if len(pr) == 0:
                continue
            gi, gj = c[pr], pc
            alive = _interval_alive(
                x[gi], y[gi], x[gj], y[gj], ids[gi], ids[gj],
                x, y, ids, r0,
            )
            f_acc.append(gi[alive])
            n_acc.append(gj[alive])
            rf_acc.append(gi[~alive])
            rn_acc.append(gj[~alive])
        gi = np.concatenate(f_acc) if f_acc else np.empty(0, np.int64)
        gj = np.concatenate(n_acc) if n_acc else np.empty(0, np.int64)
        ri = np.concatenate(rf_acc) if rf_acc else np.empty(0, np.int64)
        rj = np.concatenate(rn_acc) if rn_acc else np.empty(0, np.int64)
        if len(gi):
            # kind-0 rows carry both endpoints' coordinates so downstream
            # consumers (voronoi_distributed's star pass) need no join
            out.append(
                _dd_rows(0, ids[gi], ids[gj], x[gi], y[gi], x[gj], y[gj])
            )
        # fan-closure certification: core i is certified iff its alive
        # partners, sorted by angle, form consecutive triangles that (a)
        # leave no angular gap ≥ π, (b) have circumradius ≤ r0, and (c)
        # have locally-empty circumdisks — such a fan is globally
        # Delaunay and tiles 2π around i, so i's star is exactly its
        # alive partners (see docstring); anything else is flagged
        flag = np.zeros(m, dtype=bool)
        has = np.zeros(m, dtype=bool)
        has[gi] = True
        flag[ci[~has[ci]]] = True
        if len(gi):
            theta = np.arctan2(y[gj] - y[gi], x[gj] - x[gi])
            order = np.lexsort((theta, gi))
            gs, ns, th = gi[order], gj[order], theta[order]
            new = np.empty(len(gs), dtype=bool)
            new[0] = True
            new[1:] = gs[1:] != gs[:-1]
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], len(gs))
            idx = np.arange(len(gs))
            nxt = idx + 1
            nxt[ends - 1] = starts
            gap = th[nxt] - th
            gap[gap <= 0] += 2.0 * np.pi
            flag[gs[gap >= np.pi - 1e-12]] = True
            tri_ok = ns != ns[nxt]
            ta, tb, tc = gs[tri_ok], ns[tri_ok], ns[nxt][tri_ok]
            if len(ta):
                ccx, ccy, r2 = _circumcircles(
                    x, y, np.column_stack([ta, tb, tc])
                )
                flag[ta[r2 > r0 * r0]] = True
                # strict-interior blocker in any fan disk ⇒ flag (the 3
                # triple vertices excluded by index; ≤ keeps borderline
                # cocircular points conservative — flagging is safe)
                for s in range(0, len(ta), _PCHUNK):
                    sl = slice(s, s + min(_PCHUNK, len(ta) - s))
                    dd2 = (x[None, :] - ccx[sl, None]) ** 2 \
                        + (y[None, :] - ccy[sl, None]) ** 2
                    am = np.arange(m)[None, :]
                    vert = (
                        (am == ta[sl, None])
                        | (am == tb[sl, None])
                        | (am == tc[sl, None])
                    )
                    bad = (
                        (dd2 <= r2[sl, None] * (1.0 + 1e-12)) & ~vert
                    ).any(axis=1)
                    flag[ta[sl][bad]] = True
        # flagged focals' locally-undecided short pairs become candidates
        # (kind 2): within-halo pairs with only > r0 witnesses must be
        # decided globally, but local blockers already prove most dead
        # (subset-deadness is conclusive) — only locally-alive-at-∞
        # survivors escalate, so DT(S) need only contribute LONG pairs
        if len(ri):
            fl = flag[ri]
            ri, rj = ri[fl], rj[fl]
            if len(ri):
                alive_inf = _interval_alive(
                    x[ri], y[ri], x[rj], y[rj], ids[ri], ids[rj],
                    x, y, ids, np.inf,
                )
                ca_, cb_ = ri[alive_inf], rj[alive_inf]
                if len(ca_):
                    out.append(
                        _dd_rows(2, ids[ca_], ids[cb_],
                                 x[ca_], y[ca_], x[cb_], y[cb_])
                    )
        fc = ci[flag[ci]]
        if len(fc):
            out.append(
                _dd_rows(1, ids[fc], np.full(len(fc), -1, np.int64),
                         x[fc], y[fc],
                         np.zeros(len(fc)), np.zeros(len(fc)))
            )
        if not out:
            return _DD_SCHEMA.empty_table()
        return pa.concat_tables(out)

    import os
    import time as _time

    _dbg = bool(os.environ.get("LPR_DD_DEBUG"))
    _t = _time.time()

    def _mark(lbl: str) -> None:
        nonlocal _t
        if _dbg:
            print(f"[dd] {lbl}: {_time.time() - _t:.1f}s", flush=True)
            _t = _time.time()

    # compute-heavy per-tile kernel: keep the parallel native groupby
    # (the coalesced small path would serialize it) and materialize so
    # the two downstream consumers don't re-execute the shuffle.
    # map_groups emits one task per block — single-block inputs (e.g.
    # from_arrow) would serialize every tile into one task, so spread
    # the tile rows across ~4 blocks per CPU first.
    nblk = max(16, 4 * int(ray.cluster_resources().get("CPU", 8)))
    res = tiled.repartition(nblk).groupby("tile").map_groups(
        _tile, batch_format="pyarrow"
    ).materialize()
    _mark("tile pass")

    edges_a = res.filter(expr="kind == 0").map_batches(
        _xy_select, batch_format="pyarrow"
    )

    n_flag = res.filter(expr="kind == 1").count()
    if n_flag > max_escalated:
        raise ValueError(
            f"delaunay_distributed: {n_flag} uncertified points exceed "
            f"max_escalated={max_escalated}; raise r0 (coarser "
            "certification) for this density/clustering"
        )
    flags = res.filter(expr="kind == 1").take_all()
    cands = res.filter(expr="kind == 2").take_all()
    _mark(f"collect flags={len(flags)} cands={len(cands)}")

    sid = np.array([r["focal"] for r in flags], dtype=np.int64)
    sx = np.array([r["px"] for r in flags], dtype=np.float64)
    sy = np.array([r["py"] for r in flags], dtype=np.float64)

    # candidate pairs: flagged local stars (undecided) ∪ DT(S) longer
    # than 2 r0 (shorter flagged-flagged pairs are always local stars)
    ca = np.array([r["focal"] for r in cands], dtype=np.int64)
    cb = np.array([r["neighbor"] for r in cands], dtype=np.int64)
    cax = np.array([r["px"] for r in cands], dtype=np.float64)
    cay = np.array([r["py"] for r in cands], dtype=np.float64)
    cbx = np.array([r["qx"] for r in cands], dtype=np.float64)
    cby = np.array([r["qy"] for r in cands], dtype=np.float64)
    if len(sid) >= 2:
        ds_pairs = _delaunay_edge_indices(sx, sy)
        _mark(f"DT(S) pairs={len(ds_pairs)}")
        if len(ds_pairs):
            pi, pj = ds_pairs[:, 0], ds_pairs[:, 1]
            d2 = (sx[pi] - sx[pj]) ** 2 + (sy[pi] - sy[pj]) ** 2
            far = d2 > me * me  # short flagged pairs are kind-2 locals
            pi, pj = pi[far], pj[far]
            ca = np.concatenate([ca, sid[pi]])
            cb = np.concatenate([cb, sid[pj]])
            cax = np.concatenate([cax, sx[pi]])
            cay = np.concatenate([cay, sy[pi]])
            cbx = np.concatenate([cbx, sx[pj]])
            cby = np.concatenate([cby, sy[pj]])

    id_ds = pruned.select_columns([id_col]).rename_columns(
        {id_col: "focal"}
    )
    if len(ca) == 0:
        return edges_a, id_ds, bbox

    # dedup unordered pairs
    lo_id = np.minimum(ca, cb)
    hi_id = np.maximum(ca, cb)
    swap = ca > cb
    xi = np.where(swap, cbx, cax)
    yi = np.where(swap, cby, cay)
    xj = np.where(swap, cax, cbx)
    yj = np.where(swap, cay, cby)
    _, first = np.unique(
        np.column_stack([lo_id, hi_id]), axis=0, return_index=True
    )
    idi, idj = lo_id[first], hi_id[first]
    xi, yi, xj, yj = xi[first], yi[first], xj[first], yj[first]

    # deterministic sampled pre-kill (dead-only, conclusive): blockers =
    # the shared sample plus the flagged set itself
    bkx = np.concatenate([smp_x, sx])
    bky = np.concatenate([smp_y, sy])
    bkid = np.concatenate([smp_id, sid])
    _mark(f"sample={len(smp_x)} candpairs={len(idi)}")
    alive0 = _interval_alive(
        xi, yi, xj, yj, idi, idj, bkx, bky, bkid, np.inf
    )
    idi, idj = idi[alive0], idj[alive0]
    xi, yi, xj, yj = xi[alive0], yi[alive0], xj[alive0], yj[alive0]
    _mark(f"prekill survivors={len(idi)}")
    if len(idi) == 0:
        return edges_a, id_ds, bbox

    lo, hi, dead = _verify_pairs_global(
        pruned, id_col, x_col, y_col, xi, yi, xj, yj, idi, idj
    )
    _mark("global verify")
    d2 = (xi - xj) ** 2 + (yi - yj) ** 2
    t0 = np.sqrt(np.maximum(r0 * r0 - d2 / 4.0, 0.0))
    in_band = d2 <= me * me
    alive_any = ~dead & (lo <= hi)
    alive_small = (
        alive_any
        & in_band
        & (np.maximum(lo, -t0) <= np.minimum(hi, t0))
    )
    emit = alive_any & ~alive_small
    ei, ej = idi[emit], idj[emit]
    exi, eyi = xi[emit], yi[emit]
    exj, eyj = xj[emit], yj[emit]
    in_s_i = np.isin(ei, sid)
    in_s_j = np.isin(ej, sid)
    f_out = np.concatenate([ei[in_s_i], ej[in_s_j]])
    n_out = np.concatenate([ej[in_s_i], ei[in_s_j]])
    if len(f_out) == 0:
        return edges_a, id_ds, bbox
    edges_b = ray.data.from_arrow(
        pa.table(
            {
                "focal": pa.array(f_out),
                "neighbor": pa.array(n_out),
                "fx": pa.array(np.concatenate([exi[in_s_i], exj[in_s_j]])),
                "fy": pa.array(np.concatenate([eyi[in_s_i], eyj[in_s_j]])),
                "nx": pa.array(np.concatenate([exj[in_s_i], exi[in_s_j]])),
                "ny": pa.array(np.concatenate([eyj[in_s_i], eyi[in_s_j]])),
            },
            schema=_XY_SCHEMA,
        )
    )
    return edges_a.union(edges_b), id_ds, bbox


def _cc_xy(ax, ay, bx, by, cx, cy):
    """Circumcenter per triangle from coordinate arrays (vectorized)."""
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    d = np.where(d == 0.0, 1e-300, d)
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return ux, uy


def voronoi_distributed(
    points: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    r0: float | None = None,
    max_escalated: int = 2_000_000,
    prekill_blockers: int = 20_000,
) -> RayGraph:
    """Rook contiguity of bbox-clipped Voronoi cells with NO driver-size
    cap — the distributed counterpart of ``voronoi(clip='bounding_box')``
    (reference semantics graph/_triangulation.py:345-428, cg/voronoi.py;
    the reference itself is in-memory scipy).

    Physical plan: ``_delaunay_distributed_xy`` (one tile shuffle plus
    the escalation verify) yields every directed exact Delaunay edge
    with both endpoint coordinates; ONE further hash shuffle groups
    edges by focal. A focal's group is its complete global Delaunay
    star, so the ≤2 flanking triangles of each incident edge are formed
    with its consecutive angular neighbors — a consecutive pair is a
    triangle iff its angular gap is < π (the single ≥ π gap is the hull
    opening). In bisector coordinates t (origin at the edge midpoint,
    direction u ⟂ ij — the interval-verify convention), the dual
    Voronoi edge of (i, j) is [lo, hi] with lo/hi the flanking
    circumcenter parameters; a hull edge is a ray, unbounded on the
    side away from its single third vertex by the a = 2·u·(i−k) sign
    rule. The edge is kept iff that interval overlaps the global-bbox
    parameter window with positive length — the driver path's
    Liang-Barsky decision in interval form. Both directions of an edge
    compute mirrored intervals, so the decision is symmetric and each
    direction emits itself; no dedup pass is needed.
    """
    edges_xy, id_ds, bbox = _delaunay_distributed_xy(
        points, id_col, x_col, y_col, r0, max_escalated, prekill_blockers
    )
    minx, maxx, miny, maxy = bbox

    def _star(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return E.empty_edges()
        f = t.column("focal").to_numpy(zero_copy_only=False)
        nb = t.column("neighbor").to_numpy(zero_copy_only=False)
        fx = t.column("fx").to_numpy(zero_copy_only=False)
        fy = t.column("fy").to_numpy(zero_copy_only=False)
        nx = t.column("nx").to_numpy(zero_copy_only=False)
        ny = t.column("ny").to_numpy(zero_copy_only=False)
        theta = np.arctan2(ny - fy, nx - fx)
        order = np.lexsort((theta, f))
        f, nb, fx, fy, nx, ny, theta = (
            a[order] for a in (f, nb, fx, fy, nx, ny, theta)
        )
        m = len(f)
        new = np.empty(m, dtype=bool)
        new[0] = True
        new[1:] = f[1:] != f[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], m)
        idx = np.arange(m)
        nxt = idx + 1
        nxt[ends - 1] = starts
        prv = np.empty(m, dtype=np.int64)
        prv[nxt] = idx
        gap = theta[nxt] - theta
        gap[gap <= 0] += 2.0 * np.pi  # degree-1 focal: 0 → 2π → no tri
        has_tri = gap < np.pi
        # circumcenter of (i, n_k, n_{k+1}) — flanks edges k and nxt[k]
        ccx, ccy = _cc_xy(fx, fy, nx, ny, nx[nxt], ny[nxt])
        d = np.hypot(nx - fx, ny - fy)
        mx = (fx + nx) / 2.0
        my = (fy + ny) / 2.0
        pux = (ny - fy) / d
        puy = (fx - nx) / d
        lo = np.full(m, -np.inf)
        hi = np.full(m, np.inf)
        for tri_idx, tx, ty in (
            (idx, nx[nxt], ny[nxt]),  # triangle with the NEXT neighbor
            (prv, nx[prv], ny[prv]),  # triangle with the PREV neighbor
        ):
            ok = has_tri[tri_idx]
            tcc = (ccx[tri_idx] - mx) * pux + (ccy[tri_idx] - my) * puy
            a = (fx - tx) * pux + (fy - ty) * puy
            lo = np.where(ok & (a > 0), np.maximum(lo, tcc), lo)
            hi = np.where(ok & (a < 0), np.minimum(hi, tcc), hi)
        # global-bbox parameter window (the voronoi oracle's arithmetic)
        tb0 = np.full(m, -np.inf)
        tb1 = np.full(m, np.inf)
        okv = np.ones(m, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for pu, c0, c1 in (
                (pux, minx - mx, maxx - mx),
                (puy, miny - my, maxy - my),
            ):
                para = pu == 0
                okv &= ~(para & ((c0 > 0) | (c1 < 0)))
                q0 = c0 / pu
                q1 = c1 / pu
                lo_b = np.where(pu > 0, q0, q1)
                hi_b = np.where(pu > 0, q1, q0)
                tb0 = np.where(~para, np.maximum(tb0, lo_b), tb0)
                tb1 = np.where(~para, np.minimum(tb1, hi_b), tb1)
        keep = okv & (np.maximum(lo, tb0) < np.minimum(hi, tb1))
        return E.edge_table(f[keep], nb[keep], 1.0)

    kept = J.grouped_by_key(edges_xy, ["focal"], _star)
    return RayGraph(kept, ids=id_ds)


def _verify_pairs_global(
    pruned: ray.data.Dataset,
    id_col: str,
    x_col: str,
    y_col: str,
    xi, yi, xj, yj, idi, idj,
):
    """Exact global constraint interval per candidate pair: one scan of
    all points (pairs broadcast once via ray.put) emitting per-block
    partial (max lower, min upper, any dead) rows, reduced by one tiny
    grouped aggregate. Returns (lo, hi, dead) arrays in pair order."""
    P = len(xi)
    d = np.sqrt((xi - xj) ** 2 + (yi - yj) ** 2)
    mx, my = (xi + xj) / 2.0, (yi + yj) / 2.0
    ux, uy = (yj - yi) / d, (xi - xj) / d
    i2 = xi * xi + yi * yi
    ref = ray.put((xi, yi, idi, idj, mx, my, ux, uy, i2))

    def _part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"pidx": pa.array([], pa.int64()),
                 "lo": pa.array([], pa.float64()),
                 "hi": pa.array([], pa.float64()),
                 "dead": pa.array([], pa.int8())}
            )
        pxi, pyi, pidi, pidj, pmx, pmy, pux, puy, pi2 = ray.get(ref)
        kx = t.column(x_col).to_numpy(zero_copy_only=False)
        ky = t.column(y_col).to_numpy(zero_copy_only=False)
        kid = t.column(id_col).to_numpy(zero_copy_only=False)
        k2 = kx * kx + ky * ky
        lo = np.full(P, -np.inf)
        hi = np.full(P, np.inf)
        dead = np.zeros(P, dtype=bool)
        # 64-pair x 16k-witness chunks keep every temporary ~8 MB
        # (L3-resident); in-place ops halve the allocation traffic —
        # measured 2.6x over the naive where()-chain at 2M witnesses
        for s in range(0, P, 64):
            sl = slice(s, s + min(64, P - s))
            for ks in range(0, len(kx), 16384):
                kl = slice(ks, ks + min(16384, len(kx) - ks))
                dxk = pxi[sl, None] - kx[None, kl]
                dyk = pyi[sl, None] - ky[None, kl]
                a = pux[sl, None] * dxk
                a += puy[sl, None] * dyk
                a *= 2.0
                b = pmx[sl, None] * dxk
                b += pmy[sl, None] * dyk
                b *= -2.0
                b += pi2[sl, None]
                b -= k2[None, kl]
                sm = kid[None, kl] == pidi[sl, None]
                sm |= kid[None, kl] == pidj[sl, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    q = b / a
                pos = a > 0
                pos &= ~sm
                neg = a < 0
                neg &= ~sm
                zer = a == 0
                zer &= b > 0
                zer &= ~sm
                np.maximum(
                    lo[sl], np.where(pos, q, -np.inf).max(axis=1),
                    out=lo[sl],
                )
                np.minimum(
                    hi[sl], np.where(neg, q, np.inf).min(axis=1),
                    out=hi[sl],
                )
                dead[sl] |= zer.any(axis=1)
        return pa.table(
            {
                "pidx": pa.array(np.arange(P, dtype=np.int64)),
                "lo": pa.array(lo),
                "hi": pa.array(hi),
                "dead": pa.array(dead.astype(np.int8)),
            }
        )

    # bounded witness batches (a 2M-row block would otherwise build
    # pair-chunk × block matrices in the tens of GB), spread over blocks
    # so single-block inputs still parallelize
    nblk = max(16, 4 * int(ray.cluster_resources().get("CPU", 8)))
    parts = pruned.repartition(nblk).map_batches(
        _part, batch_format="pyarrow", batch_size=65536
    )
    red = J.grouped_agg(
        parts, ("pidx",), ("lo", "hi", "dead"), ("max", "min", "max")
    )
    lo = np.full(P, -np.inf)
    hi = np.full(P, np.inf)
    dead = np.zeros(P, dtype=bool)
    for r in red.take_all():
        p = int(r["pidx"])
        lo[p] = r["max(lo)"]
        hi[p] = r["min(hi)"]
        dead[p] = bool(r["max(dead)"])
    return lo, hi, dead


def _alpha_boundary(tris_real: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Boundary edges (appear in exactly one kept triangle) as (E, 2)."""
    kt = tris_real[keep]
    if len(kt) == 0:
        return np.empty((0, 2), dtype=np.int64)
    ed = kt[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    ed.sort(axis=1)
    uniq, counts = np.unique(ed, axis=0, return_counts=True)
    return uniq[counts == 1]


def _complex_connected(tris_kept: np.ndarray) -> bool:
    """True iff kept triangles form one edge-connected component."""
    if len(tris_kept) == 0:
        return False
    ed = tris_kept[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    ed.sort(axis=1)
    nodes, inv = np.unique(ed, return_inverse=True)
    inv = inv.reshape(-1, 2)
    lab = np.arange(len(nodes))
    while True:
        new = lab.copy()
        np.minimum.at(new, inv[:, 0], lab[inv[:, 1]])
        np.minimum.at(new, inv[:, 1], lab[inv[:, 0]])
        new = new[new]
        if (new == lab).all():
            break
        lab = new
    return len(np.unique(lab)) == 1


def alpha_shape_edges(
    points: ray.data.Dataset,
    alpha: float | None = None,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    max_points: int = 2_000_000,
) -> tuple[np.ndarray, float]:
    """Alpha-shape boundary edges (cg/alpha_shapes.py:385-580 semantics,
    Edelsbrunner-Kirkpatrick-Seidel 1983): keep Delaunay triangles with
    circumradius ≤ 1/alpha; the shape boundary is the edges flanked by
    exactly one kept triangle.

    ``alpha=None`` → auto (``alpha_shape_auto``): the smallest radius at
    which every point is covered by a kept triangle AND the kept complex
    is one connected piece — both predicates are monotone in the radius,
    so the search is a binary search over the sorted circumradii instead
    of the reference's linear scan. Returns (boundary id pairs (E, 2),
    chosen radius)."""
    ids, _, _, rt, radii, r, _ = _alpha_complex(
        points, alpha, id_col, x_col, y_col, max_points
    )
    ed = _alpha_boundary(rt, radii <= r)
    return ids[ed.ravel()].reshape(-1, 2), r


def _alpha_complex(
    points: ray.data.Dataset,
    alpha: float | None,
    id_col: str,
    x_col: str,
    y_col: str,
    max_points: int,
):
    """Shared alpha-complex machinery: real Delaunay triangles, their
    circumradii, and the chosen radius (1/alpha, or the auto binary
    search over sorted radii). Returns (ids, x, y, rt, radii, r, n)."""
    ids, x, y = _collect_points(points, id_col, x_col, y_col, max_points)
    n = len(ids)
    _check_unique(x, y)
    tris = bowyer_watson(x, y)
    real = (tris < n).all(axis=1)
    rt = tris[real]
    minx, maxx = float(x.min()), float(x.max())
    miny, maxy = float(y.min()), float(y.max())
    span = max(maxx - minx, maxy - miny, 1.0)
    cx, cy = (minx + maxx) / 2.0, (miny + maxy) / 2.0
    D = 30.0 * span
    Xe = np.concatenate([x, [cx - 1.5 * D, cx + 1.5 * D, cx]])
    Ye = np.concatenate([y, [cy - D, cy - D, cy + 1.5 * D]])
    _, _, r2 = _circumcircles(Xe, Ye, rt)
    radii = np.sqrt(r2)

    if alpha is not None:
        return ids, x, y, rt, radii, 1.0 / alpha, n

    order = np.unique(radii)

    def ok(r: float) -> bool:
        keep = radii <= r
        kt = rt[keep]
        if len(kt) == 0:
            return False
        covered = np.zeros(n, dtype=bool)
        covered[np.unique(kt)] = True
        return covered.all() and _complex_connected(kt)

    lo, hi = 0, len(order) - 1
    if not ok(order[hi]):
        return ids, x, y, rt, radii, float(order[hi]), n
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(order[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ids, x, y, rt, radii, float(order[lo]), n


def _oriented_boundary(
    rt: np.ndarray, keep: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Boundary edges of the kept complex, each DIRECTED so the kept
    triangle lies on its LEFT (exterior rings come out CCW, holes CW)."""
    kt = rt[keep]
    if len(kt) == 0:
        return np.empty((0, 2), dtype=np.int64)
    ed = kt[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    opp = kt[:, [2, 0, 1]].reshape(-1)
    key = np.sort(ed, axis=1)
    _, inv, counts = np.unique(
        key, axis=0, return_inverse=True, return_counts=True
    )
    bmask = counts[inv] == 1
    e, o = ed[bmask].copy(), opp[bmask]
    ax, ay = x[e[:, 0]], y[e[:, 0]]
    cr = (x[e[:, 1]] - ax) * (y[o] - ay) - (y[e[:, 1]] - ay) * (x[o] - ax)
    sw = cr < 0
    e[sw] = e[sw][:, ::-1]
    return e


def _assemble_rings(
    e: np.ndarray, x: np.ndarray, y: np.ndarray
) -> list[np.ndarray]:
    """Closed vertex loops from interior-left directed boundary edges.
    At pinch vertices (>1 outgoing edge) the walk takes the first
    outgoing edge clockwise from the reversed incoming direction — the
    standard left-face traversal — so each ring bounds one face."""
    from collections import defaultdict

    out: dict[int, list[int]] = defaultdict(list)
    for a, b in e:
        out[int(a)].append(int(b))

    def succ(a: int, b: int) -> tuple[int, int]:
        cands = out[b]
        if len(cands) == 1:
            return b, cands[0]
        # first outgoing edge clockwise from the reversed incoming edge
        tin = np.arctan2(y[a] - y[b], x[a] - x[b])
        ang = np.array(
            [np.arctan2(y[c] - y[b], x[c] - x[b]) for c in cands]
        )
        delta = np.mod(tin - ang, 2.0 * np.pi)
        delta[delta == 0.0] = 2.0 * np.pi
        return b, cands[int(np.argmin(delta))]

    used: set[tuple[int, int]] = set()
    rings: list[np.ndarray] = []
    for a0, b0 in e:
        a0, b0 = int(a0), int(b0)
        if (a0, b0) in used:
            continue
        ring: list[int] = []
        a, b = a0, b0
        while True:
            used.add((a, b))
            ring.append(a)
            a, b = succ(a, b)
            if (a, b) == (a0, b0):
                break
            if (a, b) in used:  # malformed input; never a valid complex
                ring = []
                break
        if len(ring) >= 3:
            rings.append(np.asarray(ring, dtype=np.int64))
    return rings


def alpha_shape_polygons(
    points: ray.data.Dataset,
    alpha: float | None = None,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    max_points: int = 2_000_000,
) -> tuple[ray.data.Dataset, float]:
    """Alpha-shape RING polygons (the reference's shapely polygon output,
    cg/alpha_shapes.py:385-580): boundary edges oriented interior-left
    and walked into closed rings. Returns (Dataset, radius) with one row
    per ring vertex: (ring_id, seq, point_id, x, y, is_hole) — exterior
    rings CCW (is_hole=False), holes CW (is_hole=True), seq the walk
    order. Downstream polygon consumers (contiguity, overlay, PIP) read
    this schema after a groupby(ring_id) list-collect."""
    ids, x, y, rt, radii, r, _ = _alpha_complex(
        points, alpha, id_col, x_col, y_col, max_points
    )
    e = _oriented_boundary(rt, radii <= r, x, y)
    rings = _assemble_rings(e, x, y)
    rid_out, seq_out, pid_out, x_out, y_out, hole_out = (
        [], [], [], [], [], [],
    )
    for rid, ring in enumerate(rings):
        rx, ry = x[ring], y[ring]
        a2 = float(
            np.sum(rx * np.roll(ry, -1) - np.roll(rx, -1) * ry)
        )
        k = len(ring)
        rid_out.append(np.full(k, rid, dtype=np.int64))
        seq_out.append(np.arange(k, dtype=np.int64))
        pid_out.append(ids[ring])
        x_out.append(rx)
        y_out.append(ry)
        hole_out.append(np.full(k, a2 < 0.0, dtype=bool))
    if not rings:
        tbl = pa.table(
            {
                "ring_id": pa.array([], pa.int64()),
                "seq": pa.array([], pa.int64()),
                "point_id": pa.array([], pa.int64()),
                "x": pa.array([], pa.float64()),
                "y": pa.array([], pa.float64()),
                "is_hole": pa.array([], pa.bool_()),
            }
        )
    else:
        tbl = pa.table(
            {
                "ring_id": pa.array(np.concatenate(rid_out)),
                "seq": pa.array(np.concatenate(seq_out)),
                "point_id": pa.array(np.concatenate(pid_out)),
                "x": pa.array(np.concatenate(x_out)),
                "y": pa.array(np.concatenate(y_out)),
                "is_hole": pa.array(np.concatenate(hole_out)),
            }
        )
    return ray.data.from_arrow(tbl), r
