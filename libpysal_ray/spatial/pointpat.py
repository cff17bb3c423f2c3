"""Point-pattern statistics: Ripley's K pair counts, quadrat counts,
nearest-neighbor pairs, and the Knox space-time interaction statistic.

The reference stack computes these downstream of libpysal's geometry
and KD-tree layer (/root/reference/libpysal/cg/kdtree.py,
cg/locators.py); at 100 TB there is no global tree, so every statistic
here rides the ONE tile-shuffle plan of `builders.distance`
(tile_points home+ghost emission → groupby(tile) → per-tile vectorized
pair kernels) and reduces to per-tile integer COUNT partials — pairs
are never materialized, so the shuffle moves O(n·fanout) point rows
and the post-tile aggregate moves O(#tiles · #bins) count rows only.

Exactness: coordinates and times are integer-valued doubles (< 2^53),
so squared distances and time deltas are exact; every count is an
exact int64 reduction and every headline float is ONE pinned IEEE
expression mirrored verbatim by the SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

from libpysal_ray.builders.distance import _CHUNK, tile_points
from libpysal_ray.core import joins as J

__all__ = ["ripley_k", "cross_k", "quadrat_counts", "nn_pairs", "knox",
           "variogram", "colocation", "sd_ellipse", "nearest_join",
           "centrography"]


def ripley_k(
    points: ray.data.Dataset,
    radii: list[float],
    area: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Ripley's K function at the given radii (ascending): the ordered
    pair count cnt(r) = #{(i,j): i≠j, d_ij ≤ r} and the unadjusted
    estimator K̂(r) = area · cnt(r) / (n·(n−1)).

    One tile shuffle at cs = halo = max(r); each tile emits ONE row of
    cumulative per-radius counts via a sorted-d² searchsorted (all
    radii in one pass), so the post-shuffle aggregate sums
    #tiles × #radii int64 partials. Output (r, pair_count, k_f) rows.
    """
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("ripley_k needs positive radii")
    rmax = radii[-1]
    r2 = np.array([r * r for r in radii], dtype=np.float64)
    n = int(points.count())
    if n < 2:
        raise ValueError("ripley_k needs n >= 2 points")
    tiled = tile_points(points, cs=rmax, halo=rmax,
                        id_col=id_col, x_col=x_col, y_col=y_col)

    def _counts(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core)
        acc = np.zeros(len(r2), dtype=np.int64)
        for s in range(0, len(ci), _CHUNK):
            sel = ci[s : s + _CHUNK]
            dx = x[sel, None] - x[None, :]
            dy = y[sel, None] - y[None, :]
            d2 = dx * dx + dy * dy
            d2 = d2[(d2 <= r2[-1]) & (i[sel, None] != i[None, :])]
            d2.sort()
            acc += np.searchsorted(d2, r2, side="right")
        return pa.table({
            "ridx": pa.array(np.arange(len(r2), dtype=np.int64)),
            "cnt": pa.array(acc),
        })

    sums = (
        J.per_group(tiled, ("tile",), _counts)
        .groupby("ridx")
        .aggregate(Sum("cnt"))
        .take_all()
    )
    cnt = np.zeros(len(r2), dtype=np.int64)
    for row in sums:
        cnt[int(row["ridx"])] = int(row["sum(cnt)"])
    return ray.data.from_arrow(pa.table({
        "r": pa.array(radii, pa.float64()),
        "pair_count": pa.array(cnt),
        "k_f": pa.array(
            [area * float(c) / float(n * (n - 1)) for c in cnt],
            pa.float64(),
        ),
    }))


def quadrat_counts(
    points: ray.data.Dataset,
    cell: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Quadrat counts: points binned into a cell×cell grid, one
    (cell_r, cell_c, cnt) row per OCCUPIED cell. One stateless binning
    pass + one groupby — the quadrat test's Σ(c−E)² terms are derived
    from these counts downstream."""

    def _cells(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "cell_r": pa.array(np.floor(y / cell).astype(np.int64)),
            "cell_c": pa.array(np.floor(x / cell).astype(np.int64)),
        })

    return (
        points.map_batches(_cells, batch_format="pyarrow")
        .groupby(["cell_r", "cell_c"])
        .count()
        .map_batches(
            lambda t: pa.table({
                "cell_r": t.column("cell_r"),
                "cell_c": t.column("cell_c"),
                "cnt": t.column("count()"),
            }),
            batch_format="pyarrow",
        )
    )


def nn_pairs(
    points: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Each point's nearest non-self neighbor, ties broken by
    (distance, neighbor id): rows (focal, neighbor, d2) with the EXACT
    integer squared distance (re-derived from the coordinates, not the
    float distance). Rides the KNN tile plan (k=1) then attaches both
    endpoints' coordinates via one bucket_join per side."""
    from libpysal_ray.builders.distance import knn_edges_with_dist
    from libpysal_ray.core.joins import bucket_join

    nn = knn_edges_with_dist(
        points, k=1, id_col=id_col, x_col=x_col, y_col=y_col
    ).map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    pts = points.map_batches(
        lambda t: pa.table({
            "node": t.column(id_col),
            "px": t.column(x_col),
            "py": t.column(y_col),
        }),
        batch_format="pyarrow",
    ).materialize()
    lhs = bucket_join(
        nn,
        pts.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"),
                "xf": t.column("px"), "yf": t.column("py"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    )
    both = bucket_join(
        lhs,
        pts.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"),
                "xn": t.column("px"), "yn": t.column("py"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _d2(t: pa.Table) -> pa.Table:
        dx = (t.column("xf").to_numpy(zero_copy_only=False)
              - t.column("xn").to_numpy(zero_copy_only=False))
        dy = (t.column("yf").to_numpy(zero_copy_only=False)
              - t.column("yn").to_numpy(zero_copy_only=False))
        return pa.table({
            "focal": t.column("focal"),
            "neighbor": t.column("neighbor"),
            "d2": pa.array((dx * dx + dy * dy).astype(np.int64)),
        })

    return both.map_batches(_d2, batch_format="pyarrow")


def knox(
    points: ray.data.Dataset,
    delta: float,
    tau: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    t_col: str = "t",
) -> ray.data.Dataset:
    """Knox space-time interaction statistic: over all ordered pairs
    (i, j), i≠j,

        pairs_space = #{d_ij ≤ δ}          pairs_time = #{|t_i−t_j| ≤ τ}
        pairs_both  = #{d_ij ≤ δ AND |t_i−t_j| ≤ τ}   (the Knox count)

    plus the independence expectation
    E = pairs_space·pairs_time / (n·(n−1)) in ordered-pair units.

    Two independent tile shuffles, both reducing to per-tile int64
    COUNT partials (never pair rows): a 2-D spatial tiling at
    cs = halo = δ carrying t as an extra column (space and space∧time
    counted in the same kernel pass), and a 1-D temporal tiling at
    cs = halo = τ. Output is ONE row."""
    n = int(points.count())
    if n < 2:
        raise ValueError("knox needs n >= 2 points")
    d2max = delta * delta

    tiled = tile_points(points, cs=delta, halo=delta, id_col=id_col,
                        x_col=x_col, y_col=y_col, extra_cols=(t_col,))

    def _space(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        tt = t.column(t_col).to_numpy(zero_copy_only=False)
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core)
        s_cnt = 0
        b_cnt = 0
        for s in range(0, len(ci), _CHUNK):
            sel = ci[s : s + _CHUNK]
            dx = x[sel, None] - x[None, :]
            dy = y[sel, None] - y[None, :]
            near = (dx * dx + dy * dy <= d2max) & (
                i[sel, None] != i[None, :]
            )
            s_cnt += int(near.sum())
            dt = np.abs(tt[sel, None] - tt[None, :])
            b_cnt += int((near & (dt <= tau)).sum())
        return pa.table({
            "s": pa.array([s_cnt], pa.int64()),
            "b": pa.array([b_cnt], pa.int64()),
        })

    sp = J.per_group(tiled, ("tile",), _space).aggregate(
        Sum("s"), Sum("b")
    )
    pairs_space = int(sp["sum(s)"] or 0)
    pairs_both = int(sp["sum(b)"] or 0)

    # 1-D temporal tiling: home cell floor(t/2τ) plus ghosts to the
    # adjacent cell when within τ of a boundary (same home+ghost
    # contract as tile_points, one dimension; cell = 2τ keeps the
    # ghost fanout ≤ 1 per point instead of always-2 at cell = τ).
    tcs = 2.0 * tau

    def _temit(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        tv = t.column(t_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        tc = np.floor(tv / tcs).astype(np.int64)
        lo = tv - tc * tcs
        hi = (tc + 1) * tcs - tv
        ml, mh = lo <= tau, hi <= tau
        return pa.table({
            "tile": pa.array(np.concatenate([tc, tc[ml] - 1, tc[mh] + 1])),
            "id": pa.array(np.concatenate([ids, ids[ml], ids[mh]])),
            "t": pa.array(np.concatenate([tv, tv[ml], tv[mh]])),
            "core": pa.array(np.concatenate([
                np.ones(len(ids), dtype=np.bool_),
                np.zeros(int(ml.sum()), dtype=np.bool_),
                np.zeros(int(mh.sum()), dtype=np.bool_),
            ])),
        })

    ttiled = points.map_batches(_temit, batch_format="pyarrow")

    def _time(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        tv = t.column("t").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(
            t.column("core").to_numpy(zero_copy_only=False)
        )
        cnt = 0
        for s in range(0, len(ci), _CHUNK):
            sel = ci[s : s + _CHUNK]
            dt = np.abs(tv[sel, None] - tv[None, :])
            cnt += int(((dt <= tau) & (i[sel, None] != i[None, :])).sum())
        return pa.table({"c": pa.array([cnt], pa.int64())})

    pairs_time = int(
        J.per_group(ttiled, ("tile",), _time).sum("c") or 0
    )
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "pairs_space": pa.array([pairs_space], pa.int64()),
        "pairs_time": pa.array([pairs_time], pa.int64()),
        "pairs_both": pa.array([pairs_both], pa.int64()),
        "expected_f": pa.array(
            [float(pairs_space) * float(pairs_time)
             / float(n * (n - 1))],
            pa.float64(),
        ),
    }))


def variogram(
    points: ray.data.Dataset,
    radii: list[float],
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    v_col: str = "v",
) -> ray.data.Dataset:
    """Empirical semivariogram over integer-valued marks: for each
    distance annulus h_k = (r_{k-1}, r_k] (r_0 = 0, self-pairs
    excluded),

        γ(h_k) = Σ_{pairs in h_k} (v_i − v_j)²  /  (2 · N(h_k))

    with ordered pair counts. Output one row per annulus
    (bin, r_lo, r_hi, pair_count, sq_sum, gamma_f): the squared-
    difference sum is EXACT (unbounded, decimal string) and gamma_f is
    one pinned float division.

    100 TB shape: the ONE tile shuffle at cs = halo = max(r) carrying
    the mark as an extra column; each tile reduces to ≤ #bins rows of
    (int64 count, decimal-string sum) partials via per-annulus masked
    limb-exact sums; a per-batch combiner then folds tile rows so the
    driver merges O(#blocks · #bins) rows, never O(#tiles)."""
    from libpysal_ray.spatial.stats import _prod_sum_exact

    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("variogram needs positive radii")
    rmax = radii[-1]
    r2 = np.array([r * r for r in radii], dtype=np.float64)
    tiled = tile_points(points, cs=rmax, halo=rmax, id_col=id_col,
                        x_col=x_col, y_col=y_col, extra_cols=(v_col,))
    nb = len(r2)

    def _parts(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        v = t.column(v_col).to_numpy(zero_copy_only=False).astype(np.int64)
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core)
        cnt = np.zeros(nb, dtype=np.int64)
        sq = [0] * nb
        for s in range(0, len(ci), _CHUNK):
            sel = ci[s : s + _CHUNK]
            dx = x[sel, None] - x[None, :]
            dy = y[sel, None] - y[None, :]
            d2 = dx * dx + dy * dy
            keep = (d2 <= r2[-1]) & (i[sel, None] != i[None, :])
            if not keep.any():
                continue
            b = np.searchsorted(r2, d2[keep], side="left")
            dv = (v[sel, None] - v[None, :])[keep]
            for k in range(nb):
                m = b == k
                if m.any():
                    cnt[k] += int(m.sum())
                    sq[k] += _prod_sum_exact(dv[m], dv[m])
        return pa.table({
            "bin": pa.array(np.arange(nb, dtype=np.int64)),
            "cnt": pa.array(cnt),
            "sq": pa.array([str(q) for q in sq], pa.string()),
        })

    def _combine(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy(zero_copy_only=False)
        c = t.column("cnt").to_numpy(zero_copy_only=False)
        q = t.column("sq").to_pylist()
        cnt = np.zeros(nb, dtype=np.int64)
        sq = [0] * nb
        for bi, ci_, qi in zip(b, c, q):
            cnt[bi] += ci_
            sq[bi] += int(qi)
        return pa.table({
            "bin": pa.array(np.arange(nb, dtype=np.int64)),
            "cnt": pa.array(cnt),
            "sq": pa.array([str(x_) for x_ in sq], pa.string()),
        })

    parts = (
        J.per_group(tiled, ("tile",), _parts)
        .map_batches(_combine, batch_format="pyarrow")
        .take_all()
    )
    cnt = np.zeros(nb, dtype=np.int64)
    sq = [0] * nb
    for row in parts:
        cnt[int(row["bin"])] += int(row["cnt"])
        sq[int(row["bin"])] += int(row["sq"])
    lo = [0.0] + radii[:-1]
    return ray.data.from_arrow(pa.table({
        "bin": pa.array(np.arange(nb, dtype=np.int64)),
        "r_lo": pa.array(lo, pa.float64()),
        "r_hi": pa.array(radii, pa.float64()),
        "pair_count": pa.array(cnt),
        "sq_sum": pa.array([str(q) for q in sq], pa.string()),
        "gamma_f": pa.array(
            [float(q) / float(2 * c) if c else 0.0
             for q, c in zip(sq, cnt)],
            pa.float64(),
        ),
    }))


def cross_k(
    points_a: ray.data.Dataset,
    points_b: ray.data.Dataset,
    radii: list[float],
    area: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Bivariate (cross) Ripley's K: for each radius, the pair count
    cnt(r) = #{(i∈A, j∈B): d_ij ≤ r} (coincident points count — the
    standard cross-K has no self-exclusion across sets) and
    K̂_ab(r) = area · cnt(r) / (n_a · n_b).

    Same ONE tile shuffle as :func:`ripley_k`, over the tagged union of
    both sets (mark carried as an extra tile column): each tile counts
    core-A × all-B via the cumulative searchsorted, so nothing beyond
    count partials moves after the shuffle."""
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("cross_k needs positive radii")
    rmax = radii[-1]
    r2 = np.array([r * r for r in radii], dtype=np.float64)
    na, nb_ = int(points_a.count()), int(points_b.count())
    if na == 0 or nb_ == 0:
        raise ValueError("cross_k needs nonempty point sets")

    def _tag(mark):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table({
                "id": t.column(id_col),
                "x": t.column(x_col),
                "y": t.column(y_col),
                "mark": pa.array(
                    np.full(t.num_rows, mark, dtype=np.int64)),
            })
        return _f

    both = points_a.map_batches(
        _tag(1), batch_format="pyarrow"
    ).union(points_b.map_batches(_tag(2), batch_format="pyarrow"))
    tiled = tile_points(both, cs=rmax, halo=rmax,
                        extra_cols=("mark",))

    def _counts(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        mark = t.column("mark").to_numpy(zero_copy_only=False)
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core & (mark == 1))
        bj = np.flatnonzero(mark == 2)
        acc = np.zeros(len(r2), dtype=np.int64)
        if len(bj):
            xb, yb = x[bj], y[bj]
            for s in range(0, len(ci), _CHUNK):
                sel = ci[s : s + _CHUNK]
                dx = x[sel, None] - xb[None, :]
                dy = y[sel, None] - yb[None, :]
                d2 = dx * dx + dy * dy
                d2 = d2[d2 <= r2[-1]]
                d2.sort()
                acc += np.searchsorted(d2, r2, side="right")
        return pa.table({
            "ridx": pa.array(np.arange(len(r2), dtype=np.int64)),
            "cnt": pa.array(acc),
        })

    sums = (
        J.per_group(tiled, ("tile",), _counts)
        .groupby("ridx")
        .aggregate(Sum("cnt"))
        .take_all()
    )
    cnt = np.zeros(len(r2), dtype=np.int64)
    for row in sums:
        cnt[int(row["ridx"])] = int(row["sum(cnt)"])
    return ray.data.from_arrow(pa.table({
        "r": pa.array(radii, pa.float64()),
        "pair_count": pa.array(cnt),
        "k_f": pa.array(
            [area * float(c) / float(na * nb_) for c in cnt],
            pa.float64(),
        ),
    }))


def centrography(
    points: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Centrography of a point set (the cg-layer mean center /
    standard distance): one row

        (n, sum_x, sum_y, mean_x_f, mean_y_f, sd2_num, sd2_f)

    with the standard-distance² numerator EXACT:
    sd² = Σ((x−x̄)² + (y−ȳ)²)/n = (n·Σ(x²+y²) − (Σx)² − (Σy)²) / n²,
    carried as a decimal string (unbounded), and the two means + sd²
    as pinned float divisions. ONE stateless pass of per-batch exact
    integer partials — no shuffle at all."""
    from libpysal_ray.spatial.stats import _prod_sum_exact, _sum_i64

    def _part(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "n": pa.array([np.int64(len(x))]),
            "sx": pa.array([str(_sum_i64(x))]),
            "sy": pa.array([str(_sum_i64(y))]),
            "ss": pa.array([str(_prod_sum_exact(x, x)
                                + _prod_sum_exact(y, y))]),
        })

    parts = points.map_batches(_part, batch_format="pyarrow").take_all()
    n = sum(int(r["n"]) for r in parts)
    if n == 0:
        raise ValueError("centrography needs n > 0 points")
    sx = sum(int(r["sx"]) for r in parts)
    sy = sum(int(r["sy"]) for r in parts)
    ss = sum(int(r["ss"]) for r in parts)
    num = n * ss - sx * sx - sy * sy
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "sum_x": pa.array([str(sx)], pa.string()),
        "sum_y": pa.array([str(sy)], pa.string()),
        "mean_x_f": pa.array([float(sx) / float(n)], pa.float64()),
        "mean_y_f": pa.array([float(sy) / float(n)], pa.float64()),
        "sd2_num": pa.array([str(num)], pa.string()),
        "sd2_f": pa.array([float(num) / float(n * n)], pa.float64()),
    }))


def colocation(
    points: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    cat_col: str = "cat",
) -> ray.data.Dataset:
    """Colocation quotient (Leslie & Kronenfeld 2011): for each ordered
    category pair (a, b),

        CLQ_{a→b} = (C_{a→b} / N_a) / (N_b' / (N − 1))

    where C_{a→b} = # category-a points whose nearest non-self neighbor
    (ties pinned to (distance, neighbor id)) is category b, and
    N_b' = N_b − [a = b] (a point cannot be its own neighbor). Output
    one row per observed (cat_a, cat_b): (cat_a, cat_b, cnt, n_a, n_b,
    clq_f), counts exact, CLQ one pinned float chain.

    100 TB shape: :func:`nn_pairs` (the KNN tile plan) + one
    bucket_join per endpoint to attach categories + a ≤K² groupby; the
    category totals are one tiny groupby broadcast to the final rows.
    """
    from libpysal_ray.core.joins import bucket_join

    cats = points.map_batches(
        lambda t: pa.table({
            "node": t.column(id_col), "cat": t.column(cat_col),
        }),
        batch_format="pyarrow",
    ).materialize()
    totals = {
        r["cat"]: int(r["count()"])
        for r in cats.groupby("cat").count().take_all()
    }
    n = sum(totals.values())
    nn = nn_pairs(points, id_col=id_col, x_col=x_col, y_col=y_col)
    lhs = bucket_join(
        nn.map_batches(
            lambda t: t.select(["focal", "neighbor"]),
            batch_format="pyarrow",
        ),
        cats.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "cat_a": t.column("cat"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "cat_a"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        cats.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "cat_b": t.column("cat"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )
    counts = (
        both.groupby(["cat_a", "cat_b"])
        .count()
        .rename_columns({"count()": "cnt"})
    )

    def _clq(t: pa.Table) -> pa.Table:
        ca = t.column("cat_a").to_pylist()
        cb = t.column("cat_b").to_pylist()
        cnt = t.column("cnt").to_numpy(zero_copy_only=False)
        na = np.array([totals[c] for c in ca], dtype=np.int64)
        nb = np.array(
            [totals[b] - (1 if a == b else 0) for a, b in zip(ca, cb)],
            dtype=np.int64,
        )
        clq = (
            cnt.astype(np.float64) / na.astype(np.float64)
            / (nb.astype(np.float64) / np.float64(n - 1))
        )
        return pa.table({
            "cat_a": t.column("cat_a"), "cat_b": t.column("cat_b"),
            "cnt": pa.array(cnt), "n_a": pa.array(na),
            "n_b": pa.array(nb), "clq_f": pa.array(clq),
        })

    return counts.map_batches(_clq, batch_format="pyarrow")


def sd_ellipse(
    points: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Standard deviational ellipse ingredients (centrography's second
    moment): EXACT n²-scaled central covariance numerators

        sxx = n·Σx² − (Σx)²   syy = n·Σy² − (Σy)²   sxy = n·Σxy − Σx·Σy

    as decimal strings plus the pinned orientation figure
    tan2theta_f = 2·sxy / (sxx − syy) (one float chain; the ellipse
    angle/axes follow driver-side from these three scalars). ONE
    stateless pass of per-batch exact partials, no shuffle."""
    from libpysal_ray.spatial.stats import _prod_sum_exact, _sum_i64

    def _part(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "n": pa.array([np.int64(len(x))]),
            "sx": pa.array([str(_sum_i64(x))]),
            "sy": pa.array([str(_sum_i64(y))]),
            "sxx": pa.array([str(_prod_sum_exact(x, x))]),
            "syy": pa.array([str(_prod_sum_exact(y, y))]),
            "sxy": pa.array([str(_prod_sum_exact(x, y))]),
        })

    parts = points.map_batches(_part, batch_format="pyarrow").take_all()
    n = sum(int(r["n"]) for r in parts)
    if n < 2:
        raise ValueError("sd_ellipse needs n >= 2 points")
    sx = sum(int(r["sx"]) for r in parts)
    sy = sum(int(r["sy"]) for r in parts)
    sxx = n * sum(int(r["sxx"]) for r in parts) - sx * sx
    syy = n * sum(int(r["syy"]) for r in parts) - sy * sy
    sxy = n * sum(int(r["sxy"]) for r in parts) - sx * sy
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "sxx": pa.array([str(sxx)], pa.string()),
        "syy": pa.array([str(syy)], pa.string()),
        "sxy": pa.array([str(sxy)], pa.string()),
        "tan2theta_f": pa.array(
            [2.0 * float(sxy) / (float(sxx) - float(syy))
             if sxx != syy else 0.0],
            pa.float64(),
        ),
    }))


def nearest_join(
    points_a: ray.data.Dataset,
    points_b: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Cross-set nearest-neighbor join (GeoPandas sjoin_nearest
    semantics): for every point in A, its single nearest point in B,
    ties pinned to (distance, b id). Coincident points join at
    distance 0 — there is no self-exclusion across sets (id spaces are
    independent). Rows (focal, neighbor, d2) with the EXACT integer
    squared distance re-derived from the coordinates.

    100 TB shape: the union of both sets with role flags rides the ONE
    guarded KNN tile shuffle (focal_col/cand_col restrict roles
    per-row — no driver-held id sets); A points whose nearest B could
    lie beyond the tile halo are finished by the standard chunked
    broadcast fallback. Coordinates then re-attach via one bucket_join
    per side for the exact d²."""
    from libpysal_ray.builders.distance import knn_edges_with_dist
    from libpysal_ray.core.joins import bucket_join

    def _tag(is_a):
        def _f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                "id": t.column(id_col),
                "x": t.column(x_col),
                "y": t.column(y_col),
                "is_q": pa.array(np.full(n, is_a, dtype=np.bool_)),
                "is_c": pa.array(np.full(n, not is_a, dtype=np.bool_)),
            })
        return _f

    both = points_a.map_batches(
        _tag(True), batch_format="pyarrow"
    ).union(points_b.map_batches(_tag(False), batch_format="pyarrow"))
    # k=0 + include_self=True → kk=1 candidate with NO id-based
    # exclusion (the cross-set contract; see knn_edges_with_dist)
    nn = knn_edges_with_dist(
        both, k=0, include_self=True,
        focal_col="is_q", cand_col="is_c",
    ).map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )

    def _coords(src, key, xo, yo):
        return src.map_batches(
            lambda t: pa.table({
                key: t.column(id_col),
                xo: t.column(x_col), yo: t.column(y_col),
            }),
            batch_format="pyarrow",
        )

    lhs = bucket_join(
        nn, _coords(points_a, "focal", "xf", "yf"), on="focal"
    )
    full = bucket_join(
        lhs, _coords(points_b, "neighbor", "xn", "yn"), on="neighbor"
    )

    def _d2(t: pa.Table) -> pa.Table:
        dx = (t.column("xf").to_numpy(zero_copy_only=False)
              - t.column("xn").to_numpy(zero_copy_only=False))
        dy = (t.column("yf").to_numpy(zero_copy_only=False)
              - t.column("yn").to_numpy(zero_copy_only=False))
        return pa.table({
            "focal": t.column("focal"),
            "neighbor": t.column("neighbor"),
            "d2": pa.array((dx * dx + dy * dy).astype(np.int64)),
        })

    return full.map_batches(_d2, batch_format="pyarrow")


def gfj_functions(
    points: ray.data.Dataset,
    radii: list[float],
    grid: float,
    anchor_step: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """The G / F / J nearest-neighbor distance functions of a point
    pattern (Ripley / van Lieshout–Baddeley; the reference ecosystem's
    pointpats distance statistics) at the given radii:

        G(d) = P(nearest-neighbor distance ≤ d)   (event-to-event)
        F(d) = P(empty-space distance ≤ d)        (anchor-to-event)
        J(d) = (1 − G(d)) / (1 − F(d))

    Exact integer counts over EXACT integer squared distances: G rides
    :func:`nn_pairs` (the guarded KNN k=1 tile plan), F rides
    :func:`nearest_join` from a deterministic ``anchor_step``-spaced
    evaluation lattice over [0, grid)² (the anchor table is O((grid/
    step)²) — an evaluation GRID, not data; generated driver-side by
    design). Output one row per radius: (r, g_cnt, f_cnt, n, m2,
    g_f, f_f, j_f) — fractions and J are single pinned float
    expressions from the exact integer cross-products (j_f = 0 when
    every anchor is within r of an event)."""
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("gfj_functions needs positive radii")
    r2 = np.array([r * r for r in radii], dtype=np.float64)
    n = int(points.count())
    if n < 2:
        raise ValueError("gfj_functions needs n >= 2 points")
    m = int(np.floor(grid / anchor_step))
    if m < 1:
        raise ValueError("anchor_step larger than the grid")
    m2 = m * m

    def _cnts(col):
        def f(t: pa.Table) -> pa.Table:
            d2 = np.sort(
                t.column(col).to_numpy(zero_copy_only=False)
                .astype(np.float64)
            )
            return pa.table({
                "ridx": pa.array(np.arange(len(r2), dtype=np.int64)),
                "cnt": pa.array(
                    np.searchsorted(d2, r2, side="right").astype(np.int64)
                ),
            })
        return f

    def _sum_cnts(ds: ray.data.Dataset) -> np.ndarray:
        rows = (
            ds.map_batches(_cnts("d2"), batch_format="pyarrow")
            .groupby("ridx")
            .sum("cnt")
            .take_all()
        )
        out = np.zeros(len(r2), dtype=np.int64)
        for r in rows:
            out[int(r["ridx"])] = int(r["sum(cnt)"])
        return out

    g_cnt = _sum_cnts(
        nn_pairs(points, id_col=id_col, x_col=x_col, y_col=y_col)
    )

    ai = np.arange(m2, dtype=np.int64)
    anchors = ray.data.from_arrow(pa.table({
        "id": pa.array(ai),
        "x": pa.array(((ai // m) * anchor_step).astype(np.float64)),
        "y": pa.array(((ai % m) * anchor_step).astype(np.float64)),
    }))
    pts_b = points.map_batches(
        lambda t: pa.table({
            "id": t.column(id_col),
            "x": t.column(x_col),
            "y": t.column(y_col),
        }),
        batch_format="pyarrow",
    )
    f_cnt = _sum_cnts(nearest_join(anchors, pts_b))

    j_f = [
        (
            float((n - int(g)) * m2) / float((m2 - int(f)) * n)
            if int(f) < m2 else 0.0
        )
        for g, f in zip(g_cnt, f_cnt)
    ]
    return ray.data.from_arrow(pa.table({
        "r": pa.array(radii, pa.float64()),
        "g_cnt": pa.array(g_cnt),
        "f_cnt": pa.array(f_cnt),
        "n": pa.array(np.full(len(r2), n, np.int64)),
        "m2": pa.array(np.full(len(r2), m2, np.int64)),
        "g_f": pa.array(
            [float(int(g)) / float(n) for g in g_cnt], pa.float64()
        ),
        "f_f": pa.array(
            [float(int(f)) / float(m2) for f in f_cnt], pa.float64()
        ),
        "j_f": pa.array(j_f, pa.float64()),
    }))


def quadrat_chi2(
    points: ray.data.Dataset,
    cell: float,
    grid: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Quadrat-count chi-square CSR test statistic over the full
    m = (grid/cell)² cell lattice (EMPTY cells included — they
    contribute (0−E)²): with integer counts c and E = n/m,

        χ² = Σ (c−E)²/E = (m·Σc² − n²) / n

    — one exact integer numerator and ONE pinned float division
    (degrees of freedom m−1 emitted alongside). Rides
    :func:`quadrat_counts` (one binning pass + one ≤m groupby).
    Overflow pre-check: m·Σc² < 2^62 in unbounded ints."""
    mm = int(np.floor(grid / cell))
    if mm < 1:
        raise ValueError("cell larger than the grid")
    m = mm * mm
    n = int(points.count())
    qc = quadrat_counts(points, cell, id_col=id_col,
                        x_col=x_col, y_col=y_col)

    def _sq(t: pa.Table) -> pa.Table:
        c = t.column("cnt").to_numpy(zero_copy_only=False)
        return pa.table({"p": pa.array([np.int64((c * c).sum())])})

    sum_c2 = int(qc.map_batches(_sq, batch_format="pyarrow").sum("p") or 0)
    if m * sum_c2 >= (1 << 62) or n * n >= (1 << 62):
        raise ValueError("quadrat_chi2 would overflow int64; rescale")
    if n == 0:
        raise ValueError("quadrat_chi2 needs points")
    chi_num = m * sum_c2 - n * n
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "m": pa.array([m], pa.int64()),
        "sum_c2": pa.array([sum_c2], pa.int64()),
        "chi_num": pa.array([chi_num], pa.int64()),
        "dof": pa.array([m - 1], pa.int64()),
        "chi2_f": pa.array(
            [float(np.float64(chi_num) / np.float64(n))], pa.float64()
        ),
    }))


def percolation_profile(
    points: ray.data.Dataset,
    radii: list[float],
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Continuum-percolation profile of a point pattern: for each
    threshold r, the component structure of the r-distance-band graph —
    (r, n_components, giant) with giant = the largest component's node
    count (isolated points are singleton components). The classic
    connectivity-transition summary for geometric random graphs.

    100 TB shape: one :func:`distance_band` tile build +
    :meth:`n_components` (one min-label task on a bounded graph,
    contraction supersteps otherwise) per radius — the per-radius labels reduce to ONE
    grouped count and a max; nothing per-node reaches the driver."""
    from libpysal_ray.builders.distance import distance_band

    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("percolation_profile needs positive radii")
    rows_r, rows_n, rows_g = [], [], []
    for r in radii:
        g = distance_band(points, threshold=r, binary=True,
                          id_col=id_col, x_col=x_col, y_col=y_col)
        ncomp, labels = g.n_components()
        sizes = labels.groupby("component").count()
        giant = int(sizes.max("count()") or 0)
        rows_r.append(r)
        rows_n.append(int(ncomp))
        rows_g.append(giant)
    return ray.data.from_arrow(pa.table({
        "r": pa.array(rows_r, pa.float64()),
        "n_components": pa.array(rows_n, pa.int64()),
        "giant": pa.array(rows_g, pa.int64()),
    }))


def within_join(
    points_a: ray.data.Dataset,
    points_b: ray.data.Dataset,
    radius: float,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Cross-set distance-within join (GeoPandas sjoin dwithin
    semantics; the cross-set sibling of DistanceBand,
    reference `weights/distance.py:748-1009`): every pair (a, b) with
    a ∈ A, b ∈ B and d(a, b) ≤ radius — inclusive, squared-distance
    test, coincident points join at 0, no cross-set self-exclusion.
    Rows (focal, neighbor, d2) with the EXACT integer squared distance
    (integer-valued coordinates make d² exactly representable).

    100 TB shape: the tagged union of both sets rides ONE tile shuffle
    at cs = halo = radius (the :func:`band_value_sum` plan); every A
    point is core in exactly one tile and B ghost rows cover its halo,
    so each qualifying pair is emitted exactly once, per tile, with no
    global dedup pass. Output is pair-expanded (up to |A|·|B| under a
    degenerate radius) — size it like a distance-band edge build, not
    like a per-row transform."""

    def _tag(mark):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table({
                "id": t.column(id_col),
                "x": t.column(x_col),
                "y": t.column(y_col),
                "mark": pa.array(
                    np.full(t.num_rows, mark, dtype=np.int64)),
            })
        return _f

    both = points_a.map_batches(
        _tag(1), batch_format="pyarrow"
    ).union(points_b.map_batches(_tag(2), batch_format="pyarrow"))
    tiled = tile_points(both, cs=float(radius), halo=float(radius),
                        extra_cols=("mark",))
    t2 = float(radius) * float(radius)

    def _pairs(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        mark = t.column("mark").to_numpy(zero_copy_only=False)
        core = t.column("core").to_numpy(zero_copy_only=False)
        ids = t.column("id").to_numpy(zero_copy_only=False)
        ai = np.flatnonzero(core & (mark == 1))
        bj = np.flatnonzero(mark == 2)
        of, on, od = [], [], []
        if len(bj):
            xb, yb, idb = x[bj], y[bj], ids[bj]
            for s in range(0, len(ai), _CHUNK):
                sel = ai[s : s + _CHUNK]
                dx = x[sel, None] - xb[None, :]
                dy = y[sel, None] - yb[None, :]
                d2 = dx * dx + dy * dy
                ii, jj = np.nonzero(d2 <= t2)
                of.append(ids[sel][ii])
                on.append(idb[jj])
                od.append(d2[ii, jj].astype(np.int64))
        if not of:
            return pa.table({
                "focal": pa.array([], pa.int64()),
                "neighbor": pa.array([], pa.int64()),
                "d2": pa.array([], pa.int64()),
            })
        return pa.table({
            "focal": pa.array(np.concatenate(of).astype(np.int64)),
            "neighbor": pa.array(np.concatenate(on).astype(np.int64)),
            "d2": pa.array(np.concatenate(od)),
        })

    return J.per_group(tiled, ("tile",), _pairs)


def morisita_index(
    points: ray.data.Dataset,
    cell: float,
    n_quadrats: int,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Morisita's index of dispersion over a fixed quadrat grid
    (Morisita 1959 — the quadrat-based clustering index of the
    pointpats family):

        I = Q · Σ_i n_i(n_i − 1) / (N(N − 1))

    with Q = ``n_quadrats`` (the FIXED study-extent quadrat count —
    empty quadrats contribute 0 to the sum but count in Q; the caller
    owns extent/Q consistency), n_i the per-quadrat counts, N the
    total. I ≈ 1 for CSR, > 1 clustered, < 1 uniform. Everything is an
    exact integer: output one row (q, n, s2, mor_num, mor_den,
    morisita_f) with mor_num = Q·Σn(n−1), mor_den = N(N−1) carried as
    decimal strings (they exceed int64 at web scale) and one pinned
    float division. Needs N ≥ 2.

    100 TB shape: one :func:`quadrat_counts` groupby, then per-batch
    Σn and Σn(n−1) partials over the (≤Q-row) count table — the
    unbounded-int combine is O(1) driver work; per-cell n(n−1) is
    overflow-guarded by a max aggregate first."""
    counts = quadrat_counts(points, cell, id_col=id_col,
                            x_col=x_col, y_col=y_col).materialize()
    mx = int(counts.max("cnt") or 0)
    if mx * mx >= (1 << 62):
        raise ValueError("morisita_index: a quadrat count squared "
                         "exceeds int64; shrink the cells")

    def _part(t: pa.Table) -> pa.Table:
        c = t.column("cnt").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table({
            "n": pa.array([np.int64(c.sum())]),
            "s2": pa.array([np.int64((c * (c - 1)).sum())]),
        })

    agg = counts.map_batches(_part, batch_format="pyarrow").aggregate(
        Sum("n"), Sum("s2")
    )
    n = int(agg["sum(n)"] or 0)
    s2 = int(agg["sum(s2)"] or 0)
    if n < 2:
        raise ValueError("morisita_index needs >= 2 points")
    q = int(n_quadrats)
    num, den = q * s2, n * (n - 1)
    return ray.data.from_arrow(pa.table({
        "q": pa.array([q], pa.int64()),
        "n": pa.array([n], pa.int64()),
        "s2": pa.array([s2], pa.int64()),
        "mor_num": pa.array([str(num)]),
        "mor_den": pa.array([str(den)]),
        "morisita_f": pa.array([float(np.float64(num) / np.float64(den))],
                               pa.float64()),
    }))


def local_clq(
    points: ray.data.Dataset,
    target_cat: int,
    k: int = 4,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    cat_col: str = "cat",
) -> ray.data.Dataset:
    """LOCAL colocation quotient (the per-point LCLQ companion of
    :func:`colocation`, Leslie & Kronenfeld 2011): for every point i,
    the share of ``target_cat`` points among its k nearest neighbors
    against the global share,

        LCLQ_i = (nb_i / k) / (N_b' / (N − 1)),   N_b' = N_b − [cat_i = b]

    kept as the EXACT integer fraction lclq_num = nb_i·(N−1),
    lclq_den = k·N_b' plus one pinned float. Categories are integers;
    ties in the KNN are pinned to (distance, neighbor id) — the same
    contract as the KNN builder. Output one row per point
    (id, cat, nb_cnt, lclq_num, lclq_den, lclq_f).

    100 TB shape: the guarded KNN tile plan builds the edges; ONE
    bucket_join attaches neighbor categories, one groupby(focal) sums
    the target hits, one universe left join attaches own categories —
    global totals are a tiny category groupby."""
    from libpysal_ray.builders.distance import knn
    from libpysal_ray.core.joins import bucket_join

    cats = points.map_batches(
        lambda t: pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "cat": pa.array(
                t.column(cat_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
        }),
        batch_format="pyarrow",
    ).materialize()
    n_total = int(cats.count())
    tgt = int(target_cat)
    n_b = int(
        cats.map_batches(
            lambda t: pa.table({"h": pa.array([np.int64((
                t.column("cat").to_numpy(zero_copy_only=False) == tgt
            ).sum())])}),
            batch_format="pyarrow",
        ).sum("h") or 0
    )
    if n_b == 0:
        raise ValueError("local_clq: target category absent")

    g = knn(points, k=k, id_col=id_col, x_col=x_col, y_col=y_col)
    hits = bucket_join(
        g._real_edges().map_batches(
            lambda t: t.select(["focal", "neighbor"]),
            batch_format="pyarrow",
        ),
        cats.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "nc": t.column("cat"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    ).map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "hit": pa.array((
                t.column("nc").to_numpy(zero_copy_only=False) == tgt
            ).astype(np.int64)),
        }),
        batch_format="pyarrow",
    ).groupby("node").sum("hit")
    joined = bucket_join(cats, hits, on="node", how="left")

    def _shape(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c = t.column("cat").to_numpy(zero_copy_only=False)
        nb = pc.fill_null(
            pc.cast(t.column("sum(hit)"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        nbp = np.int64(n_b) - (c == tgt).astype(np.int64)
        num = nb * np.int64(n_total - 1)
        den = np.int64(k) * nbp
        return pa.table({
            id_col: t.column("node"),
            "cat": pa.array(c.astype(np.int64)),
            "nb_cnt": pa.array(nb.astype(np.int64)),
            "lclq_num": pa.array(num.astype(np.int64)),
            "lclq_den": pa.array(den.astype(np.int64)),
            "lclq_f": pa.array(np.where(
                den > 0,
                num.astype(np.float64)
                / np.maximum(den, 1).astype(np.float64),
                0.0,
            )),
        })

    return joined.map_batches(_shape, batch_format="pyarrow")
