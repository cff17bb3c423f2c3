"""Global spatial-autocorrelation statistics over a binary graph.

Moran's I and Geary's C (the canonical ESDA statistics downstream of
libpysal weights; cf. reference weights feeding esda.Moran — here kept
engine-side because every term is computable EXACTLY):

    z_i   = n·x_i − Σx                      (integer — no float mean)
    I     = (n · Σ_{(i,j)∈E} z_i z_j) / (S0 · Σ z_i²)
    C     = ((n−1) · n² · Σ_{(i,j)∈E} (x_i−x_j)²) / (2 · S0 · Σ z_i²)

with S0 = |E| (binary weights). Every numerator/denominator is an
int64 (bounds checked in unbounded Python ints up front, pagerank-
style), so the distributed sums are bit-exact at any layout and the one
float division per statistic is IEEE-identical to the SQL oracle.

100 TB shape: attribute stats are two tiny aggregates; z attaches to
the edge table via ONE bucket_join per endpoint (the z table is the
small side and reuses the join's size switch); the cross-product terms
reduce through per-batch int64 partials into a #blocks-row aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

__all__ = ["general_g", "getis_ord_g", "join_counts", "lisa_quadrants",
           "dissimilarity_edges", "local_moran", "moran_bv", "skater_regions",
           "spatial_autocorr", "gamma_index", "join_counts_multi",
           "lisa_transitions", "rank_scores", "moran_rank"]

_L32 = np.int64(0xFFFFFFFF)
_L16 = np.int64(0xFFFF)


def _sum_i64(t: np.ndarray) -> int:
    """Exact Python-int sum of an int64 array with |values| < 2^62 via a
    32-bit hi/lo split: hi terms are < 2^30 and lo terms < 2^32, so both
    half-sums stay inside int64 for any batch under 2^30 rows (Ray
    blocks are orders of magnitude smaller)."""
    if len(t) >= (1 << 30):
        raise ValueError("batch too large for exact split summation")
    hi = (t >> 32).sum()
    lo = (t & _L32).sum()
    return (int(hi) << 32) + int(lo)


def _prod_sum_exact(a: np.ndarray, b: np.ndarray) -> int:
    """Exact Σ a·b for int64 arrays with |a|, |b| < 2^62 — the pagerank
    decomposed-multiply discipline: a = ah·2^32 + al (arithmetic-shift
    hi, unsigned lo; the two's-complement identity holds for negatives),
    b likewise, the low×low quarter split again at 16 bits so EVERY
    elementwise product fits int64; the partial sums recombine in
    unbounded Python ints. Removes the int64 ceiling from the ESDA
    global reductions — per-row terms like z² may exceed int64 freely.
    """
    ah, al = a >> 32, a & _L32
    bh, bl = b >> 32, b & _L32
    alh, alo = al >> 16, al & _L16
    blh, blo = bl >> 16, bl & _L16
    return (
        (_sum_i64(ah * bh) << 64)
        + ((_sum_i64(ah * bl) + _sum_i64(al * bh)) << 32)
        + (_sum_i64(alh * blh) << 32)
        + ((_sum_i64(alh * blo) + _sum_i64(alo * blh)) << 16)
        + _sum_i64(alo * blo)
    )


def _sum_prod_exact_ds(ds: ray.data.Dataset, acol: str, bcol: str) -> int:
    """Exact Σ a·b across a whole Dataset: each batch reduces to ONE row
    holding its exact partial as a decimal string (arbitrary precision,
    losslessly serialized), so the driver combines O(#blocks) rows in
    unbounded ints — the same partials discipline as the prefix-sum rank
    cut, never O(n) driver state."""

    def _part(t: pa.Table) -> pa.Table:
        a = t.column(acol).to_numpy(zero_copy_only=False)
        b = t.column(bcol).to_numpy(zero_copy_only=False)
        return pa.table({"p": pa.array([str(_prod_sum_exact(a, b))])})

    parts = ds.map_batches(_part, batch_format="pyarrow").take_all()
    return sum(int(r["p"]) for r in parts)


def spatial_autocorr(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    force_wide: bool = False,
) -> ray.data.Dataset:
    """One-row Dataset (n, s0, moran_num, sq_diff, den, moran_i,
    geary_c) for integer attribute ``x`` over graph ``g``'s BINARY edge
    set (weights ignored; transform to taste first).

    moran_num/sq_diff/den are exact DECIMAL STRINGS in BOTH regimes (a
    schema that flips with data magnitude would break consumers only at
    scale). NARROW regime (every sum fits int64): int64 reductions,
    hash-exact vs the SQL oracle. WIDE regime (auto above the int64
    bounds — the 10x stress scale — or ``force_wide``): the edge and z²
    reductions run through :func:`_prod_sum_exact` (128-bit limb
    products, O(#blocks) decimal-string partials) and the two float
    statistics use the same pinned formula evaluated from unbounded
    Python ints. Only z itself must fit int64 (z_max < 2^62) — good to
    ~10^12 rows at realistic attribute magnitudes."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("spatial_autocorr needs at least 2 observations")
    sx = int(agg["sum(x)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    # exact worst-case bounds in unbounded ints BEFORE any int64 sum;
    # the numerator/sq sums run over the EDGE count, the den over n
    z_max = n * xmax + abs(sx)
    e_count = int(g._real_edges().count())
    wide = force_wide or (
        z_max * z_max * max(e_count, n) >= (1 << 62)
        or (2 * xmax) ** 2 * e_count >= (1 << 62)
    )
    if wide and z_max >= (1 << 62):
        raise ValueError(
            "spatial_autocorr z terms would overflow int64; rescale x"
        )

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "x": t.column("x"),
            "z": pa.array(np.int64(n) * x - np.int64(sx)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    lhs = bucket_join(
        edges,
        zt.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"),
                "zf": t.column("z"),
                "xf": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: pa.table({
            "neighbor": t.column("neighbor"),
            "zf": t.column("zf"),
            "xf": t.column("xf"),
        }),
        batch_format="pyarrow",
    )
    both = bucket_join(
        lhs,
        zt.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"),
                "zn": t.column("z"),
                "xn": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _edge_partial(t: pa.Table) -> pa.Table:
        zf = t.column("zf").to_numpy(zero_copy_only=False)
        zn = t.column("zn").to_numpy(zero_copy_only=False)
        xf = t.column("xf").to_numpy(zero_copy_only=False)
        xn = t.column("xn").to_numpy(zero_copy_only=False)
        d = xf - xn
        if wide:
            # exact limb products per batch, decimal-string partials
            return pa.table({
                "s0": pa.array([np.int64(t.num_rows)]),
                "nump": pa.array([str(_prod_sum_exact(zf, zn))]),
                "sqp": pa.array([str(_prod_sum_exact(d, d))]),
            })
        return pa.table({
            "s0": pa.array([np.int64(t.num_rows)]),
            "num": pa.array([np.int64((zf * zn).sum())]),
            "sq": pa.array([np.int64((d * d).sum())]),
        })

    if wide:
        parts = both.map_batches(
            _edge_partial, batch_format="pyarrow"
        ).take_all()  # O(#blocks) rows, unbounded-int combine
        s0 = sum(int(r["s0"]) for r in parts)
        num = sum(int(r["nump"]) for r in parts)
        sq = sum(int(r["sqp"]) for r in parts)
    else:
        ep = both.map_batches(
            _edge_partial, batch_format="pyarrow"
        ).aggregate(
            ray.data.aggregate.Sum("s0"),
            ray.data.aggregate.Sum("num"),
            ray.data.aggregate.Sum("sq"),
        )
        s0 = int(ep["sum(s0)"])
        num = int(ep["sum(num)"])
        sq = int(ep["sum(sq)"])
    if s0 != e_count:
        # inner attr joins dropped edges whose endpoint ids are missing
        # from attrs — a graph/attrs id-universe mismatch would silently
        # skew every sum while n still counts all attrs rows
        raise ValueError(
            f"spatial_autocorr: {e_count - s0} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    if s0 == 0:
        raise ValueError("graph has no edges")

    den = _sum_prod_exact_ds(zt, "z", "z")
    if den == 0:
        raise ValueError("x is constant; autocorrelation undefined")
    # one float division per statistic, operand order pinned for the
    # oracle (both multiplications exact unbounded-int before the cast)
    moran = float(np.float64(n * num) / np.float64(s0 * den))
    geary = float(
        np.float64((n - 1) * n * n * sq) / np.float64(2 * s0 * den)
    )
    # moran_num/sq_diff/den are decimal STRINGS in BOTH regimes (they
    # exceed int64 exactly when the wide regime engages — a schema that
    # flips with data magnitude breaks consumers only at scale)
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "s0": pa.array([s0], pa.int64()),
        "moran_num": pa.array([str(num)]),
        "sq_diff": pa.array([str(sq)]),
        "den": pa.array([str(den)]),
        "moran_i": pa.array([moran], pa.float64()),
        "geary_c": pa.array([geary], pa.float64()),
    }))


_LAG_EDGES = pa.schema([pa.field("focal", pa.int64()),
                        pa.field("neighbor", pa.int64())])
_LAG_VALS = pa.schema([pa.field("neighbor", pa.int64()),
                       pa.field("vv", pa.int64())])


def _lag_sum_guarded(g, src, val_col, out_col, stat, id_col):
    """Spatial-lag sum of ``src[(node, val_col)]`` (int64 ids and values)
    over g's real edges, with the id-universe guard shared by every ESDA
    statistic here: the inner attach drops edges whose neighbor id is
    missing from the attribute table, which would silently skew the
    statistic (ADVICE r4 #3 / code-review r5) — so the grouped aggregate
    also counts the joined edges (one extra tiny aggregate over the
    per-node rows) and raises on any mismatch with the graph's real edge
    count. Every bucket_join side declares its schema, and the grouped
    aggregate takes the small-input switch on the size of the real edges
    and ``src``. Returns a (node, out_col) int64 Dataset with its schema
    declared."""
    from libpysal_ray.core.joins import (
        bucket_join,
        declare_schema,
        grouped_agg,
    )

    real = g._real_edges()
    edges = declare_schema(real.map_batches(
        lambda t: pa.table({
            "focal": t.column("focal").cast(pa.int64()),
            "neighbor": t.column("neighbor").cast(pa.int64()),
        }),
        batch_format="pyarrow",
    ), _LAG_EDGES)
    vals = declare_schema(src.map_batches(
        lambda t: pa.table({
            "neighbor": t.column("node").cast(pa.int64()),
            "vv": t.column(val_col).cast(pa.int64()),
        }),
        batch_format="pyarrow",
    ), _LAG_VALS)
    la = grouped_agg(
        bucket_join(edges, vals, on="neighbor").map_batches(
            lambda t: pa.table({
                "node": t.column("focal"), "vv": t.column("vv"),
            }),
            batch_format="pyarrow",
        ),
        ("node",), ("vv", None), ("sum", "count"), real, src,
    ).materialize()
    matched = int(la.sum("count()") or 0)
    e_count = int(real.count())
    if matched != e_count:
        raise ValueError(
            f"{stat}: {e_count - matched} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    return declare_schema(la.map_batches(
        lambda t: pa.table({
            "node": t.column("node").cast(pa.int64()),
            out_col: t.column("sum(vv)").cast(pa.int64()),
        }),
        batch_format="pyarrow",
    ), pa.schema([pa.field("node", pa.int64()),
                  pa.field(out_col, pa.int64())]))


def local_moran(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    force_wide: bool = False,
) -> ray.data.Dataset:
    """Per-observation local Moran (LISA, Anselin 1995) over the binary
    edge set, exact-integer inner terms: with z_i = n·x_i − Σx,

        I_i = (n · z_i · Σ_{j∈N(i)} z_j) / Σ z²

    (algebraically identical to the classic (z_i/m2)·Σ w_ij z_j with
    m2 = Σ(x−x̄)²/n — both scalings by n² cancel). Output one row per
    observation (id, z, lag_z, local_i); isolates get lag_z = 0.

    100 TB shape: one bucket_join of z onto edges by neighbor, one
    groupby(focal) sum (the spatial lag of z), one left join back onto
    the observation universe — all int64 until one pinned float
    division per row.

    Two exact regimes: the NARROW path (n·z·lag and Σz² fit int64)
    keeps every intermediate an int64 and is hash-exact vs the SQL
    oracle. When those bounds fail (≈50k lattice rows at n_chars
    magnitudes — the 10x stress input), the WIDE path engages
    automatically: Σz² reduces through :func:`_prod_sum_exact` (128-bit
    limb products, O(#blocks) decimal-string partials) and local_i is
    one pinned float chain f64(n)·f64(z)·f64(lag)/f64(den) — still
    layout-invariant and deterministic, bounded only by z and its lag
    fitting int64 (z_max < 2^62, z_max·max_deg < 2^62), which holds to
    ~10^12 rows at realistic attribute magnitudes. ``force_wide`` pins
    the wide path for gate-scale oracle evidence."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("local_moran needs at least 2 observations")
    sx = int(agg["sum(x)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    z_max = n * xmax + abs(sx)
    max_deg = g.max_degree()
    # per-row numerator bound n·|z|·|lag| <= n·z_max·(max_deg·z_max),
    # plus the den sum bound — both checked in unbounded ints
    wide = force_wide or (
        n * z_max * max_deg * z_max >= (1 << 62)
        or z_max * z_max * n >= (1 << 62)
    )
    if wide and (z_max >= (1 << 62) or z_max * max_deg >= (1 << 62)):
        # even the wide path needs z and its lag sum inside int64
        raise ValueError("local_moran z/lag terms would overflow int64; "
                         "rescale x")

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "z": pa.array(np.int64(n) * x - np.int64(sx)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()
    # Σz² through the exact limb reduction in BOTH regimes (identical
    # int64 result on the narrow path, so the oracle is untouched; the
    # wide path is where it earns its keep)
    den = _sum_prod_exact_ds(zt, "z", "z")
    if den == 0:
        raise ValueError("x is constant; local Moran undefined")

    lagged = _lag_sum_guarded(g, zt, "z", "lag_z", "local_moran", id_col)
    joined = bucket_join(zt, lagged, on="node", how="left")

    def _score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        z = t.column("z").to_numpy(zero_copy_only=False)
        lag = pc.fill_null(
            pc.cast(t.column("lag_z"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        if wide:
            # pinned float chain f64(n)·f64(z)·f64(lag)/f64(den): no
            # int64 product required, mirrored left-to-right by the
            # wide oracle's CAST(..)*CAST(..)*CAST(..)/CAST(..)
            local = (
                np.float64(n)
                * z.astype(np.float64)
                * lag.astype(np.float64)
                / np.float64(den)
            )
        else:
            # exact int64 product n·z·lag (guarded above), ONE cast
            num = np.int64(n) * z * lag
            local = num.astype(np.float64) / np.float64(den)
        return pa.table({
            id_col: t.column("node"),
            "z": pa.array(z),
            "lag_z": pa.array(lag),
            "local_i": pa.array(local),
        })

    return joined.map_batches(_score, batch_format="pyarrow")


def join_counts(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Join counts for a BINARY variable (Cliff & Ord; the esda
    Join_Counts statistic downstream of libpysal weights): over the
    directed binary edge set, one row (s0, bb, bw, ww) with
    bb = Σ x_i·x_j, bw = Σ (x_i−x_j)², ww = s0 − bb − bw. Pure int64 —
    no float anywhere, so the oracle compare is trivially exact.
    Raises if x is not 0/1."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and not np.isin(x, (0, 1)).all():
            raise ValueError("join_counts needs a 0/1 variable")
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(x),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    e_count = int(edges.count())
    lhs = bucket_join(
        edges,
        xs.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "xf": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "xf"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        xs.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "xn": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _partial(t: pa.Table) -> pa.Table:
        xf = t.column("xf").to_numpy(zero_copy_only=False)
        xn = t.column("xn").to_numpy(zero_copy_only=False)
        return pa.table({
            "s0": pa.array([np.int64(t.num_rows)]),
            "bb": pa.array([np.int64((xf * xn).sum())]),
            "bw": pa.array([np.int64(((xf - xn) ** 2).sum())]),
        })

    ep = both.map_batches(_partial, batch_format="pyarrow").aggregate(
        ray.data.aggregate.Sum("s0"),
        ray.data.aggregate.Sum("bb"),
        ray.data.aggregate.Sum("bw"),
    )
    s0, bb, bw = (int(ep["sum(s0)"]), int(ep["sum(bb)"]),
                  int(ep["sum(bw)"]))
    if s0 != e_count:
        raise ValueError(
            f"join_counts: {e_count - s0} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    return ray.data.from_arrow(pa.table({
        "s0": pa.array([s0], pa.int64()),
        "bb": pa.array([bb], pa.int64()),
        "bw": pa.array([bw], pa.int64()),
        "ww": pa.array([s0 - bb - bw], pa.int64()),
    }))


def getis_ord_g(
    g,
    attrs: ray.data.Dataset,
    star: bool = True,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Getis–Ord G_i / G_i* hot-spot statistic over the binary edge set:
    G_i(*) = (Σ_{j∈N(i)} x_j [+ x_i if star]) / Σ_j x_j — the
    neighborhood share of total mass. Integer numerator and denominator
    (x must be non-negative integers), ONE pinned float division per
    row; output (id, x, nbr_sum, g). Classic reference: Getis & Ord
    1992; downstream of libpysal weights like the esda G.

    100 TB shape: identical plumbing to ``local_moran`` — one x→edges
    bucket_join, one groupby(focal) sum, one universe left join."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and x.min() < 0:
            raise ValueError("getis_ord_g needs non-negative x")
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(x),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    # overflow guard BEFORE any int64 sum (like every sibling statistic
    # here): Count/Max cannot wrap, so bound the global total (≤ xmax·n)
    # and the per-focal neighborhood sums (≤ xmax·(max_deg+1), the +1 is
    # the G* self term) in unbounded Python ints first — otherwise
    # Sum('x') / groupby(node).sum(xn) wrap int64 SILENTLY and emit
    # wrong g values instead of raising.
    pre = xs.aggregate(
        ray.data.aggregate.Count(), ray.data.aggregate.Max("x")
    )
    n_obs = int(pre["count()"])
    xmax = int(pre["max(x)"] or 0)
    max_deg = g.max_degree()
    if xmax * max(max_deg + 1, n_obs, 1) >= (1 << 62):
        raise ValueError("getis_ord_g sums would overflow int64; rescale x")
    total = int(xs.sum("x") or 0)
    if total <= 0:
        raise ValueError("x sums to zero; G undefined")

    lagged = _lag_sum_guarded(g, xs, "x", "nsum", "getis_ord_g", id_col)
    joined = bucket_join(xs, lagged, on="node", how="left")
    inc_self = bool(star)

    def _score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        x = t.column("x").to_numpy(zero_copy_only=False)
        ns = pc.fill_null(
            pc.cast(t.column("nsum"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        num = ns + x if inc_self else ns
        return pa.table({
            id_col: t.column("node"),
            "x": pa.array(x),
            "nbr_sum": pa.array(num.astype(np.int64)),
            "g": pa.array(num.astype(np.float64) / np.float64(total)),
        })

    return joined.map_batches(_score, batch_format="pyarrow")


def general_g(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Global Getis–Ord General G over the binary edge set:
    G = Σ_{(i,j)∈E} x_i x_j / Σ_{i≠j} x_i x_j, x non-negative integer.
    Numerator = one edge-join sum; denominator = (Σx)² − Σx² computed
    in unbounded Python ints — both exact, one pinned float division.
    Output one row (s0, g_num, g_den, general_g)."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and x.min() < 0:
            raise ValueError("general_g needs non-negative x")
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(x),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Sum("x"), ray.data.aggregate.Max("x"),
        ray.data.aggregate.Count(),
    )
    sx, xmax = int(agg["sum(x)"]), int(agg["max(x)"] or 0)
    n_obs = int(agg["count()"])
    # guard BEFORE any x*x is formed anywhere (per-element products and
    # the s0-length edge sum both must fit int64)
    e_count = int(g._real_edges().count())
    if xmax * xmax * max(e_count, n_obs, 1) >= (1 << 62):
        raise ValueError("general_g terms would overflow int64; rescale x")
    sxx = int(
        xs.map_batches(
            lambda t: pa.table({"p": pa.array([np.int64(
                (t.column("x").to_numpy(zero_copy_only=False) ** 2).sum()
            )])}),
            batch_format="pyarrow",
        ).sum("p")
    )
    den = sx * sx - sxx  # unbounded python ints — never wraps
    if den <= 0:
        raise ValueError("x has no off-diagonal mass; G undefined")
    if sx * sx >= (1 << 62):
        # the denominator (Σx)²−Σx² is emitted as an exact int64 column;
        # (Σx)² can exceed int64 on inputs that pass the per-term guard
        # above (e.g. xmax=1 over 2^40 rows) — raise loudly instead of
        # OverflowError at output-build time
        raise ValueError(
            "general_g denominator (sum(x))^2 exceeds int64; rescale x"
        )

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    lhs = bucket_join(
        edges,
        xs.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "xf": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "xf"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        xs.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "xn": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )
    ep = both.map_batches(
        lambda t: pa.table({
            "s0": pa.array([np.int64(t.num_rows)]),
            "num": pa.array([np.int64(
                (t.column("xf").to_numpy(zero_copy_only=False)
                 * t.column("xn").to_numpy(zero_copy_only=False)).sum()
            )]),
        }),
        batch_format="pyarrow",
    ).aggregate(
        ray.data.aggregate.Sum("s0"), ray.data.aggregate.Sum("num"),
    )
    s0, num = int(ep["sum(s0)"]), int(ep["sum(num)"])
    if s0 != e_count:
        raise ValueError(
            f"general_g: {e_count - s0} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    return ray.data.from_arrow(pa.table({
        "s0": pa.array([s0], pa.int64()),
        "g_num": pa.array([num], pa.int64()),
        "g_den": pa.array([den], pa.int64()),
        "general_g": pa.array(
            [float(np.float64(num) / np.float64(den))], pa.float64()
        ),
    }))


def lisa_quadrants(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Moran-scatterplot quadrant labels per observation (the LISA
    cluster map): 1=HH, 2=LH, 3=LL, 4=HL by the signs of the integer
    deviation z and its integer spatial lag (0 when either is exactly
    zero) — no float anywhere, and the overflow bound is only what the
    LABELS need (z and its lag must fit int64), strictly weaker than
    local_moran's n·z·lag product bound."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("lisa_quadrants needs at least 2 observations")
    sx = int(agg["sum(x)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    z_max = n * xmax + abs(sx)
    max_deg = g.max_degree()
    if z_max * max(max_deg, 1) >= (1 << 62):
        raise ValueError(
            "lisa_quadrants lag sums would overflow int64; rescale x"
        )

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "z": pa.array(np.int64(n) * x - np.int64(sx)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()
    lagged = _lag_sum_guarded(g, zt, "z", "lag_z", "lisa_quadrants",
                              id_col)
    joined = bucket_join(zt, lagged, on="node", how="left")

    def _quad(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        z = t.column("z").to_numpy(zero_copy_only=False)
        lag = pc.fill_null(
            pc.cast(t.column("lag_z"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        quad = np.zeros(len(z), dtype=np.int64)
        quad[(z > 0) & (lag > 0)] = 1
        quad[(z < 0) & (lag > 0)] = 2
        quad[(z < 0) & (lag < 0)] = 3
        quad[(z > 0) & (lag < 0)] = 4
        return pa.table({
            id_col: t.column("node"),
            "quad": pa.array(quad),
        })

    return joined.map_batches(_quad, batch_format="pyarrow")


def moran_bv(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Bivariate Moran's I (Wartenberg 1985 / Anselin et al. 2002 —
    x against the spatial lag of y) with exact integer inner terms:

        I_xy = (n · Σ_{(i,j)∈E} zx_i zy_j)
               / (S0 · sqrt(Σ zx² · Σ zy²))

    zx = n·x − Σx, zy = n·y − Σy (both int64; bounds pre-checked in
    unbounded ints). The denominator product is formed in unbounded
    Python ints, converted once to float64 (correctly rounded — DuckDB's
    HUGEINT→DOUBLE cast rounds identically) and square-rooted (IEEE
    sqrt is correctly rounded on both sides), so the single statistic
    is bit-equal to the SQL oracle. Output one row
    (n, s0, bv_num, denx, deny, moran_bv)."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "y": pa.array(
                t.column(y_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"), ray.data.aggregate.Sum("y"),
        ray.data.aggregate.Max("x"), ray.data.aggregate.Min("x"),
        ray.data.aggregate.Max("y"), ray.data.aggregate.Min("y"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("moran_bv needs at least 2 observations")
    sx, sy = int(agg["sum(x)"]), int(agg["sum(y)"])
    xm = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    ym = max(abs(int(agg["max(y)"])), abs(int(agg["min(y)"])))
    zx_max = n * xm + abs(sx)
    zy_max = n * ym + abs(sy)
    e_count = int(g._real_edges().count())
    if (zx_max * zy_max * max(e_count, n) >= (1 << 62)
            or zx_max * zx_max * n >= (1 << 62)
            or zy_max * zy_max * n >= (1 << 62)):
        raise ValueError("moran_bv terms would overflow int64; rescale")

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "zx": pa.array(np.int64(n) * x - np.int64(sx)),
            "zy": pa.array(np.int64(n) * y - np.int64(sy)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()
    dagg = zt.map_batches(
        lambda t: pa.table({
            "dx": pa.array([np.int64(
                (t.column("zx").to_numpy(zero_copy_only=False) ** 2).sum()
            )]),
            "dy": pa.array([np.int64(
                (t.column("zy").to_numpy(zero_copy_only=False) ** 2).sum()
            )]),
        }),
        batch_format="pyarrow",
    ).aggregate(ray.data.aggregate.Sum("dx"), ray.data.aggregate.Sum("dy"))
    denx, deny = int(dagg["sum(dx)"]), int(dagg["sum(dy)"])
    if denx == 0 or deny == 0:
        raise ValueError("x or y is constant; bivariate Moran undefined")

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    lhs = bucket_join(
        edges,
        zt.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "zxf": t.column("zx"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "zxf"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        zt.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "zyn": t.column("zy"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )
    ep = both.map_batches(
        lambda t: pa.table({
            "s0": pa.array([np.int64(t.num_rows)]),
            "num": pa.array([np.int64(
                (t.column("zxf").to_numpy(zero_copy_only=False)
                 * t.column("zyn").to_numpy(zero_copy_only=False)).sum()
            )]),
        }),
        batch_format="pyarrow",
    ).aggregate(
        ray.data.aggregate.Sum("s0"), ray.data.aggregate.Sum("num"),
    )
    s0, num = int(ep["sum(s0)"]), int(ep["sum(num)"])
    if s0 != e_count:
        raise ValueError(
            f"moran_bv: {e_count - s0} of {e_count} edges have endpoints "
            f"missing from attrs ({id_col}); the attribute table must "
            "cover the graph's node universe"
        )
    if s0 == 0:
        raise ValueError("graph has no edges")
    stat = float(
        np.float64(n * num)
        / (np.float64(s0) * np.sqrt(np.float64(denx * deny)))
    )
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "s0": pa.array([s0], pa.int64()),
        "bv_num": pa.array([num], pa.int64()),
        "denx": pa.array([denx], pa.int64()),
        "deny": pa.array([deny], pa.int64()),
        "moran_bv": pa.array([stat], pa.float64()),
    }))


def dissimilarity_edges(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Edge table reweighted by attribute dissimilarity |x_f − x_n| —
    the SKATER/single-linkage input. Attributes attach to both endpoints
    via bucket_joins (the module's standard plumbing — no driver-side
    attribute table, no dense-id lookup array). Materialized, so a graph
    over it has a size bound for the small-input switch."""
    from libpysal_ray.core import joins as J

    ax = attrs.map_batches(
        lambda t: pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "xv": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.float64
                )
            ),
        }),
        batch_format="pyarrow",
    ).materialize()
    # declared side schemas: bucket_join reads no schema by a limit(1)
    # execution of these lazy maps
    i64, f64 = pa.int64(), pa.float64()
    edges = J.declare_schema(g._real_edges().map_batches(
        lambda t: pa.table({"focal": t.column("focal").cast(i64),
                            "neighbor": t.column("neighbor").cast(i64)}),
        batch_format="pyarrow",
    ), pa.schema([("focal", i64), ("neighbor", i64)]))
    lhs = J.bucket_join(
        edges,
        J.declare_schema(ax.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "xf": t.column("xv"),
            }),
            batch_format="pyarrow",
        ), pa.schema([("focal", i64), ("xf", f64)])),
        on="focal",
    )
    both = J.bucket_join(
        J.declare_schema(lhs.map_batches(
            lambda t: t.select(["focal", "neighbor", "xf"]),
            batch_format="pyarrow",
        ), pa.schema([("focal", i64), ("neighbor", i64), ("xf", f64)])),
        J.declare_schema(ax.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "xn": t.column("xv"),
            }),
            batch_format="pyarrow",
        ), pa.schema([("neighbor", i64), ("xn", f64)])),
        on="neighbor",
    )

    def _wt(t: pa.Table) -> pa.Table:
        xf = t.column("xf").to_numpy(zero_copy_only=False)
        xn = t.column("xn").to_numpy(zero_copy_only=False)
        return pa.table({
            "focal": t.column("focal"),
            "neighbor": t.column("neighbor"),
            "weight": pa.array(np.abs(xf - xn)),
        })

    return both.map_batches(_wt, batch_format="pyarrow").materialize()


def skater_regions(
    g,
    attrs: ray.data.Dataset,
    n_regions: int,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """SKATER-style contiguous regionalization (Assunção et al. 2006,
    the edge-cut heuristic without the subtree-variance refinement):
    build the minimum spanning tree of the contiguity graph weighted by
    attribute dissimilarity |x_i − x_j|, cut the n_regions−1 HEAVIEST
    tree edges (strict (w, lo, hi) tie order ⇒ deterministic cuts), and
    label each observation with its region = component min id. Output
    (id, region) — exactly n_regions contiguous regions on a connected
    graph.

    100 TB shape: attributes attach to the edge endpoints via
    bucket_joins (``dissimilarity_edges`` — no driver attribute table);
    the MST is the size-switched spanning_forest; the cut set is
    n_regions−1 rows (driver-safe by definition — a global top-k on the
    tree's n−1 edges); labels come from the size-switched n_components
    on the cut forest."""
    from libpysal_ray.core import edges as E
    from libpysal_ray.core.graph import RayGraph

    if n_regions < 1:
        raise ValueError("n_regions must be >= 1")
    ax = attrs.map_batches(
        lambda t: pa.table({
            "node": t.column(id_col), "x": t.column(x_col),
        }),
        batch_format="pyarrow",
    ).materialize()
    wg = RayGraph(
        dissimilarity_edges(g, ax, id_col="node", x_col="x")
    )
    tree = wg.spanning_forest().materialize()
    n_tree = tree.count()
    k_cut = min(n_regions - 1, n_tree)
    if k_cut > 0:
        # heaviest k-1 tree edges by the same strict total order
        cuts = tree.sort(["weight", "focal", "neighbor"],
                         descending=[True, True, True]).limit(k_cut)
        cut_set = {
            (r["focal"], r["neighbor"]) for r in cuts.take_all()
        }

        def _drop(t: pa.Table) -> pa.Table:
            f = t.column("focal").to_numpy(zero_copy_only=False)
            n = t.column("neighbor").to_numpy(zero_copy_only=False)
            keep = np.array(
                [(a, b) not in cut_set for a, b in zip(f, n)], dtype=bool
            )
            return t.filter(pa.array(keep))

        kept = tree.map_batches(_drop, batch_format="pyarrow")
    else:
        kept = tree

    def _sym(t: pa.Table) -> pa.Table:
        f = t.column("focal").to_numpy(zero_copy_only=False)
        n = t.column("neighbor").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [
                pa.array(np.concatenate([f, n])),
                pa.array(np.concatenate([n, f])),
                pa.array(np.ones(2 * len(f), dtype=np.float64)),
            ],
            schema=E.EDGE_SCHEMA,
        )

    forest = RayGraph(
        kept.map_batches(_sym, batch_format="pyarrow"),
        ids=ax.map_batches(
            lambda t: pa.table({"focal": t.column("node")}),
            batch_format="pyarrow",
        ),
    )
    _n, labels = forest.n_components()
    return labels.map_batches(
        lambda t: pa.table({
            id_col: t.column("focal"),
            "region": t.column("component"),
        }),
        batch_format="pyarrow",
    )


def gamma_index(
    g,
    attrs: ray.data.Dataset,
    similarity: str = "product",
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Gamma index of spatial autocorrelation (Hubert/Golledge/
    Costanzo 1981; the esda Gamma statistic downstream of libpysal
    weights): Γ = Σ_{(i,j)∈E} a(x_i, x_j) over the binary directed edge
    set, with the three classic similarity kernels —

        product   a = x_i·x_j        sqdiff   a = (x_i−x_j)²
        absdiff   a = |x_i−x_j|

    Output one row (s0, gamma, gamma_f): the edge count, the EXACT
    integer Γ as a decimal string (Γ can exceed int64 freely — each
    kernel reduces through :func:`_prod_sum_exact`'s 128-bit limb
    products; absdiff is Σ d·sign(d)), and one pinned float64 cast.

    100 TB shape: identical to :func:`join_counts` — x attaches to the
    edge table via ONE bucket_join per endpoint, every batch emits a
    single arbitrary-precision partial, the driver combines O(#blocks)
    rows. The id-universe guard raises if any edge endpoint is missing
    from attrs (a silent inner-join drop would skew Γ)."""
    from libpysal_ray.core.joins import bucket_join

    if similarity not in ("product", "sqdiff", "absdiff"):
        raise ValueError(
            f"gamma_index similarity must be product|sqdiff|absdiff, "
            f"got {similarity!r}"
        )

    def _xz(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(x),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    # |x| < 2^61 keeps d = x_f − x_n and both _prod_sum_exact operands
    # inside its |a|,|b| < 2^62 contract.
    pre = xs.aggregate(
        ray.data.aggregate.Max("x"), ray.data.aggregate.Min("x")
    )
    xmax = max(abs(int(pre["max(x)"] or 0)), abs(int(pre["min(x)"] or 0)))
    if xmax >= (1 << 61):
        raise ValueError("gamma_index needs |x| < 2^61; rescale x")

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    e_count = int(edges.count())
    lhs = bucket_join(
        edges,
        xs.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "xf": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "xf"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        xs.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "xn": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _part(t: pa.Table) -> pa.Table:
        xf = t.column("xf").to_numpy(zero_copy_only=False)
        xn = t.column("xn").to_numpy(zero_copy_only=False)
        if similarity == "product":
            a, b = xf, xn
        elif similarity == "sqdiff":
            a = xf - xn
            b = a
        else:  # absdiff: Σ|d| = Σ d·sign(d)
            a = xf - xn
            b = np.sign(a)
        return pa.table({
            "p": pa.array([str(_prod_sum_exact(a, b))]),
            "c": pa.array([np.int64(t.num_rows)]),
        })

    parts = both.map_batches(_part, batch_format="pyarrow").take_all()
    joined = sum(int(r["c"]) for r in parts)
    if joined != e_count:
        raise ValueError(
            f"gamma_index: {e_count - joined} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    gamma = sum(int(r["p"]) for r in parts)
    return ray.data.from_arrow(pa.table({
        "s0": pa.array([e_count], pa.int64()),
        "gamma": pa.array([str(gamma)], pa.string()),
        "gamma_f": pa.array([float(gamma)], pa.float64()),
    }))


def join_counts_multi(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    cat_col: str = "cat",
) -> ray.data.Dataset:
    """Multi-category join counts (the k-color generalization of the
    binary Cliff–Ord statistic; cf. esda Join_Counts' BB/BW table):
    one row (cat_f, cat_n, cnt) per DIRECTED category pair that occurs
    on the edge set — cnt = #{(i,j)∈E : cat_i = cat_f, cat_j = cat_n}.
    Categories pass through as-is (string or integer). Σ cnt must equal
    s0; the id-universe guard raises otherwise.

    100 TB shape: two bucket_joins attach the category to each
    endpoint, then ONE groupby((cat_f, cat_n)).count() whose output is
    bounded by k² rows, not data size."""
    from libpysal_ray.core.joins import bucket_join

    def _cz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "cat": t.column(cat_col),
        })

    cs = attrs.map_batches(_cz, batch_format="pyarrow").materialize()
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    e_count = int(edges.count())
    lhs = bucket_join(
        edges,
        cs.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "cat_f": t.column("cat"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "cat_f"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        cs.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "cat_n": t.column("cat"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )
    out = both.groupby(["cat_f", "cat_n"]).count().rename_columns(
        {"count()": "cnt"}
    ).materialize()
    total = int(out.sum("cnt") or 0)
    if total != e_count:
        raise ValueError(
            f"join_counts_multi: {e_count - total} of {e_count} edges "
            f"have endpoints missing from attrs ({id_col}); the "
            "attribute table must cover the graph's node universe"
        )
    return out


def lisa_transitions(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
) -> ray.data.Dataset:
    """LISA Markov transition counts (Rey 2001's spatial Markov /
    LISA Markov downstream of libpysal weights, à la giddy): classify
    every observation into its Moran-scatterplot quadrant at two
    attribute snapshots x0 and x1 (via :func:`lisa_quadrants` — integer
    z/lag signs, 0 when either is exactly zero) and count the
    transitions. Output (q0, q1, cnt), at most 25 rows.

    100 TB shape: two full lisa_quadrants passes (each is one
    bucket_join + one grouped lag sum) joined by node id — one more
    bucket_join — then a ≤25-row groupby."""
    from libpysal_ray.core.joins import bucket_join

    def _sel(col):
        return attrs.map_batches(
            lambda t, c=col: pa.table({
                id_col: t.column(id_col), "x": t.column(c),
            }),
            batch_format="pyarrow",
        )

    q0 = lisa_quadrants(g, _sel(x0_col), id_col=id_col).map_batches(
        lambda t: pa.table({"node": t.column(id_col),
                            "q0": t.column("quad")}),
        batch_format="pyarrow",
    )
    q1 = lisa_quadrants(g, _sel(x1_col), id_col=id_col).map_batches(
        lambda t: pa.table({"node": t.column(id_col),
                            "q1": t.column("quad")}),
        batch_format="pyarrow",
    )
    return bucket_join(q0, q1, on="node").groupby(
        ["q0", "q1"]
    ).count().rename_columns({"count()": "cnt"})


def rank_scores(
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    max_distinct: int = 1_000_000,
) -> ray.data.Dataset:
    """Integer doubled average ranks of ``x``: rank2 = 2·minrank +
    (ties − 1), i.e. twice the classic average (midrank) — kept integer
    so downstream exact statistics (``spatial_autocorr`` on ranks =
    the Spearman-style rank Moran) stay hash-exact. Output (id, rank2).

    100 TB shape: the distinct-score histogram discipline of
    ``select_top_fraction`` — ONE groupby(x).count() whose result is
    bounded by #distinct values (guarded by ``max_distinct``, loud
    raise beyond), a driver prefix sum over the sorted distinct values,
    and one broadcast value→rank2 map applied per batch."""
    hist = attrs.groupby(x_col).count().materialize()
    k = int(hist.count())
    if k > max_distinct:
        raise ValueError(
            f"rank_scores: {k} distinct values of {x_col} exceeds "
            f"max_distinct={max_distinct}; a continuous score needs a "
            "sort-rank path — bucketize or raise the cap explicitly"
        )
    rows = hist.take_all()
    vals = np.array([r[x_col] for r in rows], dtype=np.int64)
    cnts = np.array([r["count()"] for r in rows], dtype=np.int64)
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    minrank = np.empty_like(cnts)
    minrank[0] = 1
    np.cumsum(cnts[:-1], out=minrank[1:])
    minrank[1:] += 1
    rank2 = 2 * minrank + cnts - 1
    lut_ref = ray.put((vals, rank2))

    def _apply(t: pa.Table) -> pa.Table:
        v, r2 = ray.get(lut_ref)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(v, x)
        return pa.table({
            id_col: t.column(id_col),
            "rank2": pa.array(r2[pos]),
        })

    return attrs.map_batches(_apply, batch_format="pyarrow")


def moran_rank(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    force_wide: bool = False,
) -> ray.data.Dataset:
    """Rank-based (Spearman-style) Moran's I / Geary's C: the exact
    :func:`spatial_autocorr` machinery applied to the integer doubled
    average ranks of x (:func:`rank_scores`) — monotone-invariant and
    outlier-robust, the rank analogue used for skewed attributes.
    Output is spatial_autocorr's one-row schema computed on rank2."""
    ranked = rank_scores(attrs, id_col=id_col, x_col=x_col)
    return spatial_autocorr(
        g, ranked, id_col=id_col, x_col="rank2", force_wide=force_wide
    )


def degree_assortativity(g) -> ray.data.Dataset:
    """Degree assortativity coefficient (Newman 2002) over the binary
    directed edge set: the Pearson correlation of (out-degree of focal,
    out-degree of neighbor) across edges,

        r = (M·Σdf·dn − Σdf·Σdn)
            / sqrt((M·Σdf² − (Σdf)²) · (M·Σdn² − (Σdn)²))

    with M = |E|. Every sum is EXACT (per-batch 128-bit limb partials
    via :func:`_prod_sum_exact`, combined in unbounded Python ints) and
    carried as a decimal string; r is the moran_bv float discipline —
    one correctly-rounded int→float64 per term, one IEEE sqrt, one
    division — so the statistic is bit-equal to the SQL oracle. Output
    one row (m, sdf, sdn, sprod, sdf2, sdn2, assort); assort is NaN
    for a degree-regular graph (zero variance).

    100 TB shape: degrees are ONE groupby(focal).count over the edge
    set; they attach back to the edges via two bucket_joins; the five
    cross sums reduce through O(#blocks) decimal-string partials."""
    import math

    from libpysal_ray.core.joins import bucket_join

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    deg = edges.groupby("focal").count().map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "d": pc_cast_i64(t.column("count()")),
        }),
        batch_format="pyarrow",
    ).materialize()
    lhs = bucket_join(
        edges,
        deg.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "df": t.column("d"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "df"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        deg.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "dn": t.column("d"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
        how="left",
    )

    def _part(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        df = t.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        # a neighbor with no outgoing edges has out-degree 0 (left join
        # null — only possible on an asymmetric graph)
        dn = pc.fill_null(pc.cast(t.column("dn"), pa.int64()), 0).to_numpy(
            zero_copy_only=False
        )
        one = np.ones(len(df), dtype=np.int64)
        return pa.table({
            "m": pa.array([np.int64(t.num_rows)]),
            "sdf": pa.array([str(_prod_sum_exact(df, one))]),
            "sdn": pa.array([str(_prod_sum_exact(dn, one))]),
            "sprod": pa.array([str(_prod_sum_exact(df, dn))]),
            "sdf2": pa.array([str(_prod_sum_exact(df, df))]),
            "sdn2": pa.array([str(_prod_sum_exact(dn, dn))]),
        })

    parts = both.map_batches(_part, batch_format="pyarrow").take_all()
    m = sum(int(r["m"]) for r in parts)
    sdf = sum(int(r["sdf"]) for r in parts)
    sdn = sum(int(r["sdn"]) for r in parts)
    sprod = sum(int(r["sprod"]) for r in parts)
    sdf2 = sum(int(r["sdf2"]) for r in parts)
    sdn2 = sum(int(r["sdn2"]) for r in parts)
    num = m * sprod - sdf * sdn
    va = m * sdf2 - sdf * sdf
    vb = m * sdn2 - sdn * sdn
    assort = (
        float(num) / math.sqrt(float(va * vb)) if va > 0 and vb > 0
        else float("nan")
    )
    return ray.data.from_arrow(pa.table({
        "m": pa.array([m], pa.int64()),
        "sdf": pa.array([str(sdf)]),
        "sdn": pa.array([str(sdn)]),
        "sprod": pa.array([str(sprod)]),
        "sdf2": pa.array([str(sdf2)]),
        "sdn2": pa.array([str(sdn2)]),
        "assort": pa.array([assort], pa.float64()),
    }))


def pc_cast_i64(col):
    import pyarrow.compute as pc

    return pc.cast(col, pa.int64())


def reciprocity(g) -> ray.data.Dataset:
    """Edge reciprocity over the binary directed edge set: the count
    and fraction of edges (i,j) whose reverse (j,i) is also present —
    1.0 exactly for any symmetric weights matrix, informative for KNN
    and other asymmetric builders (the scalar companion of the
    reference's asymmetry() pair listing, weights.py:842-888). Output
    one row (m, mutual, reciprocity).

    100 TB shape: ONE groupby over canonical unordered pair keys
    counting orientations — the symmetrize/asymmetry shuffle pattern —
    no self-join."""
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )

    def _canon(t: pa.Table) -> pa.Table:
        f = t.column("focal").to_numpy(zero_copy_only=False)
        n = t.column("neighbor").to_numpy(zero_copy_only=False)
        lo = np.minimum(f, n)
        hi = np.maximum(f, n)
        return pa.table({
            "lo": pa.array(lo), "hi": pa.array(hi),
            "fwd": pa.array((f <= n).astype(np.int64)),
            "rev": pa.array((f > n).astype(np.int64)),
        })

    agg = edges.map_batches(_canon, batch_format="pyarrow").groupby(
        ["lo", "hi"]
    ).aggregate(
        ray.data.aggregate.Sum("fwd"), ray.data.aggregate.Sum("rev"),
    )

    def _mutual(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        fwd = pc.fill_null(pc.cast(t.column("sum(fwd)"), pa.int64()),
                           0).to_numpy(zero_copy_only=False)
        rev = pc.fill_null(pc.cast(t.column("sum(rev)"), pa.int64()),
                           0).to_numpy(zero_copy_only=False)
        both = (fwd > 0) & (rev > 0)
        return pa.table({
            "m": pa.array([np.int64((fwd + rev).sum())]),
            "mutual": pa.array(
                [np.int64((fwd[both] + rev[both]).sum())]
            ),
        })

    parts = agg.map_batches(_mutual, batch_format="pyarrow").take_all()
    m = sum(int(r["m"]) for r in parts)
    mutual = sum(int(r["mutual"]) for r in parts)
    return ray.data.from_arrow(pa.table({
        "m": pa.array([m], pa.int64()),
        "mutual": pa.array([mutual], pa.int64()),
        "reciprocity": pa.array(
            [float(mutual) / float(m) if m else float("nan")], pa.float64()
        ),
    }))


def moran_inference(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Moran's I with the analytic inference companions (Cliff & Ord
    1981, the esda.Moran EI/VI_norm/VI_rand/z-scores downstream of
    libpysal weights) over the binary edge set:

        E[I]     = −1/(n−1)
        VI_norm  = (n²s1 − n·s2 + 3s0²) / (s0²(n²−1)) − E[I]²
        VI_rand  = (n((n²−3n+3)s1 − n·s2 + 3s0²)
                    − b2((n²−n)s1 − 2n·s2 + 6s0²))
                   / ((n−1)(n−2)(n−3)s0²) − E[I]²
        b2       = n·Σz⁴ / (Σz²)²     (sample kurtosis, scale-free)

    with the binary graph's moment constants computed EXACTLY as
    integers: s0 = |E|; s1 = #one-way pairs + 4·#mutual pairs (the
    reciprocity aggregate); s2 = Σ_i (outdeg_i + indeg_i)². Every
    integer ingredient (num, den, Σz⁴, s1, s2 and the five composed
    polynomial terms) is exact and unbounded; each float statistic is
    one pinned chain of casts/ops mirrored term-for-term by the SQL
    oracle. Output one row (n, s0, s1, s2, moran_num, den, sz4,
    moran_i, e_i, var_norm, z_norm, var_rand, z_rand).

    Bound: Σz⁴ reduces through 128-bit limb products of z², which needs
    z_max < 2^31 (≈ attribute·n < 2^31) — raises loudly beyond; the
    I/num/den machinery itself is good to z_max < 2^62.

    100 TB shape: the spatial_autocorr edge attach (two bucket_joins +
    O(#blocks) decimal-string partials), ONE canonical-pair groupby for
    s1, one degree union groupby for s2 — nothing driver-side beyond
    scalars."""
    import math

    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
    )
    n = int(agg["count()"])
    if n < 4:
        raise ValueError(
            "moran_inference needs at least 4 observations (the "
            "randomization variance has an (n-3) factor)"
        )
    sx = int(agg["sum(x)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    z_max = n * xmax + abs(sx)
    if z_max >= (1 << 31):
        raise ValueError(
            "moran_inference kurtosis term needs z < 2^31 "
            f"(got bound {z_max}); rescale x"
        )

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "z": pa.array(np.int64(n) * x - np.int64(sx)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()

    def _moments(t: pa.Table) -> pa.Table:
        z = t.column("z").to_numpy(zero_copy_only=False)
        z2 = z * z  # < 2^62 by the z_max guard
        return pa.table({
            "den": pa.array([str(_prod_sum_exact(z, z))]),
            "z4": pa.array([str(_prod_sum_exact(z2, z2))]),
        })

    mom = zt.map_batches(_moments, batch_format="pyarrow").take_all()
    den = sum(int(r["den"]) for r in mom)
    sz4 = sum(int(r["z4"]) for r in mom)
    if den == 0:
        raise ValueError("moran_inference needs a non-constant x")

    # num = Σ_{(i,j)∈E} z_i z_j via the shared guarded lag: lag_z per
    # node (raises on id-universe mismatch), then Σ z·lag exactly
    lagged = _lag_sum_guarded(g, zt, "z", "lag_z", "moran_inference",
                              id_col)
    num = _sum_prod_exact_ds(
        bucket_join(zt, lagged, on="node"), "z", "lag_z"
    )

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    s0 = int(edges.count())

    s1 = _s1_binary(edges)
    s2 = _s2_binary(edges)

    # exact integer polynomial terms (unbounded)
    a_term = n * n * s1 - n * s2 + 3 * s0 * s0
    b_term = s0 * s0 * (n * n - 1)
    c1 = n * ((n * n - 3 * n + 3) * s1 - n * s2 + 3 * s0 * s0)
    c2 = (n * n - n) * s1 - 2 * n * s2 + 6 * s0 * s0
    d_term = (n - 1) * (n - 2) * (n - 3) * s0 * s0

    # ONE pinned float chain per statistic, mirrored by the SQL oracle
    mi = float(n * num) / float(s0 * den)
    e_i = -1.0 / float(n - 1)
    var_norm = float(a_term) / float(b_term) - e_i * e_i
    z_norm = (mi - e_i) / math.sqrt(var_norm)
    b2 = float(n * sz4) / float(den * den)
    var_rand = (float(c1) - b2 * float(c2)) / float(d_term) - e_i * e_i
    z_rand = (mi - e_i) / math.sqrt(var_rand)

    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "s0": pa.array([s0], pa.int64()),
        "s1": pa.array([s1], pa.int64()),
        "s2": pa.array([s2], pa.int64()),
        "moran_num": pa.array([str(num)]),
        "den": pa.array([str(den)]),
        "sz4": pa.array([str(sz4)]),
        "moran_i": pa.array([mi], pa.float64()),
        "e_i": pa.array([e_i], pa.float64()),
        "var_norm": pa.array([var_norm], pa.float64()),
        "z_norm": pa.array([z_norm], pa.float64()),
        "var_rand": pa.array([var_rand], pa.float64()),
        "z_rand": pa.array([z_rand], pa.float64()),
    }))


def pc_fill0(t: pa.Table, col: str) -> np.ndarray:
    import pyarrow.compute as pc

    return pc.fill_null(pc.cast(t.column(col), pa.int64()), 0).to_numpy(
        zero_copy_only=False
    )


def local_geary(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Local Geary c_i (Anselin 1995/2019, the esda.Geary_Local
    statistic downstream of libpysal weights) over the binary edge set,
    exact-integer inner terms: with z_i = n·x_i − Σx,

        c_i = n · Σ_{j∈N(i)} (z_i − z_j)² / Σ z²

    (identical to the classic (1/m2)·Σ w_ij (x_i−x_j)² with
    m2 = Σ(x−x̄)²/n — the n⁴ scalings cancel). Output one row per
    observation (id, ci_num, c_i): the exact int64 neighborhood sum and
    one pinned float division; isolates get 0.

    100 TB shape: one z bucket_join onto edges, per-batch squared-
    difference partials, one groupby(focal) sum (universe-guarded), one
    left join back — the local_moran plumbing."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("local_geary needs at least 2 observations")
    sx = int(agg["sum(x)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    z_max = n * xmax + abs(sx)
    max_deg = g.max_degree()
    # per-focal sums of (zf-zn)^2 AND the n-scaled numerators must fit
    # int64 (the c_i finalize is one vectorized int64->float64 cast)
    if (2 * z_max) ** 2 * max(max_deg, 1) * n >= (1 << 62):
        raise ValueError(
            "local_geary neighborhood sums would overflow int64; "
            "rescale x"
        )

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "z": pa.array(np.int64(n) * x - np.int64(sx)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()
    den = _sum_prod_exact_ds(zt, "z", "z")
    if den == 0:
        raise ValueError("local_geary needs a non-constant x")

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    lhs = bucket_join(
        edges,
        zt.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "zf": t.column("z"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    )
    both = bucket_join(
        lhs.map_batches(
            lambda t: t.select(["focal", "neighbor", "zf"]),
            batch_format="pyarrow",
        ),
        zt.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "zn": t.column("z"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _sq(t: pa.Table) -> pa.Table:
        zf = t.column("zf").to_numpy(zero_copy_only=False)
        zn = t.column("zn").to_numpy(zero_copy_only=False)
        d = zf - zn
        return pa.table({
            "node": t.column("focal"),
            "sq": pa.array(d * d),
        })

    per = both.map_batches(_sq, batch_format="pyarrow").groupby(
        "node"
    ).aggregate(
        ray.data.aggregate.Sum("sq"), ray.data.aggregate.Count()
    ).materialize()
    matched = int(per.sum("count()") or 0)
    e_count = int(g._real_edges().count())
    if matched != e_count:
        raise ValueError(
            f"local_geary: {e_count - matched} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    joined = bucket_join(
        zt.map_batches(
            lambda t: t.select(["node"]), batch_format="pyarrow"
        ),
        per.map_batches(
            lambda t: pa.table({
                "node": t.column("node"), "ci_num": t.column("sum(sq)"),
            }),
            batch_format="pyarrow",
        ),
        on="node",
        how="left",
    )

    def _score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        num = pc.fill_null(pc.cast(t.column("ci_num"), pa.int64()),
                           0).to_numpy(zero_copy_only=False)
        # n*num fits int64 by the pre-check; int64->float64 is the same
        # correctly-rounded cast as DuckDB's BIGINT->DOUBLE
        ci = (np.int64(n) * num).astype(np.float64) / float(den)
        return pa.table({
            id_col: t.column("node"),
            "ci_num": pa.array(num),
            "c_i": pa.array(ci, pa.float64()),
        })

    return joined.map_batches(_score, batch_format="pyarrow")


def local_join_counts(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Local join counts (Anselin & Li 2019, esda.Join_Counts_Local):
    for a BINARY variable, jc_i = x_i · Σ_{j∈N(i)} x_j — the number of
    BB joins incident to i, per observation. Pure int64. Output
    (id, x, jc); raises if x is not 0/1.

    100 TB shape: the shared guarded lag sum (one bucket_join + one
    groupby) followed by one universe left join."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and not np.isin(x, (0, 1)).all():
            raise ValueError("local_join_counts needs a 0/1 variable")
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(x),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    lagged = _lag_sum_guarded(g, xs, "x", "lag_x", "local_join_counts",
                              id_col)
    joined = bucket_join(xs, lagged, on="node", how="left")

    def _score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        x = t.column("x").to_numpy(zero_copy_only=False)
        lag = pc.fill_null(pc.cast(t.column("lag_x"), pa.int64()),
                           0).to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: t.column("node"),
            "x": pa.array(x),
            "jc": pa.array(x * lag),
        })

    return joined.map_batches(_score, batch_format="pyarrow")


def _s1_binary(edges: ray.data.Dataset) -> int:
    """Exact s1 = ½ Σ_ij (w_ij + w_ji)² for a BINARY edge set:
    #one-way pairs + 4·#mutual pairs, via ONE canonical unordered-pair
    groupby (the reciprocity shuffle)."""

    def _canon(t: pa.Table) -> pa.Table:
        f = t.column("focal").to_numpy(zero_copy_only=False)
        nb = t.column("neighbor").to_numpy(zero_copy_only=False)
        return pa.table({
            "lo": pa.array(np.minimum(f, nb)),
            "hi": pa.array(np.maximum(f, nb)),
            "fwd": pa.array((f <= nb).astype(np.int64)),
            "rev": pa.array((f > nb).astype(np.int64)),
        })

    pair = edges.map_batches(_canon, batch_format="pyarrow").groupby(
        ["lo", "hi"]
    ).aggregate(
        ray.data.aggregate.Sum("fwd"), ray.data.aggregate.Sum("rev"),
    )

    def _s1part(t: pa.Table) -> pa.Table:
        fwd = pc_fill0(t, "sum(fwd)")
        rev = pc_fill0(t, "sum(rev)")
        both = (fwd > 0) & (rev > 0)
        one = (fwd + rev == 1)
        return pa.table({
            "s1": pa.array([np.int64(one.sum() + 4 * both.sum())]),
        })

    return int(sum(
        r["s1"] for r in
        pair.map_batches(_s1part, batch_format="pyarrow").take_all()
    ))


def _s2_binary(edges: ray.data.Dataset) -> int:
    """Exact s2 = Σ_i (outdeg_i + indeg_i)² for a BINARY edge set —
    two degree counts unioned, one groupby(node) sum, 128-bit limb
    square partials."""
    outd = edges.groupby("focal").count().map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "c": pc_cast_i64(t.column("count()")),
        }),
        batch_format="pyarrow",
    )
    ind = edges.groupby("neighbor").count().map_batches(
        lambda t: pa.table({
            "node": t.column("neighbor"),
            "c": pc_cast_i64(t.column("count()")),
        }),
        batch_format="pyarrow",
    )
    tot = outd.union(ind).groupby("node").sum("c")
    return int(sum(
        r["p"] for r in tot.map_batches(
            lambda t: pa.table({"p": pa.array([_prod_sum_exact(
                pc_fill0(t, "sum(c)"), pc_fill0(t, "sum(c)")
            )])}),
            batch_format="pyarrow",
        ).take_all()
    ))


def geary_inference(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Geary's C with the analytic inference companions (Cliff & Ord
    1981; the esda.Geary EC/VC_norm/VC_rand/z-scores downstream of
    libpysal weights) over the binary edge set:

        E[C]     = 1
        VC_norm  = ((2s1 + s2)(n−1) − 4s0²) / (2(n+1)s0²)
        VC_rand  = (A1 − b2·A2) / (4n(n−2)(n−3)s0²)   with
        A1 = 4(n−1)s1(n²−3n+3) − (n−1)s2(n²+3n−6) + 4s0²(n²−3)
        A2 = 4(n−1)²s1 − (n−1)s2(n²−n+2) + 4s0²(n−1)²
        b2 = n·Σz⁴ / (Σz²)²

    (the classic VC_rand with its ¼ coefficients cleared by scaling
    numerator and denominator by 4 — every polynomial term is an exact
    unbounded integer). s0/s1/s2 are the exact binary moment constants
    (:func:`_s1_binary` / :func:`_s2_binary`); C itself uses the
    spatial_autocorr identity ((n−1)·n²·Σ(x_i−x_j)²) / (2·s0·Σz²).
    Output one row (n, s0, s1, s2, sq_diff, den, sz4, geary_c, e_c,
    var_norm, z_norm, var_rand, z_rand); z-scores are (C−1)/σ —
    negative under positive spatial autocorrelation.

    Bound: like :func:`moran_inference`, the kurtosis term needs
    z_max < 2^31; the Σ(x_i−x_j)² edge reduction is exact at any
    magnitude (128-bit limb partials).

    100 TB shape: one two-sided bucket_join edge attach with a joined-
    row-count universe guard, O(#blocks) decimal-string partials, the
    two moment-constant shuffles — scalars only on the driver."""
    import math

    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
    )
    n = int(agg["count()"])
    if n < 4:
        raise ValueError(
            "geary_inference needs at least 4 observations (the "
            "randomization variance has an (n-3) factor)"
        )
    sx = int(agg["sum(x)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    z_max = n * xmax + abs(sx)
    if z_max >= (1 << 31):
        raise ValueError(
            "geary_inference kurtosis term needs z < 2^31 "
            f"(got bound {z_max}); rescale x"
        )

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "x": t.column("x"),
            "z": pa.array(np.int64(n) * x - np.int64(sx)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()

    def _moments(t: pa.Table) -> pa.Table:
        z = t.column("z").to_numpy(zero_copy_only=False)
        z2 = z * z
        return pa.table({
            "den": pa.array([str(_prod_sum_exact(z, z))]),
            "z4": pa.array([str(_prod_sum_exact(z2, z2))]),
        })

    mom = zt.map_batches(_moments, batch_format="pyarrow").take_all()
    den = sum(int(r["den"]) for r in mom)
    sz4 = sum(int(r["z4"]) for r in mom)
    if den == 0:
        raise ValueError("geary_inference needs a non-constant x")

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    s0 = int(edges.count())
    lhs = bucket_join(
        edges,
        zt.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "xf": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "xf"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        zt.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "xn": t.column("x"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _sqpart(t: pa.Table) -> pa.Table:
        xf = t.column("xf").to_numpy(zero_copy_only=False)
        xn = t.column("xn").to_numpy(zero_copy_only=False)
        d = xf - xn
        return pa.table({
            "c": pa.array([np.int64(t.num_rows)]),
            "sq": pa.array([str(_prod_sum_exact(d, d))]),
        })

    parts = both.map_batches(_sqpart, batch_format="pyarrow").take_all()
    joined = sum(int(r["c"]) for r in parts)
    if joined != s0:
        raise ValueError(
            f"geary_inference: {s0 - joined} of {s0} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    sq = sum(int(r["sq"]) for r in parts)

    s1 = _s1_binary(edges)
    s2 = _s2_binary(edges)

    # exact integer polynomial terms (unbounded)
    vn_num = (2 * s1 + s2) * (n - 1) - 4 * s0 * s0
    vn_den = 2 * (n + 1) * s0 * s0
    a1 = (4 * (n - 1) * s1 * (n * n - 3 * n + 3)
          - (n - 1) * s2 * (n * n + 3 * n - 6)
          + 4 * s0 * s0 * (n * n - 3))
    a2 = (4 * (n - 1) * (n - 1) * s1
          - (n - 1) * s2 * (n * n - n + 2)
          + 4 * s0 * s0 * (n - 1) * (n - 1))
    d4 = 4 * n * (n - 2) * (n - 3) * s0 * s0

    # ONE pinned float chain per statistic, mirrored by the SQL oracle
    gc = float((n - 1) * n * n * sq) / float(2 * s0 * den)
    var_norm = float(vn_num) / float(vn_den)
    z_norm = (gc - 1.0) / math.sqrt(var_norm)
    b2 = float(n * sz4) / float(den * den)
    var_rand = (float(a1) - b2 * float(a2)) / float(d4)
    z_rand = (gc - 1.0) / math.sqrt(var_rand)

    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "s0": pa.array([s0], pa.int64()),
        "s1": pa.array([s1], pa.int64()),
        "s2": pa.array([s2], pa.int64()),
        "sq_diff": pa.array([str(sq)]),
        "den": pa.array([str(den)]),
        "sz4": pa.array([str(sz4)]),
        "geary_c": pa.array([gc], pa.float64()),
        "e_c": pa.array([1.0], pa.float64()),
        "var_norm": pa.array([var_norm], pa.float64()),
        "z_norm": pa.array([z_norm], pa.float64()),
        "var_rand": pa.array([var_rand], pa.float64()),
        "z_rand": pa.array([z_rand], pa.float64()),
    }))


def correlogram(
    g,
    attrs: ray.data.Dataset,
    max_order: int = 3,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Spatial correlogram: Moran's I and Geary's C at lag orders
    1..max_order — :func:`spatial_autocorr` over ``g.higher_order(k)``
    (EXACT order-k neighbors, shortest-path semantics) for each k, one
    row per order with the same exact-integer columns plus ``ord``.
    The classic distance-decay profile of spatial autocorrelation
    (Cliff & Ord 1981 ch. 5; cf. the esda correlogram utilities).

    100 TB shape: max_order sequential higher_order builds (each ONE
    frontier expansion shuffle per step) feeding the spatial_autocorr
    exact machinery; the loop is over k (a handful), never over data.
    """
    if max_order < 1:
        raise ValueError("correlogram needs max_order >= 1")
    outs = []
    for k in range(1, max_order + 1):
        gk = g if k == 1 else g.higher_order(k)
        row = spatial_autocorr(gk, attrs, id_col=id_col, x_col=x_col)
        outs.append(row.map_batches(
            lambda t, kk=k: pa.table(
                {"ord": pa.array([kk] * t.num_rows, pa.int64()),
                 **{c: t.column(c) for c in t.column_names}}
            ),
            batch_format="pyarrow",
        ))
    out = outs[0]
    for o in outs[1:]:
        out = out.union(o)
    return out


def local_moran_bv(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Bivariate local Moran (Anselin et al. 2002, esda.Moran_Local_BV
    downstream of libpysal weights): x against the spatial lag of y,

        I_i^xy = n · zx_i · Σ_{j∈N(i)} zy_j
                 / sqrt(Σ zx² · Σ zy²)

    with zx = n·x − Σx, zy = n·y − Σy (integers; the normalization
    matches :func:`moran_bv` so Σ_i I_i^xy / s0 recovers the global
    statistic's numerator scaling). Exact int64 inner terms (bounds
    pre-checked), denominator formed in unbounded ints → ONE
    correctly-rounded float64 → IEEE sqrt (the moran_bv discipline).
    Output (id, zx, lag_zy, local_ixy); isolates get lag 0.

    100 TB shape: identical to local_moran — one zy bucket_join onto
    edges, one guarded groupby(focal) sum, one universe left join."""
    import math

    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "y": pa.array(
                t.column(y_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"), ray.data.aggregate.Sum("y"),
        ray.data.aggregate.Max("x"), ray.data.aggregate.Min("x"),
        ray.data.aggregate.Max("y"), ray.data.aggregate.Min("y"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("local_moran_bv needs at least 2 observations")
    sx, sy = int(agg["sum(x)"]), int(agg["sum(y)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    ymax = max(abs(int(agg["max(y)"])), abs(int(agg["min(y)"])))
    zx_max = n * xmax + abs(sx)
    zy_max = n * ymax + abs(sy)
    max_deg = g.max_degree()
    if (n * zx_max * max(max_deg, 1) * zy_max >= (1 << 62)
            or zy_max * max(max_deg, 1) >= (1 << 62)):
        raise ValueError(
            "local_moran_bv n*zx*lag_zy terms would overflow int64; "
            "rescale x/y"
        )

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "zx": pa.array(np.int64(n) * x - np.int64(sx)),
            "zy": pa.array(np.int64(n) * y - np.int64(sy)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()
    dx = _sum_prod_exact_ds(zt, "zx", "zx")
    dy = _sum_prod_exact_ds(zt, "zy", "zy")
    if dx == 0 or dy == 0:
        raise ValueError("local_moran_bv needs non-constant x and y")
    # unbounded product -> ONE correctly-rounded float -> IEEE sqrt
    den_f = math.sqrt(float(dx * dy))

    zyt = zt.map_batches(
        lambda t: pa.table({
            "node": t.column("node"), "zy": t.column("zy"),
        }),
        batch_format="pyarrow",
    )
    lagged = _lag_sum_guarded(g, zyt, "zy", "lag_zy", "local_moran_bv",
                              id_col)
    joined = bucket_join(
        zt.map_batches(
            lambda t: pa.table({
                "node": t.column("node"), "zx": t.column("zx"),
            }),
            batch_format="pyarrow",
        ),
        lagged, on="node", how="left",
    )

    def _score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        zx = t.column("zx").to_numpy(zero_copy_only=False)
        lag = pc.fill_null(
            pc.cast(t.column("lag_zy"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        num = np.int64(n) * zx * lag  # fits int64 by the pre-check
        local = num.astype(np.float64) / den_f
        return pa.table({
            id_col: t.column("node"),
            "zx": pa.array(zx),
            "lag_zy": pa.array(lag),
            "local_ixy": pa.array(local),
        })

    return joined.map_batches(_score, batch_format="pyarrow")


def spatial_markov(
    g,
    attrs: ray.data.Dataset,
    class_bins: list[int],
    lag_bins: list[int],
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
) -> ray.data.Dataset:
    """Spatial Markov transition counts (Rey 2001, the giddy
    Spatial_Markov downstream of libpysal weights): every observation
    is classified at two attribute snapshots x0, x1 by the fixed
    integer ``class_bins`` (class = #edges ≤ x, i.e. an exact
    searchsorted-right), its spatial CONTEXT is the class of the
    integer lag Σ_{j∈N(i)} x0_j under ``lag_bins``, and the output is
    the conditioned transition count table (lag_class, c0, c1, cnt) —
    at most (#lag_bins+1)·(#class_bins+1)² rows. Fixed integer bins
    (not run-time quantiles) keep every classification exact and
    layout-invariant; isolates take lag = 0.

    100 TB shape: ONE bucket_join of x0 onto edges + one
    groupby(focal) sum (the guarded lag), one left join back onto the
    observation universe, one tiny groupby over ≤K³ classes."""
    from libpysal_ray.core.joins import bucket_join

    cb = np.asarray(sorted(class_bins), dtype=np.int64)
    lb = np.asarray(sorted(lag_bins), dtype=np.int64)

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x0": pa.array(
                t.column(x0_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x1": pa.array(
                t.column(x1_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Max("x0"), ray.data.aggregate.Min("x0")
    )
    xmax = max(abs(int(agg["max(x0)"] or 0)), abs(int(agg["min(x0)"] or 0)))
    max_deg = g.max_degree()
    if xmax * max(max_deg, 1) >= (1 << 62):
        raise ValueError("spatial_markov lag sum would overflow int64; "
                         "rescale x0")

    x0s = xs.map_batches(
        lambda t: t.select(["node", "x0"]), batch_format="pyarrow"
    )
    lagged = _lag_sum_guarded(g, x0s, "x0", "lag0", "spatial_markov",
                              id_col)
    joined = bucket_join(xs, lagged, on="node", how="left")

    def _classify(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        x0 = t.column("x0").to_numpy(zero_copy_only=False)
        x1 = t.column("x1").to_numpy(zero_copy_only=False)
        lag = pc.fill_null(
            pc.cast(t.column("lag0"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        return pa.table({
            "lag_class": pa.array(
                np.searchsorted(lb, lag, side="right").astype(np.int64)),
            "c0": pa.array(
                np.searchsorted(cb, x0, side="right").astype(np.int64)),
            "c1": pa.array(
                np.searchsorted(cb, x1, side="right").astype(np.int64)),
        })

    return (
        joined.map_batches(_classify, batch_format="pyarrow")
        .groupby(["lag_class", "c0", "c1"])
        .count()
        .rename_columns({"count()": "cnt"})
    )


def directional_rose(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
) -> ray.data.Dataset:
    """Directional-LISA rose counts (Rey et al. 2011's giddy Rose
    downstream of libpysal weights): each observation moves in the
    Moran scatterplot from (z0, lag z0) to (z1, lag z1); the movement
    vector (dz, dlag) = (z1−z0, lag1−lag0) is classified into eight
    45° octants [k·45°, (k+1)·45°) with EXACT integer sign/magnitude
    comparisons (no arctan — boundary vectors land deterministically);
    zero vectors get octant −1. z_t = n·x_t − Σx_t keeps everything in
    integers. Output (octant, cnt), ≤ 9 rows.

    100 TB shape: two guarded lag passes (one bucket_join + one
    grouped sum each), one join back onto the observation universe,
    one ≤9-row groupby."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x0": pa.array(
                t.column(x0_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x1": pa.array(
                t.column(x1_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x0"), ray.data.aggregate.Sum("x1"),
        ray.data.aggregate.Max("x0"), ray.data.aggregate.Min("x0"),
        ray.data.aggregate.Max("x1"), ray.data.aggregate.Min("x1"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("directional_rose needs at least 2 observations")
    sx0, sx1 = int(agg["sum(x0)"]), int(agg["sum(x1)"])
    xmax = max(abs(int(agg[k])) for k in
               ("max(x0)", "min(x0)", "max(x1)", "min(x1)"))
    z_max = n * xmax + max(abs(sx0), abs(sx1))
    max_deg = g.max_degree()
    if z_max >= (1 << 61) or z_max * max(max_deg, 1) >= (1 << 61):
        raise ValueError("directional_rose z/lag terms would overflow "
                         "int64; rescale x")

    def _z(col, s):
        def _f(t: pa.Table, c=col, sv=s) -> pa.Table:
            x = t.column(c).to_numpy(zero_copy_only=False)
            return pa.table({
                "node": t.column("node"),
                "z": pa.array(np.int64(n) * x - np.int64(sv)),
            })
        return _f

    z0 = xs.map_batches(_z("x0", sx0), batch_format="pyarrow").materialize()
    z1 = xs.map_batches(_z("x1", sx1), batch_format="pyarrow").materialize()
    l0 = _lag_sum_guarded(g, z0, "z", "lag0", "directional_rose", id_col)
    l1 = _lag_sum_guarded(g, z1, "z", "lag1", "directional_rose", id_col)
    zj = bucket_join(
        z0.map_batches(
            lambda t: pa.table({
                "node": t.column("node"), "z0": t.column("z"),
            }),
            batch_format="pyarrow",
        ),
        z1.map_batches(
            lambda t: pa.table({
                "node": t.column("node"), "z1": t.column("z"),
            }),
            batch_format="pyarrow",
        ),
        on="node",
    )
    # isolates are absent from BOTH lag tables (same graph) — two left
    # joins + fill(0) keep them with lag 0
    j = bucket_join(
        bucket_join(zj, l0, on="node", how="left"),
        l1, on="node", how="left",
    )

    def _oct(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        def _fill(c):
            return pc.fill_null(
                pc.cast(t.column(c), pa.int64()), 0
            ).to_numpy(zero_copy_only=False)

        dz = _fill("z1") - _fill("z0")
        dl = _fill("lag1") - _fill("lag0")
        adz, adl = np.abs(dz), np.abs(dl)
        octant = np.select(
            [
                (dz == 0) & (dl == 0),
                (dz > 0) & (dl >= 0) & (adl < adz),
                (dl > 0) & (dz > 0) & (adl >= adz),
                (dl > 0) & (dz <= 0) & (adl > adz),
                (dl > 0) & (dz < 0) & (adl <= adz),
                (dl <= 0) & (dz < 0) & (adl < adz),
                (dl < 0) & (dz < 0) & (adl >= adz),
                (dl < 0) & (dz >= 0) & (adl > adz),
            ],
            [-1, 0, 1, 2, 3, 4, 5, 6],
            default=7,
        ).astype(np.int64)
        return pa.table({"octant": pa.array(octant)})

    return (
        j.map_batches(_oct, batch_format="pyarrow")
        .groupby("octant")
        .count()
        .rename_columns({"count()": "cnt"})
    )


def spatial_tau(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
) -> ray.data.Dataset:
    """Spatial rank concordance (Rey 2004's spatial Kendall tau in
    giddy, downstream of libpysal weights): over the DIRECTED binary
    edge set, each edge (i, j) compares the two snapshots' orderings —

        concordant:  sign(x0_i−x0_j) · sign(x1_i−x1_j) > 0
        discordant:  sign·sign < 0        ties: either diff = 0

    Output one row (s0, concordant, discordant, ties, tau_f) with
    tau_f = (concordant − discordant) / s0 pinned. Exact integer
    comparisons; the id-universe guard raises on missing endpoints.

    100 TB shape: identical to :func:`gamma_index` — ONE bucket_join
    per endpoint, per-batch int64 count partials."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x0": pa.array(
                t.column(x0_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x1": pa.array(
                t.column(x1_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    e_count = int(edges.count())
    lhs = bucket_join(
        edges,
        xs.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"),
                "af": t.column("x0"), "bf": t.column("x1"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "af", "bf"]),
        batch_format="pyarrow",
    )
    both = bucket_join(
        lhs,
        xs.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"),
                "an": t.column("x0"), "bn": t.column("x1"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _part(t: pa.Table) -> pa.Table:
        s0 = np.sign(t.column("af").to_numpy(zero_copy_only=False)
                     - t.column("an").to_numpy(zero_copy_only=False))
        s1 = np.sign(t.column("bf").to_numpy(zero_copy_only=False)
                     - t.column("bn").to_numpy(zero_copy_only=False))
        p = s0 * s1
        return pa.table({
            "c": pa.array([np.int64((p > 0).sum())]),
            "d": pa.array([np.int64((p < 0).sum())]),
            "t": pa.array([np.int64((p == 0).sum())]),
        })

    parts = both.map_batches(_part, batch_format="pyarrow").take_all()
    conc = sum(int(r["c"]) for r in parts)
    disc = sum(int(r["d"]) for r in parts)
    ties = sum(int(r["t"]) for r in parts)
    if conc + disc + ties != e_count:
        raise ValueError(
            f"spatial_tau: {e_count - conc - disc - ties} of {e_count} "
            f"edges have endpoints missing from attrs ({id_col}); the "
            "attribute table must cover the graph's node universe"
        )
    return ray.data.from_arrow(pa.table({
        "s0": pa.array([e_count], pa.int64()),
        "concordant": pa.array([conc], pa.int64()),
        "discordant": pa.array([disc], pa.int64()),
        "ties": pa.array([ties], pa.int64()),
        "tau_f": pa.array(
            [float(conc - disc) / float(e_count)] if e_count else [0.0],
            pa.float64(),
        ),
    }))


def theta_index(
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
    regime_col: str = "regime",
) -> ray.data.Dataset:
    """Theta index of regime (cohesion) rank mobility (Rey 2004, the
    giddy Theta): with integer doubled average ranks r_t =
    :func:`rank_scores` of each snapshot,

        Θ = Σ_regimes |Σ_{i∈regime} (r1_i − r0_i)|  /  Σ_i |r1_i − r0_i|

    — 1 when all rank movement is regime-cohesive, → 0 when within-
    regime movements cancel. Output one row (theta_num, theta_den,
    theta_f): both sums exact int64, one pinned float division
    (theta_f = 0 when no ranks moved).

    100 TB shape: two distinct-value histogram rank passes, one
    bucket_join per rank table + one for the regime, a ≤#regimes
    groupby of int64 partials."""
    from libpysal_ray.core.joins import bucket_join

    def _sel(col):
        return attrs.map_batches(
            lambda t, c=col: pa.table({
                "id": t.column(id_col), "x": t.column(c),
            }),
            batch_format="pyarrow",
        )

    r0 = rank_scores(_sel(x0_col)).map_batches(
        lambda t: pa.table({"node": t.column("id"),
                            "r0": t.column("rank2")}),
        batch_format="pyarrow",
    )
    r1 = rank_scores(_sel(x1_col)).map_batches(
        lambda t: pa.table({"node": t.column("id"),
                            "r1": t.column("rank2")}),
        batch_format="pyarrow",
    )
    reg = attrs.map_batches(
        lambda t: pa.table({
            "node": t.column(id_col), "regime": t.column(regime_col),
        }),
        batch_format="pyarrow",
    )
    j = bucket_join(bucket_join(r0, r1, on="node"), reg, on="node")

    def _d(t: pa.Table) -> pa.Table:
        d = (t.column("r1").to_numpy(zero_copy_only=False)
             - t.column("r0").to_numpy(zero_copy_only=False))
        return pa.table({
            "regime": t.column("regime"),
            "net": pa.array(d),
            "gross": pa.array(np.abs(d)),
        })

    per = (
        j.map_batches(_d, batch_format="pyarrow")
        .groupby("regime")
        .aggregate(
            ray.data.aggregate.Sum("net"), ray.data.aggregate.Sum("gross")
        )
        .take_all()
    )
    num = sum(abs(int(r["sum(net)"])) for r in per)
    den = sum(int(r["sum(gross)"]) for r in per)
    return ray.data.from_arrow(pa.table({
        "theta_num": pa.array([num], pa.int64()),
        "theta_den": pa.array([den], pa.int64()),
        "theta_f": pa.array(
            [float(num) / float(den) if den else 0.0], pa.float64()
        ),
    }))


def lee_l(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    force_wide: bool = False,
) -> ray.data.Dataset:
    """Lee's L bivariate spatial-association statistic (Lee 2001 — the
    spatial analogue of Pearson's r, combining Moran smoothing of both
    variables) over g's BINARY edge set:

        L = (n / Σ_i (Σ_j w_ij)²) · Σ_i (lagdev_x)_i (lagdev_y)_i
            / (sqrt(Σ devx²) · sqrt(Σ devy²))

    computed entirely in exact integers with DOUBLED deviations
    z = n·x − Σx (the shared ESDA discipline — the n² factors cancel
    between numerator and the two root sums). Output one row
    (n, s02, lee_num, ssx, ssy, lee_f): s02 exact int64, the three
    big sums exact decimal STRINGS (they exceed int64 exactly when the
    wide regime engages), lee_f one pinned float expression

        float(n)·float(num) / (float(s02)·sqrt(float(ssx))·sqrt(float(ssy)))

    mirrored by the SQL oracle. NARROW/WIDE regime switching and the
    id-universe guard follow :func:`spatial_autocorr`: bounds are
    pre-checked in unbounded Python ints, the wide path reduces through
    :func:`_prod_sum_exact` 128-bit limb products with O(#blocks)
    decimal-string partials. 100 TB shape: one lag bucket_join + one
    groupby(focal) carrying BOTH z columns and the edge count, then
    three whole-dataset product sums — no driver-side per-node state.
    """
    from libpysal_ray.core.joins import bucket_join

    def _xy(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "y": pa.array(
                t.column(y_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        })

    xs = attrs.map_batches(_xy, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
        ray.data.aggregate.Sum("y"),
        ray.data.aggregate.Max("y"),
        ray.data.aggregate.Min("y"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("lee_l needs at least 2 observations")
    sx, sy = int(agg["sum(x)"]), int(agg["sum(y)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    ymax = max(abs(int(agg["max(y)"])), abs(int(agg["min(y)"])))
    zx_max = n * xmax + abs(sx)
    zy_max = n * ymax + abs(sy)
    e_count = int(g._real_edges().count())
    # per-focal lag sums are bounded by max_deg·z_max; use e_count as a
    # loose max_deg bound without an extra degree pass — the lag values
    # themselves must fit int64 on BOTH regimes
    max_deg = g.max_degree()
    lx_max = max_deg * zx_max
    ly_max = max_deg * zy_max
    if lx_max >= (1 << 62) or ly_max >= (1 << 62):
        raise ValueError("lee_l lag terms would overflow int64; rescale")
    wide = force_wide or (
        lx_max * ly_max * n >= (1 << 62)
        or zx_max * zx_max * n >= (1 << 62)
        or zy_max * zy_max * n >= (1 << 62)
    )

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "zx": pa.array(np.int64(n) * x - np.int64(sx)),
            "zy": pa.array(np.int64(n) * y - np.int64(sy)),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    lag = bucket_join(
        edges,
        zt.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"),
                "zxn": t.column("zx"),
                "zyn": t.column("zy"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    ).map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "zxn": t.column("zxn"),
            "zyn": t.column("zyn"),
        }),
        batch_format="pyarrow",
    ).groupby("node").aggregate(
        ray.data.aggregate.Sum("zxn"),
        ray.data.aggregate.Sum("zyn"),
        ray.data.aggregate.Count(),
    ).materialize()
    matched = int(lag.sum("count()") or 0)
    if matched != e_count:
        raise ValueError(
            f"lee_l: {e_count - matched} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    if e_count == 0:
        raise ValueError("graph has no edges")

    def _lag_cols(t: pa.Table) -> pa.Table:
        return pa.table({
            "lx": pc_cast_i64(t.column("sum(zxn)")),
            "ly": pc_cast_i64(t.column("sum(zyn)")),
            "d": pc_cast_i64(t.column("count()")),
        })

    lagc = lag.map_batches(_lag_cols, batch_format="pyarrow").materialize()
    if wide:
        num = _sum_prod_exact_ds(lagc, "lx", "ly")
        ssx = _sum_prod_exact_ds(zt, "zx", "zx")
        ssy = _sum_prod_exact_ds(zt, "zy", "zy")
    else:
        def _narrow(t: pa.Table) -> pa.Table:
            lx = t.column("lx").to_numpy(zero_copy_only=False)
            ly = t.column("ly").to_numpy(zero_copy_only=False)
            return pa.table({"p": pa.array([np.int64((lx * ly).sum())])})

        num = int(
            lagc.map_batches(_narrow, batch_format="pyarrow").sum("p") or 0
        )

        def _sq(col):
            def f(t: pa.Table) -> pa.Table:
                z = t.column(col).to_numpy(zero_copy_only=False)
                return pa.table({"p": pa.array([np.int64((z * z).sum())])})
            return f

        ssx = int(
            zt.map_batches(_sq("zx"), batch_format="pyarrow").sum("p") or 0
        )
        ssy = int(
            zt.map_batches(_sq("zy"), batch_format="pyarrow").sum("p") or 0
        )
    s02 = int(
        lagc.map_batches(
            lambda t: pa.table({
                "p": pa.array([
                    np.int64(
                        (t.column("d").to_numpy(zero_copy_only=False) ** 2)
                        .sum()
                    )
                ]),
            }),
            batch_format="pyarrow",
        ).sum("p")
        or 0
    )
    if ssx == 0 or ssy == 0:
        raise ValueError("constant attribute; Lee's L undefined")
    lee_f = float(
        np.float64(n) * np.float64(num)
        / (np.float64(s02) * np.sqrt(np.float64(ssx))
           * np.sqrt(np.float64(ssy)))
    )
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "s02": pa.array([s02], pa.int64()),
        "lee_num": pa.array([str(num)]),
        "ssx": pa.array([str(ssx)]),
        "ssy": pa.array([str(ssy)]),
        "lee_f": pa.array([lee_f], pa.float64()),
    }))


def sigma_convergence(
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
) -> ray.data.Dataset:
    """Sigma-convergence between two attribute snapshots (the regional-
    convergence variance ratio): with the n²-scaled exact variance
    V_t = n·Σx_t² − (Σx_t)², emits one row (n, v0, v1, ratio_f =
    float(v1)/float(v0)) — ratio < 1 ⟺ dispersion shrank. v0/v1 are
    exact decimal strings at any magnitude (the 128-bit limb reduction
    of :func:`_prod_sum_exact`); the ratio is one pinned division.
    100 TB shape: two whole-dataset product sums of O(#blocks)
    decimal-string partials, no shuffle at all."""

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "x0": pa.array(
                t.column(x0_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x1": pa.array(
                t.column(x1_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x0"),
        ray.data.aggregate.Sum("x1"),
    )
    n = int(agg["count()"])
    if n < 2:
        raise ValueError("sigma_convergence needs n >= 2")
    s0, s1 = int(agg["sum(x0)"]), int(agg["sum(x1)"])
    v0 = n * _sum_prod_exact_ds(xs, "x0", "x0") - s0 * s0
    v1 = n * _sum_prod_exact_ds(xs, "x1", "x1") - s1 * s1
    if v0 == 0:
        raise ValueError("x0 is constant; sigma ratio undefined")
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "v0": pa.array([str(v0)]),
        "v1": pa.array([str(v1)]),
        "ratio_f": pa.array(
            [float(np.float64(v1) / np.float64(v0))], pa.float64()
        ),
    }))


def shorrocks_index(
    attrs: ray.data.Dataset,
    class_bins: list[int],
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
) -> ray.data.Dataset:
    """Shorrocks mobility index of the x0→x1 class transition matrix
    (giddy's Markov mobility summary): with n_ij the transition counts
    under the fixed integer ``class_bins`` and r_i the row sums over
    the m_eff NON-EMPTY rows,

        S = (m_eff − Σ_i n_ii/r_i) / (m_eff − 1)

    computed as ONE exact rational: trace_num = Σ_i n_ii·Π_{j≠i} r_j
    and den = Π_i r_i (unbounded Python ints, decimal strings in the
    output), so S_f = (m_eff·den − trace_num)/((m_eff−1)·den) is a
    single pinned float division. Empty classes are excluded from
    m_eff (the reference's Markov drops all-zero rows the same way).
    100 TB shape: one ≤(k+1)² class groupby; the rational combine is
    k-bounded driver work."""
    cb = np.asarray(sorted(class_bins), dtype=np.int64)

    def _cls(t: pa.Table) -> pa.Table:
        x0 = t.column(x0_col).to_numpy(zero_copy_only=False)
        x1 = t.column(x1_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "c0": pa.array(
                np.searchsorted(cb, x0, side="right").astype(np.int64)),
            "c1": pa.array(
                np.searchsorted(cb, x1, side="right").astype(np.int64)),
        })

    rows = (
        attrs.map_batches(_cls, batch_format="pyarrow")
        .groupby(["c0", "c1"])
        .count()
        .take_all()
    )
    k = len(cb) + 1
    nm = np.zeros((k, k), dtype=object)
    for r in rows:
        nm[int(r["c0"]), int(r["c1"])] = int(r["count()"])
    rs = [int(sum(nm[i, :])) for i in range(k)]
    live = [i for i in range(k) if rs[i] > 0]
    m_eff = len(live)
    if m_eff < 2:
        raise ValueError("shorrocks_index needs >= 2 occupied classes")
    den = 1
    for i in live:
        den *= rs[i]
    trace_num = 0
    for i in live:
        p = int(nm[i, i])
        for j in live:
            if j != i:
                p *= rs[j]
        trace_num += p
    s_f = float(
        np.float64(m_eff * den - trace_num)
        / np.float64((m_eff - 1) * den)
    )
    return ray.data.from_arrow(pa.table({
        "m_eff": pa.array([m_eff], pa.int64()),
        "trace_num": pa.array([str(trace_num)]),
        "den": pa.array([str(den)]),
        "shorrocks_f": pa.array([s_f], pa.float64()),
    }))


def prais_index(
    attrs: ray.data.Dataset,
    class_bins: list[int],
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
) -> ray.data.Dataset:
    """Prais conditional mobility index per class (Prais 1955; giddy's
    Markov.prais summary downstream of libpysal weights): for each
    occupied class i of the x0→x1 transition matrix under the fixed
    integer ``class_bins``,

        prais_i = 1 − p_ii = (r_i − n_ii) / r_i

    with n_ii the diagonal count and r_i the row total — one EXACT
    integer fraction per class plus one pinned float division. Output
    one row per occupied class: (c, diag, row_tot, prais_num, prais_f).
    Empty classes are dropped (the reference's Markov drops all-zero
    rows the same way).

    100 TB shape: identical to :func:`shorrocks_index` — one ≤(k+1)²
    class groupby; everything after is k-bounded driver work."""
    cb = np.asarray(sorted(class_bins), dtype=np.int64)

    def _cls(t: pa.Table) -> pa.Table:
        x0 = t.column(x0_col).to_numpy(zero_copy_only=False)
        x1 = t.column(x1_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "c0": pa.array(
                np.searchsorted(cb, x0, side="right").astype(np.int64)),
            "c1": pa.array(
                np.searchsorted(cb, x1, side="right").astype(np.int64)),
        })

    rows = (
        attrs.map_batches(_cls, batch_format="pyarrow")
        .groupby(["c0", "c1"])
        .count()
        .take_all()
    )
    k = len(cb) + 1
    nm = np.zeros((k, k), dtype=np.int64)
    for r in rows:
        nm[int(r["c0"]), int(r["c1"])] = int(r["count()"])
    rs = nm.sum(axis=1)
    live = np.flatnonzero(rs > 0)
    if len(live) == 0:
        raise ValueError("prais_index: empty input")
    diag = nm[live, live]
    rt = rs[live]
    return ray.data.from_arrow(pa.table({
        "c": pa.array(live.astype(np.int64)),
        "diag": pa.array(diag.astype(np.int64)),
        "row_tot": pa.array(rt.astype(np.int64)),
        "prais_num": pa.array((rt - diag).astype(np.int64)),
        "prais_f": pa.array(
            (rt - diag).astype(np.float64) / rt.astype(np.float64)
        ),
    }))


def join_counts_inference(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Analytic (randomization / nonfree sampling) inference for the
    directed BB join count (Cliff & Ord 1981 moments; the esda
    Join_Counts family does this by permutation — here the moments are
    EXACT RATIONALS so the whole inference is reproducible): with
    B = Σ_ij w_ij x_i x_j over the directed binary edge set, n₁ ones,
    falling-factorial probabilities m_k = n₁⁽ᵏ⁾/n⁽ᵏ⁾ and the binary
    graph constants S0/S1/S2,

        E[B]   = S0·m₂
        E[B²]  = S1·m₂ + (S2−2S1)·m₃ + (S0²+S1−S2)·m₄

    Every moment is carried as an exact integer numerator/denominator
    (unbounded Python ints, decimal strings in the output; the SQL
    oracle mirrors them in HUGEINT — fine at gate scale, the strings
    are authoritative beyond). Output one row: (bb, n, n1, s0, s1, s2,
    e_num, e_den, var_num, var_den, e_f, var_f, z_f) — the three floats
    are the pinned chain e = e_num/e_den, v = var_num/var_den,
    z = (bb − e)/sqrt(v). Needs n ≥ 4 and Var > 0 (raises loudly).

    100 TB shape: one :func:`join_counts` pass (two bucket_joins), the
    canonical-pair S1 groupby and the degree S2 groupby — everything
    else is O(1) driver rational arithmetic."""
    jc = join_counts(g, attrs, id_col=id_col, x_col=x_col).take_all()[0]
    s0, b = int(jc["s0"]), int(jc["bb"])
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    s1 = _s1_binary(edges)
    s2 = _s2_binary(edges)

    def _x01(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"x": pa.array(x)})

    xs = attrs.map_batches(_x01, batch_format="pyarrow")
    agg = xs.aggregate(
        ray.data.aggregate.Count(), ray.data.aggregate.Sum("x")
    )
    n = int(agg["count()"])
    n1 = int(agg["sum(x)"])
    if n < 4:
        raise ValueError("join_counts_inference needs n >= 4")
    e_num = s0 * n1 * (n1 - 1)
    e_den = n * (n - 1)
    d4 = n * (n - 1) * (n - 2) * (n - 3)
    a = (
        s1 * n1 * (n1 - 1) * (n - 2) * (n - 3)
        + (s2 - 2 * s1) * n1 * (n1 - 1) * (n1 - 2) * (n - 3)
        + (s0 * s0 + s1 - s2) * n1 * (n1 - 1) * (n1 - 2) * (n1 - 3)
    )
    var_num = a * e_den * e_den - e_num * e_num * d4
    var_den = d4 * e_den * e_den
    if var_num <= 0:
        raise ValueError(
            "join_counts_inference: zero analytic variance (constant x "
            "or degenerate graph)"
        )
    e_f = float(np.float64(e_num) / np.float64(e_den))
    var_f = float(np.float64(var_num) / np.float64(var_den))
    z_f = float((np.float64(b) - np.float64(e_f)) / np.sqrt(
        np.float64(var_f)))
    return ray.data.from_arrow(pa.table({
        "bb": pa.array([b], pa.int64()),
        "n": pa.array([n], pa.int64()),
        "n1": pa.array([n1], pa.int64()),
        "s0": pa.array([s0], pa.int64()),
        "s1": pa.array([s1], pa.int64()),
        "s2": pa.array([s2], pa.int64()),
        "e_num": pa.array([str(e_num)]),
        "e_den": pa.array([str(e_den)]),
        "var_num": pa.array([str(var_num)]),
        "var_den": pa.array([str(var_den)]),
        "e_f": pa.array([e_f], pa.float64()),
        "var_f": pa.array([var_f], pa.float64()),
        "z_f": pa.array([z_f], pa.float64()),
    }))


def local_moran_inference(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Analytic randomization inference for the local Moran (Anselin
    1995 eq. 13-14, the esda Moran_Local analytic moments) over the
    BINARY edge set: with deg_i = Σ_j w_ij, doubled deviations
    zd = n·x − Σx, S2 = Σ zd², S4 = Σ zd⁴ and the kurtosis ratio
    b2 = n·S4/S2² (scale-invariant — the n⁴ factors cancel),

        E[I_i]   = −deg_i/(n−1)
        Var[I_i] = deg_i(n−b2)/(n−1) + (deg_i²−deg_i)(2b2−n)/((n−1)(n−2))
                   − deg_i²/(n−1)²

    carried as ONE exact rational per node over the common denominator
    S2²·(n−1)²·(n−2): var_num_i = deg_i·A + (deg_i²−deg_i)·B − deg_i²·C
    with the three global unbounded-int constants
    A = n(S2²−S4)(n−1)(n−2), B = n(2S4−S2²)(n−1), C = S2²(n−2).
    Per-node bigint products are evaluated once per DISTINCT degree
    (degrees are few; never a Python loop over rows). Output per node:
    (id, z, lag_z, deg, local_i, e_f, var_num, var_den, var_f, z_score)
    — var_num/var_den exact decimal strings, the floats one pinned
    chain mirrored by SQL; isolates (deg 0, zero variance) report
    z_score 0. Narrow-regime guards as :func:`local_moran` (raises
    'rescale x' beyond)."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
    )
    n = int(agg["count()"])
    if n < 3:
        raise ValueError("local_moran_inference needs n >= 3")
    sx = int(agg["sum(x)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    z_max = n * xmax + abs(sx)
    max_deg = g.max_degree()
    if (
        z_max * z_max >= (1 << 62)
        or n * z_max * max_deg * z_max >= (1 << 62)
    ):
        raise ValueError(
            "local_moran_inference z terms would overflow int64; "
            "rescale x"
        )

    def _with_z(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        z = np.int64(n) * x - np.int64(sx)
        return pa.table({
            "node": t.column("node"),
            "z": pa.array(z),
            "z2": pa.array(z * z),
        })

    zt = xs.map_batches(_with_z, batch_format="pyarrow").materialize()
    s2 = _sum_prod_exact_ds(zt, "z", "z")
    s4 = _sum_prod_exact_ds(zt, "z2", "z2")
    if s2 == 0:
        raise ValueError("x is constant; local Moran undefined")
    a_c = n * (s2 * s2 - s4) * (n - 1) * (n - 2)
    b_c = n * (2 * s4 - s2 * s2) * (n - 1)
    c_c = s2 * s2 * (n - 2)
    var_den = s2 * s2 * (n - 1) * (n - 1) * (n - 2)
    vden_f = np.float64(var_den)

    lagged = _lag_sum_guarded(g, zt, "z", "lag_z", "local_moran_inference",
                              id_col)
    cards = g.cardinalities().map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "deg": pc_cast_i64(t.column("cardinality")),
        }),
        batch_format="pyarrow",
    )
    joined = bucket_join(
        bucket_join(zt, lagged, on="node", how="left"),
        cards, on="node", how="left",
    )
    nm1 = np.float64(n - 1)

    def _score(t: pa.Table) -> pa.Table:
        z = t.column("z").to_numpy(zero_copy_only=False)
        lag = pc_fill0(t, "lag_z")
        deg = pc_fill0(t, "deg")
        num = np.int64(n) * z * lag
        local = num.astype(np.float64) / np.float64(s2)
        e_f = -deg.astype(np.float64) / nm1
        # exact bigint var_num per DISTINCT degree (few), mapped back by
        # the unique inverse — no per-row Python work
        uq, inv = np.unique(deg, return_inverse=True)
        vn = [int(d) * a_c + (int(d) * int(d) - int(d)) * b_c
              - int(d) * int(d) * c_c for d in uq]
        vf_uq = np.array(
            [np.float64(v) / vden_f for v in vn], dtype=np.float64
        )
        vs_uq = np.array([str(v) for v in vn], dtype=object)
        var_f = vf_uq[inv]
        zsc = np.where(
            var_f > 0.0,
            (local - e_f) / np.sqrt(np.maximum(var_f, 1e-300)),
            0.0,
        )
        return pa.table({
            id_col: t.column("node"),
            "z": pa.array(z),
            "lag_z": pa.array(lag),
            "deg": pa.array(deg),
            "local_i": pa.array(local),
            "e_f": pa.array(e_f),
            "var_num": pa.array(vs_uq[inv], pa.string()),
            "var_den": pa.array(
                [str(var_den)] * t.num_rows
            ),
            "var_f": pa.array(var_f),
            "z_score": pa.array(zsc),
        })

    return joined.map_batches(_score, batch_format="pyarrow")


def ols_resid_moran(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    y_col: str = "y",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Residual spatial-autocorrelation diagnostic for the simple OLS
    regression y ~ a + b·x (the spreg-workflow 'Moran's I of the
    residuals' downstream of libpysal weights), entirely in exact
    rationals: with the slope b = bnum/bden (normal equations), the
    residuals share the common denominator n·bden, so their integer
    numerators

        E_i = n·bden·y_i − bden·Σy + bnum·Σx − n·bnum·x_i

    make Moran's I of the residuals a ratio of two exact integer sums
    (the denominators cancel):

        I = (n/S0) · Σ_{ij} w_ij E_i E_j / Σ E_i²

    Output one row (n, s0, bnum, bden, moran_num, moran_den, beta_f,
    moran_f): the big integers as decimal strings (128-bit limb
    reductions), the two floats single pinned divisions. Guards: E
    terms must fit int64 (raises 'rescale' otherwise — attribute
    magnitudes ~100 hold to gate scale; the decimal strings stay exact
    on the wide reductions regardless).

    100 TB shape: the usual ESDA plan — O(#blocks) decimal partials
    for the normal equations, one bucket_join per edge endpoint, one
    guarded edge-count check."""
    from libpysal_ray.core.joins import bucket_join

    def _xy(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "x": pa.array(
                t.column(x_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "y": pa.array(
                t.column(y_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
        })

    xs = attrs.map_batches(_xy, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(),
        ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Sum("y"),
        ray.data.aggregate.Max("x"),
        ray.data.aggregate.Min("x"),
        ray.data.aggregate.Max("y"),
        ray.data.aggregate.Min("y"),
    )
    n = int(agg["count()"])
    if n < 3:
        raise ValueError("ols_resid_moran needs n >= 3")
    sx, sy = int(agg["sum(x)"]), int(agg["sum(y)"])
    xmax = max(abs(int(agg["max(x)"])), abs(int(agg["min(x)"])))
    ymax = max(abs(int(agg["max(y)"])), abs(int(agg["min(y)"])))
    sxx = _sum_prod_exact_ds(xs, "x", "x")
    sxy = _sum_prod_exact_ds(xs, "x", "y")
    bnum = n * sxy - sx * sy
    bden = n * sxx - sx * sx
    if bden == 0:
        raise ValueError("x is constant; OLS slope undefined")
    e_bound = (
        n * abs(bden) * ymax + abs(bden) * abs(sy)
        + abs(bnum) * abs(sx) + n * abs(bnum) * xmax
    )
    if e_bound >= (1 << 62):
        raise ValueError(
            "ols_resid_moran residual numerators would overflow int64; "
            "rescale x/y"
        )

    c0 = -bden * sy + bnum * sx  # constant part of E_i
    nb = n * bden

    def _resid(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "e": pa.array(
                np.int64(nb) * y + np.int64(c0) - np.int64(n * bnum) * x
            ),
        })

    et = xs.map_batches(_resid, batch_format="pyarrow").materialize()
    den = _sum_prod_exact_ds(et, "e", "e")
    if den == 0:
        raise ValueError("residuals are all zero; Moran undefined")
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    e_count = int(g._real_edges().count())
    lhs = bucket_join(
        edges,
        et.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "ef": t.column("e"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    ).map_batches(
        lambda t: t.select(["neighbor", "ef"]), batch_format="pyarrow"
    )
    both = bucket_join(
        lhs,
        et.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "en": t.column("e"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _part(t: pa.Table) -> pa.Table:
        ef = t.column("ef").to_numpy(zero_copy_only=False)
        en = t.column("en").to_numpy(zero_copy_only=False)
        return pa.table({
            "s0": pa.array([np.int64(t.num_rows)]),
            "p": pa.array([str(_prod_sum_exact(ef, en))]),
        })

    parts = both.map_batches(_part, batch_format="pyarrow").take_all()
    s0 = sum(int(r["s0"]) for r in parts)
    num = sum(int(r["p"]) for r in parts)
    if s0 != e_count:
        raise ValueError(
            f"ols_resid_moran: {e_count - s0} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col})"
        )
    if s0 == 0:
        raise ValueError("graph has no edges")
    beta_f = float(np.float64(bnum) / np.float64(bden))
    moran_f = float(np.float64(n * num) / np.float64(s0 * den))
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "s0": pa.array([s0], pa.int64()),
        "bnum": pa.array([str(bnum)]),
        "bden": pa.array([str(bden)]),
        "moran_num": pa.array([str(num)]),
        "moran_den": pa.array([str(den)]),
        "beta_f": pa.array([beta_f], pa.float64()),
        "moran_f": pa.array([moran_f], pa.float64()),
    }))


def general_g_inference(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Getis–Ord General G with the analytic randomization moments
    (Getis & Ord 1992; the esda.G EG/VG/z downstream of libpysal
    weights) over the binary edge set. With m_k = Σ x^k and the binary
    graph constants S0/S1/S2:

        E[G]    = S0 / (n(n−1))
        E[G²]   = (b0·m2² + b1·m4 + b2·m1²·m2 + b3·m1·m3 + b4·m1⁴)
                  / ((m1² − m2)² · n(n−1)(n−2)(n−3))
        b0 = (n²−3n+3)S1 − nS2 + 3S0²
        b1 = −((n²−n)S1 − 2nS2 + 6S0²)
        b2 = −(2nS1 − (n+3)S2 + 6S0²)
        b3 = 4(n−1)S1 − 2(n+1)S2 + 8S0²
        b4 = S1 − S2 + S0²

    Every moment is an EXACT integer (unbounded Python ints; E[G²]'s
    numerator/denominator ship as decimal strings — the SQL oracle
    mirrors them in HUGEINT, fine at gate scale, the strings are
    authoritative beyond). The float companions are one pinned chain:
    g_f = g_num/g_den, e_f = S0/(n(n−1)), eg2_f = eg2_num/eg2_den,
    var_f = eg2_f − e_f·e_f, z_f = (g_f − e_f)/sqrt(var_f). Needs
    n ≥ 4, non-negative x with off-diagonal mass, Var > 0.

    100 TB shape: one :func:`general_g` pass (two bucket_joins), the
    canonical-pair S1 groupby, the degree S2 groupby and ONE moment
    aggregate over attrs — everything else is O(1) driver rational
    arithmetic."""
    import math

    gg = general_g(g, attrs, id_col=id_col, x_col=x_col).take_all()[0]
    s0 = int(gg["s0"])
    g_num, g_den = int(gg["g_num"]), int(gg["g_den"])
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    s1 = _s1_binary(edges)
    s2 = _s2_binary(edges)

    def _xz(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"x": pa.array(x)})

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(), ray.data.aggregate.Max("x")
    )
    n = int(agg["count()"])
    xmax = int(agg["max(x)"] or 0)
    if n < 4:
        raise ValueError("general_g_inference needs n >= 4")
    if xmax >= (1 << 31):
        raise ValueError(
            "general_g_inference moments need x < 2^31 (the x² limb "
            f"feeding Σx³/Σx⁴ must fit int64); got max {xmax} — rescale x"
        )

    def _moments(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        x2 = x * x  # < 2^62 by the xmax guard
        return pa.table({
            "m1": pa.array([np.int64(x.sum())]),
            "m2": pa.array([str(_prod_sum_exact(x, x))]),
            "m3": pa.array([str(_prod_sum_exact(x2, x))]),
            "m4": pa.array([str(_prod_sum_exact(x2, x2))]),
        })

    mom = xs.map_batches(_moments, batch_format="pyarrow").take_all()
    m1 = sum(int(r["m1"]) for r in mom)
    m2 = sum(int(r["m2"]) for r in mom)
    m3 = sum(int(r["m3"]) for r in mom)
    m4 = sum(int(r["m4"]) for r in mom)

    b0 = (n * n - 3 * n + 3) * s1 - n * s2 + 3 * s0 * s0
    b1 = -((n * n - n) * s1 - 2 * n * s2 + 6 * s0 * s0)
    b2 = -(2 * n * s1 - (n + 3) * s2 + 6 * s0 * s0)
    b3 = 4 * (n - 1) * s1 - 2 * (n + 1) * s2 + 8 * s0 * s0
    b4 = s1 - s2 + s0 * s0
    eg2_num = (
        b0 * m2 * m2 + b1 * m4 + b2 * m1 * m1 * m2 + b3 * m1 * m3
        + b4 * m1 ** 4
    )
    eg2_den = (m1 * m1 - m2) ** 2 * n * (n - 1) * (n - 2) * (n - 3)
    e_den = n * (n - 1)

    g_f = float(np.float64(g_num) / np.float64(g_den))
    e_f = float(np.float64(s0) / np.float64(e_den))
    eg2_f = float(np.float64(eg2_num) / np.float64(eg2_den))
    var_f = float(np.float64(eg2_f) - np.float64(e_f) * np.float64(e_f))
    if var_f <= 0.0:
        raise ValueError(
            "general_g_inference: non-positive analytic variance "
            "(constant x or degenerate graph)"
        )
    z_f = float((np.float64(g_f) - np.float64(e_f)) / math.sqrt(var_f))
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "s0": pa.array([s0], pa.int64()),
        "s1": pa.array([s1], pa.int64()),
        "s2": pa.array([s2], pa.int64()),
        "g_num": pa.array([g_num], pa.int64()),
        "g_den": pa.array([g_den], pa.int64()),
        "e_den": pa.array([e_den], pa.int64()),
        "eg2_num": pa.array([str(eg2_num)]),
        "eg2_den": pa.array([str(eg2_den)]),
        "g_f": pa.array([g_f], pa.float64()),
        "e_f": pa.array([e_f], pa.float64()),
        "eg2_f": pa.array([eg2_f], pa.float64()),
        "var_f": pa.array([var_f], pa.float64()),
        "z_f": pa.array([z_f], pa.float64()),
    }))


def _det3(m: list[list[int]]) -> int:
    """Exact 3×3 determinant in unbounded Python ints."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def trend_surface(
    pts: ray.data.Dataset,
    x_col: str = "x",
    y_col: str = "y",
    z_col: str = "z",
) -> ray.data.Dataset:
    """First-order trend surface z ~ a + b·x + c·y by exact-rational
    least squares (the classic spatial-drift decomposition; libpysal
    feeds these residuals to esda — here the normal equations are
    solved by Cramer's rule in unbounded Python ints so the fit is
    reproducible bit-for-bit). Output ONE row: n, the ten integer
    sufficient statistics, the common determinant D = det(XᵀX) and the
    three coefficient numerators as decimal strings, the exact SSE
    rational sse_num/D via SSE·D = D·Σz² − (aN·Σz + bN·Σxz + cN·Σyz),
    and four pinned floats a_f = aN/D, b_f, c_f, sse_f.

    Integer inputs only (coordinates and attribute); raises on a
    singular design (collinear coordinates).

    100 TB shape: ONE stateless aggregate pass (per-batch 128-bit-safe
    partial sums via the decomposed-multiply helper → O(#blocks) driver
    partials); the 3×3 solve and every downstream product is O(1)
    driver bignum arithmetic."""
    def _sums(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        z = t.column(z_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "n": pa.array([np.int64(len(x))]),
            "sx": pa.array([np.int64(x.sum())]),
            "sy": pa.array([np.int64(y.sum())]),
            "sz": pa.array([np.int64(z.sum())]),
            "sxx": pa.array([str(_prod_sum_exact(x, x))]),
            "syy": pa.array([str(_prod_sum_exact(y, y))]),
            "sxy": pa.array([str(_prod_sum_exact(x, y))]),
            "sxz": pa.array([str(_prod_sum_exact(x, z))]),
            "syz": pa.array([str(_prod_sum_exact(y, z))]),
            "szz": pa.array([str(_prod_sum_exact(z, z))]),
        })

    parts = pts.map_batches(_sums, batch_format="pyarrow").take_all()
    n = sum(int(r["n"]) for r in parts)
    if n < 3:
        raise ValueError("trend_surface needs at least 3 points")
    sx = sum(int(r["sx"]) for r in parts)
    sy = sum(int(r["sy"]) for r in parts)
    sz = sum(int(r["sz"]) for r in parts)
    sxx = sum(int(r["sxx"]) for r in parts)
    syy = sum(int(r["syy"]) for r in parts)
    sxy = sum(int(r["sxy"]) for r in parts)
    sxz = sum(int(r["sxz"]) for r in parts)
    syz = sum(int(r["syz"]) for r in parts)
    szz = sum(int(r["szz"]) for r in parts)

    xtx = [[n, sx, sy], [sx, sxx, sxy], [sy, sxy, syy]]
    d = _det3(xtx)
    if d == 0:
        raise ValueError("trend_surface: singular design (collinear x,y)")
    a_num = _det3([[sz, sx, sy], [sxz, sxx, sxy], [syz, sxy, syy]])
    b_num = _det3([[n, sz, sy], [sx, sxz, sxy], [sy, syz, syy]])
    c_num = _det3([[n, sx, sz], [sx, sxx, sxz], [sy, sxy, syz]])
    sse_num = d * szz - (a_num * sz + b_num * sxz + c_num * syz)

    a_f = float(np.float64(a_num) / np.float64(d))
    b_f = float(np.float64(b_num) / np.float64(d))
    c_f = float(np.float64(c_num) / np.float64(d))
    sse_f = float(np.float64(sse_num) / np.float64(d))
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "sx": pa.array([sx], pa.int64()),
        "sy": pa.array([sy], pa.int64()),
        "sz": pa.array([sz], pa.int64()),
        "det": pa.array([str(d)]),
        "a_num": pa.array([str(a_num)]),
        "b_num": pa.array([str(b_num)]),
        "c_num": pa.array([str(c_num)]),
        "sse_num": pa.array([str(sse_num)]),
        "a_f": pa.array([a_f], pa.float64()),
        "b_f": pa.array([b_f], pa.float64()),
        "c_f": pa.array([c_f], pa.float64()),
        "sse_f": pa.array([sse_f], pa.float64()),
    }))


def _kth_smallest_id(
    ids: ray.data.Dataset,
    k: int,
    n_total: int,
    max_gather: int,
) -> int:
    """k-th smallest (1-based) value of integer column ``i`` — driver
    gather when the stream is provably small (``n_total`` known from a
    histogram before any pull), else ONE distributed ``prefix_sum``
    rank with a single-row pull (the select_top_fraction discipline)."""
    if n_total <= max_gather:
        vals = np.array([r["i"] for r in ids.take_all()], dtype=np.int64)
        return int(np.partition(vals, k - 1)[k - 1])
    from libpysal_ray.core.scan import prefix_sum

    ranked = prefix_sum(
        ids.map_batches(
            lambda t: t.append_column(
                "one", pa.array(np.ones(t.num_rows, dtype=np.int64))
            ),
            batch_format="pyarrow",
        ),
        "i",
        "one",
        out_col="rk",
    )
    return int(ranked.filter(expr=f"rk == {k}").take_all()[0]["i"])


def rank_markov(
    snap: ray.data.Dataset,
    id_col: str = "id",
    x0_col: str = "x0",
    x1_col: str = "x1",
    n_classes: int = 5,
    max_boundary_ids: int = 5_000_000,
) -> ray.data.Dataset:
    """Full-rank Markov transition counts (giddy's FullRank_Markov
    discretized to ``n_classes`` rank classes): each period's values
    are ranked globally (ties broken by LOWEST id — deterministic at
    any cluster size / block layout), rank r (0-based) maps to class
    r·K//n, and the output is the K×K transition count table
    (c0, c1, cnt) over the two periods — rows only for observed pairs.

    Physical plan (NO global sort of the corpus): per period the
    distinct-value histogram (per-batch value_counts combiner → one
    small groupby) locates the K−1 rank thresholds t_q = ⌈q·n/K⌉; a
    threshold interior to a tie bucket resolves to an id cutoff — the
    (t_q − cum_before)-th smallest id among ONLY that bucket's rows,
    via driver gather when the bucket is provably small (count known
    from the histogram) or a distributed prefix-sum rank otherwise.
    Classification is then a stateless broadcast filter; the K² table
    reduces through per-batch bincount partials. Driver memory is
    distinct-value cardinality + min(bucket, #blocks) — never corpus
    size."""
    if n_classes < 2:
        raise ValueError("rank_markov needs n_classes >= 2")
    kcls = int(n_classes)

    def _cuts(col: str):
        def _partial(t: pa.Table, c=col) -> pa.Table:
            import pyarrow.compute as pc

            vc = pc.cast(t.column(c), pa.int64()).combine_chunks() \
                .value_counts()
            return pa.table({
                "v": vc.field("values"),
                "c": pc.cast(vc.field("counts"), pa.int64()),
            })

        rows = (
            snap.select_columns([col])
            .map_batches(_partial, batch_format="pyarrow")
            .groupby("v")
            .sum("c")
            .rename_columns({"sum(c)": "c"})
            .sort("v")
            .take_all()
        )
        n = int(sum(r["c"] for r in rows))
        cuts = []  # (v_q, id_cut) — "below" := v < v_q or (==, id <= cut)
        for q in range(1, kcls):
            t_q = (q * n + kcls - 1) // kcls
            cum = 0
            for r in rows:
                if cum + int(r["c"]) >= t_q:
                    v_q, kq = int(r["v"]), t_q - cum
                    if kq == int(r["c"]):
                        cuts.append((v_q, np.iinfo(np.int64).max))
                    else:
                        bucket = snap.select_columns(
                            [id_col, col]
                        ).map_batches(
                            lambda t, c=col, vv=v_q: pa.table({
                                "i": pa.array(
                                    t.column(id_col).to_numpy(
                                        zero_copy_only=False
                                    )[
                                        t.column(c).to_numpy(
                                            zero_copy_only=False
                                        ) == vv
                                    ].astype(np.int64)
                                )
                            }),
                            batch_format="pyarrow",
                        )
                        cuts.append((v_q, _kth_smallest_id(
                            bucket, kq, int(r["c"]), max_boundary_ids
                        )))
                    break
                cum += int(r["c"])
        return n, cuts

    n0, cuts0 = _cuts(x0_col)
    n1, cuts1 = _cuts(x1_col)
    if n0 != n1 or n0 == 0:
        raise ValueError("rank_markov needs one row per unit, n > 0")

    c0v = np.array([v for v, _ in cuts0], dtype=np.int64)
    c0i = np.array([i for _, i in cuts0], dtype=np.int64)
    c1v = np.array([v for v, _ in cuts1], dtype=np.int64)
    c1i = np.array([i for _, i in cuts1], dtype=np.int64)

    def _classify(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        out = {}
        for tag, col, cv, ci in (
            ("c0", x0_col, c0v, c0i), ("c1", x1_col, c1v, c1i),
        ):
            v = t.column(col).to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            cls = np.zeros(len(v), dtype=np.int64)
            for vq, iq in zip(cv, ci):
                below = (v < vq) | ((v == vq) & (ids <= iq))
                cls += ~below
            out[tag] = cls
        key = out["c0"] * kcls + out["c1"]
        cnt = np.bincount(key, minlength=kcls * kcls).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "k": pa.array(nz.astype(np.int64)),
            "cnt": pa.array(cnt[nz]),
        })

    agg = (
        snap.map_batches(_classify, batch_format="pyarrow")
        .groupby("k")
        .sum("cnt")
    )

    def _unpack(t: pa.Table) -> pa.Table:
        k = t.column("k").to_numpy(zero_copy_only=False)
        return pa.table({
            "c0": pa.array((k // kcls).astype(np.int64)),
            "c1": pa.array((k % kcls).astype(np.int64)),
            "cnt": pa.array(
                t.column("sum(cnt)").to_numpy(zero_copy_only=False)
                .astype(np.int64)
            ),
        })

    return agg.map_batches(_unpack, batch_format="pyarrow")


def gi_inference(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Per-node local G_i with the analytic randomization moments
    (Getis & Ord 1992; esda.G_Local with binary weights) — EXACT
    integer fractions per node. With m1 = Σx, m2 = Σx², W_i = deg_i
    and the i-exclusive sums S1' = m1 − x_i, S2' = m2 − x_i²:

        G_i    = Σ_{j∈N(i)} x_j / S1'
        E[G_i] = W_i / (n−1)
        V[G_i] = [W_i(n−1−W_i) / ((n−1)²(n−2))]
                 · [((n−1)S2' − S1'²) / S1'²]

    The variance ships as the TWO exact int64 fractions of that product
    (r1_num/r1_den · r2_num/r2_den — keeping each factor in int64
    instead of one 128-bit product raises the usable n ceiling to ~2M
    nodes, guarded loudly); v_f multiplies the two pinned divisions,
    z_f = (g_f − e_f)/√v_f, NULL where the variance is non-positive
    (isolates, constant x). Output one row per node: (id, x, deg,
    g_num, g_den, e_den, r1_num, r1_den, r2_num, r2_den, g_f, e_f,
    v_f, z_f).

    100 TB shape: the shared guarded-lag attach (one bucket_join + one
    groupby(focal)), the cardinality aggregate, and ONE node-universe
    left join — all per-node math is stateless vectorized int64."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and x.min() < 0:
            raise ValueError("gi_inference needs non-negative x")
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
            "x": pa.array(x),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Count(), ray.data.aggregate.Sum("x"),
        ray.data.aggregate.Max("x"),
    )
    n = int(agg["count()"])
    m1 = int(agg["sum(x)"])
    xmax = int(agg["max(x)"] or 0)
    if n < 3:
        raise ValueError("gi_inference needs n >= 3")
    if m1 - xmax <= 0:
        raise ValueError(
            "gi_inference: sum(x) excluding any node must stay positive"
        )
    if xmax * max(n, 1) >= (1 << 31):
        # S1'² and (n−1)·S2' both must fit int64
        raise ValueError(
            "gi_inference exact fractions need sum(x) < 2^31; rescale x"
        )
    if (n - 1) * (n - 1) * (n - 2) >= (1 << 62):
        raise ValueError(
            "gi_inference r1 denominator (n−1)²(n−2) exceeds int64 at "
            f"n={n}; use the permutation path at this scale"
        )
    # m2 ≤ n·xmax² < 2^62 by the sum(x) < 2^31 guard above — plain
    # int64 per-batch partials are exact
    m2 = int(
        xs.map_batches(
            lambda t: pa.table({"p": pa.array([np.int64(
                (t.column("x").to_numpy(zero_copy_only=False) ** 2).sum()
            )])}),
            batch_format="pyarrow",
        ).sum("p")
    )

    lagged = _lag_sum_guarded(g, xs, "x", "nsum", "gi_inference", id_col)
    degs = g.cardinalities().map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "deg": pa.array(
                t.column("cardinality").to_numpy(zero_copy_only=False)
                .astype(np.int64)
            ),
        }),
        batch_format="pyarrow",
    )
    joined = bucket_join(
        bucket_join(xs, lagged, on="node", how="left"),
        degs, on="node", how="left",
    )
    r1_den = (n - 1) * (n - 1) * (n - 2)

    def _score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        x = t.column("x").to_numpy(zero_copy_only=False)
        lag = pc.fill_null(
            pc.cast(t.column("nsum"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        deg = pc.fill_null(
            pc.cast(t.column("deg"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        s1p = np.int64(m1) - x
        s2p = np.int64(m2) - x * x
        r1n = deg * (np.int64(n - 1) - deg)
        r2n = np.int64(n - 1) * s2p - s1p * s1p
        r2d = s1p * s1p
        g_f = lag.astype(np.float64) / s1p.astype(np.float64)
        e_f = deg.astype(np.float64) / np.float64(n - 1)
        v_f = (r1n.astype(np.float64) / np.float64(r1_den)) * (
            r2n.astype(np.float64) / r2d.astype(np.float64)
        )
        ok = (r1n > 0) & (r2n > 0)
        z = np.where(ok, (g_f - e_f) / np.sqrt(np.where(ok, v_f, 1.0)),
                     np.nan)
        return pa.table({
            id_col: t.column("node"),
            "x": pa.array(x),
            "deg": pa.array(deg),
            "g_num": pa.array(lag),
            "g_den": pa.array(s1p),
            "e_den": pa.array(np.full(len(x), n - 1, dtype=np.int64)),
            "r1_num": pa.array(r1n),
            "r1_den": pa.array(np.full(len(x), r1_den, dtype=np.int64)),
            "r2_num": pa.array(r2n),
            "r2_den": pa.array(r2d),
            "g_f": pa.array(g_f),
            "e_f": pa.array(e_f),
            "v_f": pa.array(v_f),
            "z_f": pa.array(z, mask=~ok),
        })

    return joined.map_batches(_score, batch_format="pyarrow")


def local_simpson(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    cat_col: str = "c",
) -> ray.data.Dataset:
    """Neighborhood Simpson concentration index (Simpson 1949; the
    neighborhood-diversity measure of the segregation literature
    downstream of libpysal weights, sibling of :func:`dissimilarity`):
    for every observation, over its neighbors' categories,

        lambda_i = Sum_c n_c(n_c - 1) / (N_i(N_i - 1))

    with n_c the count of neighbors in category c and N_i the neighbor
    total — the probability two random neighbors share a category.
    EXACT integer numerator/denominator, one pinned float per row;
    1 - lambda is Simpson diversity. Output one row per observation
    (id, n_nbrs, s2, simpson_f); nodes with fewer than two neighbors
    (isolates included) take simpson_f = 0.0 by the documented
    convention. Categories must be integers.

    100 TB shape: one bucket_join of categories onto edges (guarded:
    raises on id-universe mismatch), ONE groupby(focal, cat) count,
    one groupby(focal) reduce, one universe left join."""
    from libpysal_ray.core.joins import bucket_join

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
            "c": pa.array(
                t.column(cat_col).to_numpy(zero_copy_only=False).astype(
                    np.int64)),
        })

    xs = attrs.map_batches(_xz, batch_format="pyarrow").materialize()
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    la = bucket_join(
        edges,
        xs.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "c": t.column("c"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    ).map_batches(
        lambda t: pa.table({
            "node": t.column("focal"), "c": t.column("c"),
        }),
        batch_format="pyarrow",
    ).groupby(["node", "c"]).count().materialize()
    matched = int(la.sum("count()") or 0)
    e_count = int(g._real_edges().count())
    if matched != e_count:
        raise ValueError(
            f"local_simpson: {e_count - matched} of {e_count} edges "
            f"have endpoints missing from attrs ({id_col}); the "
            "attribute table must cover the graph's node universe"
        )

    def _terms(t: pa.Table) -> pa.Table:
        nc = t.column("count()").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table({
            "node": t.column("node"),
            "nn": pa.array(nc),
            "s2": pa.array(nc * (nc - 1)),
        })

    per = la.map_batches(_terms, batch_format="pyarrow") \
        .groupby("node").sum(["nn", "s2"])
    joined = bucket_join(
        xs.map_batches(lambda t: t.select(["node"]),
                       batch_format="pyarrow"),
        per, on="node", how="left",
    )

    def _shape(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        nn = pc.fill_null(
            pc.cast(t.column("sum(nn)"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        s2 = pc.fill_null(
            pc.cast(t.column("sum(s2)"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        den = nn * (nn - 1)
        return pa.table({
            id_col: t.column("node"),
            "n_nbrs": pa.array(nn),
            "s2": pa.array(s2),
            "simpson_f": pa.array(np.where(
                nn >= 2,
                s2.astype(np.float64)
                / np.maximum(den, 1).astype(np.float64),
                0.0,
            )),
        })

    return joined.map_batches(_shape, batch_format="pyarrow")


def regime_trend(
    pts: ray.data.Dataset,
    regime_col: str = "regime",
    x_col: str = "x",
    y_col: str = "y",
    z_col: str = "z",
) -> ray.data.Dataset:
    """Per-regime first-order trend surfaces plus the pooled fit — the
    spatial-regimes decomposition (the spreg regimes concept downstream
    of libpysal weights; a Chow-style stability test derives directly
    from the emitted exact SSEs, see tests): :func:`trend_surface`'s
    exact-rational Cramer solve, once per integer regime and once
    pooled (regime = -1). Output one row per regime + the pooled row:
    (regime, n, det, a_num, b_num, c_num, sse_num as decimal strings,
    a_f, b_f, c_f, sse_f pinned floats). Raises on any singular
    per-regime design; regimes need >= 3 points each.

    100 TB shape: ONE stateless aggregate pass with per-batch
    PER-REGIME partials (vocab-bounded #regimes x #blocks driver rows,
    the trend_surface discipline); every solve is O(1) driver bignum
    arithmetic per regime."""
    def _sums(t: pa.Table) -> pa.Table:
        r = t.column(regime_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        z = t.column(z_col).to_numpy(zero_copy_only=False).astype(np.int64)
        regs = np.unique(r)
        out = {k: [] for k in ("regime", "n", "sx", "sy", "sz", "sxx",
                               "syy", "sxy", "sxz", "syz", "szz")}
        for rv in regs:
            m = r == rv
            xs, ys, zs = x[m], y[m], z[m]
            out["regime"].append(int(rv))
            out["n"].append(len(xs))
            out["sx"].append(int(xs.sum()))
            out["sy"].append(int(ys.sum()))
            out["sz"].append(int(zs.sum()))
            out["sxx"].append(str(_prod_sum_exact(xs, xs)))
            out["syy"].append(str(_prod_sum_exact(ys, ys)))
            out["sxy"].append(str(_prod_sum_exact(xs, ys)))
            out["sxz"].append(str(_prod_sum_exact(xs, zs)))
            out["syz"].append(str(_prod_sum_exact(ys, zs)))
            out["szz"].append(str(_prod_sum_exact(zs, zs)))
        return pa.table({
            "regime": pa.array(np.array(out["regime"], dtype=np.int64)),
            "n": pa.array(np.array(out["n"], dtype=np.int64)),
            "sx": pa.array(np.array(out["sx"], dtype=np.int64)),
            "sy": pa.array(np.array(out["sy"], dtype=np.int64)),
            "sz": pa.array(np.array(out["sz"], dtype=np.int64)),
            **{k: pa.array(out[k]) for k in
               ("sxx", "syy", "sxy", "sxz", "syz", "szz")},
        })

    parts = pts.map_batches(_sums, batch_format="pyarrow").take_all()
    acc: dict = {}
    for row in parts:
        a = acc.setdefault(int(row["regime"]),
                           dict.fromkeys(
                               ("n", "sx", "sy", "sz", "sxx", "syy",
                                "sxy", "sxz", "syz", "szz"), 0))
        for k in ("n", "sx", "sy", "sz"):
            a[k] += int(row[k])
        for k in ("sxx", "syy", "sxy", "sxz", "syz", "szz"):
            a[k] += int(row[k])
    pooled = dict.fromkeys(
        ("n", "sx", "sy", "sz", "sxx", "syy", "sxy", "sxz", "syz",
         "szz"), 0)
    for a in acc.values():
        for k in pooled:
            pooled[k] += a[k]
    cols: dict = {k: [] for k in
                  ("regime", "n", "det", "a_num", "b_num", "c_num",
                   "sse_num", "a_f", "b_f", "c_f", "sse_f")}
    for rv in sorted(acc) + [-1]:
        a = pooled if rv == -1 else acc[rv]
        if a["n"] < 3:
            raise ValueError(f"regime_trend: regime {rv} has fewer "
                             "than 3 points")
        xtx = [[a["n"], a["sx"], a["sy"]],
               [a["sx"], a["sxx"], a["sxy"]],
               [a["sy"], a["sxy"], a["syy"]]]
        d = _det3(xtx)
        if d == 0:
            raise ValueError(f"regime_trend: singular design in "
                             f"regime {rv}")
        a_num = _det3([[a["sz"], a["sx"], a["sy"]],
                       [a["sxz"], a["sxx"], a["sxy"]],
                       [a["syz"], a["sxy"], a["syy"]]])
        b_num = _det3([[a["n"], a["sz"], a["sy"]],
                       [a["sx"], a["sxz"], a["sxy"]],
                       [a["sy"], a["syz"], a["syy"]]])
        c_num = _det3([[a["n"], a["sx"], a["sz"]],
                       [a["sx"], a["sxx"], a["sxz"]],
                       [a["sy"], a["sxy"], a["syz"]]])
        sse_num = d * a["szz"] - (a_num * a["sz"] + b_num * a["sxz"]
                                  + c_num * a["syz"])
        cols["regime"].append(rv)
        cols["n"].append(a["n"])
        cols["det"].append(str(d))
        cols["a_num"].append(str(a_num))
        cols["b_num"].append(str(b_num))
        cols["c_num"].append(str(c_num))
        cols["sse_num"].append(str(sse_num))
        cols["a_f"].append(float(np.float64(a_num) / np.float64(d)))
        cols["b_f"].append(float(np.float64(b_num) / np.float64(d)))
        cols["c_f"].append(float(np.float64(c_num) / np.float64(d)))
        cols["sse_f"].append(float(np.float64(sse_num) / np.float64(d)))
    return ray.data.from_arrow(pa.table({
        "regime": pa.array(np.array(cols["regime"], dtype=np.int64)),
        "n": pa.array(np.array(cols["n"], dtype=np.int64)),
        "det": pa.array(cols["det"]),
        "a_num": pa.array(cols["a_num"]),
        "b_num": pa.array(cols["b_num"]),
        "c_num": pa.array(cols["c_num"]),
        "sse_num": pa.array(cols["sse_num"]),
        "a_f": pa.array(np.array(cols["a_f"], dtype=np.float64)),
        "b_f": pa.array(np.array(cols["b_f"], dtype=np.float64)),
        "c_f": pa.array(np.array(cols["c_f"], dtype=np.float64)),
        "sse_f": pa.array(np.array(cols["sse_f"], dtype=np.float64)),
    }))
