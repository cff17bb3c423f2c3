"""Inequality and segregation statistics over attribute tables and a
spatial graph — the ESDA-adjacent family downstream of libpysal
weights (reference: the `inequality`/`segregation` PySAL packages
consume `libpysal.weights.W`; the graph construction semantics live in
/root/reference/libpysal/weights/weights.py and graph/base.py).

Everything here is EXACT-INTEGER like the rest of `spatial.stats`: the
Gini numerator Σ_i Σ_j |x_i − x_j| and the Rey–Smith neighbor/non-
neighbor split are carried as unbounded Python ints (decimal strings in
the output), with one pinned IEEE float division per headline figure so
the SQL oracle reproduces every bit.

100 TB shape:
* `gini` reduces through ONE distinct-value histogram
  (`groupby(x).count()`), the same bounded-cardinality discipline as
  the curation score histogram: the driver sweep is O(#distinct
  values), never O(n), and a loud guard raises past the cardinality
  budget rather than silently materializing.
* `spatial_gini`'s neighbor component attaches x to the directed edge
  set via ONE bucket_join per endpoint and reduces per-batch exact
  partials (the `gamma_index` absdiff plan) — no pair materialization
  beyond the existing edge table.
* `dissimilarity_index` is two passes: one exact global (B, W)
  aggregate, then one stateless per-batch reduction of
  Σ|b_i·W − w_i·B|; a fast int64 path when the pre-checked bounds
  allow, an object-dtype unbounded-int path past them (batch-local
  either way — the driver combines O(#blocks) decimal-string rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from libpysal_ray.spatial.stats import _prod_sum_exact, _sum_i64

__all__ = ["gini", "spatial_gini", "dissimilarity_index"]

# Distinct-value budget for the histogram sweep. Integer-valued scores
# (chars, tokens, cents) stay far below this at any corpus size; a
# continuous column must be bucketed by the caller first.
MAX_DISTINCT = 4_000_000


def _sum_exact_ds(ds: ray.data.Dataset, col: str) -> int:
    """Exact Σ col (int64 elements, |v| < 2^62) as an unbounded Python
    int: per-batch split-sum partials serialized as decimal strings,
    combined on the driver in O(#blocks)."""

    def _part(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"p": pa.array([str(_sum_i64(v))])})

    return sum(int(r["p"]) for r in ds.map_batches(
        _part, batch_format="pyarrow").take_all())


def _value_histogram(
    attrs: ray.data.Dataset, x_col: str
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values, counts) of an integer column via ONE
    groupby shuffle. Loud guard past MAX_DISTINCT — the driver holds
    exactly #distinct rows, nothing else."""
    hist = attrs.groupby(x_col).count().materialize()
    ndist = int(hist.count())
    if ndist > MAX_DISTINCT:
        raise ValueError(
            f"gini: {ndist} distinct values exceeds the histogram budget "
            f"({MAX_DISTINCT}); bucket the column first"
        )
    t = pa.Table.from_pylist(hist.take_all())
    v = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
    c = t.column("count()").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(v, kind="stable")
    return v[order], c[order]


def _gini_numerator(values: np.ndarray, counts: np.ndarray) -> tuple[int, int, int]:
    """(Σ_i Σ_j |x_i − x_j|, n, Σx) from a sorted distinct-value
    histogram: one sweep keeping the cumulative count C and sum S of
    strictly-smaller values — each value v with multiplicity c adds
    2·c·(C·v − S) ordered-pair distance. Unbounded Python ints."""
    num = 0
    cum_c = 0
    cum_s = 0
    for v, c in zip(values.tolist(), counts.tolist()):
        num += 2 * c * (cum_c * v - cum_s)
        cum_c += c
        cum_s += c * v
    return num, cum_c, cum_s


def gini(
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Gini coefficient of a nonnegative integer column, exact:

        G = Σ_i Σ_j |x_i − x_j| / (2 · n · Σx)

    Output one row (n, sum_x, num, gini_f): the ordered-pair absolute-
    difference numerator as a decimal string (unbounded) and ONE pinned
    float64 division — bit-identical to the SQL cross-join oracle."""
    values, counts = _value_histogram(attrs, x_col)
    num, n, sum_x = _gini_numerator(values, counts)
    if n == 0 or sum_x == 0:
        raise ValueError("gini needs n > 0 and Σx > 0")
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "sum_x": pa.array([sum_x], pa.int64()),
        "num": pa.array([str(num)], pa.string()),
        "gini_f": pa.array([float(num) / float(2 * n * sum_x)], pa.float64()),
    }))


def spatial_gini(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    x_col: str = "x",
) -> ray.data.Dataset:
    """Rey–Smith (2013) spatial decomposition of the Gini: the pairwise
    numerator splits into NEIGHBOR pairs (graph edges) and NON-NEIGHBOR
    pairs,

        Σ_i Σ_j |x_i−x_j|  =  num_nbr + num_far,
        num_nbr = Σ_{(i,j)∈E} |x_i − x_j|   (directed binary edges).

    Output one row (n, sum_x, s0, num, num_nbr, num_far, gini_f,
    frac_nbr_f). The neighbor term reuses the `gamma_index` absdiff
    plan: x attaches to edges via ONE bucket_join per endpoint, each
    batch reduces to one exact decimal-string partial; the total term
    is the `gini` histogram sweep; num_far is their exact difference.
    The id-universe guard raises if any edge endpoint is missing from
    attrs (a silent inner-join drop would skew the split)."""
    from libpysal_ray.core.joins import bucket_join

    values, counts = _value_histogram(attrs, x_col)
    num, n, sum_x = _gini_numerator(values, counts)
    if n == 0 or sum_x == 0:
        raise ValueError("spatial_gini needs n > 0 and Σx > 0")
    xmax = int(max(abs(int(values[0])), abs(int(values[-1]))))
    if xmax >= (1 << 61):
        raise ValueError("spatial_gini needs |x| < 2^61; rescale x")

    def _xz(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pc_i64(t.column(id_col)),
            "x": pc_i64(t.column(x_col)),
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

    def _part(t: pa.Table) -> pa.Table:
        d = (t.column("xf").to_numpy(zero_copy_only=False)
             - t.column("xn").to_numpy(zero_copy_only=False))
        return pa.table({
            "p": pa.array([str(_prod_sum_exact(d, np.sign(d)))]),
            "c": pa.array([np.int64(t.num_rows)]),
        })

    parts = both.map_batches(_part, batch_format="pyarrow").take_all()
    joined = sum(int(r["c"]) for r in parts)
    if joined != e_count:
        raise ValueError(
            f"spatial_gini: {e_count - joined} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    num_nbr = sum(int(r["p"]) for r in parts)
    num_far = num - num_nbr
    den = 2 * n * sum_x
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "sum_x": pa.array([sum_x], pa.int64()),
        "s0": pa.array([e_count], pa.int64()),
        "num": pa.array([str(num)], pa.string()),
        "num_nbr": pa.array([str(num_nbr)], pa.string()),
        "num_far": pa.array([str(num_far)], pa.string()),
        "gini_f": pa.array([float(num) / float(den)], pa.float64()),
        "frac_nbr_f": pa.array(
            [float(num_nbr) / float(num)] if num else [0.0], pa.float64()
        ),
    }))


def pc_i64(col) -> pa.Array:
    return pa.array(
        np.asarray(col.to_numpy(zero_copy_only=False)).astype(np.int64)
    )


def dissimilarity_index(
    units: ray.data.Dataset,
    unit_col: str = "unit",
    b_col: str = "b",
    w_col: str = "w",
) -> ray.data.Dataset:
    """Duncan & Duncan dissimilarity index over areal-unit group counts:

        D = ½ Σ_u | b_u/B − w_u/W |
          = Σ_u | b_u·W − w_u·B |  /  (2·B·W)

    Output one row (b_tot, w_tot, d_num, d_f) with the numerator exact
    (decimal string) and one pinned float division. Two passes: the
    global (B, W) totals (exact per-batch split-sum partials), then a
    stateless per-batch reduction of Σ|b_u·W − w_u·B| — int64 fast path
    when the pre-checked product bounds allow, object-dtype unbounded
    ints past them (still batch-local; the driver sees decimal strings,
    never rows)."""
    b_tot = _sum_exact_ds(units, b_col)
    w_tot = _sum_exact_ds(units, w_col)
    if b_tot <= 0 or w_tot <= 0:
        raise ValueError("dissimilarity_index needs B > 0 and W > 0")
    bmax = int(units.max(b_col))
    wmax = int(units.max(w_col))
    if min(int(units.min(b_col)), int(units.min(w_col))) < 0:
        raise ValueError("dissimilarity_index needs nonnegative counts")
    fast = (bmax * w_tot < (1 << 62)) and (wmax * b_tot < (1 << 62))

    def _part(t: pa.Table) -> pa.Table:
        b = t.column(b_col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = t.column(w_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if fast:
            d = b * w_tot - w * b_tot
            p = _prod_sum_exact(d, np.sign(d))
        else:
            d = b.astype(object) * w_tot - w.astype(object) * b_tot
            p = int(np.abs(d).sum()) if len(d) else 0
        return pa.table({"p": pa.array([str(p)])})

    num = sum(int(r["p"]) for r in units.map_batches(
        _part, batch_format="pyarrow").take_all())
    return ray.data.from_arrow(pa.table({
        "b_tot": pa.array([str(b_tot)], pa.string()),
        "w_tot": pa.array([str(w_tot)], pa.string()),
        "d_num": pa.array([str(num)], pa.string()),
        "d_f": pa.array(
            [float(num) / float(2 * b_tot * w_tot)], pa.float64()
        ),
    }))


def location_quotient(
    ds: ray.data.Dataset,
    region_col: str = "region",
    cat_col: str = "cat",
) -> ray.data.Dataset:
    """Location quotient per (region, category) — the classic regional-
    concentration measure LQ = (x_rc / x_r·) / (x_·c / x_··), kept as
    the EXACT integer fraction lq_num = cnt·total, lq_den =
    region_total·category_total plus one pinned float. Output one row
    per observed (region, cat): (region, cat, cnt, region_tot, cat_tot,
    total, lq_num, lq_den, lq_f).

    100 TB shape: per-batch (region, cat) bincount partials over a
    packed int64 key → ONE small groupby (output is bounded by
    #regions × #categories, a vocab-bounded table); marginals derive
    from that table on the driver — never a second pass over the
    corpus. Region and category ids must be small non-negative ints
    (packing guard below); counts products are overflow-guarded."""
    sch = ds.schema().base_schema
    for c in (region_col, cat_col):
        if not pa.types.is_integer(sch.field(c).type):
            raise TypeError(f"location_quotient column {c!r} must be "
                            f"integer-coded (got {sch.field(c).type})")

    def _bounds(t: pa.Table) -> pa.Table:
        r = t.column(region_col).to_numpy(zero_copy_only=False)
        c = t.column(cat_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "rmin": pa.array([np.int64(r.min())]),
            "rmax": pa.array([np.int64(r.max())]),
            "cmin": pa.array([np.int64(c.min())]),
            "cmax": pa.array([np.int64(c.max())]),
        })

    b = ds.map_batches(_bounds, batch_format="pyarrow").aggregate(
        ray.data.aggregate.Min("rmin"), ray.data.aggregate.Max("rmax"),
        ray.data.aggregate.Min("cmin"), ray.data.aggregate.Max("cmax"),
    )
    if b["min(rmin)"] is None:
        raise ValueError("location_quotient: empty input")
    if int(b["min(rmin)"]) < 0 or int(b["min(cmin)"]) < 0:
        raise ValueError("location_quotient needs non-negative codes")
    ncat = int(b["max(cmax)"]) + 1
    if (int(b["max(rmax)"]) + 1) * ncat >= (1 << 62):
        raise ValueError("location_quotient: code space too large to "
                         "pack (region_max+1)*(cat_max+1) into int64")

    def _partial(t: pa.Table) -> pa.Table:
        r = t.column(region_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        c = t.column(cat_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        key = r * ncat + c
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "k": pa.array(u.astype(np.int64)),
            "cnt": pa.array(cnt.astype(np.int64)),
        })

    rows = (
        ds.select_columns([region_col, cat_col])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("k")
        .sum("cnt")
        .take_all()
    )  # vocab-bounded: #regions × #categories rows
    k = np.array([r["k"] for r in rows], dtype=np.int64)
    cnt = np.array([r["sum(cnt)"] for r in rows], dtype=np.int64)
    reg, cat = k // ncat, k % ncat
    total = int(cnt.sum())
    rtot = {int(g): int(cnt[reg == g].sum()) for g in np.unique(reg)}
    ctot = {int(g): int(cnt[cat == g].sum()) for g in np.unique(cat)}
    if max(int(cnt.max()) * total,
           max(rtot.values()) * max(ctot.values())) >= (1 << 62):
        raise ValueError("location_quotient fraction exceeds int64; "
                         "sample or shard the corpus first")
    rt = np.array([rtot[int(g)] for g in reg], dtype=np.int64)
    ct = np.array([ctot[int(g)] for g in cat], dtype=np.int64)
    lq_num = cnt * total
    lq_den = rt * ct
    return ray.data.from_arrow(pa.table({
        "region": pa.array(reg.astype(np.int64)),
        "cat": pa.array(cat.astype(np.int64)),
        "cnt": pa.array(cnt),
        "region_tot": pa.array(rt),
        "cat_tot": pa.array(ct),
        "total": pa.array(np.full(len(k), total, dtype=np.int64)),
        "lq_num": pa.array(lq_num),
        "lq_den": pa.array(lq_den),
        "lq_f": pa.array(lq_num.astype(np.float64)
                         / lq_den.astype(np.float64)),
    }))


def palma_ratio(
    ds: ray.data.Dataset,
    value_col: str,
    top_pct: int = 10,
    bottom_pct: int = 40,
) -> ray.data.Dataset:
    """Palma-style quantile-share ratio (Palma 2011; the inequality
    family alongside :func:`gini_coefficient`): the total value held by
    the top ``top_pct``% of units over the total held by the bottom
    ``bottom_pct``%, with integer-floor group sizes k_top = n·top//100
    and k_bot = n·bottom//100 ranked by value. Boundary TIES need no id
    tie-break — tied units carry equal value, so any k-subset of the
    boundary value yields the same EXACT sum (the histogram
    apportionment below). Values must be non-negative integers. Output
    one row (n, k_top, k_bot, top_sum, bot_sum, palma_f); raises when
    the bottom share is empty or zero-valued (ratio undefined).

    100 TB shape: the ``select_top_fraction`` distinct-value histogram
    contract — one groupby(value) count (bounded by #distinct integer
    values; integer scores keep it small), cumulative apportionment is
    O(#distinct) driver work, no global sort, no per-row pull."""
    hist = (
        ds.map_batches(
            lambda t: pa.table({
                "v": pa.array(
                    t.column(value_col)
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                ),
            }),
            batch_format="pyarrow",
        )
        .groupby("v")
        .count()
        .take_all()
    )
    if not hist:
        raise ValueError("palma_ratio: empty input")
    vs = np.array(sorted(int(r["v"]) for r in hist), dtype=np.int64)
    cm = {int(r["v"]): int(r["count()"]) for r in hist}
    cnt = np.array([cm[int(v)] for v in vs], dtype=np.int64)
    if vs[0] < 0:
        raise ValueError("palma_ratio needs non-negative values")
    n = int(cnt.sum())
    k_top = n * int(top_pct) // 100
    k_bot = n * int(bottom_pct) // 100
    if k_top < 1 or k_bot < 1:
        raise ValueError("palma_ratio: shares too small for n")
    cum = np.cumsum(cnt)
    # products as Python ints: v·cnt alone can pass 2^63 in int64
    vsum = np.cumsum(vs.astype(object) * cnt.astype(object))

    def _bottom_sum(k: int) -> int:
        # exact sum of the k smallest values via histogram apportionment
        i = int(np.searchsorted(cum, k))
        below = int(vsum[i - 1]) if i > 0 else 0
        cbelow = int(cum[i - 1]) if i > 0 else 0
        return below + int(vs[i]) * (k - cbelow)

    total = int(vsum[-1])
    bot_sum = _bottom_sum(k_bot)
    top_sum = total - _bottom_sum(n - k_top)
    if bot_sum <= 0:
        raise ValueError("palma_ratio: bottom share sums to zero")
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "k_top": pa.array([k_top], pa.int64()),
        "k_bot": pa.array([k_bot], pa.int64()),
        "top_sum": pa.array([str(top_sum)]),
        "bot_sum": pa.array([str(bot_sum)]),
        "palma_f": pa.array(
            [float(np.float64(top_sum) / np.float64(bot_sum))],
            pa.float64(),
        ),
    }))


def hoover_index(
    ds: ray.data.Dataset,
    value_col: str,
) -> ray.data.Dataset:
    """Hoover (Pietra / Robin Hood) index — the share of total value
    that would have to move to equalize all units:

        H = Σ|x_i − μ| / (2·Σx) = Σ|n·x_i − S| / (2·n·S)

    kept exact by scaling the deviations by n (no division anywhere):
    num = Σ|n·x_i − S| in int64 (guarded), den = 2·n·S as a decimal
    string (exceeds int64 at corpus scale), one pinned float. Values
    must be non-negative integers with S > 0.

    100 TB shape: two streaming aggregate passes (S and the absolute
    deviation sum) — no shuffle, no driver state beyond scalars."""
    agg = ds.aggregate(
        ray.data.aggregate.Count(), ray.data.aggregate.Sum(value_col),
        ray.data.aggregate.Min(value_col),
        ray.data.aggregate.Max(value_col),
    )
    n = int(agg["count()"])
    if n == 0:
        raise ValueError("hoover_index: empty input")
    S = int(agg[f"sum({value_col})"] or 0)
    if int(agg[f"min({value_col})"] or 0) < 0 or S <= 0:
        raise ValueError("hoover_index needs non-negative values with "
                         "a positive total")
    xmax = int(agg[f"max({value_col})"])
    if n * xmax * n >= (1 << 62):  # per-row |n·x−S| ≤ n·xmax, n terms
        raise ValueError("hoover_index deviation sum would overflow "
                         "int64; rescale")

    def _part(t: pa.Table) -> pa.Table:
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table({
            "d": pa.array([np.int64(np.abs(np.int64(n) * x - S).sum())]),
        })

    num = int(ds.map_batches(_part, batch_format="pyarrow").sum("d") or 0)
    den = 2 * n * S
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "total": pa.array([S], pa.int64()),
        "h_num": pa.array([str(num)]),
        "h_den": pa.array([str(den)]),
        "hoover_f": pa.array(
            [float(np.float64(num) / np.float64(den))], pa.float64()
        ),
    }))


def exposure_terms(
    ds: ray.data.Dataset,
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Two-group P* exposure/isolation decomposition (Bell 1954; the
    segregation-index family beside :func:`dissimilarity`): with
    minority count x_i and majority count y_i per areal unit
    (t_i = x_i + y_i > 0), the isolation index xPx = Σ (x_i/X)(x_i/t_i)
    and exposure xPy = Σ (x_i/X)(y_i/t_i). Sums of per-unit fractions
    don't distribute exactly, so the output is the EXACT per-cell
    decomposition over the distinct (x, y) histogram (the
    ``contingency_chi2`` pattern): one row per observed (x, y) with

        iso_num = cnt·x²,  exp_num = cnt·x·y,  den = X·(x + y)

    and the two pinned floats iso_f/exp_f — xPx = Σ iso_f, xPy = Σ
    exp_f, and xPx + xPy = 1 identically. Output (x, y, cnt, den,
    iso_num, exp_num, iso_f, exp_f).

    100 TB shape: ONE distinct-(x, y) histogram groupby (integer-count
    contract, loud 4M guard); terms are #cells-bounded driver work in
    unbounded ints, decimal strings past int64."""
    hist = (
        ds.map_batches(
            lambda t: pa.table({
                "x": pa.array(
                    t.column(x_col).to_numpy(zero_copy_only=False)
                    .astype(np.int64)),
                "y": pa.array(
                    t.column(y_col).to_numpy(zero_copy_only=False)
                    .astype(np.int64)),
            }),
            batch_format="pyarrow",
        )
        .groupby(["x", "y"])
        .count()
        .take_all()
    )
    if not hist:
        raise ValueError("exposure_terms: empty input")
    if len(hist) > 4_000_000:
        raise ValueError("exposure_terms: too many distinct (x, y) "
                         "cells; bucketize")
    xs = np.array([int(r["x"]) for r in hist], dtype=np.int64)
    ys = np.array([int(r["y"]) for r in hist], dtype=np.int64)
    cnt = np.array([int(r["count()"]) for r in hist], dtype=np.int64)
    if xs.min() < 0 or ys.min() < 0 or (xs + ys).min() < 1:
        raise ValueError("exposure_terms needs x, y >= 0 and x + y >= 1")
    X = int((xs * cnt).sum())
    if X <= 0:
        raise ValueError("exposure_terms: minority total is zero")
    order = np.lexsort((ys, xs))
    xs, ys, cnt = xs[order], ys[order], cnt[order]
    iso_n = [int(c) * int(x) * int(x) for x, c in zip(xs, cnt)]
    exp_n = [int(c) * int(x) * int(y) for x, y, c in zip(xs, ys, cnt)]
    den = [X * (int(x) + int(y)) for x, y in zip(xs, ys)]
    return ray.data.from_arrow(pa.table({
        "x": pa.array(xs),
        "y": pa.array(ys),
        "cnt": pa.array(cnt),
        "den": pa.array([str(d) for d in den]),
        "iso_num": pa.array([str(v) for v in iso_n]),
        "exp_num": pa.array([str(v) for v in exp_n]),
        "iso_f": pa.array(np.array(
            [float(np.float64(a) / np.float64(d))
             for a, d in zip(iso_n, den)], dtype=np.float64)),
        "exp_f": pa.array(np.array(
            [float(np.float64(a) / np.float64(d))
             for a, d in zip(exp_n, den)], dtype=np.float64)),
    }))
