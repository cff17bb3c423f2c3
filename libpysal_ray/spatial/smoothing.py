"""Rate smoothing over spatial weights — the classic pysal smoothing
family (Spatial_Rate / Empirical_Bayes of the original esda.smoothing
module, always driven by a libpysal W; the spatial-lag primitive they
consume is reference `weights/spatial_lag.py:16-88`), under this
engine's exactness discipline:

* :func:`spatial_rate` is EXACT — both the event and base catchment
  sums are int64 spatial lags over the binary edge set, so the smoothed
  rate is one integer fraction per observation plus one pinned float
  division, bit-reproducible at any cluster size / batch layout.
* :func:`eb_smooth` (global Empirical Bayes shrinkage) needs the
  global rate and a moment variance; floats from float sums would be
  summation-order-dependent, so every intermediate is a FLOOR/TRUNC
  FIXED-POINT integer in 1/scale units (the pagerank / two_sfca / idw
  discipline) with the division-semantics contract documented per step
  (truncation toward zero, matching DuckDB's ``//``). The quantization
  at 1/scale is the deterministic contract the SQL oracle mirrors.

100 TB shape: spatial_rate is two bucket_join + groupby(focal) lag
passes and one universe left join (identical plumbing to local_moran);
eb_smooth is two global aggregates plus one stateless per-row map —
no shuffle at all beyond the aggregates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data


def _ebv(t: pa.Table, id_col, e_col, b_col) -> pa.Table:
    e = t.column(e_col).to_numpy(zero_copy_only=False).astype(np.int64)
    b = t.column(b_col).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(e) and (e.min() < 0 or b.min() < 1):
        raise ValueError(
            "rate smoothing needs events >= 0 and base >= 1 per row"
        )
    return pa.table({
        "node": pa.array(
            t.column(id_col).to_numpy(zero_copy_only=False).astype(
                np.int64
            )
        ),
        "e": pa.array(e),
        "b": pa.array(b),
    })


def spatial_rate(
    g,
    attrs: ray.data.Dataset,
    id_col: str = "id",
    e_col: str = "e",
    b_col: str = "b",
) -> ray.data.Dataset:
    """Spatial rate smoother (Kafadar 1996 / the esda.smoothing
    Spatial_Rate semantics over a libpysal W): the smoothed rate of
    observation i pools its own events and base with its neighborhood,

        r_i = (e_i + Sum_{j in N(i)} e_j) / (b_i + Sum_{j in N(i)} b_j)

    over the binary edge set. Events/base must be non-negative /
    positive integers; output one row per observation
    (id, e, b, rate_num, rate_den, rate_f) where rate_num/rate_den is
    the EXACT integer fraction and rate_f its one pinned float
    division. Isolates smooth to their own raw rate.

    100 TB shape: one guarded bucket_join of (e, b) onto edges, one
    groupby(focal) sum, one universe left join — all int64; overflow
    pre-checked in unbounded Python ints (max value x (max_deg + 1))."""
    from libpysal_ray.core.joins import bucket_join

    xs = attrs.map_batches(
        lambda t: _ebv(t, id_col, e_col, b_col), batch_format="pyarrow"
    ).materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Max("e"), ray.data.aggregate.Max("b")
    )
    vmax = max(int(agg["max(e)"] or 0), int(agg["max(b)"] or 0))
    max_deg = g.max_degree()
    if vmax * (max_deg + 1) >= (1 << 62):
        raise ValueError(
            "spatial_rate catchment sums would overflow int64; rescale"
        )

    # ONE combined lag pass for both columns (the _lag_sum_guarded plan
    # with e and b riding the same join), same id-universe guard
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    la = bucket_join(
        edges,
        xs.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"),
                "e": t.column("e"), "b": t.column("b"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    ).map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "e": t.column("e"), "b": t.column("b"),
        }),
        batch_format="pyarrow",
    ).groupby("node").aggregate(
        ray.data.aggregate.Sum("e"), ray.data.aggregate.Sum("b"),
        ray.data.aggregate.Count(),
    ).materialize()
    matched = int(la.sum("count()") or 0)
    e_count = int(g._real_edges().count())
    if matched != e_count:
        raise ValueError(
            f"spatial_rate: {e_count - matched} of {e_count} edges have "
            f"endpoints missing from attrs ({id_col}); the attribute "
            "table must cover the graph's node universe"
        )
    lags = la.map_batches(
        lambda t: pa.table({
            "node": t.column("node"),
            "lag_e": t.column("sum(e)"), "lag_b": t.column("sum(b)"),
        }),
        batch_format="pyarrow",
    )
    joined = bucket_join(xs, lags, on="node", how="left")

    def _rate(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        e = t.column("e").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        le = pc.fill_null(
            pc.cast(t.column("lag_e"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        lb = pc.fill_null(
            pc.cast(t.column("lag_b"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        num = e + le
        den = b + lb
        return pa.table({
            id_col: t.column("node"),
            "e": pa.array(e),
            "b": pa.array(b),
            "rate_num": pa.array(num.astype(np.int64)),
            "rate_den": pa.array(den.astype(np.int64)),
            "rate_f": pa.array(
                num.astype(np.float64) / den.astype(np.float64)
            ),
        })

    return joined.map_batches(_rate, batch_format="pyarrow")


def _tdiv(num: np.ndarray, den) -> np.ndarray:
    """Elementwise integer division TRUNCATED TOWARD ZERO (DuckDB's
    ``//``; Python's floors, so negatives need the sign split)."""
    num = num.astype(np.int64)
    q = np.abs(num) // den
    return np.where(num < 0, -q, q).astype(np.int64)


def eb_smooth(
    attrs: ray.data.Dataset,
    scale: int = 1000,
    id_col: str = "id",
    e_col: str = "e",
    b_col: str = "b",
) -> ray.data.Dataset:
    """Global Empirical Bayes rate shrinkage (Clayton & Kaldor 1987;
    the esda.smoothing Empirical_Bayes estimator) in trunc fixed-point
    1/scale units. With global events E = Sum e, base B = Sum b, n rows:

        m   = E*scale // B                      (global rate, fp)
        r_i = e_i*scale // b_i                  (raw rate, fp)
        S   = Sum_i b_i * (r_i - m)^2           (exact int64, guarded)
        s2  = S // (B*scale)                    (moment variance, fp)
        a   = max(s2 - m*n // B, 0)             (prior variance, fp)
        th_i = m + tdiv((r_i - m) * a*b_i, a*b_i + m)

    where tdiv truncates toward zero (DuckDB ``//``). a*b_i/(a*b_i + m)
    is the classic shrinkage weight a/(a + m/b_i) cleared of
    denominators (a and m share the 1/scale unit, which cancels); when
    the prior variance clamps to 0 every estimate collapses to the
    global rate m — the reference's own convention.
    Output (id, e, b, r_fp, theta_fp, theta_f) with theta_f =
    theta_fp/scale the one pinned float division.

    100 TB shape: two streaming aggregate passes (the global moments)
    plus one stateless per-row map — no shuffle; all products are
    overflow-pre-checked in unbounded Python ints and raise loudly."""
    sc = int(scale)
    if sc < 1:
        raise ValueError("eb_smooth: scale must be >= 1")
    xs = attrs.map_batches(
        lambda t: _ebv(t, id_col, e_col, b_col), batch_format="pyarrow"
    ).materialize()
    agg = xs.aggregate(
        ray.data.aggregate.Sum("e"), ray.data.aggregate.Sum("b"),
        ray.data.aggregate.Count(), ray.data.aggregate.Max("e"),
        ray.data.aggregate.Max("b"),
    )
    n = int(agg["count()"])
    if n == 0:
        raise ValueError("eb_smooth: empty input")
    E, B = int(agg["sum(e)"]), int(agg["sum(b)"])
    emax, bmax = int(agg["max(e)"]), int(agg["max(b)"])
    # every e_i*scale, the S partial products b*(r-m)^2 and their global
    # sum, and the shrink denominators must fit int64 — bound them in
    # unbounded ints BEFORE any int64 arithmetic happens anywhere
    rmax = emax * sc  # b >= 1, so r_fp <= e*scale
    if max(rmax, E * sc, B * sc) >= (1 << 62):
        raise ValueError("eb_smooth: rate fixed point overflows int64; "
                         "reduce scale")
    m_fp = E * sc // B
    dmax = rmax + m_fp
    if bmax * dmax * dmax * n >= (1 << 62):
        raise ValueError("eb_smooth: variance sum would overflow int64; "
                         "reduce scale")

    def _spart(t: pa.Table) -> pa.Table:
        e = t.column("e").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        d = e * np.int64(sc) // b - np.int64(m_fp)
        return pa.table({"s": pa.array([np.int64((b * d * d).sum())])})

    S = int(
        xs.map_batches(_spart, batch_format="pyarrow").sum("s") or 0
    )
    s2_fp = S // (B * sc)
    a_fp = max(s2_fp - m_fp * n // B, 0)
    if a_fp * bmax + m_fp >= (1 << 62) or a_fp * bmax * dmax >= (
        1 << 62
    ):
        raise ValueError("eb_smooth: shrinkage terms overflow int64; "
                         "reduce scale")

    def _theta(t: pa.Table) -> pa.Table:
        e = t.column("e").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        r = e * np.int64(sc) // b
        wn = np.int64(a_fp) * b
        # den clamp to 1 is safe: it can only be 0 when a_fp = m_fp = 0,
        # and then the numerator is 0 too (theta collapses to m = 0)
        theta = np.int64(m_fp) + _tdiv(
            (r - np.int64(m_fp)) * wn,
            np.maximum(wn + np.int64(m_fp), 1),
        )
        return pa.table({
            id_col: t.column("node"),
            "e": pa.array(e),
            "b": pa.array(b),
            "r_fp": pa.array(r.astype(np.int64)),
            "theta_fp": pa.array(theta),
            "theta_f": pa.array(theta.astype(np.float64) / float(sc)),
        })

    return xs.map_batches(_theta, batch_format="pyarrow")
