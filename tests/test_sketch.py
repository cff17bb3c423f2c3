"""HyperLogLog sketch: register exactness, merge law, estimate accuracy."""

import numpy as np
import pyarrow as pa
import ray.data

from libpysal_ray.core.sketch import (
    HllAgg,
    _estimate,
    _registers,
    hll_distinct,
    hll_registers,
)


def test_registers_layout_invariant(ray_session):
    ids = np.arange(10_000, dtype=np.int64)
    tbl = pa.table({"v": pa.array(ids)})
    a = {(r["reg"], r["rho"]) for r in hll_registers(
        ray.data.from_arrow(tbl).repartition(7), "v").take_all()}
    b = {(r["reg"], r["rho"]) for r in hll_registers(
        ray.data.from_arrow(tbl).repartition(2), "v").take_all()}
    assert a == b
    # matches the direct numpy register computation
    reg, rho = _registers(ids, 12)
    regs = np.zeros(1 << 12, dtype=np.uint8)
    np.maximum.at(regs, reg, rho)
    nz = np.flatnonzero(regs)
    assert a == set(zip(nz.tolist(), regs[nz].tolist()))


def test_estimate_accuracy(ray_session):
    n = 50_000
    ids = np.arange(n, dtype=np.int64) * 7919 + 13
    ds = ray.data.from_arrow(pa.table({"v": pa.array(ids)}))
    est = hll_distinct(ds, "v")
    assert abs(est - n) / n < 0.05  # 3x the 1.6% std error


def test_estimate_duplicates_ignored(ray_session):
    ids = np.tile(np.arange(1000, dtype=np.int64), 50)  # 50k rows, 1k distinct
    ds = ray.data.from_arrow(pa.table({"v": pa.array(ids)})).repartition(5)
    est = hll_distinct(ds, "v")
    assert abs(est - 1000) / 1000 < 0.05


def test_hll_agg_per_group(ray_session):
    # group 0: 2000 distinct; group 1: 200 distinct (x10 dup)
    v0 = np.arange(2000, dtype=np.int64)
    v1 = np.tile(np.arange(200, dtype=np.int64) + 1_000_000, 10)
    g = np.concatenate([np.zeros(2000, np.int64), np.ones(2000, np.int64)])
    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(g), "v": pa.array(np.concatenate([v0, v1])),
    })).repartition(4)
    out = {r["g"]: r["hll(v)"]
           for r in ds.groupby("g").aggregate(HllAgg("v")).take_all()}
    assert abs(out[0] - 2000) / 2000 < 0.08
    assert abs(out[1] - 200) / 200 < 0.08


def test_merge_law_matches_union():
    a = np.arange(5000, dtype=np.int64)
    b = np.arange(2500, 7500, dtype=np.int64)
    def regs_of(v):
        reg, rho = _registers(v, 10)
        r = np.zeros(1 << 10, np.uint8)
        np.maximum.at(r, reg, rho)
        return r
    merged = np.maximum(regs_of(a), regs_of(b))
    assert (merged == regs_of(np.union1d(a, b))).all()
    assert abs(_estimate(merged, 10) - 7500) / 7500 < 0.12


def test_bloom_words_layout_invariant(ray_session):
    from libpysal_ray.core.sketch import bloom_words

    ids = np.arange(3000, dtype=np.int64) * 31
    tbl = pa.table({"v": pa.array(ids)})
    a = {(r["word"], r["bits"]) for r in bloom_words(
        ray.data.from_arrow(tbl).repartition(6), "v").take_all()}
    b = {(r["word"], r["bits"]) for r in bloom_words(
        ray.data.from_arrow(tbl).repartition(2), "v").take_all()}
    assert a == b and len(a) > 0


def test_cms_never_underestimates_and_heavy_hitters(ray_session):
    from libpysal_ray.core.sketch import cms_counts, cms_estimate

    # zipf-ish: key k appears 1000 // (k+1) times for k in 0..99
    reps = np.array([1000 // (k + 1) for k in range(100)])
    vals = np.repeat(np.arange(100, dtype=np.int64), reps)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})).repartition(5)
    state = cms_counts(ds, "v")
    est = cms_estimate(state, np.arange(100, dtype=np.int64))
    assert (est >= reps).all()                   # CMS invariant
    # at width 8192 >> 100 keys, collisions are rare: exact w.h.p.
    assert (est == reps).mean() > 0.95
    # total mass per depth row equals N exactly (state is exact)
    import collections
    per_d = collections.Counter()
    for r in state.take_all():
        per_d[r["d"]] += r["cnt"]
    assert all(c == len(vals) for c in per_d.values())


def test_cms_merge_is_sum(ray_session):
    from libpysal_ray.core.sketch import cms_counts

    a = ray.data.from_arrow(pa.table({
        "v": pa.array(np.arange(500, dtype=np.int64))}))
    b = ray.data.from_arrow(pa.table({
        "v": pa.array(np.arange(250, 750, dtype=np.int64))}))
    both = a.union(b)
    sa = {(r["d"], r["w"]): r["cnt"] for r in cms_counts(a, "v").take_all()}
    sb = {(r["d"], r["w"]): r["cnt"] for r in cms_counts(b, "v").take_all()}
    su = {(r["d"], r["w"]): r["cnt"]
          for r in cms_counts(both, "v").take_all()}
    keys = set(sa) | set(sb)
    assert su == {k: sa.get(k, 0) + sb.get(k, 0) for k in keys}


def test_hll_agg_ignores_nulls(ray_session):
    from libpysal_ray.core.sketch import HllAgg

    ds = ray.data.from_arrow(pa.table({
        "g": pa.array([0] * 4, pa.int64()),
        "v": pa.array([1, 2, None, None], pa.int64()),
    }))
    out = ds.groupby("g").aggregate(HllAgg("v")).take_all()
    # 2 distinct non-null values; a null counted as INT64_MIN would give 3
    assert round(out[0]["hll(v)"]) == 2
