"""The small-input switch in core/joins: a provable plan-walk size bound
routes small inputs to one coalesced task; unknown sizes must take the
sharded scale path (never the other way round)."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
import ray.data

import libpysal_ray.core.joins as J
from libpysal_ray.core.joins import (
    SMALL_COGROUP_BYTES,
    _chain_size_upper,
    bucket_join,
    cogroup_pairs,
    grouped_sum,
)


def _edges(n, seed=0):
    rng = np.random.default_rng(seed)
    return ray.data.from_arrow(pa.table({
        "focal": pa.array(rng.integers(0, 50, n)),
        "neighbor": pa.array(rng.integers(0, 50, n)),
        "weight": pa.array(np.ones(n)),
    }))


def _paths_agree(monkeypatch, build):
    """Run ``build()`` on the coalesced path and again with every input
    forced onto the sharded path; both must give the same row multiset.
    The coalesced run must call no native groupby, the sharded run must."""
    native = []
    orig = ray.data.Dataset.groupby
    monkeypatch.setattr(
        ray.data.Dataset, "groupby",
        lambda self, *a, **k: native.append(a) or orig(self, *a, **k),
    )

    def rows():
        return Counter(
            tuple(sorted(r.items())) for r in build().take_all()
        )

    small = rows()
    assert not native
    monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", -1)
    sharded = rows()
    assert native
    assert small == sharded
    return small


def test_chain_size_walk(ray_session):
    ds = _edges(1000).materialize()
    est = _chain_size_upper(ds)
    assert est is not None and 0 < est < SMALL_COGROUP_BYTES
    # propagates through map-like ops
    mapped = ds.map_batches(lambda t: t, batch_format="pyarrow")
    assert _chain_size_upper(mapped) == est
    assert _chain_size_upper(mapped.union(ds)) == 2 * est
    # any non-map op aborts the walk -> scale path
    agg = ds.groupby("focal").sum("weight")
    assert _chain_size_upper(agg) is None
    assert _chain_size_upper(
        agg.map_batches(lambda t: t, batch_format="pyarrow")
    ) is None


def test_small_and_native_cogroup_agree(ray_session):
    a = _edges(4000, 1).materialize()
    b = _edges(3000, 2).materialize()
    small = cogroup_pairs(a, b).to_pandas()
    # force the native path by hiding the size behind an aggregate-shaped
    # plan: groupby(focal, neighbor).sum is itself the cogroup result of a
    # pre-summed union, so instead compare against a plain pandas cogroup
    import pandas as pd

    pda, pdb = a.to_pandas(), b.to_pandas()
    pda = pda.groupby(["focal", "neighbor"])["weight"].agg(["sum", "size"])
    pdb = pdb.groupby(["focal", "neighbor"])["weight"].agg(["sum", "size"])
    want = pda.join(pdb, how="outer", lsuffix="_l").fillna(0.0)
    got = small.set_index(["focal", "neighbor"]).sort_index()
    assert len(got) == len(want)
    assert np.allclose(got["wl"], want["sum_l"])
    assert np.allclose(got["wr"], want["sum"])
    assert (got["ca"].to_numpy() == want["size_l"].to_numpy()).all()
    assert (got["cb"].to_numpy() == want["size"].to_numpy()).all()


def test_bucket_join_small_matches_sharded(ray_session, monkeypatch):
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(2000) % 97),
        "lv": pa.array(np.arange(2000)),
    })).materialize()
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(500) % 97),
        "rv": pa.array(np.arange(500) * 10),
    })).materialize()
    small = bucket_join(left, right, on="k").to_pandas()
    # an explicit num_buckets does not bypass the switch; a negative
    # threshold does
    monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", -1)
    sharded = bucket_join(left, right, on="k", num_buckets=16).to_pandas()
    key = ["k", "lv", "rv"]
    a = small.sort_values(key).reset_index(drop=True)
    b = sharded.sort_values(key).reset_index(drop=True)[a.columns]
    assert a.equals(b)


def test_grouped_sum_small_names_match_native(ray_session):
    ds = _edges(1000).materialize()
    got = grouped_sum(ds, ("focal",), ("weight",)).to_pandas()
    assert list(got.columns) == ["focal", "sum(weight)"]
    native = ds.groupby("focal").sum("weight").to_pandas()
    a = got.sort_values("focal").reset_index(drop=True)
    b = native.sort_values("focal").reset_index(drop=True)
    assert np.allclose(a["sum(weight)"], b["sum(weight)"])


def test_per_group_small_matches_native(ray_session, monkeypatch):
    import pandas as pd

    from libpysal_ray.core.joins import per_group

    ds = _edges(3000, 5).materialize()

    def fn(t: pa.Table) -> pa.Table:
        w = t.column("weight").to_numpy(zero_copy_only=False)
        return pa.table({
            "focal": t.column("focal").slice(0, 1),
            "n": pa.array([t.num_rows], pa.int64()),
            "w": pa.array([float(w.sum())]),
        })

    small = per_group(ds, ("focal",), fn).to_pandas()
    native = ds.groupby("focal").map_groups(
        fn, batch_format="pyarrow"
    ).to_pandas()
    a = small.sort_values("focal").reset_index(drop=True)
    b = native.sort_values("focal").reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b)
    _paths_agree(monkeypatch, lambda: per_group(ds, ("focal",), fn))


def test_topk_per_group_matches_pandas(ray_session):
    from libpysal_ray.core.joins import topk_per_group

    rng = np.random.default_rng(11)
    n = 5000
    t = pa.table({
        "k": pa.array(rng.integers(0, 40, n)),
        "v": pa.array(rng.integers(0, 1000, n)),
        "id": pa.array(np.arange(n)),
    })
    ds = ray.data.from_arrow(t).repartition(8).materialize()
    got = topk_per_group(ds, "k", ("v", "id"), k=3,
                         descending=(True, False)).to_pandas()
    df = t.to_pandas()
    want = (
        df.sort_values(["k", "v", "id"], ascending=[True, False, True])
        .groupby("k").head(3)
    )
    a = got.sort_values(["k", "v", "id"]).reset_index(drop=True)
    b = want.sort_values(["k", "v", "id"]).reset_index(drop=True)[a.columns]
    assert a.equals(b)


def test_stratified_sample_deterministic(ray_session):
    from libpysal_ray.text.analysis import stratified_sample

    t = pa.table({
        "doc_id": pa.array(np.arange(2000)),
        "lang": pa.array((["en"] * 3 + ["zh"] + ["fr"]) * 400),
    })
    a = stratified_sample(
        ray.data.from_arrow(t).repartition(7), "lang",
        {"en": 10, "zh": 50}, 25,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = stratified_sample(
        ray.data.from_arrow(t).repartition(2), "lang",
        {"en": 10, "zh": 50}, 25,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)          # block layout cannot change the sample
    frac_en = (a["lang"] == "en").mean()
    assert len(a) > 0 and frac_en < 0.5  # en downsampled below its 60% share


def test_doc_term_stats_closed_form(ray_session):
    from libpysal_ray.text.analysis import doc_term_stats

    t = pa.table({
        "doc_id": pa.array([0, 1, 2]),
        "text": pa.array(["a b a", "b c", "a"]),
    })
    got = doc_term_stats(
        ray.data.from_arrow(t).repartition(2)
    ).to_pandas().set_index("word").sort_index()
    assert got.loc["a", "df"] == 2 and got.loc["a", "tf"] == 3
    assert got.loc["b", "df"] == 2 and got.loc["b", "tf"] == 2
    assert got.loc["c", "df"] == 1 and got.loc["c", "tf"] == 1


def test_prefix_sum_matches_numpy(ray_session):
    from libpysal_ray.core.scan import prefix_sum

    rng = np.random.default_rng(3)
    n = 10000
    order = rng.permutation(n).astype(np.int64)
    val = rng.integers(1, 50, n)
    ds = ray.data.from_arrow(pa.table({
        "o": pa.array(order), "v": pa.array(val),
    })).repartition(13)
    got = prefix_sum(ds, "o", "v", "cs").to_pandas().sort_values("o")
    srt = np.argsort(order)
    want = np.cumsum(val[srt])
    assert (got["cs"].to_numpy() == want).all()
    # exclusive variant
    got2 = prefix_sum(ds, "o", "v", "cs", inclusive=False).to_pandas()
    got2 = got2.sort_values("o")
    assert (got2["cs"].to_numpy() == want - val[srt]).all()


def test_grouped_agg_xor_native_and_small(ray_session):
    from libpysal_ray.core.joins import grouped_agg

    rng = np.random.default_rng(4)
    n = 4000
    t = pa.table({
        "k": pa.array(rng.integers(0, 30, n)),
        "v": pa.array(rng.integers(-2**60, 2**60, n)),
    })
    df = t.to_pandas()
    want = df.groupby("k")["v"].agg(lambda s: int(np.bitwise_xor.reduce(
        s.to_numpy().astype(np.int64), initial=np.int64(0))))
    # small path (walkable materialized input, int key)
    small = grouped_agg(
        ray.data.from_arrow(t).repartition(6).materialize(),
        ("k",), ("v",), "xor",
    ).to_pandas().set_index("k")["xor(v)"].sort_index()
    assert (small.to_numpy() == want.sort_index().to_numpy()).all()
    # native path (size hidden behind an aggregate-shaped plan is hard to
    # fabricate; instead force it via a string passthrough column key? —
    # simplest: call Ray's groupby with the XorAgg directly)
    from libpysal_ray.core.joins import XorAgg

    native = (
        ray.data.from_arrow(t).repartition(6)
        .groupby("k").aggregate(XorAgg("v"))
        .to_pandas().set_index("k")["xor(v)"].sort_index()
    )
    assert (native.to_numpy() == want.sort_index().to_numpy()).all()


def test_bucket_join_coalesced_hot_key_streams_blocks(ray_session, monkeypatch):
    # VERDICT r3 #7: provably-small INPUTS through the coalesced path can
    # still expand unboundedly on hot keys. With the emission cap forced
    # tiny, the one coalesced task must stream many bounded blocks and
    # the result must stay exact (800 x 700 hot-key fanout = 560k rows).
    import libpysal_ray.core.joins as J

    monkeypatch.setattr(J, "_COALESCED_EMIT_ROWS", 10_000)
    # shrink the block output buffer so the streamed emission is visible
    # as multiple output blocks (Ray coalesces yielded batches up to
    # target_max_block_size; the cap bounds the task's PEAK heap). Set
    # BEFORE creating the inputs — Datasets capture the context.
    from ray.data.context import DataContext

    ctx = DataContext.get_current()
    prev = ctx.target_max_block_size
    ctx.target_max_block_size = 1 << 20
    try:
        left = ray.data.from_arrow(pa.table({
            "k": pa.array(np.full(800, 7, dtype=np.int64)),
            "lv": pa.array(np.arange(800, dtype=np.int64)),
        })).materialize()
        right = ray.data.from_arrow(pa.table({
            "k": pa.array(np.full(700, 7, dtype=np.int64)),
            "rv": pa.array(np.arange(700, dtype=np.int64)),
        })).materialize()
        out = bucket_join(left, right, on="k", how="inner").materialize()
        assert out.count() == 800 * 700
        assert out.num_blocks() > 1  # streamed, not one giant table
        # spot-check exactness: sum of lv = 700 * sum(0..799)
        tot = sum(
            int(np.sum(b.column("lv").to_numpy(zero_copy_only=False)))
            for b in out.iter_batches(batch_size=None,
                                      batch_format="pyarrow")
        )
        assert tot == 700 * (799 * 800 // 2)
    finally:
        ctx.target_max_block_size = prev


def test_bucket_join_coalesced_left_empty_result_schema(ray_session):
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "lv": pa.array([], pa.int64()),
    })).materialize()
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "rv": pa.array([], pa.float64()),
    })).materialize()
    out = bucket_join(left, right, on="k", how="left")
    # empty inputs must not crash the streamed probe; Ray may skip the map
    # task on empty blocks entirely, so schema() can be None here
    assert out.count() == 0
    assert out.take_all() == []


@pytest.mark.parametrize("op", ["sum", "min", "max", "mean", "count", "xor"])
def test_grouped_agg_paths_agree(ray_session, monkeypatch, op):
    from libpysal_ray.core.joins import grouped_agg

    rng = np.random.default_rng(6)
    n = 3000
    ds = ray.data.from_arrow(pa.table({
        "k1": pa.array(rng.integers(0, 12, n)),
        "k2": pa.array(rng.integers(0, 5, n)),
        "v": pa.array(rng.integers(-1000, 1000, n)),
    })).repartition(5).materialize()
    col = None if op == "count" else "v"
    got = _paths_agree(
        monkeypatch, lambda: grouped_agg(ds, ("k1", "k2"), (col,), op)
    )
    assert sum(got.values()) == 60


def test_grouped_by_key_paths_agree(ray_session, monkeypatch):
    from libpysal_ray.core.joins import grouped_by_key

    def fn(t: pa.Table) -> pa.Table:
        # key-sorted multi-group kernel: per-key row count and value sum
        k = t.column("k").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        return pa.table({
            "k": pa.array(k[starts], pa.int64()),
            "n": pa.array(np.diff(starts, append=len(k)), pa.int64()),
            "s": pa.array(np.add.reduceat(v, starts), pa.int64()),
        })

    rng = np.random.default_rng(8)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(np.r_[np.full(500, 3), rng.integers(0, 40, 1500)]),
        "v": pa.array(rng.integers(0, 100, 2000)),
    })).repartition(4).materialize()
    got = _paths_agree(monkeypatch, lambda: grouped_by_key(ds, ["k"], fn))
    assert sum(dict(r)["n"] for r in got) == 2000


def _kv(keys, col, vals):
    return ray.data.from_arrow(pa.table({
        "k": pa.array(np.asarray(keys, np.int64)),
        col: pa.array(np.asarray(vals, np.int64)),
    })).materialize()


@pytest.mark.parametrize("case", ["hot", "empty_left", "empty_right"])
@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_bucket_join_paths_agree(ray_session, monkeypatch, how, case):
    rng = np.random.default_rng(9)
    # key 7 is hot on both sides (60 x 40 fanout); keys >= 50 never match
    lk = np.r_[np.full(60, 7), rng.integers(0, 80, 300)]
    rk = np.r_[np.full(40, 7), rng.integers(0, 50, 200)]
    if case == "empty_left":
        lk = lk[:0]
    if case == "empty_right":
        rk = rk[:0]
    left = _kv(lk, "lv", np.arange(len(lk)))
    right = _kv(rk, "rv", np.arange(len(rk)) * 10)
    got = _paths_agree(
        monkeypatch, lambda: bucket_join(left, right, on="k", how=how)
    )
    match = np.isin(lk, rk)
    want = {
        "inner": sum(int((rk == k).sum()) for k in lk),
        "left": sum(max(1, int((rk == k).sum())) for k in lk),
        "semi": int(match.sum()),
        "anti": int((~match).sum()),
    }[how]
    assert sum(got.values()) == want


def _nan_to_null(ds):
    """NaN float cells as nulls, so row multisets compare NaN-equal."""
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        return pa.table({
            c: pc.if_else(pc.is_nan(t.column(c)), None, t.column(c))
            if pa.types.is_floating(t.schema.field(c).type) else t.column(c)
            for c in t.schema.names
        })

    return ds.map_batches(f, batch_format="pyarrow")


@pytest.mark.parametrize("kw", [
    {"q": (10.0, 90.0)},
    {"stats": ("median", "nunique", "mode")},
], ids=["percentile_band", "exotic_stats"])
def test_describe_per_group_paths_agree(ray_session, monkeypatch, kw):
    # describe's per-group reducers (the q= band; median/nunique/mode)
    # run through per_group: one task on the small path, map_groups on
    # the sharded one; ties for mode, NaN attributes and empty bands
    from libpysal_ray.builders.lattice import lat2graph

    g = lat2graph(5, 5, rook=True)
    rng = np.random.default_rng(12)
    vals = rng.integers(0, 4, 25).astype(np.float64)
    vals[[3, 17]] = np.nan
    got = _paths_agree(monkeypatch, lambda: _nan_to_null(
        g.describe(np.arange(25), vals, **kw)))
    assert len(got) == 25


def _broadcast_sites():
    """The four per-focal lookups that broadcast what ``J._small``
    bounds and bucket_join the rest, each as a build over seeded inputs
    (quarter-step weights, so sums are exact in any order)."""
    from libpysal_ray.builders.distance import kernel
    from libpysal_ray.core.graph import RayGraph

    rng = np.random.default_rng(11)
    f, n = rng.integers(0, 40, 300), rng.integers(0, 40, 300)
    keep = f != n
    g = RayGraph.from_arrays(f[keep], n[keep],
                             rng.integers(1, 8, keep.sum()) / 4.0,
                             ids=np.arange(42))
    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(60, dtype=np.int64)),
        "x": pa.array(rng.integers(0, 64, 60) / 4.0),
        "y": pa.array(rng.integers(0, 64, 60) / 4.0),
    }))
    return {
        "transform_r": lambda: g.transform("R").edges,
        "transform_v": lambda: g.transform("V").edges,
        "local_clustering": lambda: g.local_clustering(),
        "adaptive_kernel": lambda: kernel(pts, k=3, fixed=False).edges,
    }


@pytest.mark.parametrize("site", ["transform_r", "transform_v",
                                  "local_clustering", "adaptive_kernel"])
def test_broadcast_sites_paths_agree(ray_session, monkeypatch, site):
    build = _broadcast_sites()[site]
    looked = []
    orig = J.broadcast_lookup
    monkeypatch.setattr(J, "broadcast_lookup",
                        lambda *a, **k: looked.append(1) or orig(*a, **k))

    def rows():
        return sorted(tuple(sorted(r.items())) for r in build().take_all())

    small = rows()
    assert looked
    looked.clear()
    monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", -1)
    sharded = rows()
    assert not looked
    assert small
    if site != "transform_v":
        assert small == sharded
        return
    # V's global rescale sums every weight over the blocks, whose layout
    # differs between the paths: the last bit may differ
    assert [r[:2] for r in small] == [r[:2] for r in sharded]
    np.testing.assert_allclose([r[2][1] for r in small],
                               [r[2][1] for r in sharded], rtol=1e-13)
