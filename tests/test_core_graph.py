"""Core RayGraph semantics against the reference's own golden values.

Goldens are literal values from the reference's tests/docstrings (see
FIXTURES.md F4): lat2W rook neighbors (util.py:174-181), transform R
(weights.py:1096-1108), spatial lag (spatial_lag.py:40-55), higher-order
(util.py:425-497), pct_nonzero 29.63 for lat2W(3,3) default
(weights.py:86-91 uses 10x10 → 3.96; we assert 3x3 closed-form).
"""

import itertools
import math

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data

from libpysal_ray.builders.lattice import lat2graph
from libpysal_ray.core.graph import RayGraph, kcore
from libpysal_ray.pipelines.queries import unbounded_graph


@pytest.fixture(scope="module")
def w33():
    return lat2graph(3, 3, rook=True)


def test_lat2w_rook_neighbors(w33):
    nbrs, wts = w33.neighbors_dict()
    # reference util.py:174-181 golden
    assert sorted(nbrs[0]) == [1, 3]
    assert sorted(nbrs[3]) == [0, 4, 6]
    assert sorted(nbrs[4]) == [1, 3, 5, 7]
    assert all(w == 1.0 for w in wts[4])


def test_lat2w_queen():
    g = lat2graph(3, 3, rook=False)
    nbrs, _ = g.neighbors_dict()
    assert sorted(nbrs[0]) == [1, 3, 4]
    assert sorted(nbrs[4]) == [0, 1, 2, 3, 5, 6, 7, 8]


def test_transform_r(w33):
    # reference weights.py:1096-1108 ('r' → w[0] == [0.5, 0.5])
    gr = w33.transform("r")
    nbrs, wts = gr.neighbors_dict()
    assert wts[0] == [0.5, 0.5]
    assert wts[4] == [0.25] * 4
    s = sum(sum(v) for v in wts.values())
    assert abs(s - 9.0) < 1e-9  # global sum = n under R


def test_transform_b_d(w33):
    gd = w33.transform("D")
    _, wts = gd.neighbors_dict()
    s0 = 24.0  # 2*12 edges on a 3x3 rook lattice
    assert abs(wts[0][0] - 1.0 / s0) < 1e-12
    gb = w33.transform("R").transform("B")
    _, wtsb = gb.neighbors_dict()
    assert wtsb[0] == [1.0, 1.0]


def test_transform_o_restore(w33):
    """R→O→R roundtrip: 'O' restores the ORIGINAL weights bit-exactly
    (reference transformations['O'], weights.py:1074-1184), even through
    a chain of transforms."""
    gr = w33.transform("R")
    go = gr.transform("O")
    _, wts_o = go.neighbors_dict()
    _, wts_orig = w33.neighbors_dict()
    assert wts_o == wts_orig  # bit-equal binary originals
    assert go.transformation == "O"
    # chained: R→B→O still restores the pre-R originals
    _, wts_chain = w33.transform("R").transform("B").transform("O") \
        .neighbors_dict()
    assert wts_chain == wts_orig
    # and re-transforming the restored graph matches a direct transform
    _, wts_r1 = gr.neighbors_dict()
    _, wts_r2 = go.transform("R").neighbors_dict()
    assert wts_r1 == wts_r2


def test_transform_c_callable(w33):
    """'C' callable runs once per focal group through the block kernel:
    doubling weights per group matches a plain scale, and a
    group-ORDER-sensitive callable (normalize by group max) proves the
    callable sees exactly one focal's weights per call."""
    gc = w33.transform(lambda w: w * 2.0)
    _, wts = gc.neighbors_dict()
    assert wts[0] == [2.0, 2.0]
    assert wts[4] == [2.0] * 4
    assert gc.transformation == "C"
    # normalize-by-max over R weights: every group maxes to exactly 1.0
    gn = w33.transform("R").transform(lambda w: w / w.max())
    _, wn = gn.neighbors_dict()
    for ws in wn.values():
        assert max(ws) == 1.0


def test_transform_c_many_focals(ray_session):
    """100k-focal 'C' transform completes through ONE bucketed shuffle
    (not one task per focal) and is value-correct on sampled groups."""
    import pyarrow as pa
    import ray.data

    n = 100_000
    f = np.repeat(np.arange(n, dtype=np.int64), 2)
    nb = np.tile(np.array([0, 1], dtype=np.int64), n)
    w = np.tile(np.array([1.0, 3.0]), n)
    g = RayGraph(ray.data.from_arrow(pa.table({
        "focal": pa.array(f), "neighbor": pa.array(nb),
        "weight": pa.array(w),
    })))
    out = g.transform(lambda x: x / x.sum())
    got = out.edges.filter(expr="focal < 3").take_all()
    by = {(r["focal"], r["neighbor"]): r["weight"] for r in got}
    for i in range(3):
        assert by[(i, 0)] == 0.25 and by[(i, 1)] == 0.75


def test_transform_v(w33):
    gv = w33.transform("V")
    _, wts = gv.neighbors_dict()
    # V semantics (weights.py:1157-1173): s_i = w/sqrt(sum w^2), rescale n/Q
    q0 = math.sqrt(2.0)
    big_q = 4 * (2 / math.sqrt(2)) + 4 * (3 / math.sqrt(3)) + 4 / math.sqrt(4)
    nq = 9.0 / big_q
    assert abs(wts[0][0] - (1 / q0) * nq) < 1e-9


def test_spatial_lag(w33):
    # reference spatial_lag.py:40-55: y=arange(9), binary lag
    y = np.arange(9, dtype=float)
    ids = np.arange(9)
    lag = {r["focal"]: r["lag"] for r in w33.lag(ids, y).take_all()}
    expect = [4, 6, 6, 10, 16, 14, 10, 18, 12]
    assert [lag[i] for i in range(9)] == expect
    # row-standardized
    lag_r = {r["focal"]: r["lag"] for r in w33.transform("R").lag(ids, y).take_all()}
    expect_r = [2, 2, 3, 10 / 3, 4, 14 / 3, 5, 6, 6]
    for i in range(9):
        assert abs(lag_r[i] - expect_r[i]) < 1e-9


def test_higher_order():
    # reference util.py:425-434: higher_order(lat2W(10,10), 2)[0] == {2,11,20}
    g = lat2graph(10, 10, rook=True)
    g2 = g.higher_order(2)
    nbrs, wts = g2.neighbors_dict()
    assert sorted(nbrs[0]) == [2, 11, 20]
    assert all(w == 1.0 for w in wts[0])


def test_higher_order_lower():
    g = lat2graph(5, 5, rook=True)
    g2 = g.higher_order(2, lower_order=True)
    nbrs, _ = g2.neighbors_dict()
    # order <= 2 from corner 0: 1,5 (o1) + 2,6,10 (o2)
    assert sorted(nbrs[0]) == [1, 2, 5, 6, 10]


def test_summary_stats(w33):
    s = w33.summary()
    assert s["n"] == 9
    assert s["s0"] == 24.0  # 24 directed links
    # symmetric binary: s1 = 1/2 * sum (w_ij+w_ji)^2 = 1/2 * 24 * 4 = 48
    assert s["s1"] == 48.0
    # s2 = sum_i (2*card_i)^2 = 4*(4*4 + 4*9 + 1*16)
    assert s["s2"] == 4 * (4 * 4 + 4 * 9 + 16)
    assert abs(s["pct_nonzero"] - 100 * 24 / 81) < 1e-9
    assert s["trcWtW"] == 24.0


def test_cardinalities_isolates():
    g = RayGraph.from_arrays(
        np.array([0, 1]), np.array([1, 0]), 1.0, ids=np.array([0, 1, 2])
    )
    cards = {r["focal"]: r["cardinality"] for r in g.cardinalities().take_all()}
    assert cards == {0: 1, 1: 1, 2: 0}
    iso = [r["focal"] for r in g.isolates().take_all()]
    assert iso == [2]
    # isolate survives as zero-weight self-loop in canonical edges
    df = g.to_pandas()
    row = df[(df.focal == 2)]
    assert len(row) == 1 and row.iloc[0].neighbor == 2 and row.iloc[0].weight == 0.0


def test_set_ops():
    w1 = lat2graph(4, 4, rook=True)
    w2 = lat2graph(6, 4, rook=True)
    u = w1.union_g(w2)
    assert u.n() == 24
    nbrs, _ = u.neighbors_dict()
    assert sorted(nbrs[0]) == [1, 4]
    i = w2.intersection_g(w1)
    # intersection with w1-universe keeps w1's 16 ids... self is w2 → 24 ids
    assert i.n() == 24
    d = w2.difference_g(w1)
    nbrs_d, _ = d.neighbors_dict()
    # edges of the 6x4 lattice absent from the 4x4 one: rows 4,5 + links 12-16 etc
    assert 16 in nbrs_d[12] or nbrs_d[12] == [16]
    # queen minus rook = bishop
    q = lat2graph(4, 4, rook=False)
    b = q.difference_g(w1)
    nbrs_b, _ = b.neighbors_dict()
    assert sorted(nbrs_b[0]) == [5]
    assert sorted(nbrs_b[5]) == [0, 2, 8, 10]


def test_symmetrize_asymmetry():
    g = RayGraph.from_arrays(np.array([0, 1, 1]), np.array([1, 0, 2]),
                             np.array([1.0, 1.0, 1.0]))
    asym = g.asymmetries().take_all()
    assert {(r["focal"], r["neighbor"]) for r in asym} == {(1, 2), (2, 1)}
    gs = g.symmetrize("union")
    nbrs, _ = gs.neighbors_dict()
    assert sorted(nbrs[2]) == [1]
    gi = g.symmetrize("intersection")
    nbrs_i, _ = gi.neighbors_dict()
    assert nbrs_i[2] == []  # 1->2 dropped; 2 becomes isolate


def test_subgraph():
    g = lat2graph(3, 3, rook=True)
    sub = g.subgraph(np.array([0, 1, 2, 8]))
    nbrs, _ = sub.neighbors_dict()
    assert sorted(nbrs[0]) == [1]
    assert nbrs[8] == []  # becomes isolate
    assert sub.n() == 4


def test_fill_diagonal_eliminate_zeros(w33):
    gd = w33.fill_diagonal(7.0)
    nbrs, wts = gd.neighbors_dict()
    assert 0 in nbrs[0] and 7.0 in wts[0]
    ge = gd.fill_diagonal(0.0).eliminate_zeros()
    nbrs2, _ = ge.neighbors_dict()
    assert 0 not in nbrs2[0]


def test_components():
    g = RayGraph.from_arrays(
        np.array([0, 1, 3]), np.array([1, 0, 4]),
        np.array([1.0, 1.0, 1.0]), ids=np.array([0, 1, 2, 3, 4]),
    )
    ncomp, labels = g.n_components()
    assert ncomp == 3  # {0,1}, {3,4}, {2}


def test_sharded_components_keep_the_column_order(ray_session):
    # the reversed half of the undirected edge union is written in the
    # canonical (focal, neighbor) order, so Ray logs no schema change
    # naming a (neighbor, focal) block
    import logging

    warned = []

    class _Warnings(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if "different schema" in msg and "neighbor: int64\nfocal" in msg:
                warned.append(msg)

    handler = _Warnings()
    logging.getLogger("ray.data").addHandler(handler)
    try:
        ncomp, _ = unbounded_graph(lat2graph(6, 6, rook=True).edges
                                   ).n_components()
    finally:
        logging.getLogger("ray.data").removeHandler(handler)
    assert ncomp == 1
    assert not warned, warned


def test_describe(w33):
    y = np.arange(9, dtype=float)
    d = {r["focal"]: r for r in w33.describe(np.arange(9), y).take_all()}
    assert d[0]["count"] == 2 and d[0]["sum"] == 4.0 and d[0]["mean"] == 2.0
    assert d[4]["min"] == 1.0 and d[4]["max"] == 7.0 and d[4]["median"] == 4.0


def test_lag_categorical(w33):
    # labels: mostly code 0 with a few 1s
    codes = np.array([0, 1, 0, 1, 0, 0, 0, 0, 0])
    out = {r["focal"]: r["lag_code"] for r in
           w33.lag_categorical(np.arange(9), codes, ties="random").take_all()}
    out2 = {r["focal"]: r["lag_code"] for r in
            w33.lag_categorical(np.arange(9), codes, ties="random").take_all()}
    assert out == out2  # seeded per-focal tie-break → run-to-run deterministic
    assert out[6] in (0, 1)  # neighbors 3(1),7(0) → tie
    assert out[8] == 0  # neighbors 5,7 → both 0
    assert out[4] in (0, 1)  # neighbors 1(1),3(1),5(0),7(0) → tie 2-2
    with pytest.raises(Exception):
        w33.lag_categorical(np.arange(9), codes, ties="raise").take_all()


def test_bucket_join_left(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from libpysal_ray.core.joins import bucket_join

    left = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3, 4, 4], pa.int64()),
                "lv": pa.array([10, 20, 30, 40, 41], pa.int64()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([2, 4], pa.int64()),
                "rv": pa.array([200, 400], pa.int64()),
            }
        )
    )
    rows = bucket_join(left, right, on="k", how="left").take_all()
    got = sorted((r["k"], r["lv"], r["rv"]) for r in rows)
    assert got == [
        (1, 10, None),
        (2, 20, 200),
        (3, 30, None),
        (4, 40, 400),
        (4, 41, 400),
    ]


def test_subgraph_dataset_path_matches_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from libpysal_ray.builders.lattice import lat2graph

    g = lat2graph(6, 6, rook=True)
    keep = np.arange(0, 18, dtype=np.int64)
    a = {
        (r["focal"], r["neighbor"], r["weight"])
        for r in g.subgraph(keep).edges.take_all()
    }
    ds = ray.data.from_arrow(pa.table({"focal": pa.array(keep)}))
    b = {
        (r["focal"], r["neighbor"], r["weight"])
        for r in g.subgraph(ds).edges.take_all()
    }
    assert a == b


def test_auto_num_buckets_grows_with_size(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from libpysal_ray.core.joins import auto_num_buckets

    small = ray.data.from_arrow(
        pa.table({"k": pa.array(np.arange(100, dtype=np.int64))})
    ).materialize()
    big = ray.data.from_arrow(
        pa.table({"k": pa.array(np.arange(2_000_000, dtype=np.int64))})
    ).materialize()
    nb_small = auto_num_buckets(small, floor=4, target_bytes=1 << 20)
    nb_big = auto_num_buckets(big, floor=4, target_bytes=1 << 20)
    assert nb_small == 4  # under target → floor
    assert nb_big >= 16  # 16 MB / 1 MB target
    assert nb_big > nb_small
    # cap respected, and unknown-size inputs fall back to the floor
    assert auto_num_buckets(big, floor=4, target_bytes=1, cap=64) == 64
    lazy = big.map_batches(lambda t: t, batch_format="pyarrow")
    assert auto_num_buckets(lazy, floor=7) >= 7
    # a lazy map chain is sized through its walkable input, not as 0
    assert auto_num_buckets(lazy, floor=4, target_bytes=1 << 20) == nb_big


def test_lag_categorical_tryself(w33):
    """'tryself' (spatial_lag.py:236-240): a tie is broken by adding the
    MEAN neighbor weight to the focal's own label tally."""
    codes = np.array([0, 1, 0, 1, 0, 0, 0, 0, 0])
    out = {r["focal"]: r["lag_code"] for r in
           w33.lag_categorical(np.arange(9), codes,
                               ties="tryself").take_all()}
    # focal 6: neighbors 3 (code 1), 7 (code 0) -> tie; own code 0 wins
    assert out[6] == 0
    # focal 4: neighbors 1,3 (code 1), 5,7 (code 0) -> tie; own code 0
    assert out[4] == 0
    # focal 8 untied: both neighbors code 0
    assert out[8] == 0
    # own label NOT among the tied winners and too weak -> random among
    # the original candidates (still deterministic per seeded focal rng)
    codes2 = np.array([2, 1, 2, 1, 2, 0, 0, 0, 0])
    # focal 6: neighbors 3 (1), 7 (0) tie; own code 0 -> own IS candidate
    out2 = {r["focal"]: r["lag_code"] for r in
            w33.lag_categorical(np.arange(9), codes2,
                                ties="tryself").take_all()}
    assert out2[6] == 0


def test_order_driver_distributed_parity():
    # rook lattice: shortest-path hop count == Manhattan distance
    g = lat2graph(6, 6, rook=True)
    drv = g.order(kmax=3).to_pandas()
    dst = unbounded_graph(g.edges).order(kmax=3).to_pandas()

    def canon(df):
        return df.sort_values(["focal", "neighbor"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(drv), canon(dst), check_like=True)
    # closed form: Manhattan distance on the 6x6 grid
    for _, r in canon(drv).head(200).iterrows():
        fy, fx = divmod(int(r["focal"]), 6)
        ny, nx = divmod(int(r["neighbor"]), 6)
        assert abs(fy - ny) + abs(fx - nx) == r["path_order"]


def test_dense_roundtrip_and_neighbor_equality(ray_session):
    import numpy as np

    from libpysal_ray.builders.lattice import lat2graph

    g = lat2graph(3, 3, rook=True)
    m, ids = g.to_dense()
    assert m.shape == (9, 9) and (ids == np.arange(9)).all()
    assert m.sum() == 24.0  # 2*|rook edges| on 3x3 = 24 directed
    g2 = RayGraph.from_dense(m, ids)
    assert g.neighbor_equality(g2)
    assert g2.equals(g)
    # weight change keeps neighbor sets equal, breaks equals
    g3 = RayGraph.from_dense(m * 2.0, ids)
    assert g.neighbor_equality(g3)
    assert not g.equals(g3)
    # isolate row survives
    m2 = np.zeros((3, 3)); m2[0, 1] = m2[1, 0] = 1.0
    g4 = RayGraph.from_dense(m2)
    assert g4.n() == 3
    d, _ = g4.to_dense()
    assert (d == m2).all()
    # different topology
    assert not g4.neighbor_equality(RayGraph.from_dense(np.eye(3)))


def test_pagerank_int_numpy_parity(ray_session):
    import numpy as np

    from libpysal_ray.builders.lattice import lat2graph

    g = lat2graph(4, 5, rook=True)
    got = {r["node"]: r["r"] for r in g.pagerank_int(iters=3).take_all()}
    # numpy reference: identical integer recurrence
    m, ids = g.to_dense()
    adj = m > 0
    deg = adj.sum(axis=1).astype(np.int64)
    r = np.full(len(ids), 1_000_000_000_000, dtype=np.int64)
    for _ in range(3):
        c = r // np.maximum(deg, 1)
        s = adj.T @ c
        r = 150_000_000_000 + 85 * s // 100
    exp = dict(zip(ids.tolist(), r.tolist()))
    assert got == exp


def test_pagerank_int_isolate_settles_at_base(ray_session):
    import numpy as np

    m = np.zeros((3, 3)); m[0, 1] = m[1, 0] = 1.0
    g = RayGraph.from_dense(m)
    got = {r["node"]: r["r"] for r in g.pagerank_int(iters=2).take_all()}
    assert got[2] == 150_000_000_000
    assert got[0] == got[1] > 150_000_000_000


def test_pagerank_paths_agree(ray_session):
    from libpysal_ray.builders.lattice import lat2graph

    g = lat2graph(5, 6, rook=False)
    drv = {r["node"]: r["r"] for r in g.pagerank_int(iters=2).take_all()}
    dist = {r["node"]: r["r"]
            for r in unbounded_graph(g.edges).pagerank_int(iters=2).take_all()}
    assert drv == dist


def test_pagerank_overflow_refused(ray_session):
    import numpy as np

    # star: 2000 sources -> one hub; huge r0 forces the bound check
    n = 2001
    m = np.zeros((n, n))
    m[1:, 0] = 1.0
    g = RayGraph.from_dense(m)
    with pytest.raises(ValueError, match="overflow"):
        g.pagerank_int(iters=3, r0=1 << 52)
    # sane r0 still works and the hub dominates
    got = {r["node"]: r["r"] for r in g.pagerank_int(iters=2).take_all()}
    assert got[0] > got[1]


def _prim_reference(a, b, w, nodes):
    """Independent dense Prim's MST (per connected component) with the
    same (w, min_id, max_id) tie order — test oracle, no scipy."""
    import heapq
    adj = {}
    for x, y, ww in zip(a, b, w):
        adj.setdefault(x, []).append((ww, x, y))
        adj.setdefault(y, []).append((ww, y, x))
    seen, forest = set(), []
    for start in sorted(nodes):
        if start in seen:
            continue
        seen.add(start)
        heap = [(ww, min(x, y), max(x, y), y)
                for ww, x, y in adj.get(start, [])]
        heapq.heapify(heap)
        while heap:
            ww, lo, hi, to = heapq.heappop(heap)
            if to in seen:
                continue
            seen.add(to)
            forest.append((lo, hi, ww))
            for w2, x2, y2 in adj.get(to, []):
                if y2 not in seen:
                    heapq.heappush(
                        heap, (w2, min(x2, y2), max(x2, y2), y2))
    return sorted(forest)


def test_spanning_forest_paths_agree_and_match_prim(ray_session):
    import numpy as np

    rng = np.random.default_rng(23)
    n, m = 40, 160
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    keep = a != b
    a, b = a[keep], b[keep]
    # unique-ish weights; duplicates still fine (tie order pinned)
    w = rng.integers(1, 1000, len(a)).astype(np.float64)
    g = RayGraph.from_arrays(
        np.concatenate([a, b]), np.concatenate([b, a]),
        np.concatenate([w, w]), ids=np.arange(n),
    )
    drv = sorted(
        (r["focal"], r["neighbor"], r["weight"])
        for r in g.spanning_forest().take_all()
    )
    dist = sorted(
        (r["focal"], r["neighbor"], r["weight"])
        for r in unbounded_graph(g.edges).spanning_forest().take_all()
    )
    # canonical undirected pairs keep the min weight per pair for Prim
    pairs = {}
    for x, y, ww in zip(a, b, w):
        k = (min(int(x), int(y)), max(int(x), int(y)))
        pairs[k] = min(pairs.get(k, np.inf), float(ww))
    pa_, pb_, pw_ = (np.array([k[0] for k in pairs]),
                     np.array([k[1] for k in pairs]),
                     np.array(list(pairs.values())))
    exp = _prim_reference(pa_, pb_, pw_, range(n))
    # total weight is the unique MST invariant under our tie order
    assert abs(sum(x[2] for x in drv) - sum(x[2] for x in exp)) < 1e-9
    assert len(drv) == len(exp)
    assert drv == dist or (
        abs(sum(x[2] for x in dist) - sum(x[2] for x in exp)) < 1e-9
        and len(dist) == len(exp)
    )


def test_spanning_forest_line_graph(ray_session):
    import numpy as np

    # path 0-1-2-3 plus a heavy shortcut 0-3 that must be excluded
    f = np.array([0, 1, 2, 0])
    nb = np.array([1, 2, 3, 3])
    w = np.array([1.0, 1.0, 1.0, 10.0])
    g = RayGraph.from_arrays(
        np.concatenate([f, nb]), np.concatenate([nb, f]),
        np.concatenate([w, w]),
    )
    got = sorted((r["focal"], r["neighbor"]) for r in
                 g.spanning_forest().take_all())
    assert got == [(0, 1), (1, 2), (2, 3)]
    got_d = sorted((r["focal"], r["neighbor"]) for r in
                   unbounded_graph(g.edges).spanning_forest().take_all())
    assert got_d == got


def test_spanning_forest_asymmetric_input(ray_session):
    import numpy as np

    # edge 2->0 exists only in that direction; must still be usable
    f = np.array([0, 1, 2])
    nb = np.array([1, 2, 0])
    w = np.array([1.0, 2.0, 5.0])
    g = RayGraph.from_arrays(f, nb, w, ids=np.arange(3))
    got = sorted((r["focal"], r["neighbor"], r["weight"]) for r in
                 g.spanning_forest().take_all())
    assert got == [(0, 1, 1.0), (1, 2, 2.0)]
    # forced-distributed path must agree even when an endpoint appears
    # only in the neighbor column (label seed = focal UNION neighbor)
    raw = unbounded_graph(g._real_edges())  # no isolate resolution
    got_d = sorted((r["focal"], r["neighbor"], r["weight"]) for r in
                   raw.spanning_forest().take_all())
    assert got_d == got


def test_kcore_driver_and_distributed(ray_session):
    import numpy as np

    from libpysal_ray.builders.lattice import lat2graph
    from libpysal_ray.core.graph import kcore

    # 4x4 rook lattice: 2-core is the whole lattice (every node has
    # degree >= 2); 3-core is empty (peeling corners cascades:
    # corners deg 2 -> edge nodes lose support -> everything peels)
    g = lat2graph(4, 4, rook=True)
    core2 = kcore(g, 2).to_pandas()
    assert len(core2) == 16
    degs = dict(zip(core2["node"], core2["deg"]))
    assert degs[0] == 2 and degs[5] == 4  # corner / interior
    assert len(kcore(g, 3).to_pandas()) == 0

    # pendant chain hanging off a clique: only the clique survives k=3
    from libpysal_ray.core.graph import RayGraph
    cl = [(a, b) for a in range(4) for b in range(4) if a != b]
    chain = [(3, 4), (4, 3), (4, 5), (5, 4), (5, 6), (6, 5)]
    e = np.array(cl + chain)
    g2 = RayGraph.from_arrays(e[:, 0], e[:, 1], np.ones(len(e)))
    got = kcore(g2, 3).to_pandas().sort_values("node")
    assert list(got["node"]) == [0, 1, 2, 3]
    assert list(got["deg"]) == [3, 3, 3, 3]
    # forced-distributed peel must agree exactly
    got_d = kcore(unbounded_graph(g2.edges), 3).to_pandas().sort_values(
        "node"
    )
    assert list(got_d["node"]) == [0, 1, 2, 3]
    assert list(got_d["deg"]) == [3, 3, 3, 3]
    assert len(
        kcore(unbounded_graph(g.edges), 3).to_pandas()
    ) == 0


def test_hits_int_driver_and_distributed(ray_session):
    import numpy as np

    # star: 0->1, 0->2, 3->1 ; authority concentrates on 1
    f = np.array([0, 0, 3])
    nb = np.array([1, 2, 1])
    g = RayGraph.from_arrays(f, nb, np.ones(3), ids=np.arange(4))
    got = {r["node"]: (r["hub"], r["auth"]) for r in
           g.hits_int(iters=1, h0=10).take_all()}
    # a1: node1 = h0(0)+h0(3) = 20, node2 = 10; h1: node0 = a(1)+a(2)=30,
    # node3 = a(1) = 20
    assert got[1] == (0, 20) and got[2] == (0, 10)
    assert got[0] == (30, 0) and got[3] == (20, 0)
    got2 = {r["node"]: (r["hub"], r["auth"]) for r in
            g.hits_int(iters=2, h0=10).take_all()}
    # a2: node1 = h1(0)+h1(3) = 50, node2 = h1(0) = 30
    # h2: node0 = 80, node3 = 50
    assert got2[1] == (0, 50) and got2[2] == (0, 30)
    assert got2[0] == (80, 0) and got2[3] == (50, 0)
    # forced-distributed path must agree exactly
    gd = {r["node"]: (r["hub"], r["auth"]) for r in
          unbounded_graph(g.edges).hits_int(iters=2, h0=10).take_all()}
    assert gd == got2
    # overflow pre-check raises loudly
    import pytest as _pt
    with _pt.raises(ValueError, match="overflow"):
        g.hits_int(iters=40, h0=1 << 60)


def test_khop_centrality_closed_form(ray_session):
    import numpy as np

    # path graph 0-1-2-3 (symmetric), kmax=3, lcm=6
    f = np.array([0, 1, 1, 2, 2, 3])
    nb = np.array([1, 0, 2, 1, 3, 2])
    g = RayGraph.from_arrays(f, nb, np.ones(6))
    out = {r["node"]: r for r in g.khop_centrality(kmax=3).take_all()}
    # node 0 reaches 1@1, 2@2, 3@3: reached=3, hop_sum=6,
    # harm_num = 6+3+2 = 11; harm_f = 11/(6*3); close = 9/(6*3)
    assert out[0]["reached"] == 3 and out[0]["hop_sum"] == 6
    assert out[0]["harm_num"] == 11
    assert np.isclose(out[0]["harm_f"], 11.0 / 18.0)
    assert np.isclose(out[0]["close_f"], 0.5)
    # node 1 reaches 0@1, 2@1, 3@2: reached=3, hop_sum=4,
    # harm = 6+6+3 = 15; close = 9/(4*3)
    assert out[1]["hop_sum"] == 4 and out[1]["harm_num"] == 15
    assert np.isclose(out[1]["close_f"], 0.75)
    # distributed order path agrees
    outd = {r["node"]: r for r in
            unbounded_graph(g.edges).khop_centrality(kmax=3).take_all()}
    for k in out:
        assert out[k] == outd[k]


def test_label_propagation_two_cliques(ray_session):
    import numpy as np

    # two triangles bridged by one edge: labels collapse to each
    # triangle's min id
    tri1 = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    tri2 = [(3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)]
    bridge = [(2, 3), (3, 2)]
    e = np.array(tri1 + tri2 + bridge)
    g = RayGraph.from_arrays(e[:, 0], e[:, 1], np.ones(len(e)))
    out = {r["node"]: r["label"] for r in
           g.label_propagation(iters=3).take_all()}
    # round 1: every node takes its min neighbor: 0->1? counts all 1 ->
    # min label among neighbors. 0:{1,2}->1, 1:{0,2}->0, 2:{0,1,3}->0,
    # 3:{2,4,5}->2, 4:{3,5}->3, 5:{3,4}->3
    # round 2: 0:{l1=0,l2=0}->0, 1:{0->1,2->0}: labels {1,0}, counts 1,1
    # -> 0 ... deterministic; just assert the fixed outcome and parity
    outd = {r["node"]: r["label"] for r in
            unbounded_graph(g.edges).label_propagation(iters=3).take_all()}
    assert out == outd
    # hand-rolled reference recurrence
    ids = np.arange(6)
    adj = {i: [] for i in range(6)}
    for a, b in e:
        adj[a].append(b)
    lab = ids.copy()
    for _ in range(3):
        new = lab.copy()
        for v in range(6):
            labs, cnts = np.unique(lab[adj[v]], return_counts=True)
            new[v] = labs[cnts == cnts.max()].min()
        lab = new
    assert out == {i: int(lab[i]) for i in range(6)}


def test_seed_distance_path_graph(ray_session):
    import numpy as np

    # path 0-1-2-3-4-5, seeds {0, 5}
    f = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5])
    nb = np.array([1, 0, 2, 1, 3, 2, 4, 3, 5, 4])
    g = RayGraph.from_arrays(f, nb, np.ones(10))
    out = {r["node"]: r["dist"] for r in
           g.seed_distance([0, 5], kmax=2).take_all()}
    assert out == {0: 0, 5: 0, 1: 1, 4: 1, 2: 2, 3: 2}
    outd = {r["node"]: r["dist"] for r in
            unbounded_graph(g.edges).seed_distance([0, 5],
                                                   kmax=2).take_all()}
    assert outd == out
    # kmax=1 truncates
    out1 = {r["node"]: r["dist"] for r in
            g.seed_distance([0], kmax=1).take_all()}
    assert out1 == {0: 0, 1: 1}
    # a seed off the graph still reports itself at dist 0
    out2 = {r["node"]: r["dist"] for r in
            g.seed_distance([99], kmax=1).take_all()}
    assert out2 == {99: 0}


# K4 plus a pendant triangle sharing one vertex: K4 edges each have
# support 2 (4-truss survives); the pendant triangle's edges have support
# 1 and peel at k=4 but survive at k=3
_K4 = [(a, b) for a in range(4) for b in range(4) if a != b]
_PENDANT = [(3, 4), (4, 3), (4, 5), (5, 4), (5, 3), (3, 5)]
# a diamond (two triangles on the edge 6-7): at k=4 its four outer edges
# peel in round 1, which leaves 6-7 with support 0 for round 2
_DIAMOND = [(6, 7), (7, 6), (6, 8), (8, 6), (7, 8), (8, 7),
            (6, 9), (9, 6), (7, 9), (9, 7)]


def _graph(pairs, offset=0):
    e = np.array(pairs, dtype=np.int64) + np.int64(offset)
    return RayGraph.from_arrays(e[:, 0], e[:, 1], np.ones(len(e)))


def test_ktruss_closed_forms(ray_session, monkeypatch):
    from libpysal_ray.core import joins as J
    from libpysal_ray.core.graph import ktruss

    # both paths: the one-task numpy peel, then the distributed rounds
    # (the small-input switch forced off); offset 2^32 puts every id past
    # the packed semi-join's int64 key range, so the distributed rounds
    # take the cogroup fallback
    for small_bytes, offset in itertools.product(
            (J.SMALL_COGROUP_BYTES, -1), (0, 1 << 32)):
        monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", small_bytes)
        g = _graph(_K4 + _PENDANT, offset)
        t4 = ktruss(g, 4).to_pandas()
        got = sorted(set(zip(t4["focal"] - offset,
                             t4["neighbor"] - offset)))
        assert got == sorted(_K4)
        assert (t4["support"] == 2).all()
        t3 = ktruss(g, 3).to_pandas()
        assert len(t3) == len(_K4) + len(_PENDANT)
        sup3 = {(a - offset, b - offset): s for a, b, s in
                zip(t3["focal"], t3["neighbor"], t3["support"])}
        assert all(sup3[e] == 2 for e in _K4)
        # the shared vertex 3 adds no triangle to the pendant's edges
        assert all(sup3[e] == 1 for e in _PENDANT)
        # k=5 empties the graph
        assert len(ktruss(g, 5).to_pandas()) == 0
        # path graph has no triangles: k=3 truss is empty
        path = _graph([(0, 1), (1, 0), (1, 2), (2, 1)], offset)
        assert len(ktruss(path, 3).to_pandas()) == 0


@pytest.mark.parametrize("pairs, rounds", [
    (_K4 + _PENDANT, 2),
    (_K4 + _PENDANT + _DIAMOND, 3),
], ids=["closed_form", "diamond"])
def test_ktruss_execution_budget(ray_session, monkeypatch, executed_dags,
                                 pairs, rounds):
    """On the distributed rounds (an edge set with no size bound), each
    peeling round runs two Dataset executions (``paths`` and the kept
    edges) on top of a fixed set-up: the dedup, the one id-range check
    and the consumer's execution of the output. The declared
    bucket_join schemas must be the ones the steps really produce."""
    import logging

    from libpysal_ray.core import joins as J
    from libpysal_ray.core.graph import ktruss

    from libpysal_ray.core import edges as E

    # an edge set without a size bound takes the distributed rounds; the
    # primitives inside them still size their own materialized inputs
    e = np.array(pairs, dtype=np.int64)
    g = unbounded_graph(E.from_arrays(e[:, 0], e[:, 1]))
    declared = []
    orig_declare = J.declare_schema

    def _declare(ds, schema):
        declared.append((ds, schema))
        return orig_declare(ds, schema)

    monkeypatch.setattr(J, "declare_schema", _declare)
    calls = {"packed": 0}
    orig_packed = J.pair_semi_packed

    def _packed(*a, **k):
        calls["packed"] += 1
        return orig_packed(*a, **k)

    monkeypatch.setattr(J, "pair_semi_packed", _packed)
    warned = []

    class _Warnings(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                warned.append(record.getMessage())

    handler = _Warnings()
    logging.getLogger("ray.data").addHandler(handler)
    try:
        out = ktruss(g, 4).materialize()
        execs = len(executed_dags)
        for ds, schema in declared:
            assert ds.materialize().schema().base_schema == schema
    finally:
        logging.getLogger("ray.data").removeHandler(handler)
    assert out.count() == len(_K4)
    assert calls["packed"] == rounds
    assert execs <= 2 * rounds + 3, execs
    # per round: the two wedge sides and the packed semi-join's two sides
    assert len(declared) == 4 * rounds
    assert not warned, warned


def test_ktruss_coalesced_runs_one_execution(ray_session, executed_dags):
    """A provably small edge set peels in one task: the whole call plus
    the consumer's ``materialize()`` is one Dataset execution, and
    ``max_rounds`` still raises a ValueError at the call."""
    import logging

    from libpysal_ray.core.graph import ktruss

    g = _graph(_K4 + _PENDANT + _DIAMOND)
    c0 = len(executed_dags)
    warned = []

    class _Warnings(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                warned.append(record.getMessage())

    handler = _Warnings()
    logging.getLogger("ray.data").addHandler(handler)
    try:
        out = ktruss(g, 4).materialize()
    finally:
        logging.getLogger("ray.data").removeHandler(handler)
    assert len(executed_dags) - c0 == 1
    assert not warned, warned
    t4 = out.to_pandas()
    assert sorted(zip(t4["focal"], t4["neighbor"])) == sorted(_K4)
    assert (t4["support"] == 2).all()
    # the diamond needs three rounds to reach its fixpoint
    with pytest.raises(ValueError, match="max_rounds=2"):
        ktruss(g, 4, max_rounds=2)
    assert ktruss(g, 4, max_rounds=3).count() == len(_K4)


def test_ktruss_rounds_keep_few_blocks(ray_session, monkeypatch):
    """The distributed rounds re-block the kept edges, so the semi-join's
    key side stays at a few blocks however many rounds run; unblocked, it
    had three times the blocks of the round before (1, 3, 9, 27, 81).

    The rounds' own primitives run sharded here, as on an edge set too
    big for one task: behind a marked size-expander alone they still
    size their materialized inputs, run as single tasks and never grow
    the block count. The test checks no schema warning, so it can pin the
    small-input switch off for the whole call.
    """
    from libpysal_ray.core import joins as J
    from libpysal_ray.core.graph import ktruss

    # a seeded random symmetric graph (78 rows) whose 4-truss takes five
    # rounds, the last one finding the fixpoint
    rng = np.random.default_rng(277)
    e = rng.integers(0, 16, (50, 2))
    e = e[e[:, 0] != e[:, 1]]
    e = np.unique(np.concatenate([e, e[:, ::-1]]), axis=0).astype(np.int64)
    g = RayGraph.from_arrays(e[:, 0], e[:, 1])
    monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", -1)
    blocks = []
    orig_packed = J.pair_semi_packed

    def _packed(paths, keys, *a, **k):
        blocks.append(keys.materialize().num_blocks())
        return orig_packed(paths, keys, *a, **k)

    monkeypatch.setattr(J, "pair_semi_packed", _packed)
    got = {(r["focal"], r["neighbor"], r["support"])
           for r in ktruss(g, 4).take_all()}
    assert got == _truss_reference(e[:, 0], e[:, 1], 4)
    assert got
    assert len(blocks) >= 5, blocks
    assert max(blocks) <= 8, blocks


def _random_truss_graph(seed, n_nodes=16, n_cliques=4, n_extra=10):
    """Seeded random symmetric pairs: a few overlapping cliques of 3-5
    nodes (their edges carry support) plus random extra edges."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_cliques):
        c = rng.choice(n_nodes, rng.integers(3, 6), replace=False)
        pairs += [(a, b) for a in c for b in c if a != b]
    extra = rng.integers(0, n_nodes, (n_extra, 2))
    pairs += [tuple(p) for p in extra] + [tuple(p[::-1]) for p in extra]
    return np.array(pairs, dtype=np.int64), rng


def _truss_reference(f, n, k):
    """Set-based synchronous peel: support(a, b) = #{m : a→m, m→b} for
    a ≠ b, over the round's distinct directed pairs."""
    edges = set(zip(f.tolist(), n.tolist()))
    while True:
        out = {}
        for a, m in edges:
            out.setdefault(a, set()).add(m)
        sup = {(a, b): 0 if a == b else sum(
            1 for m in out[a] if b in out.get(m, ()))
            for a, b in edges}
        kept = {e for e, s in sup.items() if s >= k - 2}
        if kept == edges or not kept:
            return {(a, b, sup[(a, b)]) for a, b in kept}
        edges = kept


@pytest.mark.parametrize("seed, k, offset", [
    (0, 3, 0), (4, 4, 0), (1, 5, 0), (2, 4, 1 << 32),
], ids=["k3", "k4", "k5", "k4_offset2^32"])
def test_ktruss_paths_agree(ray_session, monkeypatch, seed, k, offset):
    """The one-task peel and the distributed rounds give the same rows on
    seeded random symmetric graphs with self-loops, duplicate rows and
    zero-weight edges (ids past 2^32 in one case), and both match a
    set-based reference. The coalesced run calls no native groupby."""
    from libpysal_ray.core import joins as J
    from libpysal_ray.core.graph import ktruss

    pairs, rng = _random_truss_graph(seed)
    loops = rng.choice(16, 3, replace=False)
    dups = pairs[rng.choice(len(pairs), 8, replace=False)]
    e = np.concatenate([pairs, np.c_[loops, loops], dups]) + np.int64(offset)
    w = np.ones(len(e))
    w[rng.choice(len(pairs), 10, replace=False)] = 0.0  # zero-weight edges
    g = RayGraph.from_arrays(e[:, 0], e[:, 1], w)

    native = []
    orig = ray.data.Dataset.groupby
    monkeypatch.setattr(
        ray.data.Dataset, "groupby",
        lambda self, *a, **kw: native.append(a) or orig(self, *a, **kw),
    )

    def rows():
        return {(r["focal"], r["neighbor"], r["support"])
                for r in ktruss(g, k).take_all()}

    small = rows()
    assert not native
    monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", -1)
    sharded = rows()
    assert native
    assert small == sharded
    assert small == _truss_reference(e[:, 0], e[:, 1], k)
    assert small, "the graph must keep a non-empty truss"


@pytest.mark.parametrize("chunk", [1, 7, 1 << 22])
def test_ktruss_peel_wedge_chunks_match_reference(chunk):
    # the one-task peel expands wedges ``chunk`` at a time; any chunk
    # size gives the reference's rows, ids past 2^62 included
    from libpysal_ray.core.graph import _ktruss_peel

    pairs, rng = _random_truss_graph(5)
    loops = rng.choice(16, 3, replace=False)
    e = np.concatenate([pairs, np.c_[loops, loops]]) + np.int64(1 << 62)
    for k in (3, 4, 5):
        out = _ktruss_peel(e[:, 0], e[:, 1], k - 2, 64, chunk)
        got = set(zip(out.column("focal").to_pylist(),
                      out.column("neighbor").to_pylist(),
                      out.column("support").to_pylist()))
        assert got == _truss_reference(e[:, 0], e[:, 1], k)
        assert got


def test_ktruss_empty_graph_both_paths(ray_session, monkeypatch):
    from libpysal_ray.core import joins as J
    from libpysal_ray.core.graph import ktruss

    g = RayGraph.from_arrays(np.array([], np.int64), np.array([], np.int64),
                             ids=np.arange(4))
    for small_bytes in (J.SMALL_COGROUP_BYTES, -1):
        monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", small_bytes)
        out = ktruss(g, 3)
        assert out.count() == 0
        assert out.schema().names == ["focal", "neighbor", "support"]


# --------------------------------------------- the one small-input switch


def _switch_graph(seed: int, off: int) -> RayGraph:
    """A seeded graph with isolates (ids 30..34), self-loops and
    zero-weight edges, every id shifted by ``off``."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 30, 60), rng.integers(0, 30, 60)
    w = rng.integers(0, 4, 60).astype(np.float64)  # zeros included
    f = np.concatenate([a, b, [3, 7]]) + np.int64(off)
    n = np.concatenate([b, a, [3, 7]]) + np.int64(off)
    return RayGraph.from_arrays(f, n, np.concatenate([w, w, [1.0, 2.0]]),
                                ids=np.arange(35) + np.int64(off))


def _rows(ds) -> list:
    return sorted(map(tuple, ds.to_pandas().itertuples(index=False)))


def _n_components_rows(g) -> list:
    nc, labels = g.n_components()
    return [nc] + _rows(labels)


_SWITCHED = {
    "pagerank_int": lambda g, off: _rows(g.pagerank_int(iters=3)),
    "seed_distance": lambda g, off: _rows(
        g.seed_distance([off, off + 9, off + 31], kmax=3)),
    "label_propagation": lambda g, off: _rows(g.label_propagation(iters=3)),
    "hits_int": lambda g, off: _rows(g.hits_int(iters=2, h0=10)),
    "spanning_forest": lambda g, off: _rows(g.spanning_forest()),
    "order": lambda g, off: _rows(g.order(kmax=3)),
    "n_components": lambda g, off: _n_components_rows(g),
    "kcore": lambda g, off: _rows(kcore(g, 3)),
}


@pytest.mark.parametrize("name, seed, off", [
    pytest.param(name, seed, off, id=f"{name}-{ids}")
    for name in sorted(_SWITCHED)
    for seed, off, ids in ((5, 0, "small_ids"), (6, 1 << 33, "ids_past_2^32"))
    if not (off and name == "label_propagation")  # needs ids < 2^31
])
def test_switched_algorithms_paths_agree(ray_session, monkeypatch, name,
                                         seed, off):
    """Each of the eight size-switched algorithms gives identical rows on
    its one-task path (a bounded graph) and its sharded path (the same
    edges without a size bound), and each path is the one it claims."""
    from libpysal_ray.core import graph as G

    took = []
    orig = G._one_task

    def _spy(*a, **k):
        out = orig(*a, **k)
        took.append(out is not None)
        return out

    monkeypatch.setattr(G, "_one_task", _spy)
    g = _switch_graph(seed, off)
    one = _SWITCHED[name](g, off)
    assert took[:1] == [True]
    took.clear()
    sharded = _SWITCHED[name](unbounded_graph(g.edges), off)
    assert took[:1] == [False]
    assert len(one) > 1
    assert one == sharded


@pytest.mark.parametrize("path", ["one_task", "sharded"])
def test_switched_errors_raise_at_the_call(ray_session, path):
    """Input errors raise a plain ValueError at the call on both paths,
    not an error wrapped by a Ray task."""
    from libpysal_ray.core.graph import kcore

    def pick(g):
        return g if path == "one_task" else unbounded_graph(g.edges)

    star = RayGraph.from_arrays([0, 0, 3], [1, 2, 1], 1.0, ids=np.arange(4))
    with pytest.raises(ValueError, match="overflow"):
        pick(star).hits_int(iters=40, h0=1 << 60)
    with pytest.raises(ValueError, match="overflow"):
        pick(star).pagerank_int(iters=3, r0=1 << 62)
    big = np.int64(1 << 31)
    pair = RayGraph.from_arrays([big, big + 1], [big + 1, big], 1.0)
    with pytest.raises(ValueError, match="ids < 2\\^31"):
        pick(pair).label_propagation(iters=2)
    # a symmetric path peels from both ends, one round per hop
    path6 = RayGraph.from_arrays([0, 1, 1, 2, 2, 3, 3, 4, 4, 5],
                                 [1, 0, 2, 1, 3, 2, 4, 3, 5, 4], 1.0)
    with pytest.raises(ValueError, match="max_rounds=1"):
        kcore(pick(path6), 2, max_rounds=1)
    assert kcore(pick(path6), 2).count() == 0


def _rng87_edges():
    """128 symmetric rows over 20 nodes (70 seeded draws, self-pairs
    dropped): several peeling rounds for ktruss and kcore."""
    from libpysal_ray.core import edges as E

    rng = np.random.default_rng(87)
    a, b = rng.integers(0, 20, 70), rng.integers(0, 20, 70)
    keep = a != b
    return E.from_arrays(np.concatenate([a[keep], b[keep]]),
                         np.concatenate([b[keep], a[keep]]))


@pytest.mark.parametrize("name", ["ktruss", "kcore", "label_propagation",
                                  "hits_int"])
def test_sharded_rounds_carry_no_stats_lineage(ray_session, monkeypatch,
                                               name):
    """The state a sharded round loop carries into the next round starts
    without stats parents: the deepest stats chain of any Dataset the
    call materializes is the same after one round as after three."""
    from libpysal_ray.core.graph import kcore, ktruss

    runs = {
        "ktruss": lambda g, r: ktruss(g, 4, max_rounds=r),
        "kcore": lambda g, r: kcore(g, 5, max_rounds=r),
        "label_propagation": lambda g, r: g.label_propagation(iters=r),
        "hits_int": lambda g, r: g.hits_int(iters=r, h0=1),
    }
    depths = []
    orig = ray.data.Dataset.materialize

    def _materialize(self):
        out = orig(self)
        depths.append(out._plan.stats().number)
        return out

    monkeypatch.setattr(ray.data.Dataset, "materialize", _materialize)

    def deepest(rounds: int) -> int:
        depths.clear()
        try:  # fewer rounds than the peel needs raise; the depth counts
            runs[name](unbounded_graph(_rng87_edges()), rounds).materialize()
        except ValueError:
            pass
        return max(depths)

    assert deepest(3) == deepest(1)
