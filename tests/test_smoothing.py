"""Round-5 second/third-wave operators vs independent brute-force
references: rate smoothing (spatial_rate / eb_smooth), mobility
(prais), surfaces (kde, gw_mean, d8, flow accumulation, focal
majority, TRI), point patterns (within_join, morisita, local_clq),
inequality/segregation (palma, hoover, exposure, chi2, local_simpson),
regimes (regime_trend + Chow), graphs (rich_club, pair_semi packed
path), curation (target_affinity, novelty, group_rank,
weighted_sample, familiarity buckets), analytics (funnel, retention,
keyed HLL), and the Huff interaction model."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from libpysal_ray.builders.lattice import lat2graph


def _eb_attrs(e, b):
    return ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(len(e), dtype=np.int64)),
        "e": pa.array(np.asarray(e, dtype=np.int64)),
        "b": pa.array(np.asarray(b, dtype=np.int64)),
    })).repartition(3)


def test_spatial_rate_matches_dense(ray_session):
    from libpysal_ray.spatial.smoothing import spatial_rate

    g = lat2graph(6, 5, rook=True)
    rng = np.random.default_rng(11)
    e = rng.integers(0, 40, 30)
    b = rng.integers(1, 25, 30)
    rows = {r["id"]: r for r in spatial_rate(
        g, _eb_attrs(e, b)).take_all()}
    m, ids = g.to_dense()
    w = (m > 0).astype(np.int64)
    assert len(rows) == 30
    for k, i in enumerate(ids):
        num = int(e[i] + w[k] @ e[ids])
        den = int(b[i] + w[k] @ b[ids])
        assert rows[i]["rate_num"] == num
        assert rows[i]["rate_den"] == den
        assert abs(rows[i]["rate_f"] - num / den) < 1e-15


def test_spatial_rate_isolate_keeps_raw_rate(ray_session):
    from libpysal_ray.core.graph import RayGraph
    from libpysal_ray.spatial.smoothing import spatial_rate

    # node 2 is an isolate (zero-weight self-loop marker)
    g = RayGraph.from_arrays([0, 1, 2], [1, 0, 2], [1.0, 1.0, 0.0])
    rows = {r["id"]: r for r in spatial_rate(
        g, _eb_attrs([4, 6, 9], [2, 3, 4])).take_all()}
    assert rows[2]["rate_num"] == 9 and rows[2]["rate_den"] == 4
    assert rows[0]["rate_num"] == 10 and rows[0]["rate_den"] == 5


def test_spatial_rate_rejects_uncovered_universe(ray_session):
    from libpysal_ray.spatial.smoothing import spatial_rate

    g = lat2graph(3, 3, rook=True)
    attrs = _eb_attrs([1] * 8, [1] * 8)  # node 8 missing
    with pytest.raises(ValueError, match="universe"):
        spatial_rate(g, attrs).take_all()


def _eb_ref(e, b, sc):
    # pure-Python trunc fixed-point mirror
    E, B, n = int(e.sum()), int(b.sum()), len(e)
    m = E * sc // B
    r = [int(x) * sc // int(y) for x, y in zip(e, b)]
    S = sum(int(y) * (ri - m) ** 2 for ri, y in zip(r, b))
    a = max(S // (B * sc) - m * n // B, 0)
    out = []
    for ri, y in zip(r, b):
        wn = a * int(y)
        num = (ri - m) * wn
        den = max(wn + m, 1)
        q = abs(num) // den
        out.append(m + (q if num >= 0 else -q))
    return out


def test_eb_smooth_matches_python_reference(ray_session):
    from libpysal_ray.spatial.smoothing import eb_smooth

    rng = np.random.default_rng(5)
    e = rng.integers(0, 60, 200)
    b = rng.integers(1, 30, 200)
    rows = {r["id"]: r for r in eb_smooth(
        _eb_attrs(e, b), scale=1000).take_all()}
    want = _eb_ref(e, b, 1000)
    assert len(rows) == 200
    for i in range(200):
        assert rows[i]["theta_fp"] == want[i], i
        assert abs(rows[i]["theta_f"] - want[i] / 1000.0) < 1e-15


def test_eb_smooth_shrinks_toward_global_mean(ray_session):
    from libpysal_ray.spatial.smoothing import eb_smooth

    # small-base outlier rate shrinks more than a large-base equal rate
    e = np.array([9, 90, 10, 10, 10, 10], dtype=np.int64)
    b = np.array([1, 10, 10, 10, 10, 10], dtype=np.int64)
    rows = {r["id"]: r for r in eb_smooth(
        _eb_attrs(e, b), scale=10000).take_all()}
    m = int(e.sum()) * 10000 // int(b.sum())
    # both raw rates are 9.0 > m; the b=1 row must land closer to m
    assert abs(rows[0]["theta_fp"] - m) < abs(rows[1]["theta_fp"] - m)


def test_prais_matches_transition_matrix(ray_session):
    from libpysal_ray.spatial.stats import prais_index

    rng = np.random.default_rng(3)
    x0 = rng.integers(0, 100, 300)
    x1 = rng.integers(0, 100, 300)
    attrs = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(300, dtype=np.int64)),
        "x0": pa.array(x0.astype(np.int64)),
        "x1": pa.array(x1.astype(np.int64)),
    })).repartition(4)
    rows = {r["c"]: r for r in prais_index(
        attrs, class_bins=[33, 66]).take_all()}
    cb = np.array([33, 66])
    c0 = np.searchsorted(cb, x0, side="right")
    c1 = np.searchsorted(cb, x1, side="right")
    for c in range(3):
        rt = int((c0 == c).sum())
        dg = int(((c0 == c) & (c1 == c)).sum())
        assert rows[c]["row_tot"] == rt
        assert rows[c]["diag"] == dg
        assert abs(rows[c]["prais_f"] - (rt - dg) / rt) < 1e-15


def test_kde_surface_matches_brute(ray_session):
    from libpysal_ray.spatial.access import kde_surface

    rng = np.random.default_rng(9)
    px = rng.integers(0, 200, 300).astype(np.float64)
    py = rng.integers(0, 200, 300).astype(np.float64)
    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(300, dtype=np.int64)),
        "x": pa.array(px), "y": pa.array(py),
    })).repartition(5)
    ax = np.array([0.0, 50.0, 100.0, 199.0])
    anchors = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(4, dtype=np.int64)),
        "x": pa.array(ax), "y": pa.array(ax),
    }))
    h = 30.0
    rows = {r["id"]: r for r in kde_surface(
        anchors, pts, bandwidth=h).take_all()}
    assert len(rows) == 4
    for i in range(4):
        d2 = (px - ax[i]) ** 2 + (py - ax[i]) ** 2
        m = d2 < h * h
        ksum = int((h * h - d2[m]).sum())
        assert rows[i]["ksum"] == ksum
        assert rows[i]["cnt"] == int(m.sum())
        assert abs(rows[i]["kde_f"] - ksum / (300 * h * h)) < 1e-15


def test_kde_surface_empty_neighborhood_zero(ray_session):
    from libpysal_ray.spatial.access import kde_surface

    pts = ray.data.from_arrow(pa.table({
        "id": pa.array([0], pa.int64()),
        "x": pa.array([0.0]), "y": pa.array([0.0]),
    }))
    anchors = ray.data.from_arrow(pa.table({
        "id": pa.array([7], pa.int64()),
        "x": pa.array([500.0]), "y": pa.array([500.0]),
    }))
    rows = kde_surface(anchors, pts, bandwidth=10.0).take_all()
    assert rows == [{"id": 7, "ksum": 0, "cnt": 0, "kde_f": 0.0}]


def test_target_affinity_matches_brute(ray_session):
    from collections import Counter

    from libpysal_ray.text.analysis import target_affinity

    docs = [
        (0, "a b a c", "en"),
        (1, "b b d", "fr"),
        (2, "a d d e", "en"),
        (3, "c c", "de"),
        (4, "", "en"),
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs]),
        "lang": pa.array([d[2] for d in docs]),
    })).repartition(3)
    rows = {r["doc_id"]: r for r in target_affinity(
        ds, target_lang="en").take_all()}
    raw = Counter()
    tgt = Counter()
    for _, text, lang in docs:
        for w in text.split():
            raw[w] += 1
            if lang == "en":
                tgt[w] += 1
    assert 4 not in rows  # empty doc emits no row
    for i, text, _ in docs[:4]:
        num = sum(tgt[w] for w in text.split())
        den = sum(raw[w] for w in text.split())
        assert rows[i]["aff_num"] == num, i
        assert rows[i]["aff_den"] == den, i
        assert abs(rows[i]["aff_f"] - num / den) < 1e-15
    # the en docs sharing 'a' should out-score the fr doc of b/d
    assert rows[0]["aff_f"] > rows[1]["aff_f"]


def test_within_join_matches_brute(ray_session):
    from libpysal_ray.spatial.pointpat import within_join

    rng = np.random.default_rng(17)
    ax = rng.integers(0, 300, 80).astype(np.float64)
    ay = rng.integers(0, 300, 80).astype(np.float64)
    bx = rng.integers(0, 300, 120).astype(np.float64)
    by = rng.integers(0, 300, 120).astype(np.float64)
    A = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(80, dtype=np.int64)),
        "x": pa.array(ax), "y": pa.array(ay),
    })).repartition(3)
    B = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(1000, 1120, dtype=np.int64)),
        "x": pa.array(bx), "y": pa.array(by),
    })).repartition(4)
    r = 40.0
    got = sorted(
        (x["focal"], x["neighbor"], x["d2"])
        for x in within_join(A, B, radius=r).take_all()
    )
    d2 = (ax[:, None] - bx[None, :]) ** 2 + (ay[:, None] - by[None, :]) ** 2
    ii, jj = np.nonzero(d2 <= r * r)
    want = sorted(
        (int(i), int(j) + 1000, int(d2[i, j])) for i, j in zip(ii, jj)
    )
    assert got == want and len(want) > 100


def test_novelty_score_matches_brute(ray_session):
    from collections import Counter

    from libpysal_ray.text.dedup import novelty_score

    # k=3 windows; doc 1 copies doc 0's opening trigram
    docs = [
        (0, "a b c d e"),
        (1, "a b c x y"),
        (2, "p q r s"),
        (3, "zz"),          # < k tokens -> whole-doc window, unique
        (4, "zz"),          # duplicate whole-doc window with doc 3
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs]),
    })).repartition(2)
    rows = {r["doc_id"]: r for r in novelty_score(ds, k=3).take_all()}
    grams = {}
    for i, text in docs:
        tk = text.split()
        if len(tk) >= 3:
            g = {" ".join(tk[j:j + 3]) for j in range(len(tk) - 2)}
        else:
            g = {text}
        grams[i] = g
    df = Counter(w for g in grams.values() for w in g)
    for i, _ in docs:
        nw = len(grams[i])
        nv = sum(1 for w in grams[i] if df[w] == 1)
        assert rows[i]["n_windows"] == nw, i
        assert rows[i]["novel"] == nv, i
        assert abs(rows[i]["novelty_f"] - nv / nw) < 1e-15
    assert rows[3]["novel"] == 0 and rows[2]["novel"] == 2


def test_hard_negative_topk_matches_brute(ray_session):
    from libpysal_ray.ann.knn import hard_negative_topk

    rng = np.random.default_rng(21)
    n, d = 120, 8
    vecs = rng.normal(size=(n, d))
    labels = rng.integers(0, 3, n)
    emb = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(vecs.astype(np.float64))),
        "label": pa.array(labels.astype(np.int64)),
    })).repartition(4)
    out = hard_negative_topk(emb, query_ids=[0, 5, 9], k=4).take_all()
    got = {}
    for r in out:
        got.setdefault(r["query_id"], []).append(
            (r["rank"], r["neighbor_id"])
        )
    nv = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    for q in (0, 5, 9):
        sims = nv @ nv[q]
        sims[labels == labels[q]] = -np.inf
        order = np.lexsort((np.arange(n), -sims))[:4]
        want = [(i + 1, int(j)) for i, j in enumerate(order)]
        assert sorted(got[q]) == want, q
        assert all(labels[j] != labels[q] for _, j in want)


def test_group_rank_matches_window_fn(ray_session):
    from libpysal_ray.text.analysis import group_rank

    rng = np.random.default_rng(23)
    g = rng.integers(0, 4, 400)
    s = rng.integers(0, 12, 400)  # heavy ties on purpose
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(400, dtype=np.int64)),
        "grp": pa.array([f"s{v}" for v in g]),
        "score": pa.array(s.astype(np.int64)),
    })).repartition(5)
    rows = {r["doc_id"]: r for r in group_rank(
        ds, group_col="grp", score_col="score").take_all()}
    assert len(rows) == 400
    for i in range(400):
        same = g == g[i]
        rank = int((s[same] < s[i]).sum()) + 1  # RANK(): ties share
        ngrp = int(same.sum())
        assert rows[i]["rnk"] == rank, i
        assert rows[i]["n_group"] == ngrp
        assert abs(rows[i]["pct_f"] - rank / ngrp) < 1e-15


def test_morisita_matches_brute(ray_session):
    from libpysal_ray.spatial.pointpat import morisita_index

    rng = np.random.default_rng(31)
    x = rng.integers(0, 400, 500).astype(np.float64)
    y = rng.integers(0, 400, 500).astype(np.float64)
    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(500, dtype=np.int64)),
        "x": pa.array(x), "y": pa.array(y),
    })).repartition(4)
    row = morisita_index(pts, cell=100.0, n_quadrats=16).take_all()[0]
    cells = (np.floor(y / 100).astype(int) * 4
             + np.floor(x / 100).astype(int))
    cnt = np.bincount(cells, minlength=16)
    s2 = int((cnt * (cnt - 1)).sum())
    assert row["n"] == 500 and row["s2"] == s2
    assert row["mor_num"] == str(16 * s2)
    assert row["mor_den"] == str(500 * 499)
    assert abs(row["morisita_f"] - 16 * s2 / (500 * 499)) < 1e-12


def test_morisita_clustered_beats_uniform(ray_session):
    from libpysal_ray.spatial.pointpat import morisita_index

    # all mass in one quadrat -> maximal clustering, I = Q
    xs = np.full(50, 5.0)
    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(50, dtype=np.int64)),
        "x": pa.array(xs), "y": pa.array(xs),
    }))
    row = morisita_index(pts, cell=100.0, n_quadrats=16).take_all()[0]
    assert abs(row["morisita_f"] - 16.0) < 1e-12


def test_palma_matches_brute(ray_session):
    from libpysal_ray.spatial.inequality import palma_ratio

    rng = np.random.default_rng(37)
    v = rng.integers(0, 50, 230)  # heavy boundary ties by design
    ds = ray.data.from_arrow(pa.table({
        "v": pa.array(v.astype(np.int64)),
    })).repartition(3)
    row = palma_ratio(ds, value_col="v").take_all()[0]
    sv = np.sort(v)
    n = len(v)
    k_top, k_bot = n * 10 // 100, n * 40 // 100
    bot = int(sv[:k_bot].sum())
    top = int(sv[n - k_top:].sum())
    assert row["n"] == n
    assert row["bot_sum"] == str(bot)
    assert row["top_sum"] == str(top)
    assert abs(row["palma_f"] - top / bot) < 1e-12


def test_local_simpson_matches_brute(ray_session):
    from libpysal_ray.spatial.stats import local_simpson

    g = lat2graph(6, 5, rook=True)
    rng = np.random.default_rng(41)
    c = rng.integers(0, 3, 30)
    attrs = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(30, dtype=np.int64)),
        "c": pa.array(c.astype(np.int64)),
    })).repartition(3)
    rows = {r["id"]: r for r in local_simpson(g, attrs).take_all()}
    m, ids = g.to_dense()
    w = m > 0
    assert len(rows) == 30
    for k, i in enumerate(ids):
        nbrs = c[ids[w[k]]]
        cnt = np.bincount(nbrs, minlength=3)
        s2 = int((cnt * (cnt - 1)).sum())
        nn = len(nbrs)
        assert rows[i]["n_nbrs"] == nn
        assert rows[i]["s2"] == s2
        want = s2 / (nn * (nn - 1)) if nn >= 2 else 0.0
        assert abs(rows[i]["simpson_f"] - want) < 1e-15


def test_local_simpson_rejects_uncovered_universe(ray_session):
    from libpysal_ray.spatial.stats import local_simpson

    g = lat2graph(3, 3, rook=True)
    attrs = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(8, dtype=np.int64)),  # node 8 missing
        "c": pa.array(np.zeros(8, dtype=np.int64)),
    }))
    with pytest.raises(ValueError, match="universe"):
        local_simpson(g, attrs).take_all()


def test_d8_flow_matches_brute(ray_session):
    from libpysal_ray.builders.raster import d8_flow

    rng = np.random.default_rng(43)
    nr, ncls = 12, 10
    z = rng.integers(0, 1000, (nr, ncls)).astype(np.int64)
    nodata_mask = rng.random((nr, ncls)) < 0.15
    z[nodata_mask] = -1
    rr, cc = np.meshgrid(np.arange(nr), np.arange(ncls), indexing="ij")
    cells = ray.data.from_arrow(pa.table({
        "row": pa.array(rr.ravel().astype(np.int64)),
        "col": pa.array(cc.ravel().astype(np.int64)),
        "value": pa.array(z.ravel()),
    })).repartition(4)
    rows = {(r["row"], r["col"]): r["d8"]
            for r in d8_flow(cells, nr, ncls, nodata=-1).take_all()}
    offs = [(0, 1, 1, 0), (1, 1, 2, 1), (1, 0, 4, 0), (1, -1, 8, 1),
            (0, -1, 16, 0), (-1, -1, 32, 1), (-1, 0, 64, 0),
            (-1, 1, 128, 1)]
    n_checked = 0
    for r in range(nr):
        for c in range(ncls):
            if z[r, c] == -1:
                assert (r, c) not in rows
                continue
            best = (0, 0)  # (key, -code) ordering helper
            bcode = 0
            for dr, dc, code, diag in offs:
                r2, c2 = r + dr, c + dc
                if not (0 <= r2 < nr and 0 <= c2 < ncls):
                    continue
                if z[r2, c2] == -1:
                    continue
                d = int(z[r, c] - z[r2, c2])
                if d <= 0:
                    continue
                key = d * d if diag else 2 * d * d
                if key > best[0] or (key == best[0] and code < bcode):
                    best = (key, 0)
                    bcode = code
            assert rows[(r, c)] == bcode, (r, c)
            n_checked += 1
    assert n_checked > 80


def test_contingency_chi2_matches_scipy_formula(ray_session):
    from libpysal_ray.text.analysis import contingency_chi2

    rng = np.random.default_rng(47)
    a = rng.integers(0, 3, 500)
    b = rng.integers(0, 4, 500)
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array([f"a{v}" for v in a]),
        "b": pa.array([f"b{v}" for v in b]),
    })).repartition(3)
    rows = contingency_chi2(ds, "a", "b").take_all()
    assert len(rows) == 12
    obs = np.zeros((3, 4))
    for x, y in zip(a, b):
        obs[x, y] += 1
    exp = obs.sum(1, keepdims=True) * obs.sum(0, keepdims=True) / 500
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    got = sum(r["term_f"] for r in rows)
    assert abs(got - chi2) < 1e-9
    for r in rows:
        i, j = int(r["a"][1]), int(r["b"][1])
        assert r["n_ij"] == int(obs[i, j])
        # exact fraction equals the float term to 1e-12
        assert abs(int(r["term_num"]) / int(r["term_den"])
                   - ((obs[i, j] - exp[i, j]) ** 2 / exp[i, j])) < 1e-9


def test_flow_accumulation_matches_brute(ray_session):
    from libpysal_ray.builders.raster import d8_flow, flow_accumulation

    rng = np.random.default_rng(53)
    nr, ncls = 10, 8
    z = rng.integers(0, 500, (nr, ncls)).astype(np.int64)
    rr, cc = np.meshgrid(np.arange(nr), np.arange(ncls), indexing="ij")
    cells = ray.data.from_arrow(pa.table({
        "row": pa.array(rr.ravel().astype(np.int64)),
        "col": pa.array(cc.ravel().astype(np.int64)),
        "value": pa.array(z.ravel()),
    })).repartition(4)
    d8 = d8_flow(cells, nr, ncls).materialize()
    d8map = {(r["row"], r["col"]): r["d8"] for r in d8.take_all()}
    rows = {(r["row"], r["col"]): r["acc"]
            for r in flow_accumulation(d8, nr, ncls).take_all()}
    step = {1: (0, 1), 2: (1, 1), 4: (1, 0), 8: (1, -1), 16: (0, -1),
            32: (-1, -1), 64: (-1, 0), 128: (-1, 1)}
    acc = {k: 0 for k in d8map}
    for start in d8map:
        cur = start
        seen = 0
        while d8map[cur] != 0:
            dr, dc = step[d8map[cur]]
            cur = (cur[0] + dr, cur[1] + dc)
            acc[cur] += 1
            seen += 1
            assert seen < nr * ncls  # acyclic
    assert rows == acc
    assert max(acc.values()) >= 3  # non-trivial drainage formed


def test_weighted_sample_proportional_and_deterministic(ray_session):
    from libpysal_ray.core.hashing import splitmix64
    from libpysal_ray.text.analysis import weighted_sample

    rng = np.random.default_rng(59)
    n = 4000
    w = rng.integers(0, 20, n)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "w": pa.array(w.astype(np.int64)),
    })).repartition(5)
    kept = sorted(r["doc_id"] for r in weighted_sample(
        ds, "w", pct=25).take_all())
    # exact replica of the keep rule
    K = 25 * (1 << 32) * n // (100 * int(w.sum()))
    h = (splitmix64(np.arange(n, dtype=np.int64).view(np.uint64))
         % np.uint64(1 << 32)).astype(np.int64)
    want = sorted(np.flatnonzero(h < w * K).tolist())
    assert kept == want
    # zero weights never survive; heavier rows survive more often
    assert not set(kept) & set(np.flatnonzero(w == 0).tolist())
    hi = np.mean([i in set(kept) for i in np.flatnonzero(w >= 15)])
    lo = np.mean([i in set(kept) for i in np.flatnonzero(w == 1)])
    assert hi > lo
    # layout invariance: different partitioning, same survivors
    kept2 = sorted(r["doc_id"] for r in weighted_sample(
        ds.repartition(17), "w", pct=25).take_all())
    assert kept2 == kept


def test_hoover_matches_brute(ray_session):
    from libpysal_ray.spatial.inequality import hoover_index

    rng = np.random.default_rng(61)
    v = rng.integers(0, 1000, 300)
    ds = ray.data.from_arrow(pa.table({
        "v": pa.array(v.astype(np.int64)),
    })).repartition(4)
    row = hoover_index(ds, value_col="v").take_all()[0]
    mu = v.mean()
    want = np.abs(v - mu).sum() / (2 * v.sum())
    assert abs(row["hoover_f"] - want) < 1e-12
    assert row["h_num"] == str(int(np.abs(300 * v.astype(object)
                                          - int(v.sum())).sum()))


def test_hoover_extremes(ray_session):
    from libpysal_ray.spatial.inequality import hoover_index

    # perfectly equal -> 0
    eq = ray.data.from_arrow(pa.table({
        "v": pa.array([7] * 50, pa.int64()),
    }))
    assert hoover_index(eq, "v").take_all()[0]["hoover_f"] == 0.0
    # one unit holds everything -> (n-1)/n
    one = ray.data.from_arrow(pa.table({
        "v": pa.array([0] * 9 + [90], pa.int64()),
    }))
    assert abs(hoover_index(one, "v").take_all()[0]["hoover_f"]
               - 0.9) < 1e-12


def test_local_clq_matches_brute(ray_session):
    from libpysal_ray.spatial.pointpat import local_clq

    rng = np.random.default_rng(67)
    n = 120
    x = rng.permutation(n).astype(np.float64) * 3
    y = rng.permutation(n).astype(np.float64) * 3
    cat = rng.integers(0, 3, n)
    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "x": pa.array(x), "y": pa.array(y),
        "cat": pa.array(cat.astype(np.int64)),
    })).repartition(4)
    k = 5
    rows = {r["id"]: r for r in local_clq(
        pts, target_cat=1, k=k).take_all()}
    nb_total = int((cat == 1).sum())
    for i in range(n):
        d2 = (x - x[i]) ** 2 + (y - y[i]) ** 2
        d2[i] = np.inf
        order = np.lexsort((np.arange(n), d2))[:k]
        hits = int((cat[order] == 1).sum())
        nbp = nb_total - (1 if cat[i] == 1 else 0)
        assert rows[i]["nb_cnt"] == hits, i
        assert rows[i]["lclq_num"] == hits * (n - 1)
        assert rows[i]["lclq_den"] == k * nbp
        assert abs(rows[i]["lclq_f"]
                   - hits * (n - 1) / (k * nbp)) < 1e-15


def test_pair_semi_packed_matches_fallback(ray_session, monkeypatch):
    from libpysal_ray.core import joins as J

    packed_calls = []
    orig_packed = J.pair_semi_packed

    def _packed(*a, **k):
        packed_calls.append(1)
        return orig_packed(*a, **k)

    monkeypatch.setattr(J, "pair_semi_packed", _packed)

    def semi(left, right):
        packed_calls.clear()
        rows = J.pair_semi(left, right).take_all()
        return rows, bool(packed_calls)

    rng = np.random.default_rng(71)
    # duplicate left pairs (multiplicities), some pairs absent from right
    lf = rng.integers(0, 40, 600)
    ln = rng.integers(0, 40, 600)

    def left_side(f, n, weighted=True):
        cols = {"focal": pa.array(f.astype(np.int64)),
                "neighbor": pa.array(n.astype(np.int64))}
        if weighted:
            cols["weight"] = pa.array(np.ones(len(f)))
        return ray.data.from_arrow(pa.table(cols)).repartition(3)

    rkeys = {(i, j) for i, j in zip(lf[::2], ln[::2])}

    def right_side(off=0):
        return ray.data.from_arrow(pa.table({
            "focal": pa.array(np.array([k[0] + off for k in sorted(rkeys)],
                                       dtype=np.int64)),
            "neighbor": pa.array(np.array(
                [k[1] + off for k in sorted(rkeys)], dtype=np.int64)),
        }))

    rows, packed = semi(left_side(lf, ln), right_side())
    got = sorted((r["focal"], r["neighbor"], r["weight"]) for r in rows)
    from collections import Counter
    cnt = Counter(zip(lf, ln))
    want = sorted(
        (int(i), int(j), float(cnt[(i, j)])) for i, j in rkeys
        if (i, j) in cnt
    )
    assert got == want and len(want) > 100 and packed

    # huge ids force the cogroup fallback — same result contract
    BIG = np.int64(1) << 32

    def unshift(rows):
        return sorted((r["focal"] - BIG, r["neighbor"] - BIG, r["weight"])
                      for r in rows)

    rows2, packed2 = semi(left_side(lf + BIG, ln + BIG), right_side(BIG))
    assert unshift(rows2) == got and not packed2

    # a left side without weight counts each row 1.0 on both paths
    rows3, packed3 = semi(left_side(lf, ln, weighted=False), right_side())
    assert sorted((r["focal"], r["neighbor"], r["weight"])
                  for r in rows3) == got and packed3
    rows4, packed4 = semi(left_side(lf + BIG, ln + BIG, weighted=False),
                          right_side(BIG))
    assert unshift(rows4) == got and not packed4

    # left ids beyond the right side's range cannot match: they drop
    # before packing, and the join stays on the packed path. The last
    # row would alias the packed key of the matched pair (i, j).
    i, j = next((i, j) for i, j, _ in want if i >= 2)
    far = np.array([40, 7, -5, i - 2], dtype=np.int64)
    near = np.array([3, 45, 1, j + BIG], dtype=np.int64)
    rows5, packed5 = semi(
        left_side(np.concatenate([lf, far]), np.concatenate([ln, near])),
        right_side(),
    )
    assert sorted((r["focal"], r["neighbor"], r["weight"])
                  for r in rows5) == got and packed5


def test_familiarity_buckets_terciles(ray_session):
    from libpysal_ray.text.ngrams import familiarity_buckets

    # 30 docs: 10 share a very common bigram-heavy phrase (head), 10 a
    # medium one, 10 unique word soup (tail)
    docs = []
    for i in range(10):
        docs.append((i, "the cat sat on the mat"))
    for i in range(10, 20):
        docs.append((i, f"quick brown fox {i} jumps high"))
    for i in range(20, 30):
        docs.append((i, f"u{i}a u{i}b u{i}c u{i}d"))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs]),
    })).repartition(3)
    rows = {r["doc_id"]: r for r in familiarity_buckets(
        ds, n_buckets=3).take_all()}
    assert len(rows) == 30
    # identical docs share the top bucket; unique soup lands in 0
    assert all(rows[i]["bucket"] == 2 for i in range(10))
    assert all(rows[i]["bucket"] == 0 for i in range(20, 30))
    assert all(rows[i]["bucket"] == 1 for i in range(10, 20))
    # buckets are value-monotone in mean_fam
    for a in range(30):
        for b in range(30):
            if rows[a]["mean_fam"] > rows[b]["mean_fam"]:
                assert rows[a]["bucket"] >= rows[b]["bucket"]


def test_regime_trend_matches_lstsq_and_chow(ray_session):
    from libpysal_ray.spatial.stats import regime_trend

    rng = np.random.default_rng(73)
    n = 400
    x = rng.integers(0, 500, n)
    y = rng.integers(0, 500, n)
    reg = rng.integers(0, 3, n)
    # regime-dependent planes + integer noise
    z = (2 + reg) * x // 10 + (7 - reg) * y // 10 + rng.integers(0, 9, n)
    pts = ray.data.from_arrow(pa.table({
        "x": pa.array(x.astype(np.int64)),
        "y": pa.array(y.astype(np.int64)),
        "z": pa.array(z.astype(np.int64)),
        "regime": pa.array(reg.astype(np.int64)),
    })).repartition(4)
    rows = {r["regime"]: r for r in regime_trend(pts).take_all()}
    assert set(rows) == {0, 1, 2, -1}
    sses = {}
    for rv in (0, 1, 2, -1):
        m = np.ones(n, bool) if rv == -1 else reg == rv
        A = np.c_[np.ones(m.sum()), x[m], y[m]].astype(np.float64)
        coef, res, *_ = np.linalg.lstsq(A, z[m].astype(np.float64),
                                        rcond=None)
        pred = A @ coef
        sse = float(((z[m] - pred) ** 2).sum())
        got = rows[rv]
        assert abs(got["a_f"] - coef[0]) < 1e-6
        assert abs(got["b_f"] - coef[1]) < 1e-8
        assert abs(got["c_f"] - coef[2]) < 1e-8
        assert abs(got["sse_f"] - sse) < max(1e-5 * sse, 1e-6)
        sses[rv] = got["sse_f"]
    # Chow F from the emitted exact SSEs: strong regime effect expected
    k, R = 3, 3
    ssr = sses[0] + sses[1] + sses[2]
    chow = ((sses[-1] - ssr) / (k * (R - 1))) / (ssr / (n - k * R))
    assert chow > 10.0


def test_huff_probabilities_match_brute(ray_session):
    from libpysal_ray.spatial.access import huff_probabilities

    rng = np.random.default_rng(79)
    dx = rng.integers(0, 200, 60).astype(np.float64)
    dy = rng.integers(0, 200, 60).astype(np.float64)
    sx = rng.integers(0, 200, 40).astype(np.float64)
    sy = rng.integers(0, 200, 40).astype(np.float64)
    sv = rng.integers(1, 50, 40)
    dem = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(60, dtype=np.int64)),
        "x": pa.array(dx), "y": pa.array(dy),
    })).repartition(3)
    sup = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(100, 140, dtype=np.int64)),
        "x": pa.array(sx), "y": pa.array(sy),
        "s": pa.array(sv.astype(np.int64)),
    })).repartition(2)
    r, sc = 60.0, 1_000_000
    rows = huff_probabilities(dem, sup, radius=r, scale=sc).take_all()
    got = {(x["id"], x["supply_id"]): x for x in rows}
    n_checked = 0
    for i in range(60):
        d2 = ((dx[i] - sx) ** 2 + (dy[i] - sy) ** 2).astype(np.int64)
        m = d2 <= r * r
        w = np.where(m, sc // np.maximum(d2, 1), 0)
        num = w * sv
        den = int(num[m].sum())
        for j in np.flatnonzero(m):
            x = got[(i, 100 + j)]
            assert x["p_num"] == int(num[j])
            assert x["p_den"] == den
            assert abs(x["p_f"] - num[j] / den) < 1e-15
            n_checked += 1
        # probabilities per demand point sum to 1 exactly in the ints
        if m.any():
            assert sum(got[(i, 100 + j)]["p_num"]
                       for j in np.flatnonzero(m)) == den
    assert n_checked > 100


def test_rich_club_matches_dense(ray_session):
    from libpysal_ray.core.graph import RayGraph, rich_club

    rng = np.random.default_rng(83)
    n = 60
    m = np.triu((rng.random((n, n)) < 0.12), 1)
    m = m | m.T
    f, nb = np.nonzero(m)
    g = RayGraph.from_arrays(f.astype(np.int64), nb.astype(np.int64),
                             np.ones(len(f)))
    rows = {r["k"]: r for r in rich_club(g, ks=[1, 3, 6]).take_all()}
    deg = m.sum(1)
    for k in (1, 3, 6):
        club = deg > k
        nk = int(club.sum())
        ek = int(m[np.ix_(club, club)].sum())
        assert rows[k]["n_k"] == nk
        assert rows[k]["e_k"] == ek
        if nk >= 2:
            assert abs(rows[k]["rc_f"] - ek / (nk * (nk - 1))) < 1e-15
            assert rows[k]["rc_den"] == str(nk * (nk - 1))
        else:
            assert rows[k]["rc_f"] == 0.0


def test_gw_mean_matches_brute(ray_session):
    from libpysal_ray.spatial.access import gw_mean

    rng = np.random.default_rng(89)
    px = rng.integers(0, 150, 200).astype(np.float64)
    py = rng.integers(0, 150, 200).astype(np.float64)
    v = rng.integers(-30, 60, 200)
    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(200, dtype=np.int64)),
        "x": pa.array(px), "y": pa.array(py),
        "v": pa.array(v.astype(np.int64)),
    })).repartition(4)
    ax = np.array([10.0, 75.0, 140.0])
    anchors = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(3, dtype=np.int64)),
        "x": pa.array(ax), "y": pa.array(ax),
    }))
    h = 40.0
    rows = {r["id"]: r for r in gw_mean(
        anchors, pts, bandwidth=h).take_all()}
    for i in range(3):
        d2 = (px - ax[i]) ** 2 + (py - ax[i]) ** 2
        w = np.where(d2 < h * h, h * h - d2, 0).astype(np.int64)
        num, den = int((w * v).sum()), int(w.sum())
        assert rows[i]["num"] == num and rows[i]["den"] == den
        assert abs(rows[i]["gw_f"] - (num / den if den else 0.0)) < 1e-12


def test_exposure_terms_sum_to_one(ray_session):
    from libpysal_ray.spatial.inequality import exposure_terms

    rng = np.random.default_rng(97)
    x = rng.integers(0, 30, 150)
    y = rng.integers(1, 40, 150)
    ds = ray.data.from_arrow(pa.table({
        "x": pa.array(x.astype(np.int64)),
        "y": pa.array(y.astype(np.int64)),
    })).repartition(3)
    rows = exposure_terms(ds).take_all()
    X = int(x.sum())
    iso = sum(r["iso_f"] for r in rows)
    exp = sum(r["exp_f"] for r in rows)
    want_iso = float((x / X * (x / (x + y))).sum())
    want_exp = float((x / X * (y / (x + y))).sum())
    assert abs(iso - want_iso) < 1e-12
    assert abs(exp - want_exp) < 1e-12
    assert abs(iso + exp - 1.0) < 1e-12
    # exact per-cell fractions
    from collections import Counter
    c = Counter(zip(x, y))
    for r in rows:
        k = (r["x"], r["y"])
        assert r["cnt"] == c[k]
        assert r["iso_num"] == str(c[k] * k[0] * k[0])
        assert r["den"] == str(X * (k[0] + k[1]))


def test_funnel_stages_matches_brute(ray_session):
    from libpysal_ray.temporal.joins import funnel_stages

    rng = np.random.default_rng(101)
    n = 2000
    users = rng.integers(0, 80, n)
    ts = rng.integers(0, 100000, n)
    types = rng.choice(["view", "click", "purchase", "other"], n)
    ev = ray.data.from_arrow(pa.table({
        "user_id": pa.array(users.astype(np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "event_type": pa.array(types),
    })).repartition(5)
    rows = {r["user"]: r for r in funnel_stages(
        ev, stages=["view", "click", "purchase"]).take_all()}
    assert set(rows) == set(int(u) for u in np.unique(users))
    for u in np.unique(users):
        m = users == u
        ut, uy = ts[m], types[m]
        t_prev, out, stage = -1 << 62, [], 0
        for s in ("view", "click", "purchase"):
            cand = ut[(uy == s) & (ut > t_prev)]
            if len(cand):
                t_prev = int(cand.min())
                out.append(t_prev)
                stage += 1
            else:
                out.append(-1)
                t_prev = 1 << 62
        r = rows[int(u)]
        assert r["stage"] == stage, u
        assert (r["t1_us"], r["t2_us"], r["t3_us"]) == tuple(out), u


def test_funnel_stages_rejects_pre_1970(ray_session):
    # -1 is the "unreached" sentinel, so a negative timestamp must fail
    # loudly instead of reading as a missing stage
    from libpysal_ray.temporal.joins import funnel_stages

    ev = ray.data.from_arrow(pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        "ts": pa.array(np.array([-5, 10, 3], "datetime64[us]"),
                       pa.timestamp("us")),
        "event_type": pa.array(["view", "click", "view"]),
    }))
    with pytest.raises(Exception) as info:
        funnel_stages(ev, stages=["view", "click"]).take_all()
    # Ray re-raises a UDF's exception as a task error carrying its traceback
    assert "ValueError: funnel_stages: timestamps must be >= 0" in str(
        info.value)


def test_retention_cohorts_matches_brute(ray_session):
    from libpysal_ray.temporal.joins import retention_cohorts

    rng = np.random.default_rng(103)
    n = 3000
    users = rng.integers(0, 120, n)
    ts = rng.integers(0, 12 * 604800, n).astype(np.int64) * 1_000_000
    ev = ray.data.from_arrow(pa.table({
        "user_id": pa.array(users.astype(np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
    })).repartition(4)
    rows = {(r["cohort"], r["offset"]): r["n_users"]
            for r in retention_cohorts(ev).take_all()}
    wk = ts // (604800 * 1_000_000)
    want = {}
    for u in np.unique(users):
        uw = np.unique(wk[users == u])
        c = int(uw.min())
        for w in uw:
            k = (c, int(w) - c)
            want[k] = want.get(k, 0) + 1
    assert rows == want
    # offset-0 diagonal equals cohort sizes
    firsts = {}
    for u in np.unique(users):
        firsts.setdefault(int(wk[users == u].min()), 0)
        firsts[int(wk[users == u].min())] += 1
    for c, sz in firsts.items():
        assert rows[(c, 0)] == sz


def test_focal_majority_matches_brute(ray_session):
    from libpysal_ray.builders.raster import focal_majority

    rng = np.random.default_rng(107)
    nr, ncls = 11, 9
    z = rng.integers(0, 4, (nr, ncls)).astype(np.int64)
    z[rng.random((nr, ncls)) < 0.2] = -1
    rr, cc = np.meshgrid(np.arange(nr), np.arange(ncls), indexing="ij")
    cells = ray.data.from_arrow(pa.table({
        "row": pa.array(rr.ravel().astype(np.int64)),
        "col": pa.array(cc.ravel().astype(np.int64)),
        "value": pa.array(z.ravel()),
    })).repartition(3)
    rows = {(r["row"], r["col"]): r["majority"]
            for r in focal_majority(cells, nr, ncls,
                                    nodata=-1).take_all()}
    from collections import Counter
    for r in range(nr):
        for c in range(ncls):
            if z[r, c] == -1:
                assert (r, c) not in rows
                continue
            vals = [int(z[r2, c2])
                    for r2 in range(max(0, r - 1), min(nr, r + 2))
                    for c2 in range(max(0, c - 1), min(ncls, c + 2))
                    if z[r2, c2] != -1]
            cnt = Counter(vals)
            best = min(cnt, key=lambda v: (-cnt[v], v))
            assert rows[(r, c)] == best, (r, c)


def test_ruggedness_matches_brute(ray_session):
    from libpysal_ray.builders.raster import ruggedness_index

    rng = np.random.default_rng(109)
    nr, ncls = 9, 12
    z = rng.integers(0, 900, (nr, ncls)).astype(np.int64)
    z[rng.random((nr, ncls)) < 0.1] = -1
    rr, cc = np.meshgrid(np.arange(nr), np.arange(ncls), indexing="ij")
    cells = ray.data.from_arrow(pa.table({
        "row": pa.array(rr.ravel().astype(np.int64)),
        "col": pa.array(cc.ravel().astype(np.int64)),
        "value": pa.array(z.ravel()),
    })).repartition(3)
    rows = {(r["row"], r["col"]): r
            for r in ruggedness_index(cells, nr, ncls,
                                      nodata=-1).take_all()}
    for r in range(nr):
        for c in range(ncls):
            if z[r, c] == -1:
                assert (r, c) not in rows
                continue
            ds_ = [abs(int(z[r, c]) - int(z[r2, c2]))
                   for r2 in range(max(0, r - 1), min(nr, r + 2))
                   for c2 in range(max(0, c - 1), min(ncls, c + 2))
                   if (r2, c2) != (r, c) and z[r2, c2] != -1]
            got = rows[(r, c)]
            assert got["n_nbrs"] == len(ds_)
            assert got["tri_sum"] == sum(ds_)


def test_hll_registers_by_key_matches_per_slice(ray_session):
    from libpysal_ray.core.sketch import (hll_registers,
                                          hll_registers_by_key)

    rng = np.random.default_rng(113)
    k = rng.integers(0, 4, 5000)
    v = rng.integers(0, 1 << 40, 5000)
    ds = ray.data.from_arrow(pa.table({
        "key": pa.array(k.astype(np.int64)),
        "v": pa.array(v.astype(np.int64)),
    })).repartition(5)
    got = {}
    for r in hll_registers_by_key(ds, "key", "v", p=8).take_all():
        got.setdefault(r["key"], {})[r["reg"]] = r["rho"]
    for kk in range(4):
        sl = ray.data.from_arrow(pa.table({
            "v": pa.array(v[k == kk].astype(np.int64)),
        }))
        want = {r["reg"]: r["rho"]
                for r in hll_registers(sl, "v", p=8).take_all()}
        assert got[kk] == want, kk
