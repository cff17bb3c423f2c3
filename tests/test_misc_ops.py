"""fill_diagonal vector variant, isomorphic, CSR/COO export, kernel
bandwidth='auto', spherical builders."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from libpysal_ray.builders.lattice import lat2graph
from libpysal_ray.core import edges as E
from libpysal_ray.core.graph import RayGraph


def _g(f, n, w=1.0, ids=None):
    f = np.asarray(f, np.int64)
    n = np.asarray(n, np.int64)
    ed = E.from_arrays(f, n, w)
    if ids is None:
        ids = np.unique(np.concatenate([f, n]))
    return RayGraph(ed, ids=np.asarray(ids, np.int64))


def test_fill_diagonal_vector(ray_session):
    g = _g([0, 1], [1, 0], ids=[0, 1, 2])
    out = g.fill_diagonal((np.array([0, 1, 2]), np.array([5.0, 6.0, 7.0])))
    got = {
        (int(r["focal"]), int(r["neighbor"])): r["weight"]
        for r in out.edges.take_all()
    }
    assert got[(0, 0)] == 5.0 and got[(1, 1)] == 6.0 and got[(2, 2)] == 7.0
    assert got[(0, 1)] == 1.0


def test_fill_diagonal_dataset(ray_session):
    g = _g([0, 1], [1, 0], ids=[0, 1, 2])
    attrs = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array([0, 1, 2], pa.int64()),
                "value": pa.array([1.5, 2.5, 3.5]),
            }
        )
    )
    out = g.fill_diagonal(attrs)
    got = {
        (int(r["focal"]), int(r["neighbor"])): r["weight"]
        for r in out.edges.take_all()
    }
    assert got[(2, 2)] == 3.5


def test_isomorphic(ray_session):
    # path 0-1-2 vs path 10-20-30 (relabeled) → isomorphic
    g1 = _g([0, 1, 1, 2], [1, 0, 2, 1])
    g2 = _g([10, 20, 20, 30], [20, 10, 30, 20])
    assert g1.isomorphic(g2)
    # path vs triangle → not
    g3 = _g([0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2])
    assert not g1.isomorphic(g3)
    # same degree sequence, different structure: hexagon vs two triangles
    hexg = _g([0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0])
    hexg = hexg.symmetrize("union")
    tri2 = _g([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3]).symmetrize("union")
    assert not hexg.isomorphic(tri2)


def test_to_csr_roundtrip(ray_session):
    g = lat2graph(3, 3, rook=True)
    indptr, indices, data, ids = g.to_csr()
    assert len(ids) == 9
    # rook 3x3 degree sequence: corners 2, edges 3, center 4
    deg = np.diff(indptr)
    assert sorted(deg.tolist()) == [2, 2, 2, 2, 3, 3, 3, 3, 4]
    assert data.sum() == 24.0  # 2*s0 edges... s0 = 24 directed pairs


def test_kernel_auto_bandwidth(ray_session):
    from libpysal_ray.builders.distance import (
        _optimize_bandwidth,
        kernel,
    )
    from libpysal_ray.functions.kernels import evaluate_kernel

    rng = np.random.default_rng(4)
    d = rng.random(500) * 10

    def entropy_at(bw):
        ku = evaluate_kernel(d / bw, "gaussian")
        bins, _ = np.histogram(ku, bins=int(len(d) ** 0.5), range=(0, 1))
        p = bins / bins.sum()
        nz = p[p > 0]
        return -(nz * np.log(nz)).sum()

    bw = _optimize_bandwidth(d, "gaussian")
    assert entropy_at(bw) >= entropy_at(bw * 0.5) - 1e-9
    assert entropy_at(bw) >= entropy_at(bw * 2.0) - 1e-9

    pts = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(np.arange(30, dtype=np.int64)),
                "x": pa.array(rng.random(30) * 100),
                "y": pa.array(rng.random(30) * 100),
            }
        )
    )
    g = kernel(pts, k=3, bandwidth="auto", fixed=True, function="gaussian")
    assert g.edges.count() > 0


def test_sphere_arc_vs_brute(ray_session):
    from libpysal_ray.builders.sphere import (
        arcdist,
        distance_band_arc,
        knn_arc_edges,
    )

    rng = np.random.default_rng(9)
    n = 60
    lon = rng.random(n) * 360 - 180
    lat = rng.random(n) * 160 - 80
    pts = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(np.arange(n, dtype=np.int64)),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )
    )
    # brute great-circle distances
    D = np.zeros((n, n))
    for i in range(n):
        D[i] = arcdist(np.full(n, lon[i]), np.full(n, lat[i]), lon, lat)

    # distance band 3000 km
    g = distance_band_arc(pts, arc_threshold=3000.0)
    got = {
        (int(r["focal"]), int(r["neighbor"]))
        for r in g.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    want = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and D[i, j] <= 3000.0
    }
    assert got == want

    # knn k=3 by arc
    e = knn_arc_edges(pts, k=3)
    got_k = {}
    for r in e.take_all():
        got_k.setdefault(int(r["focal"]), set()).add(int(r["neighbor"]))
    for i in range(n):
        order = sorted((D[i, j], j) for j in range(n) if j != i)[:3]
        assert got_k[i] == {j for _, j in order}, i


def test_shapefile_roundtrip_and_contiguity(ray_session, tmp_path):
    """Write a 2x2 lattice of unit squares as .shp/.dbf, read back,
    build rook — expect the 2x2 rook lattice adjacency."""
    from libpysal_ray.builders.contiguity import rook
    from libpysal_ray.sources.shapefile import (
        read_shapefile,
        write_dbf,
        write_shp_polygons,
    )

    polys = []
    for r in range(2):
        for c in range(2):
            polys.append(
                (
                    [c, c + 1, c + 1, c],
                    [r, r, r + 1, r + 1],
                )
            )
    shp = str(tmp_path / "lat.shp")
    dbf = str(tmp_path / "lat.dbf")
    write_shp_polygons(shp, polys)
    write_dbf(dbf, {"NAME": ["a", "b", "c", "d"], "VAL": [1, 2, 3, 4]})
    ds = read_shapefile(shp, dbf)
    rows = ds.take_all()
    assert len(rows) == 4
    assert sorted(r["NAME"] for r in rows) == ["a", "b", "c", "d"]
    assert sorted(int(r["VAL"]) for r in rows) == [1, 2, 3, 4]
    g = rook(ds.select_columns(["polygon_id", "xs", "ys"]))
    got = {
        (int(r["focal"]), int(r["neighbor"]))
        for r in g.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    want = {(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)}
    assert got == want


def test_near_dedup_survivors_consistency(ray_session):
    """Every LSH near-dup pair shares a cluster; survivors are exactly
    the cluster minima; non-duplicated docs keep themselves."""
    from libpysal_ray.text.dedup import (
        minhash_lsh_pairs,
        near_dedup_survivors,
    )

    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"],
    )
    pairs = [
        (int(r["a"]), int(r["b"]))
        for r in minhash_lsh_pairs(docs, jaccard_threshold=0.5).take_all()
    ]
    out = {
        int(r["doc_id"]): (int(r["cluster"]), bool(r["keep"]))
        for r in near_dedup_survivors(docs).take_all()
    }
    assert len(out) == docs.count()
    for a, b in pairs:
        assert out[a][0] == out[b][0], (a, b)
    clusters: dict = {}
    for d, (c, _k) in out.items():
        clusters.setdefault(c, []).append(d)
    for c, members in clusters.items():
        assert c == min(members)
        for d in members:
            assert out[d][1] == (d == c)


def test_ann_ivf_full_probe_equals_exact(ray_session):
    from libpysal_ray.ann.knn import ann_ivf_topk, ann_topk

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    exact = {
        (r["query_id"], r["rank"]): r["neighbor_id"]
        for r in ann_topk(emb, range(5), k=3).take_all()
    }
    full = {
        (r["query_id"], r["rank"]): r["neighbor_id"]
        for r in ann_ivf_topk(
            emb, range(5), k=3, n_centroids=8, nprobe=8
        ).take_all()
    }
    assert full == exact
    # partial probe: results are a valid ranking drawn from probed lists
    part = ann_ivf_topk(
        emb, range(5), k=3, n_centroids=8, nprobe=2
    ).take_all()
    assert len(part) > 0
    for r in part:
        assert r["rank"] in (1, 2, 3)


def test_kernel_taper_drops_zero_weights(ray_session):
    from libpysal_ray.builders.distance import kernel

    # collinear unit grid with bandwidth exactly 1: neighbors at d=1 get
    # triangular weight max(1-z, 0) = 0 — the exact support boundary
    pts = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(np.arange(5, dtype=np.int64)),
                "x": pa.array(np.arange(5, dtype=np.float64)),
                "y": pa.array(np.zeros(5)),
            }
        )
    )
    plain = kernel(pts, bandwidth=1.0, fixed=True, function="triangular")
    tapered = kernel(
        pts, bandwidth=1.0, fixed=True, function="triangular", taper=True
    )
    wz = [
        r
        for r in plain.edges.take_all()
        if r["weight"] == 0.0 and r["focal"] != r["neighbor"]
    ]
    assert len(wz) == 8  # each of 4 adjacent pairs, both directions
    for r in tapered.edges.take_all():
        if r["focal"] != r["neighbor"]:
            assert r["weight"] != 0.0


def test_lineage_straddle_guard(tmp_path):
    import pyarrow as pa

    from libpysal_ray.state import lineage

    t1 = pa.table({"a": pa.array([1, 2], pa.int64())})
    t2 = pa.table({"a": pa.array([3], pa.int64())})
    out = str(tmp_path / "ckpt")
    lineage.write_partition(out, "k1", t1, metrics={"digest_xor": 7},
                            run_id="r1")
    # identical rewrite (task retry) is allowed
    lineage.write_partition(out, "k1", t1, metrics={"digest_xor": 7},
                            run_id="r1")
    # different content in the SAME run = straddled shuffle group → raise
    with pytest.raises(RuntimeError, match="straddled"):
        lineage.write_partition(out, "k1", t2, metrics={"digest_xor": 9},
                                run_id="r1")
    # a NEW run may overwrite (resume semantics unchanged)
    lineage.write_partition(out, "k1", t2, metrics={"digest_xor": 9},
                            run_id="r2")


def test_arcgis_text_roundtrip(ray_session, tmp_path):
    from libpysal_ray.builders.lattice import lat2graph
    from libpysal_ray.sources.weights_io import (
        read_arcgis_text,
        write_arcgis_text,
    )

    g = lat2graph(3, 4, rook=True).transform("R")
    p = str(tmp_path / "w.txt")
    write_arcgis_text(g, p)
    g2 = read_arcgis_text(p)
    a = {
        (r["focal"], r["neighbor"]): round(r["weight"], 9)
        for r in g.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    b = {
        (r["focal"], r["neighbor"]): round(r["weight"], 9)
        for r in g2.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    assert a == b


def test_cosine_lsh_pairs_subset_of_exact(ray_session):
    from libpysal_ray.ann.knn import cosine_dup_pairs, cosine_dup_pairs_lsh

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    exact = {
        (r["id_a"], r["id_b"])
        for r in cosine_dup_pairs(emb, 0.4, chunk_rows=37).take_all()
    }
    approx = {
        (r["id_a"], r["id_b"])
        for r in cosine_dup_pairs_lsh(emb, 0.4).take_all()
    }
    assert len(approx) > 0
    assert approx <= exact  # LSH never invents pairs (post-verify exact)


def test_dat_roundtrip(ray_session, tmp_path):
    from libpysal_ray.sources.weights_io import read_dat, write_dat

    g = lat2graph(3, 3, rook=True).transform("R")
    p = str(tmp_path / "w.dat")
    write_dat(g, p)
    g2 = read_dat(p)
    a = {
        (r["focal"], r["neighbor"]): round(r["weight"], 9)
        for r in g.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    b = {
        (r["focal"], r["neighbor"]): round(r["weight"], 9)
        for r in g2.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    assert a == b


def test_wkt_polygons_feed_rook(ray_session):
    from libpysal_ray.builders.contiguity import rook
    from libpysal_ray.sources.shapefile import polygons_from_wkt

    wkts = []
    for r in range(2):
        for c in range(2):
            ring = (
                f"POLYGON (({c} {r}, {c+1} {r}, {c+1} {r+1}, "
                f"{c} {r+1}, {c} {r}))"
            )
            wkts.append(ring)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "polygon_id": pa.array(np.arange(4, dtype=np.int64)),
                "wkt": pa.array(wkts),
            }
        )
    )
    g = rook(polygons_from_wkt(ds))
    got = {
        (int(r["focal"]), int(r["neighbor"]))
        for r in g.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    want = {(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)}
    assert got == want


def test_csv_weights_roundtrip(ray_session, tmp_path):
    from libpysal_ray.sources.weights_io import (
        read_csv_weights,
        write_csv_weights,
    )

    g = lat2graph(3, 3, rook=False)  # queen lattice
    p = str(tmp_path / "w.csv")
    write_csv_weights(g, p)
    g2 = read_csv_weights(p)
    a = {
        (r["focal"], r["neighbor"]): round(r["weight"], 9)
        for r in g.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    b = {
        (r["focal"], r["neighbor"]): round(r["weight"], 9)
        for r in g2.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }
    assert a == b


def test_isomorphic_directed_orientation(ray_session):
    """Asymmetric graphs with the same undirected skeleton but different
    edge ORIENTATIONS are not isomorphic (ADVICE r2: the reference goes
    through nx.DiGraph for asymmetric graphs, base.py:2522-2525)."""
    import numpy as np

    from libpysal_ray.core import edges as E
    from libpysal_ray.core.graph import RayGraph

    def g_of(pairs, n):
        f = np.array([p[0] for p in pairs], np.int64)
        nb = np.array([p[1] for p in pairs], np.int64)
        ids = ray.data.from_arrow(
            pa.table({"focal": pa.array(np.arange(n, dtype=np.int64))})
        )
        return RayGraph(
            ray.data.from_arrow(E.edge_table(f, nb, 1.0)), ids=ids,
        )

    # directed path 0→1→2  vs  0→1←2: same skeleton, different orientation
    g1 = g_of([(0, 1), (1, 2)], 3)
    g2 = g_of([(0, 1), (2, 1)], 3)
    assert not g1.isomorphic(g2)
    # 0→1→2 vs 10→20→30 relabeled IS isomorphic
    g3 = g_of([(0, 2), (2, 1)], 3)
    assert g1.isomorphic(g3)


def _edge_map(g):
    return {
        (r["focal"], r["neighbor"]): round(r["weight"], 9)
        for r in g.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }


def test_arcgis_dbf_roundtrip(ray_session, tmp_path):
    from libpysal_ray.sources.weights_io import (
        read_arcgis_dbf, write_arcgis_dbf,
    )

    g = lat2graph(3, 3, rook=True).transform("R")
    p = str(tmp_path / "w.dbf")
    write_arcgis_dbf(g, p)
    # WEIGHT is an N(13,6) DBF field (arcgis_dbf.py:240) — 6 decimals is
    # the format's own precision
    got = {k: round(v, 6) for k, v in _edge_map(read_arcgis_dbf(p)).items()}
    want = {k: round(v, 6) for k, v in _edge_map(g).items()}
    assert got == want


def test_swm_roundtrip_with_isolate(ray_session, tmp_path):
    import numpy as np

    from libpysal_ray.core import edges as Ed
    from libpysal_ray.core.graph import RayGraph
    from libpysal_ray.sources.weights_io import read_swm, write_swm

    # graph with an isolate (node 3) — SWM encodes it as a 0-neighbor row
    ds = Ed.from_arrays(
        np.array([0, 1, 1, 2], np.int64),
        np.array([1, 0, 2, 1], np.int64),
        np.array([1.0, 1.0, 0.5, 0.5]),
    )
    g = RayGraph(ds, ids=np.arange(4, dtype=np.int64))
    p = str(tmp_path / "w.swm")
    write_swm(g, p, id_var="MYID", srs="WGS84")
    g2 = read_swm(p)
    assert _edge_map(g2) == _edge_map(g)
    assert g2.n() == 4  # the isolate survives the roundtrip


def test_swm_new_version_fixed_weights(ray_session, tmp_path):
    """New-style header with FIXEDWEIGHTS@TRUE: one shared float per
    observation (arcgis_swm.py:179-238)."""
    import struct

    from libpysal_ray.sources.weights_io import read_swm

    p = str(tmp_path / "fixed.swm")
    with open(p, "wb") as f:
        f.write(
            b"VERSION@10.1;UNIQUEID@ID;SPATIALREFNAME@GCS;"
            b"FIXEDWEIGHTS@TRUE\n"
        )
        f.write(struct.pack("<2l", 2, 0))
        f.write(struct.pack("<2l", 0, 2))       # obs 0: 2 neighbors
        f.write(struct.pack("<2l", 1, 7))       # neighbor ids 1, 7
        f.write(struct.pack("<d", 0.25))        # ONE fixed weight
        f.write(struct.pack("<d", 0.5))         # w_sum
        f.write(struct.pack("<2l", 1, 0))       # obs 1: isolate
    g = read_swm(p)
    assert _edge_map(g) == {(0, 1): 0.25, (0, 7): 0.25}


def test_point_shapefile_knn_matches_arrow_source(ray_session, tmp_path):
    """Point(1) shapefile roundtrip + KNN.from_shapefile parity: the
    graph built from the shapefile equals the graph built from the same
    points handed to Ray directly (reference weights/distance.py:91)."""
    from libpysal_ray.builders.distance import knn
    from libpysal_ray.sources.shapefile import (
        read_shapefile,
        write_dbf,
        write_shp_points,
    )

    rng = np.random.default_rng(42)
    pts = [(float(x), float(y)) for x, y in rng.uniform(0, 100, (30, 2))]
    shp = str(tmp_path / "pts.shp")
    write_shp_points(shp, pts)
    write_dbf(str(tmp_path / "pts.dbf"), {"VAL": list(range(30))})
    ds = read_shapefile(shp, str(tmp_path / "pts.dbf"))
    rows = ds.take_all()
    assert len(rows) == 30
    assert {int(r["VAL"]) for r in rows} == set(range(30))
    got = {(r["id"], r["x"], r["y"]) for r in rows}
    want = {(i, x, y) for i, (x, y) in enumerate(pts)}
    assert got == want

    direct = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(np.arange(30, dtype=np.int64)),
                "x": pa.array([p[0] for p in pts]),
                "y": pa.array([p[1] for p in pts]),
            }
        )
    )
    e_shp = {
        (int(r["focal"]), int(r["neighbor"]))
        for r in knn(
            ds.select_columns(["id", "x", "y"]), k=4
        ).edges.take_all()
    }
    e_dir = {
        (int(r["focal"]), int(r["neighbor"]))
        for r in knn(direct, k=4).edges.take_all()
    }
    assert e_shp == e_dir and len(e_shp) == 30 * 4


def test_multipoint_shapefile_roundtrip(ray_session, tmp_path):
    from libpysal_ray.sources.shapefile import (
        read_shapefile_points,
        write_shp_multipoint,
    )

    groups = [[(0.0, 0.0), (1.0, 2.0)], [(3.0, 4.0)], [(5.0, 6.0), (7.0, 8.0)]]
    shp = str(tmp_path / "mp.shp")
    write_shp_multipoint(shp, groups)
    rows = read_shapefile_points(shp).take_all()
    flat = [p for g in groups for p in g]
    assert [(r["id"], r["x"], r["y"]) for r in rows] == [
        (i, x, y) for i, (x, y) in enumerate(flat)
    ]


def test_polyline_shapefile_contiguity(ray_session, tmp_path):
    """PolyLine(3) records feed the queen builder: arcs sharing an
    endpoint are neighbors (the reference's linestring-contiguity
    behavior, weights/tests/test_contiguity.py:164-182)."""
    from libpysal_ray.builders.contiguity import queen
    from libpysal_ray.sources.shapefile import (
        read_shapefile,
        write_shp_polylines,
    )

    lines = [
        ([0.0, 1.0], [0.0, 0.0]),        # L0: (0,0)-(1,0)
        ([1.0, 2.0], [0.0, 0.0]),        # L1: (1,0)-(2,0)  shares (1,0)
        ([5.0, 6.0], [5.0, 6.0]),        # L2: isolate
    ]
    shp = str(tmp_path / "arcs.shp")
    write_shp_polylines(shp, lines)
    ds = read_shapefile(shp)
    rows = ds.take_all()
    assert len(rows) == 3
    assert rows[0]["xs"] == [0.0, 1.0]   # not auto-closed
    g = queen(ds)
    edges = {
        (int(r["focal"]), int(r["neighbor"])): r["weight"]
        for r in g.edges.take_all()
    }
    assert edges[(0, 1)] == 1.0 and edges[(1, 0)] == 1.0
    assert edges.get((2, 2)) == 0.0      # isolate self-loop
    assert all(
        not ((a == 2) ^ (b == 2)) for a, b in edges
    )


def test_isomorphic_wl_screen_above_cap(ray_session):
    """Above max_nodes the distributed screens settle everything they
    can: component count, then 1-WL color refinement — a proof of
    non-isomorphism at any scale. Only a still-WL-equivalent pair falls
    to the loud raise (a positive certificate needs the adjacency)."""
    # hexagon vs two triangles: same degree histogram, distinguished by
    # the distributed component-count screen
    hexg = _g([0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]).symmetrize("union")
    tri2 = _g([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3]).symmetrize("union")
    assert not hexg.isomorphic(tri2, max_nodes=2)
    # P4 ∪ C3 vs P3 ∪ C4: same degree histogram {1:2, 2:5} AND same
    # component count (2) — only WL refinement separates them
    g1 = _g([0, 1, 2, 4, 5, 6], [1, 2, 3, 5, 6, 4]).symmetrize("union")
    g2 = _g([0, 1, 3, 4, 5, 6], [1, 2, 4, 5, 6, 3]).symmetrize("union")
    assert not g1.isomorphic(g2, max_nodes=2)
    # relabeled lattice above the cap: every screen passes (the graphs
    # really are isomorphic) -> declared loud raise, never a wrong bool
    a = lat2graph(3, 3, rook=True)
    b = a.remap_ids(np.arange(9), np.arange(9)[::-1].copy())
    with pytest.raises(NotImplementedError, match="WL-equivalent"):
        a.isomorphic(b, max_nodes=2)
    # below the cap the exact matcher still answers positively
    assert a.isomorphic(b)
