"""Contiguity / raster / cell-graph / PIP tests.

Oracle strategy mirrors the reference's own cross-operator equivalence
tests (weights/tests/test_distance.py:181-227 asserts DistanceBand ==
Rook on a lattice; weights/util.py:1609-1616 asserts lat2W == lat2SW):
queen/rook on a unit-square grid coverage must equal the closed-form
lattice graph.
"""

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from libpysal_ray.builders.cellgraph import cell_graph
from libpysal_ray.builders.contiguity import block, queen, rook
from libpysal_ray.builders.lattice import lat2graph
from libpysal_ray.builders.raster import raster_contiguity
from libpysal_ray.sources.polygons import (
    grid_coverage,
    holes_and_islands,
    perturbed_grid,
)
from libpysal_ray.spatial.cells import cell_encode
from libpysal_ray.spatial.pip import pip_join, points_in_ring


def _same_graph(g1, g2):
    n1, _ = g1.neighbors_dict()
    n2, _ = g2.neighbors_dict()
    assert set(n1) == set(n2)
    for k in n1:
        assert sorted(n1[k]) == sorted(n2[k]), f"focal {k}"


def test_rook_grid_equals_lattice():
    _same_graph(rook(grid_coverage(4, 5)), lat2graph(4, 5, rook=True))


def test_queen_grid_equals_lattice():
    _same_graph(queen(grid_coverage(4, 5)), lat2graph(4, 5, rook=False))


def test_perturbed_grid_topology_preserved():
    # shared vertices jointly displaced → same adjacency, exercises
    # bit-exact float vertex hashing
    _same_graph(queen(perturbed_grid(3, 4, seed=7)), lat2graph(3, 4, rook=False))
    _same_graph(rook(perturbed_grid(3, 4, seed=7)), lat2graph(3, 4, rook=True))


def test_holes_and_islands():
    # 3x3 grid with center removed + 2 detached islands
    polys = holes_and_islands(3, 3, holes=(4,), n_islands=2)
    g = queen(polys)
    nbrs, _ = g.neighbors_dict()
    assert set(nbrs) == {0, 1, 2, 3, 5, 6, 7, 8, 9, 10}
    assert sorted(nbrs[0]) == [1, 3]  # 4 gone
    iso = sorted(r["focal"] for r in g.isolates().take_all())
    assert iso == [9, 10]
    ncomp, _ = g.n_components()
    assert ncomp == 3


def test_block_weights():
    # FIXTURES F6: regimes ['n','n','s','s','e','e','w','w','e']
    regimes = ["n", "n", "s", "s", "e", "e", "w", "w", "e"]
    codes = {"n": 0, "s": 1, "e": 2, "w": 3}
    tbl = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(np.arange(9, dtype=np.int64)),
                "regime": pa.array([codes[r] for r in regimes], pa.int64()),
            }
        )
    )
    g = block(tbl, "id", "regime")
    nbrs, _ = g.neighbors_dict()
    golden = {0: [1], 1: [0], 2: [3], 3: [2], 4: [5, 8], 5: [4, 8],
              6: [7], 7: [6], 8: [4, 5]}
    for k, v in golden.items():
        assert sorted(nbrs[k]) == v


def test_raster_rook_full_equals_lattice():
    # single band, no nodata → raster rook == lattice rook
    rows, cols = 4, 5
    r, c = np.divmod(np.arange(rows * cols), cols)
    cells = ray.data.from_arrow(
        pa.table(
            {
                "band": pa.array(np.zeros(rows * cols, np.int64)),
                "row": pa.array(r),
                "col": pa.array(c),
                "value": pa.array(np.ones(rows * cols)),
            }
        )
    )
    g = raster_contiguity(cells, rows, cols, "rook")
    _same_graph(g, lat2graph(rows, cols, rook=True))


def test_raster_queen_nodata():
    rows, cols = 3, 3
    r, c = np.divmod(np.arange(9), 3)
    vals = np.ones(9)
    vals[4] = -32768.0  # center nodata
    cells = ray.data.from_arrow(
        pa.table({"band": pa.array(np.zeros(9, np.int64)),
                  "row": pa.array(r), "col": pa.array(c),
                  "value": pa.array(vals)})
    )
    g = raster_contiguity(cells, rows, cols, "queen", nodata=-32768.0)
    nbrs, _ = g.neighbors_dict()
    assert 4 not in nbrs
    assert sorted(nbrs[0]) == [1, 3]  # diagonal 4 is nodata
    assert sorted(nbrs[1]) == [0, 2, 3, 5]


def test_raster_multiband_independent():
    # two bands: contiguity stays within band
    r, c = np.divmod(np.arange(4), 2)
    cells = ray.data.from_arrow(
        pa.table({
            "band": pa.array(np.concatenate([np.zeros(4, np.int64),
                                             np.ones(4, np.int64)])),
            "row": pa.array(np.concatenate([r, r])),
            "col": pa.array(np.concatenate([c, c])),
            "value": pa.array(np.ones(8)),
        })
    )
    g = raster_contiguity(cells, 2, 2, "rook")
    nbrs, _ = g.neighbors_dict()
    assert sorted(nbrs[0]) == [1, 2]
    assert sorted(nbrs[4]) == [5, 6]  # band 1 ids offset by 4
    assert all(n >= 4 for n in nbrs[4])


def test_cell_graph_rings():
    res = 4  # 16x16 grid
    n = 1 << res
    # occupied: a 3x3 block of cells + one far cell
    cxy = [(5, 5), (6, 5), (7, 5), (5, 6), (6, 6), (7, 6), (5, 7), (6, 7),
           (7, 7), (12, 12)]
    ids = np.array([cy * n + cx for cx, cy in cxy], dtype=np.int64)
    cells = ray.data.from_arrow(pa.table({"cell": pa.array(ids)}))
    g = cell_graph(cells, res, order=1, weight="binary")
    nbrs, _ = g.neighbors_dict()
    center = 6 * n + 6
    assert len(nbrs[center]) == 8
    far = 12 * n + 12
    assert nbrs[far] == []  # isolate
    g2 = cell_graph(cells, res, order=2, weight="inverse")
    nbrs2, wts2 = g2.neighbors_dict()
    corner = 5 * n + 5
    w = dict(zip(nbrs2[corner], wts2[corner]))
    assert w[center] == 1.0  # ring 1
    assert w[7 * n + 7] == 0.5  # ring 2


def test_points_in_ring_unit_square():
    rx = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    ry = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
    px = np.array([0.5, 1.5, 0.99, -0.2])
    py = np.array([0.5, 0.5, 0.01, 0.3])
    assert points_in_ring(px, py, rx, ry).tolist() == [True, False, True, False]


def test_pip_join_grid():
    # 200 deterministic points over a 4x5 grid coverage; expected polygon
    # is closed-form floor(y)*C + floor(x)
    rng = np.random.default_rng(3)
    px = rng.uniform(0.001, 4.999, 200)
    py = rng.uniform(0.001, 3.999, 200)
    pts = ray.data.from_arrow(
        pa.table({"id": pa.array(np.arange(200, dtype=np.int64)),
                  "x": pa.array(px), "y": pa.array(py)})
    )
    polys = grid_coverage(4, 5).take_all()
    ptbl = pa.Table.from_pylist(polys)
    out = pip_join(pts, ptbl, res=8).take_all()
    assert len(out) == 200
    got = {r["id"]: r["polygon_id"] for r in out}
    for i in range(200):
        assert got[i] == int(np.floor(py[i])) * 5 + int(np.floor(px[i]))
    # cell col is the quadcell of the point
    cells = {r["id"]: r["cell"] for r in out}
    assert cells[0] == cell_encode(px[:1], py[:1], 8)[0]


# ----------------------------------------------------- strict (no-GEOS)
def test_strict_equals_hash_on_conforming_grid():
    """On a conforming lattice (every shared boundary has matched
    vertices) strict and hash builders agree exactly."""
    from libpysal_ray.builders.contiguity import queen_strict, rook_strict

    polys = grid_coverage(4, 4)
    _same_graph(queen_strict(polys), queen(polys))
    _same_graph(rook_strict(polys), rook(polys))


def _tjunction_layer(n_bottom: int):
    """Bottom rects [2j,2j+2]x[0,1] + top rects [k+0.5,k+1.5]x[1,2]
    (ids n_bottom+k): NO shared vertices across rows — pure T-junctions
    with positive-length collinear overlaps."""
    pids, xs, ys = [], [], []
    for j in range(n_bottom):
        pids.append(j)
        xs.append([2 * j, 2 * j + 2, 2 * j + 2, 2 * j, 2 * j])
        ys.append([0.0, 0.0, 1.0, 1.0, 0.0])
    for k in range(2 * n_bottom - 1):
        pids.append(n_bottom + k)
        xs.append([k + 0.5, k + 1.5, k + 1.5, k + 0.5, k + 0.5])
        ys.append([1.0, 1.0, 2.0, 2.0, 1.0])
    return ray.data.from_arrow(
        pa.table(
            {
                "polygon_id": pa.array(pids, pa.int64()),
                "xs": pa.array([[float(v) for v in r] for r in xs],
                               pa.list_(pa.float64())),
                "ys": pa.array(ys, pa.list_(pa.float64())),
            }
        )
    )


def test_strict_finds_tjunction_neighbors():
    """FIXTURES.md F-STRICT golden: split-edge double row. The hash
    builders see no cross-row contact; strict queen AND strict rook must
    find every positive-length overlap (reference strict=True semantics,
    graph/_contiguity.py:94-182)."""
    from libpysal_ray.builders.contiguity import queen_strict, rook_strict

    B = 4
    polys = _tjunction_layer(B)
    nq, _ = queen_strict(polys).neighbors_dict()
    nr, _ = rook_strict(polys).neighbors_dict()
    nh, _ = queen(polys).neighbors_dict()

    # golden: bottom j ~ top k iff (k+0.5, k+1.5) overlaps (2j, 2j+2)
    for j in range(B):
        want_tops = {
            B + k
            for k in range(2 * B - 1)
            if k + 0.5 < 2 * j + 2 and k + 1.5 > 2 * j
        }
        want = want_tops | ({j - 1} if j > 0 else set()) | (
            {j + 1} if j < B - 1 else set()
        )
        assert set(nq[j]) == want, f"queen_strict bottom {j}"
        assert set(nr[j]) == want, f"rook_strict bottom {j}"
        # hash queen: no shared vertices across rows
        assert set(nh[j]) == want - want_tops, f"hash queen bottom {j}"

    # top-top chain via shared full edges (all three agree there)
    for k in range(2 * B - 2):
        assert B + k + 1 in set(nq[B + k])
        assert B + k + 1 in set(nr[B + k])


def test_strict_queen_point_touch_is_not_rook():
    """A diamond whose bottom vertex touches the interior of a rect's top
    edge at a single POINT: queen_strict neighbor, rook_strict isolate."""
    from libpysal_ray.builders.contiguity import queen_strict, rook_strict

    t = pa.table(
        {
            "polygon_id": pa.array([0, 1], pa.int64()),
            "xs": pa.array(
                [[0.0, 4.0, 4.0, 0.0, 0.0],
                 [2.5, 3.0, 2.5, 2.0, 2.5]],
                pa.list_(pa.float64()),
            ),
            "ys": pa.array(
                [[0.0, 0.0, 1.0, 1.0, 0.0],
                 [1.0, 1.5, 2.0, 1.5, 1.0]],
                pa.list_(pa.float64()),
            ),
        }
    )
    polys = ray.data.from_arrow(t)
    nq, _ = queen_strict(polys).neighbors_dict()
    nr, _ = rook_strict(polys).neighbors_dict()
    assert set(nq[0]) == {1} and set(nq[1]) == {0}
    assert nr[0] == [] and nr[1] == []


def _polys(pids, xs, ys):
    return ray.data.from_arrow(pa.table({
        "polygon_id": pa.array(pids, pa.int64()),
        "xs": pa.array(xs, pa.list_(pa.float64())),
        "ys": pa.array(ys, pa.list_(pa.float64())),
    }))


def _square(x0, y0, s=1.0):
    return ([x0, x0 + s, x0 + s, x0, x0], [y0, y0, y0 + s, y0 + s, y0])


def _diagonal_layer(n=24):
    """A triangle whose long diagonal runs under a chain of unit squares,
    each touching it at one corner (point touches), plus one square
    sharing part of its base (collinear overlap). The long segments span
    many grid cells, so one polygon pair is found in several cells."""
    sq = [_square(k, k + 1) for k in range(n)] + [_square(2.5, -1.0)]
    xs = [[0.0, float(n), float(n), 0.0]] + [s[0] for s in sq]
    ys = [[0.0, float(n), 0.0, 0.0]] + [s[1] for s in sq]
    return _polys(list(range(len(xs))), xs, ys)


def _flat_layer():
    """Zero-height extent: degenerate polygons on y = 0 (area 0)."""
    xs = [[0.0, 2.0, 0.0], [1.0, 3.0, 1.0], [3.0, 4.0, 3.0], [6.0, 7.0, 6.0]]
    return _polys([0, 1, 2, 3], xs, [[0.0] * 3] * 4)


def _strip_layer():
    from libpysal_ray.pipelines.queries import _tjunction_table

    return ray.data.from_arrow(_tjunction_table(np.arange(40), 20))


def _disjoint_layer():
    a, b = _square(0.0, 0.0), _square(5.0, 5.0)
    return _polys([0, 1], [a[0], b[0]], [a[1], b[1]])


def _long_edge_layer(n=60):
    """Two n × 1 strips sharing the edge y = 1, a vertex every unit, one
    polygon per input block: the sharded plan's tile shuffle spreads the
    one polygon pair's ~n/2 cells over several output blocks, each
    max-weight pass finds the pair again, and only the global dedup
    leaves one row per orientation."""
    xs, ys = [], []
    for y0 in (0.0, 1.0):
        side = np.arange(n + 1, dtype=np.float64)
        xs.append(np.concatenate([side, side[::-1], [0.0]]).tolist())
        ys.append(np.concatenate([np.full(n + 1, y0), np.full(n + 1, y0 + 1),
                                  [y0]]).tolist())
    t = _table(_polys([0, 1], xs, ys))
    return ray.data.from_arrow([t.slice(0, 1), t.slice(1, 1)])


_STRICT_LAYERS = {
    "grid": lambda: grid_coverage(4, 4),
    "tjunction": lambda: _tjunction_layer(4),
    "strip": _strip_layer,
    "diagonal": _diagonal_layer,
    "disjoint": _disjoint_layer,
    "flat": _flat_layer,
    "long_edge": _long_edge_layer,
}


def _table(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _strict_brute(polys) -> Counter:
    """O(n²) reference: every segment pair of distinct polygons through
    the exact predicate, max weight per polygon pair, both orientations."""
    from libpysal_ray.builders.contiguity import (
        _explode_segments_raw,
        _seg_pair_touch,
    )

    s = _explode_segments_raw(_table(polys))
    poly = s.column("poly").to_numpy()
    ax, ay, bx, by = (s.column(c).to_numpy() for c in ("ax", "ay", "bx", "by"))
    i, j = (v.ravel() for v in np.indices((len(poly), len(poly))))
    i, j = i[poly[i] != poly[j]], j[poly[i] != poly[j]]
    touch, overlap = _seg_pair_touch(
        ax[i], ay[i], bx[i], by[i], ax[j], ay[j], bx[j], by[j]
    )
    best = {}
    for f, n, w in zip(poly[i][touch], poly[j][touch], overlap[touch]):
        key = (int(f), int(n))
        best[key] = max(best.get(key, 0.0), 1.0 + float(w))
    return Counter((f, n, w) for (f, n), w in best.items())


def _edge_rows(ds) -> Counter:
    return Counter(
        (r["focal"], r["neighbor"], r["weight"]) for r in ds.take_all()
    )


@pytest.mark.parametrize("layer", list(_STRICT_LAYERS))
def test_strict_pairs_paths_match_brute_force(layer, monkeypatch):
    """The one-task plan and the sharded plan (every small-input switch
    forced off) both equal the brute-force segment-pair reference."""
    import libpysal_ray.core.joins as J
    from libpysal_ray.builders.contiguity import strict_pairs
    from libpysal_ray.core.edges import EDGE_SCHEMA

    polys = _STRICT_LAYERS[layer]()
    want = _strict_brute(polys)
    one, _ = strict_pairs(polys)
    assert one.schema().base_schema == EDGE_SCHEMA
    assert _edge_rows(one) == want
    monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", -1)
    sharded, _ = strict_pairs(polys)
    assert _edge_rows(sharded) == want
    if layer == "disjoint":
        assert not want


def _cell_size_of(t: pa.Table) -> tuple[float, float, int]:
    """(cell size, RMS segment length, segment count) of a layer."""
    from libpysal_ray.builders.contiguity import (
        _explode_segments_raw,
        _segment_spans,
        _strict_cell_size,
    )

    s = _segment_spans(_explode_segments_raw(t))
    lx, hx, ly, hy, ln = (
        s.column(c).to_numpy() for c in ("lx", "hx", "ly", "hy", "ln")
    )
    cs = _strict_cell_size(
        lx.min(), hx.max(), ly.min(), hy.max(), ln.mean(), len(ln)
    )
    return cs, float(ln.mean()) ** 0.5, len(ln)


def test_strict_cell_size_follows_layer_area():
    from libpysal_ray.builders.contiguity import _strict_cell_size
    from libpysal_ray.pipelines.queries import _tjunction_table

    # a 5000 x 2 strip: segment scale, not span/sqrt(n) = 35.4
    cs, rms, n = _cell_size_of(_tjunction_table(np.arange(5000), 2500))
    assert n == 20_000
    assert cs == 2.0 * rms and 2.4 < cs < 2.5
    # two unit squares at the corners of a 100 x 100 extent: the
    # sqrt(area / n) floor
    a, b = _square(0.0, 0.0), _square(99.0, 99.0)
    cs, rms, n = _cell_size_of(_table(_polys([0, 1], [a[0], b[0]],
                                             [a[1], b[1]])))
    assert n == 8 and cs == (100.0 * 100.0 / 8) ** 0.5 > 2.0 * rms
    # zero-area extent: 2·RMS length
    assert _strict_cell_size(0.0, 10.0, 0.0, 0.0, 4.0, 5) == 4.0


def test_strict_execution_budget(executed_dags):
    from libpysal_ray.builders.contiguity import queen_strict, strict_pairs

    polys = _tjunction_layer(8).materialize()
    before = len(executed_dags)
    strict_pairs(polys)
    assert len(executed_dags) - before == 1
    before = len(executed_dags)
    queen_strict(polys)._real_edges().materialize()
    assert len(executed_dags) - before <= 2


def test_tjunction_table_matches_loop():
    """The vectorized T-junction layer is bit-identical to the per-row
    construction it replaced (the strict oracles depend on it)."""
    from libpysal_ray.pipelines.queries import _tjunction_table

    ids = np.array([7, 0, 5, 2, 9, 3], dtype=np.int64)
    B = 5
    xs, ys = [], []
    for i in ids:
        if i < B:
            j = float(i)
            xs.append([2 * j, 2 * j + 2, 2 * j + 2, 2 * j, 2 * j])
            ys.append([0.0, 0.0, 1.0, 1.0, 0.0])
        else:
            k = float(i - B)
            xs.append(
                [2 * k + 0.5, 2 * k + 1, 2 * k + 0.5, 2 * k, 2 * k + 0.5]
            )
            ys.append([1.0, 1.5, 2.0, 1.5, 1.0])
    want = pa.table({
        "polygon_id": pa.array(ids),
        "xs": pa.array(xs, pa.list_(pa.float64())),
        "ys": pa.array(ys, pa.list_(pa.float64())),
    })
    assert _tjunction_table(ids, B).equals(want, check_metadata=True)


def test_raster_k2_path_vs_window_nodata():
    """k=2 with a nodata bridge cell: include_nodata=True (window) keeps
    the pair whose only 2-hop path crosses nodata; include_nodata=False
    (path-based, da2WSP matrix-power branch) drops it."""
    # 1x5 strip: cells 0 1 2 3 4, cell 2 nodata → 0-2-4 bridge broken
    t = pa.table(
        {
            "band": pa.array([0] * 5, pa.int64()),
            "row": pa.array([0] * 5, pa.int64()),
            "col": pa.array(list(range(5)), pa.int64()),
            "value": pa.array([1.0, 1.0, -1.0, 1.0, 1.0]),
        }
    )
    cells = ray.data.from_arrow(t)
    g_path = raster_contiguity(cells, 1, 5, "rook", nodata=-1.0, k=2)
    g_win = raster_contiguity(
        cells, 1, 5, "rook", nodata=-1.0, k=2, include_nodata=True
    )
    np_, _ = g_path.neighbors_dict()
    nw, _ = g_win.neighbors_dict()
    # window: 1~3 via Manhattan 2 through the nodata cell; path: blocked
    assert 3 in nw[1] and 1 in nw[3]
    assert 3 not in np_[1]
    # both: 0~1 (order 1) and 3~4
    assert 1 in np_[0] and 1 in nw[0]
    # isolate-free valid cells all present
    assert set(np_) == {0, 1, 3, 4} and set(nw) == {0, 1, 3, 4}


def test_raster_offsets_window_shape():
    from libpysal_ray.builders.raster import _gen_offsets

    q2 = _gen_offsets("queen", 2)
    r2 = _gen_offsets("rook", 2)
    # full window halves: queen 12 of 24 offsets, rook diamond 6 of 12
    assert len(q2) == 12 and len(r2) == 6
    assert (1, 1) in r2 and (2, 2) not in r2 and (2, 2) in q2
