"""Algebraic property tests over seeded random graphs — engine results
vs in-memory numpy/set brute references (the reference's test suite
asserts the same identities on fixed fixtures; here they run over
several random graphs per property)."""

import numpy as np
import pytest
import ray.data

from libpysal_ray.core import edges as E
from libpysal_ray.core.graph import RayGraph
from libpysal_ray.pipelines.queries import unbounded_graph


def _rand_graph(rng, n=30, m=80, weighted=False, ids_offset=0):
    f = rng.integers(0, n, m)
    nb = rng.integers(0, n, m)
    keep = f != nb
    f, nb = f[keep] + ids_offset, nb[keep] + ids_offset
    # dedup directed pairs
    pairs = np.unique(np.column_stack([f, nb]), axis=0)
    w = (
        rng.random(len(pairs)) + 0.5
        if weighted
        else np.ones(len(pairs))
    )
    ed = E.from_arrays(pairs[:, 0], pairs[:, 1], w)
    ids = np.arange(n, dtype=np.int64) + ids_offset
    g = RayGraph(ed, ids=ids)
    return g, {(int(a), int(b)): float(x) for (a, b), x in zip(pairs, w)}


def _edge_dict(g):
    return {
        (int(r["focal"]), int(r["neighbor"])): float(r["weight"])
        for r in g.edges.take_all()
        if not (r["focal"] == r["neighbor"] and r["weight"] == 0.0)
    }


def test_transform_r_row_sums(ray_session):
    rng = np.random.default_rng(1)
    g, ed = _rand_graph(rng, weighted=True)
    got = _edge_dict(g.transform("R"))
    sums: dict = {}
    for (f, _n), w in got.items():
        sums[f] = sums.get(f, 0.0) + w
    for f, s in sums.items():
        assert abs(s - 1.0) < 1e-12, (f, s)
    # focals present in input keep all their edges
    assert {k for k in got} == {k for k in ed}


def test_set_ops_against_set_algebra(ray_session):
    rng = np.random.default_rng(2)
    a, ea = _rand_graph(rng)
    b, eb = _rand_graph(rng)
    sa, sb = set(ea), set(eb)
    assert set(_edge_dict(a.union_g(b))) == sa | sb
    assert set(_edge_dict(a.intersection_g(b))) == sa & sb
    assert set(_edge_dict(a.difference_g(b))) == sa - sb
    assert set(_edge_dict(a.symmetric_difference_g(b))) == sa ^ sb
    # containment laws
    assert a.intersection_g(b).issubgraph(a)
    assert a.issubgraph(a.union_g(b))


def test_symmetrize_union_idempotent(ray_session):
    rng = np.random.default_rng(3)
    g, _ = _rand_graph(rng)
    s1 = g.symmetrize("union")
    s2 = s1.symmetrize("union")
    d1, d2 = _edge_dict(s1), _edge_dict(s2)
    assert set(d1) == set(d2)
    # symmetric: every edge has its reverse
    assert all((b, a) in d1 for (a, b) in d1)
    # no asymmetries remain
    assert s1.asymmetries().count() == 0


def test_higher_order_path_graph(ray_session):
    # path 0-1-2-...-9: order-2 neighbors are exactly i±2
    n = 10
    f = np.arange(n - 1)
    ed = E.from_arrays(
        np.concatenate([f, f + 1]), np.concatenate([f + 1, f]), 1.0
    )
    g = RayGraph(ed, ids=np.arange(n, dtype=np.int64))
    got = set(_edge_dict(g.higher_order(2)))
    want = {(i, i + 2) for i in range(n - 2)} | {
        (i + 2, i) for i in range(n - 2)
    }
    assert got == want


def test_components_both_paths_match_brute(ray_session):
    rng = np.random.default_rng(4)
    g, ed = _rand_graph(rng, n=40, m=30)
    # brute union-find
    parent = {i: i for i in range(40)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in ed:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {i: find(i) for i in range(40)}
    nc_want = len(set(want.values()))

    # one-task path / sharded path
    for path, h in (("one_task", g), ("sharded", unbounded_graph(g.edges))):
        nc, labels = h.n_components()
        got = {
            int(r["focal"]): int(r["component"])
            for r in labels.take_all()
        }
        assert nc == nc_want, path
        assert got == want, path


def test_lag_matches_dense_matmul(ray_session):
    rng = np.random.default_rng(5)
    n = 25
    g, ed = _rand_graph(rng, n=n, m=60, weighted=True)
    y = rng.random(n)
    W = np.zeros((n, n))
    for (a, b), w in ed.items():
        W[a, b] = w
    want = W @ y
    got = {
        int(r["focal"]): float(r["lag"])
        for r in g.lag(np.arange(n), y).take_all()
    }
    for i in range(n):
        assert abs(got.get(i, 0.0) - want[i]) < 1e-10, i


def test_remap_roundtrip(ray_session):
    rng = np.random.default_rng(6)
    g, ed = _rand_graph(rng)
    old = np.arange(30, dtype=np.int64)
    new = old * 7 + 3
    g2 = g.remap_ids(old, new).remap_ids(new, old)
    assert set(_edge_dict(g2)) == set(ed)


def test_hopping_conserves_tumbling_mass(ray_session):
    """Each event lands in exactly window/hop hopping windows, so hop
    totals = (window/hop) x tumbling totals — over random streams."""
    import pyarrow as pa

    from libpysal_ray.temporal.joins import hopping_window, tumbling_window

    rng = np.random.default_rng(7)
    for _ in range(3):
        n = 500
        ds = ray.data.from_arrow(pa.table({
            "ts": pa.array(rng.integers(0, 10_000, n), type=None),
            "uid": pa.array(rng.integers(0, 9, n), type=None),
            "cents": pa.array(rng.integers(-50, 500, n), type=None),
        })).repartition(3)
        hop = hopping_window(ds, "ts", "uid", 40, 10,
                             value_cents_col="cents").to_pandas()
        tum = tumbling_window(ds, "ts", "uid", 10,
                              value_cents_col="cents").to_pandas()
        assert hop.n_events.sum() == 4 * tum.n_events.sum()
        assert hop.sum_cents.sum() == 4 * tum.sum_cents.sum()


def test_overlay_union_area_identity(ray_session):
    """sum(union pieces) == |A| + |B| - |A∩B| on random disjoint-right
    rectangle layers (computed from the same engine's intersection)."""
    import pyarrow as pa

    from libpysal_ray.spatial.overlay import overlay

    rng = np.random.default_rng(11)
    for trial in range(3):
        # left: random axis-aligned unit squares on a grid (may overlap
        # right); right: disjoint 1.5-squares on a coarse lattice
        lx = rng.integers(0, 12, 14).astype(float)
        ly = rng.integers(0, 12, 14).astype(float)
        left = ray.data.from_arrow(pa.table({
            "polygon_id": pa.array(np.arange(14, dtype=np.int64)),
            "xs": pa.array([[x, x + 1, x + 1, x, x] for x in lx],
                           pa.list_(pa.float64())),
            "ys": pa.array([[y, y, y + 1, y + 1, y] for y in ly],
                           pa.list_(pa.float64())),
        }))
        rx = np.array([0.25, 4.25, 8.25], dtype=float)
        right = ray.data.from_arrow(pa.table({
            "polygon_id": pa.array([100, 101, 102], pa.int64()),
            "xs": pa.array([[x, x + 1.5, x + 1.5, x, x] for x in rx],
                           pa.list_(pa.float64())),
            "ys": pa.array([[5.25, 5.25, 6.75, 6.75, 5.25]] * 3,
                           pa.list_(pa.float64())),
        }))
        uni = overlay(left, right, how="union").to_pandas()
        inter = overlay(left, right, how="intersection").to_pandas()
        # left squares may overlap each other -> |A| counts multiplicity,
        # consistent on both sides of the identity
        expect = 14 * 1.0 + 3 * 1.5 * 1.5 - inter.area.sum()
        assert abs(uni.area.sum() - expect) < 1e-9, trial


def test_pagerank_total_mass_invariant(ray_session):
    """On a regular graph (every out-degree equal), floor division is
    exact and total rank obeys the closed recurrence."""
    from libpysal_ray.builders.lattice import lat2graph

    # 4-regular torus-like: use bishop=False rook lattice? corners differ,
    # so use the closed-form numpy reference instead on a random graph
    rng = np.random.default_rng(3)
    g, ed = _rand_graph(rng, n=25, m=120)
    got = {r["node"]: r["r"] for r in g.pagerank_int(iters=4).take_all()}
    m, ids = g.to_dense()
    adj = m > 0
    deg = adj.sum(axis=1).astype(np.int64)
    r = np.full(len(ids), 1_000_000_000_000, dtype=np.int64)
    for _ in range(4):
        c = r // np.maximum(deg, 1)
        s = adj.T @ c
        r = 150_000_000_000 + 85 * s // 100
    assert got == dict(zip(ids.tolist(), r.tolist()))
