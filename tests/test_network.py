"""Travel-cost network graph: snap, bounded shortest path, full build."""

import heapq

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from libpysal_ray.builders.network import (
    build_travel_graph,
    snap_to_nodes,
    travel_cost_edges,
)
from libpysal_ray.core.edges import drop_isolate_markers
from libpysal_ray.pipelines.queries import _identity


def _dijkstra_ref(n_nodes, edges, sources, threshold):
    """Driver-side reference: bounded Dijkstra per source."""
    adj: dict = {}
    for s, d, c in edges:
        adj.setdefault(s, []).append((d, c))
    out = {}
    for src in sources:
        dist = {src: 0.0}
        pq = [(0.0, src)]
        while pq:
            dd, u = heapq.heappop(pq)
            if dd > dist.get(u, np.inf):
                continue
            for v, c in adj.get(u, []):
                nd = dd + c
                if nd <= threshold and nd < dist.get(v, np.inf):
                    dist[v] = nd
                    heapq.heappush(pq, (nd, v))
        for node, dd in dist.items():
            out[(src, node)] = dd
    return out


def _grid_network(g=6, seed=7):
    rng = np.random.default_rng(seed)
    nodes = [(r * g + c, float(c), float(r)) for r in range(g) for c in range(g)]
    edges = []
    for r in range(g):
        for c in range(g):
            nid = r * g + c
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < g and 0 <= cc < g:
                    edges.append(
                        (nid, rr * g + cc, float(1 + rng.integers(0, 5) / 4))
                    )
    return nodes, edges


def _nodes_ds(nodes):
    return ray.data.from_arrow(
        pa.table(
            {
                "node_id": pa.array([n[0] for n in nodes], pa.int64()),
                "x": pa.array([n[1] for n in nodes]),
                "y": pa.array([n[2] for n in nodes]),
            }
        )
    )


def _edges_ds(edges):
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges], pa.int64()),
                "dst": pa.array([e[1] for e in edges], pa.int64()),
                "cost": pa.array([e[2] for e in edges]),
            }
        )
    )


def _sharded(ds):
    """``ds`` behind a map marked as a size-expander: no size bound, so
    the travel-cost builders take their sharded plan."""
    return ds.map_batches(_identity, batch_format="pyarrow")


def test_snap_to_nodes_matches_bruteforce(ray_session):
    nodes, _ = _grid_network(g=5)
    rng = np.random.default_rng(3)
    px = rng.uniform(-0.4, 4.4, 40)
    py = rng.uniform(-0.4, 4.4, 40)
    pts = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(np.arange(40, dtype=np.int64)),
                "x": pa.array(px),
                "y": pa.array(py),
            }
        )
    )
    got = {
        r["id"]: (r["node"], r["snap_dist"])
        for r in snap_to_nodes(pts, _nodes_ds(nodes)).take_all()
    }
    nid = np.array([n[0] for n in nodes])
    nx = np.array([n[1] for n in nodes])
    ny = np.array([n[2] for n in nodes])
    assert len(got) == 40
    for i in range(40):
        d = np.sqrt((px[i] - nx) ** 2 + (py[i] - ny) ** 2)
        j = np.lexsort((nid, d))[0]
        assert got[i][0] == nid[j]
        assert np.isclose(got[i][1], d[j])


def test_snap_fallback_matches_bruteforce(ray_session):
    # a tile smaller than the node spacing leaves most points unresolved
    # by the tile pass; the nodes come one per block and a filter empties
    # 8 of the 25 blocks, so the scan's per-block nearest rows take two
    # levels of the reduce tree, some of them column-less empty blocks
    nodes, _ = _grid_network(g=5)
    blocks = ray.data.from_arrow_refs(
        [r for k in range(25) for r in _nodes_ds(nodes[k:k + 1]).to_arrow_refs()]
    ).filter(lambda r: r["node_id"] % 3 != 1)
    nodes = [n for n in nodes if n[0] % 3 != 1]
    rng = np.random.default_rng(4)
    px, py = rng.uniform(-1.0, 5.0, 30), rng.uniform(-1.0, 5.0, 30)
    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(30, dtype=np.int64)),
        "x": pa.array(px), "y": pa.array(py)}))
    got = {r["id"]: (r["node"], r["snap_dist"])
           for r in snap_to_nodes(pts, blocks, cs=0.2).take_all()}
    nid = np.array([n[0] for n in nodes])
    nx = np.array([n[1] for n in nodes])
    ny = np.array([n[2] for n in nodes])
    assert len(got) == 30
    for i in range(30):
        d = np.sqrt((px[i] - nx) ** 2 + (py[i] - ny) ** 2)
        j = np.lexsort((nid, d))[0]
        assert got[i] == (nid[j], d[j])


def test_travel_cost_edges_matches_dijkstra(ray_session):
    nodes, edges = _grid_network(g=6)
    sources = [0, 7, 14, 35]
    threshold = 4.5
    seeds = ray.data.from_arrow(
        pa.table({"node": pa.array(sources, pa.int64())})
    )
    got = {
        (r["src"], r["node"]): r["dist"]
        for r in travel_cost_edges(seeds, _sharded(_edges_ds(edges)),
                                   threshold).take_all()
    }
    ref = _dijkstra_ref(len(nodes), edges, sources, threshold)
    assert set(got) == set(ref)
    for k in ref:
        assert np.isclose(got[k], ref[k]), k


def test_build_travel_graph_end_to_end(ray_session):
    nodes, edges = _grid_network(g=5, seed=11)
    # 12 observations, several sharing a snapped node
    px = np.array([0.1, 0.2, 1.1, 2.9, 3.1, 4.2, 0.9, 2.1, 2.2, 3.8, 0.4, 4.0])
    py = np.array([0.1, 0.3, 0.9, 3.1, 2.8, 4.1, 1.1, 2.0, 1.9, 0.2, 4.1, 2.1])
    pts = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(np.arange(12, dtype=np.int64)),
                "x": pa.array(px),
                "y": pa.array(py),
            }
        )
    )
    threshold = 3.0
    g = build_travel_graph(
        pts, _nodes_ds(nodes), _sharded(_edges_ds(edges)),
        threshold=threshold, num_buckets=16,
    )
    rows = [
        r
        for b in g.edges.map_batches(
            drop_isolate_markers, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    ]
    # reference: snap each obs, bounded dijkstra between snapped nodes
    nid = np.array([n[0] for n in nodes])
    nx = np.array([n[1] for n in nodes])
    ny = np.array([n[2] for n in nodes])
    snap = {}
    for i in range(12):
        d = np.sqrt((px[i] - nx) ** 2 + (py[i] - ny) ** 2)
        snap[i] = nid[np.lexsort((nid, d))[0]]
    sp = _dijkstra_ref(len(nodes), edges, sorted(set(snap.values())), threshold)
    want = {}
    for i in range(12):
        for j in range(12):
            if i == j:
                continue
            key = (snap[i], snap[j])
            if key in sp:
                want[(i, j)] = sp[key]
    got = {(r["focal"], r["neighbor"]): r["weight"] for r in rows}
    assert set(got) == set(want)
    for k in want:
        assert np.isclose(got[k], want[k]), k
    # same-node pairs carry the true 0.0 network cost (documented deviation
    # from _induce_cliques fill_value=1)
    same = [(i, j) for i in range(12) for j in range(12)
            if i != j and snap[i] == snap[j]]
    assert same and all(got[k] == 0.0 for k in same)


def test_travel_graph_kernel_and_mapping_distance(ray_session):
    nodes, edges = _grid_network(g=4, seed=2)
    px = np.array([0.1, 1.1, 2.1, 9.0])  # last point far from every node
    py = np.array([0.1, 1.2, 2.0, 9.0])
    pts = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(np.arange(4, dtype=np.int64)),
                "x": pa.array(px),
                "y": pa.array(py),
            }
        )
    )
    g = build_travel_graph(
        pts,
        _nodes_ds(nodes),
        _edges_ds(edges),
        threshold=6.0,
        kernel="triangular",
        mapping_distance=2.0,
    )
    rows = [
        r
        for b in g.edges.iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    ]
    real = [r for r in rows if r["focal"] != r["neighbor"]]
    isolates = {r["focal"] for r in rows if r["focal"] == r["neighbor"]
                and r["weight"] == 0.0}
    assert 3 in isolates  # unsnappable point is an isolate
    assert real and all(0.0 < r["weight"] <= 1.0 for r in real)
    assert all(r["focal"] != 3 and r["neighbor"] != 3 for r in real)


def test_travel_cost_driver_matches_distributed(ray_session):
    nodes, edges = _grid_network(g=5, seed=3)
    seeds = ray.data.from_arrow(
        pa.table({"node": pa.array([0, 12, 24], pa.int64())})
    )
    a = {(r["src"], r["node"]): r["dist"]
         for r in travel_cost_edges(seeds, _edges_ds(edges), 3.5).take_all()}
    b = {(r["src"], r["node"]): r["dist"]
         for r in travel_cost_edges(seeds, _sharded(_edges_ds(edges)), 3.5,
                                    num_buckets=8).take_all()}
    assert set(a) == set(b)
    for k in a:
        assert np.isclose(a[k], b[k])


def test_travel_graph_bucketed_assemble_parity(ray_session):
    nodes, edges = _grid_network(g=4, seed=6)
    px = np.array([0.1, 1.1, 2.2, 3.1, 0.9])
    py = np.array([0.2, 1.0, 2.1, 3.0, 2.9])
    pts = ray.data.from_arrow(
        pa.table({"id": pa.array(np.arange(5, dtype=np.int64)),
                  "x": pa.array(px), "y": pa.array(py)}))
    a = build_travel_graph(pts, _nodes_ds(nodes), _edges_ds(edges),
                           threshold=4.0)
    b = build_travel_graph(pts, _nodes_ds(nodes), _sharded(_edges_ds(edges)),
                           threshold=4.0, num_buckets=8)
    ra = sorted((r["focal"], r["neighbor"], r["weight"])
                for bb in a.edges.iter_batches(batch_format="pyarrow")
                for r in bb.to_pylist())
    rb = sorted((r["focal"], r["neighbor"], r["weight"])
                for bb in b.edges.iter_batches(batch_format="pyarrow")
                for r in bb.to_pylist())
    assert ra == rb and len(ra) > 0


def _case_network(offset):
    """A 5×5 grid with quarter-step costs in [1, 2] (sums are exact, so
    paths of cost exactly 3.0 exist), plus node 25 with an in-edge and no
    out-edge and a two-node component {26, 27} the grid never reaches;
    every id shifted by ``offset``."""
    nodes, edges = _grid_network(g=5, seed=offset % 97)
    nodes = nodes + [(25, 9.0, 9.0), (26, -5.0, -5.0), (27, -6.0, -5.0)]
    edges = edges + [(24, 25, 1.5), (26, 27, 1.0), (27, 26, 1.25)]
    return ([(i + offset, x, y) for i, x, y in nodes],
            [(s + offset, d + offset, c) for s, d, c in edges])


@pytest.mark.parametrize("offset, mapping_distance", [
    (0, None), (2**32 + 5, None), (0, 1e-9),
])
def test_travel_paths_agree(ray_session, offset, mapping_distance):
    # one task vs the sharded rounds on duplicate seeds, a seed with no
    # out-edge, unreachable nodes, ids past 2^32, paths costing exactly
    # the threshold and (1e-9) no observation snapped: bit-equal rows
    nodes, edges = _case_network(offset)
    threshold = 3.0
    sources = [offset + i for i in (0, 0, 12, 25, 26)]
    seeds = ray.data.from_arrow(pa.table({"node": pa.array(sources,
                                                           pa.int64())}))

    def _sp(net):
        return sorted((r["src"], r["node"], r["dist"]) for r in
                      travel_cost_edges(seeds, net, threshold,
                                        num_buckets=8).take_all())

    one, sharded = _sp(_edges_ds(edges)), _sp(_sharded(_edges_ds(edges)))
    assert one == sharded
    ref = _dijkstra_ref(len(nodes), edges, sorted(set(sources)), threshold)
    assert {(s, n) for s, n, _ in one} == set(ref)
    assert all(np.isclose(d, ref[(s, n)]) for s, n, d in one)
    assert any(d == threshold for _, _, d in one)
    assert (offset + 25, offset + 25, 0.0) in one
    assert not any(s == offset + 26 and n < offset + 25 for s, n, _ in one)

    rng = np.random.default_rng(5)
    px = np.append(rng.uniform(-0.4, 4.4, 14), [9.1, -5.2])
    py = np.append(rng.uniform(-0.4, 4.4, 14), [8.9, -5.1])
    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(16, dtype=np.int64) * 7 + 3),
        "x": pa.array(px), "y": pa.array(py)}))

    def _pairs(net):
        g = build_travel_graph(pts, _nodes_ds(nodes), net, threshold,
                               mapping_distance=mapping_distance,
                               num_buckets=8)
        return sorted((r["focal"], r["neighbor"], r["weight"])
                      for r in g._real_edges().take_all())

    one, sharded = _pairs(_edges_ds(edges)), _pairs(_sharded(_edges_ds(edges)))
    assert one == sharded
    nid = np.array([n[0] for n in nodes])
    nx = np.array([n[1] for n in nodes])
    ny = np.array([n[2] for n in nodes])
    snap = {}
    for i in range(16):
        d = np.sqrt((px[i] - nx) ** 2 + (py[i] - ny) ** 2)
        j = np.lexsort((nid, d))[0]
        if mapping_distance is None or d[j] <= mapping_distance:
            snap[i * 7 + 3] = nid[j]
    sp = _dijkstra_ref(len(nodes), edges, sorted(set(snap.values())),
                       threshold)
    want = {(i, j): sp[(snap[i], snap[j])] for i in snap for j in snap
            if i != j and (snap[i], snap[j]) in sp}
    assert {(f, n) for f, n, _ in one} == set(want)
    assert all(np.isclose(w, want[(f, n)]) for f, n, w in one)
    assert bool(one) == (mapping_distance is None)


def test_travel_paths_agree_past_64_hops(ray_session):
    # a 1×100 unit-cost path with threshold 80: 81 rounds, past any fixed
    # round cap of 64; both plans run until no round improves
    edges = [(i, i + 1, 1.0) for i in range(99)]
    nodes = [(i, float(i), 0.0) for i in range(100)]
    seeds = ray.data.from_arrow(pa.table({"node": pa.array([0, 0, 50],
                                                           pa.int64())}))

    def _sp(net):
        return sorted((r["src"], r["node"], r["dist"]) for r in
                      travel_cost_edges(seeds, net, 80.0,
                                        num_buckets=8).take_all())

    one = _sp(_edges_ds(edges))
    assert one == _sp(_sharded(_edges_ds(edges)))
    ref = _dijkstra_ref(100, edges, [0, 50], 80.0)
    assert one == sorted((s, n, d) for (s, n), d in ref.items())
    assert (0, 80, 80.0) in one and len(one) == 81 + 50

    pts = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(4, dtype=np.int64)),
        "x": pa.array([0.1, 40.2, 79.9, 99.0]), "y": pa.array(np.zeros(4))}))
    g = build_travel_graph(pts, _nodes_ds(nodes), _edges_ds(edges), 80.0)
    assert sorted((r["focal"], r["neighbor"], r["weight"])
                  for r in g._real_edges().take_all()) == [
        (0, 1, 40.0), (0, 2, 80.0), (1, 2, 40.0), (1, 3, 59.0),
        (2, 3, 19.0)]


@pytest.mark.parametrize("sharded", [False, True])
def test_travel_cost_unconverged_raises(ray_session, sharded):
    nodes, edges = _grid_network(g=5, seed=3)
    seeds = ray.data.from_arrow(pa.table({"node": pa.array([0], pa.int64())}))
    net = _sharded(_edges_ds(edges)) if sharded else _edges_ds(edges)
    with pytest.raises(ValueError, match="did not converge in 2 rounds"):
        travel_cost_edges(seeds, net, 3.5, max_rounds=2, num_buckets=8)


def test_travel_graph_execution_budget(ray_session, executed_dags):
    # on a bounded network ONE task routes and assembles: the build plus
    # one read of its real edges runs the snap (3 executions), the snap
    # table, the task and the graph's real edges
    from libpysal_ray.pipelines import queries as Q

    rng = np.random.default_rng(17)
    obs = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(600, dtype=np.int64)),
        "x": pa.array(rng.uniform(0, Q.GRID, 600)),
        "y": pa.array(rng.uniform(0, Q.GRID, 600))}))
    nodes, edges = Q._tc_network()
    c0 = len(executed_dags)
    g = build_travel_graph(obs, nodes, edges, threshold=Q._TC_THRESH)
    assert g._real_edges().materialize().count() > 0
    assert len(executed_dags) - c0 <= 6
