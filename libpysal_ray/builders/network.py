"""Travel-cost graphs over an explicit road/transit network.

Reference semantics: ``graph/_network.py:66-152`` ``build_travel_graph`` —
snap each observation point to its nearest network node, compute the
shortest-path network cost between snapped nodes out to ``threshold``
(inclusive; the network is DIRECTED, so G_ij and G_ji may differ —
``_network.py:70-73``), map node pairs back to observation pairs, and
optionally run the costs through a kernel function. The reference
delegates the routing to a pandana-style engine (``nodes_in_range``,
``_network.py:56``) and repairs observations snapped to the same node via
clique induction (``_network.py:117-131`` / ``graph/_utils.py:100-126``).

Ray-Data-first design — three composable stages, no routing library:

* **snap** (:func:`snap_to_nodes`): cross-set nearest-neighbor via the
  same tile-shuffle used by the KNN builder (``builders/distance.py``):
  nodes are tiled with a one-ring halo, observations ride their home tile
  only, each tile resolves its observations against local+halo nodes with
  the distance-to-guaranteed-boundary coverage guard, and the unresolved
  remainder is finished by a chunked-broadcast scan. ONE shuffle.
* **route** (:func:`travel_cost_edges`): distributed multi-source bounded
  Dijkstra as frontier relaxation — per round, join the frontier against
  the edge table on the current node (one bucketed shuffle), drop paths
  over ``threshold``, min-combine per (source, node), and merge into the
  running best table, keeping only strictly-improved rows as the next
  frontier. Rounds are bounded by the hop diameter within ``threshold``
  (≤ threshold / min edge cost); a ``max_rounds`` guard raises instead of
  returning silently-incomplete distances.
* **assemble**: two bucketed joins map node-pair costs back through the
  snap table to observation pairs; kernel evaluation is a stateless
  per-batch map (``functions/kernels.py``).

Deviation from the reference, documented: observations snapped to the
SAME node are connected with their true network cost 0.0 (the n→n
self-distance), where ``_induce_cliques`` uses an arbitrary
``fill_value=1`` (``graph/_utils.py:100``). Self-pairs (i, i) are dropped;
observations whose snapped node reaches no other observation's node
within ``threshold`` become isolates (zero-weight self-loops).

Partitioning assumption at 100 TB: the network edge table shuffles by
node id each round (bucket_join's dynamic bucket count bounds per-task
memory); the running best table is O(Σ reachable nodes per source), the
same order as the output, and is re-shuffled once per round. Rounds, not
data volume, are the latency driver — threshold/min-cost hop counts in
road networks are small (tens).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from libpysal_ray.builders.distance import _count_bbox
from libpysal_ray.core import edges as E
from libpysal_ray.core import joins as J
from libpysal_ray.core.graph import RayGraph
from libpysal_ray.functions.kernels import evaluate_kernel

_CHUNK = 2048
_TOFF = 1 << 20


def _pack_tile(tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    return (tx + _TOFF) * (1 << 21) + (ty + _TOFF)


def snap_to_nodes(
    points: ray.data.Dataset,
    nodes: ray.data.Dataset,
    id_col: str = "id",
    node_id_col: str = "node_id",
    x_col: str = "x",
    y_col: str = "y",
    cs: float | None = None,
) -> ray.data.Dataset:
    """Nearest network node per observation: (id, node, snap_dist).

    Exact Euclidean NN with ties broken by (distance, node_id) — the
    engine-wide pinned tie rule. Tile pass with coverage guard; points
    whose nearest in-tile node may be beaten by an out-of-halo node are
    finished by a chunked-broadcast scan over the node Dataset.
    """
    if cs is None:
        n, xmin, xmax, ymin, ymax = _count_bbox(nodes, x_col, y_col)
        n = max(n, 1)
        area = max(xmax - xmin, 1e-12) * max(ymax - ymin, 1e-12)
        cs = max(float(np.sqrt(area * 8.0 / n)), 1e-9)
    halo = cs

    def _emit_nodes(t: pa.Table) -> pa.Table:
        ids = t.column(node_id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
        tx = np.floor(x / cs).astype(np.int64)
        ty = np.floor(y / cs).astype(np.int64)
        rows_t, rows_i, rows_x, rows_y = [_pack_tile(tx, ty)], [ids], [x], [y]
        lo_x, hi_x = x - tx * cs, (tx + 1) * cs - x
        lo_y, hi_y = y - ty * cs, (ty + 1) * cs - y
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                m = np.ones(len(ids), dtype=np.bool_)
                if dx == -1:
                    m &= lo_x <= halo
                elif dx == 1:
                    m &= hi_x <= halo
                if dy == -1:
                    m &= lo_y <= halo
                elif dy == 1:
                    m &= hi_y <= halo
                if not m.any():
                    continue
                rows_t.append(_pack_tile(tx[m] + dx, ty[m] + dy))
                rows_i.append(ids[m])
                rows_x.append(x[m])
                rows_y.append(y[m])
        k = sum(len(a) for a in rows_i)
        return pa.table(
            {
                "tile": pa.array(np.concatenate(rows_t)),
                "pid": pa.array(np.concatenate(rows_i)),
                "px": pa.array(np.concatenate(rows_x)),
                "py": pa.array(np.concatenate(rows_y)),
                "role": pa.array(np.ones(k, dtype=np.int8)),
            }
        )

    def _emit_points(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
        tx = np.floor(x / cs).astype(np.int64)
        ty = np.floor(y / cs).astype(np.int64)
        return pa.table(
            {
                "tile": pa.array(_pack_tile(tx, ty)),
                "pid": pa.array(ids),
                "px": pa.array(x),
                "py": pa.array(y),
                "role": pa.array(np.zeros(len(ids), dtype=np.int8)),
            }
        )

    tiled = nodes.map_batches(_emit_nodes, batch_format="pyarrow").union(
        points.map_batches(_emit_points, batch_format="pyarrow")
    )

    def _tile_nn(t: pa.Table) -> pa.Table:
        role = t.column("role").to_numpy(zero_copy_only=False)
        pid = t.column("pid").to_numpy(zero_copy_only=False)
        px = t.column("px").to_numpy(zero_copy_only=False)
        py = t.column("py").to_numpy(zero_copy_only=False)
        qi = np.flatnonzero(role == 0)
        ni = np.flatnonzero(role == 1)
        empty = pa.table(
            {
                "id": pa.array([], pa.int64()),
                "node": pa.array([], pa.int64()),
                "snap_dist": pa.array([], pa.float64()),
                "resolved": pa.array([], pa.bool_()),
            }
        )
        if len(qi) == 0:
            return empty
        tile = int(t.column("tile")[0].as_py())
        tx = tile // (1 << 21) - _TOFF
        ty = tile % (1 << 21) - _TOFF
        gx0, gx1 = tx * cs - halo, (tx + 1) * cs + halo
        gy0, gy1 = ty * cs - halo, (ty + 1) * cs + halo
        out_i, out_n, out_d, out_ok = [], [], [], []
        if len(ni) == 0:
            out_i.append(pid[qi])
            out_n.append(np.full(len(qi), -1, dtype=np.int64))
            out_d.append(np.full(len(qi), np.inf))
            out_ok.append(np.zeros(len(qi), dtype=np.bool_))
        else:
            nid, nx, ny = pid[ni], px[ni], py[ni]
            for s in range(0, len(qi), _CHUNK):
                sel = qi[s : s + _CHUNK]
                d = np.sqrt(
                    (px[sel, None] - nx[None, :]) ** 2
                    + (py[sel, None] - ny[None, :]) ** 2
                )
                best = np.lexsort(
                    (np.broadcast_to(nid, d.shape), d), axis=1
                )[:, 0]
                bd = d[np.arange(len(sel)), best]
                guard = np.minimum.reduce(
                    [px[sel] - gx0, gx1 - px[sel], py[sel] - gy0, gy1 - py[sel]]
                )
                out_i.append(pid[sel])
                out_n.append(nid[best])
                out_d.append(bd)
                out_ok.append(bd < guard)
        return pa.table(
            {
                "id": pa.array(np.concatenate(out_i).astype(np.int64)),
                "node": pa.array(np.concatenate(out_n).astype(np.int64)),
                "snap_dist": pa.array(np.concatenate(out_d)),
                "resolved": pa.array(np.concatenate(out_ok)),
            }
        )

    local = J.per_group(tiled, ("tile",), _tile_nn).materialize()
    import pyarrow.compute as pc

    resolved = local.map_batches(
        lambda t: t.filter(t.column("resolved")).drop_columns(["resolved"]),
        batch_format="pyarrow",
    )
    unresolved = local.map_batches(
        lambda t: t.filter(pc.invert(t.column("resolved"))),
        batch_format="pyarrow",
    ).select_columns(["id"]).take_all()
    if not unresolved:
        return resolved

    # fallback: chunked broadcast of the unresolved query points (bounded
    # driver/object-store footprint per the knn_arc_edges fix, ADVICE r2),
    # scanned against every node block; one groupby(id) min-merge.
    uq = np.array([r["id"] for r in unresolved], dtype=np.int64)
    qtab_ds = points.map_batches(
        lambda t: t.filter(
            pa.array(
                np.isin(t.column(id_col).to_numpy(zero_copy_only=False), uq)
            )
        ),
        batch_format="pyarrow",
    ).select_columns([id_col, x_col, y_col])
    chunk_refs = []
    for b in qtab_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        chunk_refs.append(ray.put((
            b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64),
            b.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64),
            b.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64),
        )))

    def _scan(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "id": pa.array([], pa.int64()),
                "node": pa.array([], pa.int64()),
                "snap_dist": pa.array([], pa.float64()),
            })
        nid = t.column(node_id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        nx = t.column(x_col).to_numpy(zero_copy_only=False)
        ny = t.column(y_col).to_numpy(zero_copy_only=False)
        out_i, out_n, out_d = [], [], []
        for ref in chunk_refs:
            qi, qxx, qyy = ray.get(ref)
            for s in range(0, len(qi), _CHUNK):
                d = np.sqrt(
                    (qxx[s : s + _CHUNK, None] - nx[None, :]) ** 2
                    + (qyy[s : s + _CHUNK, None] - ny[None, :]) ** 2
                )
                best = np.lexsort(
                    (np.broadcast_to(nid, d.shape), d), axis=1
                )[:, 0]
                out_i.append(qi[s : s + _CHUNK])
                out_n.append(nid[best])
                out_d.append(d[np.arange(d.shape[0]), best])
        return pa.table(
            {
                "id": pa.array(np.concatenate(out_i)),
                "node": pa.array(np.concatenate(out_n)),
                "snap_dist": pa.array(np.concatenate(out_d)),
            }
        )

    def _merge_min(t: pa.Table) -> pa.Table:
        d = t.column("snap_dist").to_numpy(zero_copy_only=False)
        n = t.column("node").to_numpy(zero_copy_only=False)
        j = np.lexsort((n, d))[0]
        return t.take(pa.array([int(j)]))

    fallback = (
        nodes.map_batches(_scan, batch_format="pyarrow")
        .groupby("id")
        .map_groups(_merge_min, batch_format="pyarrow")
    )
    return resolved.union(fallback)


def travel_cost_edges(
    seed_nodes: ray.data.Dataset,
    net_edges: ray.data.Dataset,
    threshold: float,
    max_rounds: int = 64,
    max_driver_edges: int = 5_000_000,
    force_distributed: bool = False,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Min network cost ≤ ``threshold`` from every seed node: (src, node, dist).

    ``seed_nodes``: column ``node`` (distinct int64 network node ids).
    ``net_edges``: (src, dst, cost) DIRECTED, cost > 0. Self rows
    (src, src, 0.0) are included in the output.

    Frontier relaxation (the ``order()`` loop shape, core/graph.py): each
    round relaxes the improved set through one bucketed join + one
    min-aggregate + one merge shuffle. Converges in ≤ hop-diameter rounds;
    raises RuntimeError if still improving after ``max_rounds`` (the
    fixed-iteration-silent-exit trap flagged for components, ADVICE r2).

    Size switch (the ``n_components`` discipline, core/graph.py): a road
    network under ``max_driver_edges`` runs a driver-side heap Dijkstra —
    paying ~10 shuffles of round latency to route a graph that fits in
    one process is the wrong plan. ``force_distributed=True`` pins the
    frontier path (tests + the oracle query exercise it).
    """
    n_edges = net_edges.count()
    if not force_distributed and n_edges <= max_driver_edges:
        return _travel_cost_driver(seed_nodes, net_edges, threshold)
    # Relax strategy: the edge table is the SMALL side of every round's
    # join. Below ~5M edges broadcast it once (ray.put, CSR-sorted) and
    # relax as a shuffle-free map_batches over the frontier — halving the
    # per-round shuffle count; above that, bucket-join the edge table.
    broadcast_relax = n_edges <= 5_000_000
    if broadcast_relax:
        et = pa.concat_tables(
            net_edges.select_columns(["src", "dst", "cost"]).iter_batches(
                batch_format="pyarrow"
            )
        )
        es = et.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        ed = et.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        ec = et.column("cost").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        order = np.argsort(es, kind="stable")
        e_ref = ray.put((es[order], ed[order], ec[order]))
        edges = None
    else:
        edges = net_edges.select_columns(
            ["src", "dst", "cost"]
        ).rename_columns({"src": "jn"}).materialize()

    seeds = seed_nodes.map_batches(
        lambda t: pa.table(
            {
                "src": t.column("node"),
                "node": t.column("node"),
                "dist": pa.array(np.zeros(t.num_rows, np.float64)),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def _partial_min(t: pa.Table) -> pa.Table:
        # per-batch (src, node) min combiner ahead of the global aggregate
        s = t.column("src").to_numpy(zero_copy_only=False)
        n = t.column("node").to_numpy(zero_copy_only=False)
        d = t.column("dist").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, n, s))
        s, n, d = s[order], n[order], d[order]
        first = np.ones(len(s), dtype=np.bool_)
        first[1:] = (s[1:] != s[:-1]) | (n[1:] != n[:-1])
        return pa.table(
            {
                "src": pa.array(s[first]),
                "node": pa.array(n[first]),
                "dist": pa.array(d[first]),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        # key-sorted bucket of old-best (tag 0) and candidate (tag 1) rows:
        # per (src, node) emit min dist + whether a candidate improved on
        # the old best (new keys count as improved)
        s = t.column("src").to_numpy(zero_copy_only=False)
        if len(s) == 0:
            return pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "node": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.float64()),
                    "imp": pa.array([], pa.int8()),
                }
            )
        n = t.column("node").to_numpy(zero_copy_only=False)
        d = t.column("dist").to_numpy(zero_copy_only=False)
        tag = t.column("tag").to_numpy(zero_copy_only=False)
        first = np.ones(len(s), dtype=np.bool_)
        first[1:] = (s[1:] != s[:-1]) | (n[1:] != n[:-1])
        gidx = np.cumsum(first) - 1
        ng = int(gidx[-1]) + 1
        best = np.full(ng, np.inf)
        np.minimum.at(best, gidx, d)
        old = np.full(ng, np.inf)
        is_old = tag == 0
        np.minimum.at(old, gidx[is_old], d[is_old])
        imp = (best < old).astype(np.int8)
        heads = np.flatnonzero(first)
        return pa.table(
            {
                "src": pa.array(s[heads]),
                "node": pa.array(n[heads]),
                "dist": pa.array(best),
                "imp": pa.array(imp),
            }
        )

    def _tag(ds: ray.data.Dataset, v: int) -> ray.data.Dataset:
        return ds.map_batches(
            lambda t: t.append_column(
                "tag", pa.array(np.full(t.num_rows, v, dtype=np.int8))
            ),
            batch_format="pyarrow",
        )

    def _relax_broadcast(t: pa.Table) -> pa.Table:
        bs, bd, bc = ray.get(e_ref)
        s = t.column("src").to_numpy(zero_copy_only=False)
        n = t.column("node").to_numpy(zero_copy_only=False)
        d = t.column("dist").to_numpy(zero_copy_only=False)
        lo = np.searchsorted(bs, n, "left")
        hi = np.searchsorted(bs, n, "right")
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "node": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.float64()),
                }
            )
        rep = np.repeat(np.arange(len(n)), cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        epos = np.repeat(lo, cnt) + offs
        nd = d[rep] + bc[epos]
        keep = nd <= threshold
        return _partial_min(
            pa.table(
                {
                    "src": pa.array(s[rep][keep]),
                    "node": pa.array(bd[epos][keep]),
                    "dist": pa.array(nd[keep]),
                }
            )
        )

    # frontier rows fan out by node out-degree — the plan-walk byte bound
    # in core/joins must abort here so the downstream grouped_by_key merge
    # never coalesces an expanded relax stream into one task
    _relax_broadcast._size_expanding = True

    best = seeds
    frontier = seeds
    for _round in range(max_rounds):
        if broadcast_relax:
            relaxed = frontier.map_batches(
                _relax_broadcast, batch_format="pyarrow"
            )
        else:
            relaxed = (
            J.bucket_join(
                frontier.rename_columns({"node": "jn"}), edges, on="jn",
                num_buckets=num_buckets,
            )
            .map_batches(
                lambda t: _partial_min(
                    pa.table(
                        {
                            "src": t.column("src"),
                            "node": t.column("dst"),
                            "dist": pa.array(
                                t.column("dist").to_numpy(zero_copy_only=False)
                                + t.column("cost").to_numpy(
                                    zero_copy_only=False
                                )
                            ),
                        }
                    ).filter(
                        pa.array(
                            (
                                t.column("dist").to_numpy(zero_copy_only=False)
                                + t.column("cost").to_numpy(
                                    zero_copy_only=False
                                )
                            )
                            <= threshold
                        )
                    )
                ),
                batch_format="pyarrow",
            )
        )
        merged = J.grouped_by_key(
            _tag(best, 0).union(_tag(relaxed, 1)),
            ["src", "node"],
            _merge,
            num_buckets=num_buckets,
        ).materialize()
        improved = merged.filter(expr="imp == 1")
        best = merged.drop_columns(["imp"])
        if improved.count() == 0:
            return best
        frontier = improved.drop_columns(["imp"])
    raise RuntimeError(
        f"travel_cost_edges did not converge in {max_rounds} rounds; "
        "raise max_rounds (threshold/min-cost hop bound exceeded)"
    )


def _travel_cost_driver(
    seed_nodes: ray.data.Dataset,
    net_edges: ray.data.Dataset,
    threshold: float,
) -> ray.data.Dataset:
    """Driver-side bounded multi-source Dijkstra (binary heap) for
    networks that fit in one process; identical output contract to the
    distributed path (pytest asserts parity)."""
    import heapq

    adj: dict[int, list[tuple[int, float]]] = {}
    for b in net_edges.iter_batches(batch_format="pyarrow"):
        s = b.column("src").to_numpy(zero_copy_only=False)
        d = b.column("dst").to_numpy(zero_copy_only=False)
        c = b.column("cost").to_numpy(zero_copy_only=False)
        for i in range(len(s)):
            adj.setdefault(int(s[i]), []).append((int(d[i]), float(c[i])))
    seeds = [
        int(r["node"])
        for b in seed_nodes.iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    ]
    out_s, out_n, out_d = [], [], []
    for src in seeds:
        dist: dict[int, float] = {src: 0.0}
        pq = [(0.0, src)]
        while pq:
            dd, u = heapq.heappop(pq)
            if dd > dist.get(u, np.inf):
                continue
            for v2, c2 in adj.get(u, ()):  # noqa: B023
                nd = dd + c2
                if nd <= threshold and nd < dist.get(v2, np.inf):
                    dist[v2] = nd
                    heapq.heappush(pq, (nd, v2))
        for node, dd in dist.items():
            out_s.append(src)
            out_n.append(node)
            out_d.append(dd)
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(np.asarray(out_s, np.int64)),
                "node": pa.array(np.asarray(out_n, np.int64)),
                "dist": pa.array(np.asarray(out_d, np.float64)),
            }
        )
    )


def build_travel_graph(
    points: ray.data.Dataset,
    net_nodes: ray.data.Dataset,
    net_edges: ray.data.Dataset,
    threshold: float,
    kernel: str | None = None,
    taper: bool = True,
    mapping_distance: float | None = None,
    id_col: str = "id",
    force_distributed: bool = False,
    num_buckets: int | None = None,
    broadcast_assemble_max: int = 1_000_000,
) -> RayGraph:
    """Observation graph weighted by bounded network travel cost.

    Reference ``build_travel_graph`` (graph/_network.py:66-152); see the
    module docstring for the pipeline and the documented same-node-pair
    deviation. ``mapping_distance``: observations farther than this from
    every network node are left unsnapped and become isolates
    (``get_node_ids`` snapping tolerance, _network.py:85-88).
    ``kernel``: optional kernel function name applied to costs with
    bandwidth = ``threshold`` (graph/_network.py:136-151); ``taper`` drops
    zero-weight links after kernel evaluation (_network.py:95-97).
    """
    snaps = snap_to_nodes(
        points, net_nodes, id_col=id_col
    )
    if mapping_distance is not None:
        md = float(mapping_distance)
        snaps = snaps.map_batches(
            lambda t: t.filter(
                pa.array(
                    t.column("snap_dist").to_numpy(zero_copy_only=False) <= md
                )
            ),
            batch_format="pyarrow",
        )
    snaps = snaps.select_columns(["id", "node"]).materialize()
    seeds = (
        snaps.select_columns(["node"]).groupby("node").count()
        .select_columns(["node"])
    )
    sp = travel_cost_edges(
        seeds, net_edges, threshold, force_distributed=force_distributed,
        num_buckets=num_buckets,
    )
    # assemble: node-pair costs → observation pairs. The snap table is the
    # small side of both joins (one row per observation); below 1M rows
    # broadcast it once and expand per sp batch shuffle-free, else two
    # bucketed joins.
    if snaps.count() <= broadcast_assemble_max:
        st = pa.concat_tables(snaps.iter_batches(batch_format="pyarrow"))
        sid = st.column("id").to_numpy(zero_copy_only=False).astype(np.int64)
        snode = st.column("node").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        order = np.argsort(snode, kind="stable")
        s_ref = ray.put((snode[order], sid[order]))

        def _expand(t: pa.Table) -> pa.Table:
            nod, oid = ray.get(s_ref)
            src = t.column("src").to_numpy(zero_copy_only=False)
            dst = t.column("node").to_numpy(zero_copy_only=False)
            dd = t.column("dist").to_numpy(zero_copy_only=False)
            flo = np.searchsorted(nod, src, "left")
            fhi = np.searchsorted(nod, src, "right")
            nlo = np.searchsorted(nod, dst, "left")
            nhi = np.searchsorted(nod, dst, "right")
            cnt = (fhi - flo) * (nhi - nlo)
            total = int(cnt.sum())
            if total == 0:
                return pa.table(
                    {
                        "focal": pa.array([], pa.int64()),
                        "neighbor": pa.array([], pa.int64()),
                        "dist": pa.array([], pa.float64()),
                    }
                )
            rows = np.repeat(np.arange(len(src)), cnt)
            offs = np.arange(total) - np.repeat(
                np.cumsum(cnt) - cnt, cnt
            )
            nn = (nhi - nlo)[rows]
            fpos = flo[rows] + offs // np.maximum(nn, 1)
            npos = nlo[rows] + offs % np.maximum(nn, 1)
            return pa.table(
                {
                    "focal": pa.array(oid[fpos]),
                    "neighbor": pa.array(oid[npos]),
                    "dist": pa.array(dd[rows]),
                }
            )

        t2 = sp.map_batches(_expand, batch_format="pyarrow")
    else:
        focal_side = snaps.rename_columns({"id": "focal", "node": "src"})
        t1 = J.bucket_join(sp, focal_side, on="src").select_columns(
            ["focal", "node", "dist"]
        )
        nbr_side = snaps.rename_columns({"id": "neighbor"})
        t2 = J.bucket_join(t1, nbr_side, on="node").select_columns(
            ["focal", "neighbor", "dist"]
        )

    kf = kernel

    def _finish(t: pa.Table) -> pa.Table:
        f = t.column("focal").to_numpy(zero_copy_only=False)
        n = t.column("neighbor").to_numpy(zero_copy_only=False)
        d = t.column("dist").to_numpy(zero_copy_only=False)
        keep = f != n
        f, n, d = f[keep], n[keep], d[keep]
        if kf is None:
            w = d
        else:
            w = evaluate_kernel(d / threshold, function=kf)
        if taper and kf is not None:
            nz = w != 0.0
            f, n, w = f[nz], n[nz], w[nz]
        return E.edge_table(f, n, w)

    edges_out = t2.map_batches(_finish, batch_format="pyarrow")
    ids = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    return RayGraph(edges_out, ids=ids)
