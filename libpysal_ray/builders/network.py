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

Ray-Data-first design — three stages, no routing library:

* **snap** (:func:`snap_to_nodes`): cross-set nearest-neighbor via the
  same tile-shuffle used by the KNN builder (``builders/distance.py``):
  nodes are tiled with a one-ring halo, observations ride their home tile
  only, each tile resolves its observations against local+halo nodes with
  the distance-to-guaranteed-boundary coverage guard, and the unresolved
  remainder is finished by a chunked-broadcast scan over the node blocks,
  whose per-block nearest rows a tree of Ray tasks reduces. ONE shuffle.
* **route** (:func:`travel_cost_edges`): multi-source bounded shortest
  paths as synchronous frontier relaxation. A round expands the frontier
  (the (src, node, dist) rows that improved last round) through the
  out-edges of ``node``, drops paths over ``threshold``, min-combines per
  (src, node), merges into the running best table and hands on the
  strictly improved rows as the next frontier. Positive costs bound the
  rounds by the hop diameter within ``threshold`` (≤ threshold / min edge
  cost, plus the round that finds nothing); they run until none
  improves, or an optional ``max_rounds`` guard raises ``ValueError``
  instead of returning silently-incomplete distances.
* **assemble**: node-pair costs map through the snap table to
  observation pairs; kernel evaluation is a stateless per-batch map
  (``functions/kernels.py``).

The small-input switch (``joins._coalesced``, asked through
``graph._one_task`` about a tagged union of the network edges and the
seeds or snap table) picks one of two plans that run the same rounds, so
``max_rounds`` means the same on both and their outputs are bit-equal:

* **One task** (a size bound): numpy ranks the ids and sorts the edges
  by src once, runs the rounds as a CSR walk (:func:`_relax`) and a
  ``searchsorted`` merge into the key-sorted best table
  (:func:`_route_rounds`) and, for a graph, expands node pairs to
  observation pairs (:func:`_expand`).
* **Sharded** (no bound — the 100 TB shape): per round one
  ``bucket_join`` of the frontier against the edge table on the node and
  one ``grouped_by_key`` merge into the best table (:func:`_relaxed`,
  :func:`_merge`), which is
  O(Σ reachable nodes per source), the order of the output; two
  ``bucket_join`` calls assemble. Every join side declares its schema, so
  no round runs a schema fetch. Rounds, not data volume, drive the
  latency: threshold/min-cost hop counts in road networks are tens.

Deviation from the reference, documented: observations snapped to the
SAME node are connected with their true network cost 0.0 (the n→n
self-distance), where ``_induce_cliques`` uses an arbitrary
``fill_value=1`` (``graph/_utils.py:100``). Self-pairs (i, i) are dropped;
observations whose snapped node reaches no other observation's node
within ``threshold`` become isolates (zero-weight self-loops).
"""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import ray
import ray.data

from libpysal_ray.builders.distance import _count_bbox
from libpysal_ray.core import edges as E
from libpysal_ray.core import graph as G
from libpysal_ray.core import joins as J
from libpysal_ray.core.graph import RayGraph
from libpysal_ray.functions.kernels import evaluate_kernel

_CHUNK = 2048
_TOFF = 1 << 20

_I64, _F64 = pa.int64(), pa.float64()
# shortest-path rows, and the observation-pair rows ahead of ``_finish``
_SP = pa.schema([("src", _I64), ("node", _I64), ("dist", _F64)])
_OBS = pa.schema([("focal", _I64), ("neighbor", _I64), ("dist", _F64)])
# the snap fallback's scan rows
_SNAP = pa.schema([("id", _I64), ("node", _I64), ("snap_dist", _F64)])
# the one-task input: network edges (tag 0: a=src, b=dst, c=cost) and the
# second side (tag 1: a=node, b=observation id or node)
_UNION = pa.schema([("tag", pa.int8()), ("a", _I64), ("b", _I64),
                    ("c", _F64)])
# the sharded plan's bucket_join sides
_FRONTIER = pa.schema([("src", _I64), ("jn", _I64), ("dist", _F64)])
_EDGE_SIDE = pa.schema([("jn", _I64), ("dst", _I64), ("cost", _F64)])
_FOCAL_SIDE = pa.schema([("src", _I64), ("focal", _I64)])
_HALF = pa.schema([("focal", _I64), ("node", _I64), ("dist", _F64)])
_NBR_SIDE = pa.schema([("node", _I64), ("neighbor", _I64)])


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
    # scanned against every node block; one per-id min-merge.
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
            return _SNAP.empty_table()
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

    # each node block yields every unresolved point's nearest node in it;
    # a tree of Ray tasks keeps each point's nearest overall
    refs = nodes.map_batches(_scan, batch_format="pyarrow").to_arrow_refs()
    while True:
        refs = [_nearest.remote(*refs[k:k + 8])
                for k in range(0, len(refs), 8)]
        if len(refs) <= 1:
            break
    return resolved.union(ray.data.from_arrow_refs(refs)) if refs else resolved


@ray.remote
def _nearest(*ts: pa.Table) -> pa.Table:
    """Per id the row of least (snap_dist, node) among the scan rows (an
    empty block may come without columns)."""
    t = pa.concat_tables([x for x in ts if x.num_rows]
                         or [_SNAP.empty_table()])
    o, starts = J._segments([_np(t, "id")],
                            (_np(t, "snap_dist"), _np(t, "node")))
    return t.take(pa.array(o[starts]))


def _np(t: pa.Table, c: str) -> np.ndarray:
    return t.column(c).to_numpy(zero_copy_only=False)


def _relax(s, n, d, es, ed, ec, threshold: float):
    """One round's expansion: every frontier row (s, n, d) through each
    out-edge of ``n`` in the src-sorted edges (es, ed, ec), a CSR walk by
    ``searchsorted``; the (src, node, dist) paths ≤ ``threshold``."""
    lo = np.searchsorted(es, n, "left")
    cnt = np.searchsorted(es, n, "right") - lo
    rep = np.repeat(np.arange(len(n)), cnt)
    epos = G._ranges(lo, lo + cnt)
    nd = d[rep] + ec[epos]
    keep = nd <= threshold
    return s[rep][keep], ed[epos][keep], nd[keep]


def _relaxed(t: pa.Table, threshold: float) -> pa.Table:
    """A relax join's rows (src, jn, dist, dst, cost) as the paths ≤
    ``threshold``, min-combined per (src, node) and key-sorted: the
    sharded twin of :func:`_relax`."""
    nd = _np(t, "dist") + _np(t, "cost")
    keep = nd <= threshold
    s, n, d = _np(t, "src")[keep], _np(t, "dst")[keep], nd[keep]
    o, starts = J._segments([s, n], (d,))
    k = o[starts]
    return pa.Table.from_arrays(
        [pa.array(s[k]), pa.array(n[k]), pa.array(d[k])], schema=_SP)


def _tagged(t: pa.Table, tag: int) -> pa.Table:
    """(src, node, dist) of ``t`` plus the merge side ``tag``: 0 for the
    best table, 1 for a round's candidates."""
    return t.select(["src", "node", "dist"]).append_column(
        "tag", pa.array(np.full(t.num_rows, tag, dtype=np.int8)))


def _merge(t: pa.Table) -> pa.Table:
    """One (src, node)-sorted table of best (tag 0) and candidate (tag 1)
    rows: per (src, node) the min dist, and ``imp`` 1 where a candidate
    beat the old best (a new key counts as improved)."""
    s, n, d = _np(t, "src"), _np(t, "node"), _np(t, "dist")
    first = np.ones(len(s), dtype=np.bool_)
    first[1:] = (s[1:] != s[:-1]) | (n[1:] != n[:-1])
    heads = np.flatnonzero(first)
    best = np.minimum.reduceat(d, heads)
    old = np.minimum.reduceat(np.where(_np(t, "tag") == 0, d, np.inf), heads)
    return pa.table({
        "src": pa.array(s[heads]),
        "node": pa.array(n[heads]),
        "dist": pa.array(best),
        "imp": pa.array((best < old).astype(np.int8)),
    })


def _rounds(max_rounds: int | None):
    return itertools.count() if max_rounds is None else range(max_rounds)


def _route_rounds(seeds, es, ed, ec, threshold: float,
                  max_rounds: int | None) -> pa.Table | None:
    """The rounds in one process, from the distinct ``seeds`` over the
    src-sorted edges (es, ed, ec): the best (src, node, dist) table, or
    None when a round still improved after ``max_rounds``. Ids are ranked
    once, so a (src, node) pair is one int64 key; best stays key-sorted
    and each round merges its min-combined candidates by ``searchsorted``
    (the same rows as :func:`_merge`, without re-sorting best)."""
    ids = np.unique(np.concatenate([seeds, es, ed]))
    m = len(ids)
    s = np.searchsorted(ids, seeds)
    es, ed = np.searchsorted(ids, es), np.searchsorted(ids, ed)
    keys, dist = s * m + s, np.zeros(len(s))
    fk, fd = keys, dist
    for _ in _rounds(max_rounds):
        cs, cn, cd = _relax(fk // m, fk % m, fd, es, ed, ec, threshold)
        ck = cs * m + cn
        o, starts = J._segments([ck], (cd,))
        ck, cd = ck[o[starts]], cd[o[starts]]
        pos = np.searchsorted(keys, ck)
        at = np.minimum(pos, len(keys) - 1)
        new = keys[at] != ck
        imp = new | (cd < dist[at])
        if not imp.any():
            return pa.Table.from_arrays(
                [pa.array(ids[keys // m]), pa.array(ids[keys % m]),
                 pa.array(dist)], schema=_SP)
        dist[at[imp & ~new]] = cd[imp & ~new]
        keys = np.insert(keys, pos[new], ck[new])
        dist = np.insert(dist, pos[new], cd[new])
        fk, fd = ck[imp], cd[imp]
    return None


def _expand(sp: pa.Table, nod: np.ndarray, oid: np.ndarray, cap: int):
    """Node-pair costs ``sp`` to observation pairs through the snap table
    (``nod`` sorted, ``oid`` the observation at each): every observation
    at ``src`` × every observation at ``node``, in blocks of ≤ ``cap``
    rows (one empty block when there are none)."""
    src, dst, dd = _np(sp, "src"), _np(sp, "node"), _np(sp, "dist")
    flo = np.searchsorted(nod, src, "left")
    nlo = np.searchsorted(nod, dst, "left")
    nn = np.searchsorted(nod, dst, "right") - nlo
    cnt = (np.searchsorted(nod, src, "right") - flo) * nn
    ends = np.cumsum(cnt)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        yield _OBS.empty_table()
    for lo in range(0, total, cap):
        pos = np.arange(lo, min(lo + cap, total))
        rows = np.searchsorted(ends, pos, "right")
        offs = pos - (ends - cnt)[rows]
        yield pa.Table.from_arrays(
            [pa.array(oid[flo[rows] + offs // nn[rows]]),
             pa.array(oid[nlo[rows] + offs % nn[rows]]),
             pa.array(dd[rows])],
            schema=_OBS,
        )


def _unconverged(max_rounds: int) -> str:
    return (f"travel-cost routing did not converge in {max_rounds} rounds; "
            "raise max_rounds (threshold/min-cost hop bound exceeded)")


def _union_rows(ds: ray.data.Dataset, tag: int, a: str, b: str,
                c: str | None = None) -> ray.data.Dataset:
    """``ds`` as one side of the one-task input: (tag, a, b, c)."""

    def f(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array(np.full(t.num_rows, tag, dtype=np.int8)),
             t.column(a).cast(_I64), t.column(b).cast(_I64),
             t.column(c).cast(_F64) if c else pa.array(np.zeros(t.num_rows))],
            schema=_UNION,
        )

    return ds.map_batches(f, batch_format="pyarrow")


def _small_route(side: ray.data.Dataset, net_edges: ray.data.Dataset,
                 obs_col: str | None, threshold: float,
                 max_rounds: int | None):
    """The whole route (and, with an ``obs_col``, the assembly) as ONE
    numpy task over the tagged union of ``net_edges`` and ``side``,
    through the small-input switch: the materialized (src, node, dist)
    table, or the (focal, neighbor, dist) observation pairs; None when
    the union has no size bound."""
    cap = J._COALESCED_EMIT_ROWS  # read at plan build, not in the task

    def _task(t: pa.Table):
        tag, a, b = _np(t, "tag"), _np(t, "a"), _np(t, "b")
        e = tag == 0
        order = np.argsort(a[e], kind="stable")
        best = _route_rounds(
            np.unique(a[~e]), a[e][order], b[e][order],
            _np(t, "c")[e][order], threshold, max_rounds,
        )
        if best is None:
            yield G._task_error(_unconverged(max_rounds))
        elif obs_col is None:
            yield best
        else:
            o = np.argsort(a[~e], kind="stable")
            yield from _expand(best, a[~e][o], b[~e][o], cap)

    # the output is reachable pairs, not O(network + side)
    _task._size_expanding = True
    u = _union_rows(net_edges, 0, "src", "dst", "cost").union(
        _union_rows(side, 1, "node", obs_col or "node"))
    return G._one_task(u, _task, (_SP if obs_col is None else _OBS)
                       .empty_table())


@ray.remote
def _n_improved(t: pa.Table) -> int:
    return int(np.count_nonzero(_np(t, "imp"))) if t.num_rows else 0


def _sharded_route(seed_nodes: ray.data.Dataset, net_edges: ray.data.Dataset,
                   threshold: float, max_rounds: int | None,
                   num_buckets: int | None) -> ray.data.Dataset:
    """The rounds as Dataset plans: per round one bucket_join of the
    frontier against the edges on the node and one grouped_by_key merge
    into the best table, in one Dataset execution (the merged state,
    carried on through ``J.unchained``; ``E.compact`` adds one when it
    re-blocks). Ray tasks count the improved rows per block. Returns the
    best (src, node, dist) table, its schema declared."""
    edges = J.declare_schema(net_edges.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("src").cast(_I64), t.column("dst").cast(_I64),
             t.column("cost").cast(_F64)], schema=_EDGE_SIDE),
        batch_format="pyarrow",
    ), _EDGE_SIDE)
    # the state rows (src, node, dist, imp); the seeds start improved
    state = J.unchained(seed_nodes.map_batches(
        lambda t: pa.table({
            "src": t.column("node").cast(_I64),
            "node": t.column("node").cast(_I64),
            "dist": pa.array(np.zeros(t.num_rows)),
            "imp": pa.array(np.ones(t.num_rows, dtype=np.int8)),
        }),
        batch_format="pyarrow",
    ))
    for _ in _rounds(max_rounds):
        frontier = J.declare_schema(state.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("src"), t.column("node"), t.column("dist")],
                schema=_FRONTIER,
            ).filter(pa.array(_np(t, "imp") == 1)),
            batch_format="pyarrow",
        ), _FRONTIER)
        relaxed = J.bucket_join(
            frontier, edges, on="jn", num_buckets=num_buckets
        ).map_batches(
            lambda t: _relaxed(t, threshold), batch_format="pyarrow"
        )
        best = state.map_batches(lambda t: _tagged(t, 0),
                                 batch_format="pyarrow")
        # re-blocked: each merge hands on as many blocks as it got
        state = J.unchained(E.compact(J.grouped_by_key(
            best.union(relaxed.map_batches(lambda t: _tagged(t, 1),
                                           batch_format="pyarrow")),
            ["src", "node"], _merge, num_buckets=num_buckets,
        )))
        refs = state.to_arrow_refs()
        if not sum(ray.get([_n_improved.remote(r) for r in refs])):
            return J.declare_schema(state.drop_columns(["imp"]), _SP)
    raise ValueError(_unconverged(max_rounds))


def travel_cost_edges(
    seed_nodes: ray.data.Dataset,
    net_edges: ray.data.Dataset,
    threshold: float,
    max_rounds: int | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Min network cost ≤ ``threshold`` from every seed node: (src, node, dist).

    ``seed_nodes``: column ``node`` (int64 network node ids; repeats are
    fine). ``net_edges``: (src, dst, cost) DIRECTED, cost > 0. Self rows
    (src, src, 0.0) are included in the output.

    Synchronous frontier relaxation (see the module docstring), run as
    ONE numpy task when the small-input switch bounds the network edges
    and the seeds together, else as the sharded rounds (``num_buckets``
    is their shuffles' bucket count, None = sized from the input).
    Positive costs converge in ≤ threshold / min cost + 1 rounds; by
    default the rounds run until none improves. With ``max_rounds`` set,
    a round that still improved after that many raises ``ValueError``
    (the fixed-iteration-silent-exit trap flagged for components,
    ADVICE r2).
    """
    small = _small_route(seed_nodes, net_edges, None, threshold, max_rounds)
    if small is not None:
        return small
    return _sharded_route(seed_nodes, net_edges, threshold, max_rounds,
                          num_buckets)


def build_travel_graph(
    points: ray.data.Dataset,
    net_nodes: ray.data.Dataset,
    net_edges: ray.data.Dataset,
    threshold: float,
    kernel: str | None = None,
    taper: bool = True,
    mapping_distance: float | None = None,
    id_col: str = "id",
    num_buckets: int | None = None,
) -> RayGraph:
    """Observation graph weighted by bounded network travel cost.

    Reference ``build_travel_graph`` (graph/_network.py:66-152); see the
    module docstring for the pipeline, its two plans and the documented
    same-node-pair deviation. With a size bound on the network edges and
    the snap table, ONE task routes and assembles; without one, the
    sharded rounds route and two ``bucket_join`` calls assemble
    (``num_buckets`` is their bucket count). ``mapping_distance``:
    observations farther than this from every network node are left
    unsnapped and become isolates (``get_node_ids`` snapping tolerance,
    _network.py:85-88). ``kernel``: optional kernel function name applied
    to costs with bandwidth = ``threshold`` (graph/_network.py:136-151);
    ``taper`` drops zero-weight links after kernel evaluation
    (_network.py:95-97). The rounds run until none improves (see
    :func:`travel_cost_edges`).
    """
    snaps = snap_to_nodes(points, net_nodes, id_col=id_col)
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
    pairs = _small_route(snaps, net_edges, "id", threshold, None)
    if pairs is None:  # the edges and the snap table have no size bound
        sp = _sharded_route(
            J.grouped_agg(snaps, ("node",), (None,), "count"), net_edges,
            threshold, None, num_buckets,
        )
        focal = J.declare_schema(snaps.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("node"), t.column("id")], schema=_FOCAL_SIDE),
            batch_format="pyarrow",
        ), _FOCAL_SIDE)
        half = J.declare_schema(J.bucket_join(
            sp, focal, on="src", num_buckets=num_buckets
        ).map_batches(
            lambda t: t.select(["focal", "node", "dist"]),
            batch_format="pyarrow",
        ), _HALF)
        nbr = J.declare_schema(snaps.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("node"), t.column("id")], schema=_NBR_SIDE),
            batch_format="pyarrow",
        ), _NBR_SIDE)
        pairs = J.bucket_join(half, nbr, on="node", num_buckets=num_buckets)

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

    edges_out = pairs.map_batches(_finish, batch_format="pyarrow")
    ids = points.select_columns([id_col]).rename_columns({id_col: "focal"})
    return RayGraph(edges_out, ids=ids)
