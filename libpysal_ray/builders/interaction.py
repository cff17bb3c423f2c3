"""Spatial-interaction weights — netW / ODW / vecW.

Reference: /root/reference/libpysal/weights/spintW.py

* ``netW(link_list, share)`` (spintW.py:81-156): nodes are network EDGES
  (o, d); two edges are neighbors when they share a node per ``share``:
  'O' (common origin), 'D' (common destination), 'OD' (o==o or d==d),
  'C' (chained: one's destination is the other's origin),
  'A' (any shared node). → bucketed self-joins of the edge list on the
  shared-node key (core.joins.bucket_join — one shuffle per key mode).
* ``ODW(Wo, Wd)`` (spintW.py:19-78): flow-level weights as the Kronecker
  product of an origin graph and a destination graph: flow (o1,d1) is a
  neighbor of flow (o2,d2) with weight wo(o1,o2)·wd(d1,d2). → edge-table
  cross product, keyed join-free: the o-edge table is broadcast when small,
  else a bucketed join on the o key against enumerated flows.
* ``vecW`` (spintW.py:159-241): distance-band in 4-d (ox, oy, dx, dy)
  space. → the standard tile-shuffle distance-band pipeline run on a 4-d
  packed tile key.

Flow ids: a flow (o, d) gets id ``o * d_span + d`` (dense row-major, the
reference's kron layout) so ODW output is comparable as plain int ids.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from libpysal_ray.core import edges as E
from libpysal_ray.core import joins as J
from libpysal_ray.core.graph import RayGraph


def netw(
    links: ray.data.Dataset,
    share: str = "A",
    o_col: str = "o",
    d_col: str = "d",
) -> RayGraph:
    """links: Dataset of network edges with integer node columns (o, d).
    Link id = positional is NOT used — the link's identity is its
    (o, d) pair packed as ``o * SPAN + d`` with SPAN = 2**21."""
    SPAN = 1 << 21

    def _ids(t: pa.Table) -> pa.Table:
        o = t.column(o_col).to_numpy(zero_copy_only=False).astype(np.int64)
        d = t.column(d_col).to_numpy(zero_copy_only=False).astype(np.int64)
        for name, v in ((o_col, o), (d_col, d)):
            if len(v) and (v.min() < 0 or v.max() >= SPAN):
                raise ValueError(
                    f"netw: node ids in column {name!r} must lie in "
                    f"[0, 2**21) for packed link ids; got range "
                    f"[{v.min()}, {v.max()}]"
                )
        return pa.table(
            {"lid": pa.array(o * SPAN + d), "o": pa.array(o), "d": pa.array(d)}
        )

    lk = links.map_batches(_ids, batch_format="pyarrow").materialize()

    def _pairs_on(key: str, key2: str | None = None) -> ray.data.Dataset:
        """Self-join on lk[key] == lk[key2 or key], drop self-pairs."""
        left = lk.select_columns(["lid", key]).rename_columns(
            {key: "__k", "lid": "focal"}
        )
        rk = key2 or key
        right = lk.select_columns(["lid", rk]).rename_columns(
            {rk: "__k", "lid": "neighbor"}
        )
        out = J.bucket_join(left, right, on="__k").filter(
            expr="focal != neighbor"
        )
        return out.map_batches(
            lambda t: E.edge_table(
                t.column("focal").to_numpy(zero_copy_only=False),
                t.column("neighbor").to_numpy(zero_copy_only=False),
                1.0,
            ),
            batch_format="pyarrow",
        )

    share = share.upper()
    if share == "O":
        out = _pairs_on("o")
    elif share == "D":
        out = _pairs_on("d")
    elif share == "OD":
        out = E.dedup(_pairs_on("o").union(_pairs_on("d")), keep="max")
    elif share == "C":
        # chained: focal's destination == neighbor's origin
        out = _pairs_on("d", "o")
    elif share == "A":
        out = E.dedup(
            _pairs_on("o")
            .union(_pairs_on("d"))
            .union(_pairs_on("o", "d"))
            .union(_pairs_on("d", "o")),
            keep="max",
        )
    else:
        raise ValueError(share)
    ids = lk.select_columns(["lid"]).rename_columns({"lid": "focal"})
    return RayGraph(out, ids=ids)


def odw(
    wo: RayGraph,
    wd: RayGraph,
    d_span: int,
    transform: str = "R",
) -> RayGraph:
    """Kronecker flow weights (spintW.py:19-78): the reference
    row-standardizes both inputs first (spintW.py:62-64), then
    W_flow[(o1,d1),(o2,d2)] = Wo[o1,o2] * Wd[d1,d2].

    Plan: the destination edge list is streamed through the driver in
    BOUNDED chunks (``iter_batches`` — never a whole-table collect), each
    ``ray.put`` once; one stateless pass over the origin edge table emits
    the cross product against every chunk ref in turn (same
    chunked-broadcast shape as ann.cosine_dup_pairs — no worker or driver
    ever holds more than one chunk, chunks live spillable in the object
    store). Output size is the inherent |Eo|·|Ed| Kronecker cardinality.
    Flow id = o * d_span + d.
    """
    if transform:
        wo = wo.transform(transform)
        wd = wd.transform(transform)
    dd = wd._real_edges()
    chunk_refs = []
    for b in dd.iter_batches(batch_size=262_144, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        chunk_refs.append(
            ray.put(
                (
                    b.column("focal").to_numpy(zero_copy_only=False).astype(
                        np.int64
                    ),
                    b.column("neighbor").to_numpy(
                        zero_copy_only=False
                    ).astype(np.int64),
                    b.column("weight").to_numpy(
                        zero_copy_only=False
                    ).astype(np.float64),
                )
            )
        )

    def _cross(t: pa.Table) -> pa.Table:
        of = t.column("focal").to_numpy(zero_copy_only=False)
        on = t.column("neighbor").to_numpy(zero_copy_only=False)
        ow = t.column("weight").to_numpy(zero_copy_only=False)
        k = len(of)
        outs = []
        for ref in chunk_refs:
            df, dn, dw = ray.get(ref)
            m = len(df)
            f = np.repeat(of, m) * d_span + np.tile(df, k)
            n = np.repeat(on, m) * d_span + np.tile(dn, k)
            w = np.repeat(ow, m) * np.tile(dw, k)
            outs.append(E.edge_table(f, n, w))
        if not outs:
            return E.empty_edges()
        return pa.concat_tables(outs)

    _cross._size_expanding = True  # Kronecker fanout |Ed| per row
    edges = wo._real_edges().map_batches(
        _cross, batch_format="pyarrow", batch_size=4096
    )
    # id universe: all (o, d) combinations of the two id sets.  Destination
    # ids are ALL of wd's ids (isolates included) so a d-side isolate
    # still yields flow rows, symmetric with the o side.
    d_ids = np.unique(wd.ids().to_pandas()["focal"].to_numpy(np.int64))
    d_ref = ray.put(d_ids)

    def _flow_ids(t: pa.Table) -> pa.Table:
        ds_ = ray.get(d_ref)
        o = t.column("focal").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "focal": pa.array(
                    (np.repeat(o, len(ds_)) * d_span + np.tile(ds_, len(o)))
                )
            }
        )

    ids = wo.ids().map_batches(_flow_ids, batch_format="pyarrow")
    return RayGraph(edges, ids=ids)


def vecw(
    vectors: ray.data.Dataset,
    threshold: float,
    binary: bool = True,
    alpha: float = -1.0,
    id_col: str = "id",
    cols: tuple[str, str, str, str] = ("ox", "oy", "dx", "dy"),
) -> RayGraph:
    """4-d distance band over origin–destination vectors
    (spintW.py:159-241): pairs with Euclidean distance ≤ threshold in
    (ox, oy, dx, dy) space; weight 1 or d^alpha.

    Plan: tile shuffle on the 4-d cell key (cell size = threshold, halo =
    threshold → ring-1 ghosts suffice), per-tile vectorized pairwise
    distances — the 4-d generalization of builders.distance.distance_band.
    """
    cs = threshold
    names = list(cols)

    def _emit(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "tile": pa.array([], pa.int64()),
                    "id": pa.array([], pa.int64()),
                    "core": pa.array([], pa.bool_()),
                    **{c: pa.array([], pa.float64()) for c in names},
                }
            )
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.stack(
            [
                t.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
                for c in names
            ],
            axis=1,
        )
        tile = np.floor(v / cs).astype(np.int64)
        rows = {"id": [], "tile": [], "core": []}
        vecs = []
        # home + ghost rows for each of the 3^4-1 neighbor tiles within halo
        lo = v - tile * cs
        hi = (tile + 1) * cs - v
        for off in np.ndindex(3, 3, 3, 3):
            d4 = np.array(off) - 1
            m = np.ones(len(ids), dtype=bool)
            for j, dj in enumerate(d4):
                if dj == -1:
                    m &= lo[:, j] <= cs
                elif dj == 1:
                    m &= hi[:, j] <= cs
            if not m.any():
                continue
            tt = tile[m] + d4
            key = (
                ((tt[:, 0] + 4096) * 8192 + (tt[:, 1] + 4096)) * 8192
                + (tt[:, 2] + 4096)
            ) * 8192 + (tt[:, 3] + 4096)
            rows["id"].append(ids[m])
            rows["tile"].append(key)
            rows["core"].append(
                np.full(int(m.sum()), bool((d4 == 0).all()), dtype=np.bool_)
            )
            vecs.append(v[m])
        allv = np.concatenate(vecs)
        return pa.table(
            {
                "tile": pa.array(np.concatenate(rows["tile"])),
                "id": pa.array(np.concatenate(rows["id"])),
                "core": pa.array(np.concatenate(rows["core"])),
                **{
                    c: pa.array(allv[:, j]) for j, c in enumerate(names)
                },
            }
        )

    tiled = vectors.map_batches(_emit, batch_format="pyarrow")

    def _pairs(t: pa.Table) -> pa.Table:
        i = t.column("id").to_numpy(zero_copy_only=False)
        v = np.stack(
            [
                t.column(c).to_numpy(zero_copy_only=False) for c in names
            ],
            axis=1,
        )
        core = t.column("core").to_numpy(zero_copy_only=False)
        ci = np.flatnonzero(core)
        out_f, out_n, out_w = [], [], []
        for s in range(0, len(ci), 1024):
            sel = ci[s: s + 1024]
            diff = v[sel, None, :] - v[None, :, :]
            d = np.sqrt((diff * diff).sum(axis=2))
            keep = (d <= threshold) & (i[sel, None] != i[None, :])
            r, c = np.nonzero(keep)
            out_f.append(i[sel][r])
            out_n.append(i[c])
            out_w.append(
                np.ones(len(r)) if binary else np.power(d[keep], alpha)
            )
        if not out_f:
            return E.empty_edges()
        return E.edge_table(
            np.concatenate(out_f), np.concatenate(out_n),
            np.concatenate(out_w),
        )

    _pairs._size_expanding = True  # pair emission
    edges = J.per_group(tiled, ("tile",), _pairs)
    ids = vectors.select_columns([id_col]).rename_columns({id_col: "focal"})
    return RayGraph(edges, ids=ids)
