"""Distributed k-means training (Lloyd's algorithm) over an embedding
column — the clustering stage feeding ``assign_to_centroids`` / IVF
partitioning / SemDeDup (which currently take externally-chosen
centroid ids).

100 TB shape: the dataset never leaves the cluster. Each Lloyd
iteration is ONE ``map_batches`` pass emitting a k×(d+2) partial
(per-centroid member count + coordinate sums — a classic mergeable
combiner), so the driver reduces k·num_blocks tiny rows per iteration
and re-broadcasts the k×d centroid matrix via ``ray.put``. The pruned
(id, vector) projection is materialized once up front because an
iterative algorithm re-reads its input n_iter times — Ray's object
store holds (and spills) the blocks instead of re-running the read.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

__all__ = ["kmeans_train"]


def _batch_matrix(col, dim: int | None = None) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix, vectorized via the
    flat value buffer (no per-row Python). Raises on ragged rows."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
    if len(lens) == 0:
        return np.empty((0, dim or 0), dtype=np.float64)
    d = int(lens[0])
    if not (lens == d).all() or (dim is not None and d != dim):
        raise ValueError("ragged or mismatched embedding dimensions")
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.astype(np.float64).reshape(-1, d)


def _smallest_ids(ds: ray.data.Dataset, k: int, id_col: str) -> list[dict]:
    """The k rows with the smallest ids, in id order: each block keeps its
    own k smallest (np.argpartition), and the driver merges the
    k × #blocks candidates — no sort of the whole dataset."""

    def _topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return t.take(pa.array(np.argpartition(ids, k - 1)[:k]))

    rows = ds.map_batches(_topk, batch_format="pyarrow",
                          batch_size=None).take_all()
    if len(rows) < k:
        raise ValueError(f"k={k} exceeds dataset size {len(rows)}")
    return sorted(rows, key=lambda r: r[id_col])[:k]


def kmeans_train(
    embeddings: ray.data.Dataset,
    k: int = 8,
    n_iter: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    fixed_scale: int | None = None,
) -> ray.data.Dataset:
    """Lloyd's k-means with deterministic init (the vectors of the k
    smallest ids), squared-Euclidean assignment, ties → lowest centroid
    index; an emptied cluster keeps its previous centroid. Returns one
    row per cluster: (cluster_id, size, centroid list<double>) after
    ``n_iter`` update steps.

    ``fixed_scale=None`` (classic float Lloyd): no SQL oracle —
    iterative float averaging is not reproducible in set-oriented SQL;
    parity is pinned by tests/test_kmeans.py against a single-process
    numpy Lloyd reference on the same input.

    ``fixed_scale=S`` (fixed-point Lloyd, the PageRank discipline):
    vectors quantize ONCE at ingest to xi = floor(x·S) int64, squared
    distances and coordinate sums are exact int64, and the centroid
    update is exact integer FLOOR division ssum // size — every
    intermediate is exactly representable, so the result is bit-equal
    at any block layout AND reproducible in SQL (the DuckDB oracle
    unrolls the iterations; see pipelines/queries ``kmeans_train``).
    Output centroid values are the fixed-point int64s (as list<int64>),
    i.e. centroid/S approximates the float centroid to 1/S."""
    if k < 1 or n_iter < 1:
        raise ValueError("k and n_iter must be ≥ 1")
    if fixed_scale is not None:
        return _kmeans_train_fixed(
            embeddings, k, n_iter, id_col, vec_col, int(fixed_scale)
        )
    ds = embeddings.select_columns([id_col, vec_col]).materialize()

    init = _smallest_ids(ds, k, id_col)
    cents = np.array([r[vec_col] for r in init], dtype=np.float64)
    d = cents.shape[1]

    def _partial(t: pa.Table, ref) -> pa.Table:
        c = ray.get(ref)
        x = _batch_matrix(t.column(vec_col), dim=c.shape[1])
        if len(x) == 0:
            return pa.table({
                "cid": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
                "ssum": pa.array([], pa.list_(pa.float64())),
            })
        # argmin ||x-c||² = argmin (||c||² - 2 x·c); first min = lowest cid
        dist = -2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
        best = np.argmin(dist, axis=1)
        cids = np.unique(best)
        cnt = np.bincount(best, minlength=c.shape[0])[cids]
        sums = np.zeros((len(cids), c.shape[1]), dtype=np.float64)
        np.add.at(sums, np.searchsorted(cids, best), x)
        return pa.table({
            "cid": pa.array(cids.astype(np.int64)),
            "cnt": pa.array(cnt.astype(np.int64)),
            "ssum": pa.array(list(sums)),
        })

    sizes = np.zeros(k, dtype=np.int64)
    for _ in range(n_iter):
        ref = ray.put(cents)
        parts = ds.map_batches(
            lambda t, ref=ref: _partial(t, ref), batch_format="pyarrow"
        ).take_all()
        sums = np.zeros((k, d), dtype=np.float64)
        sizes = np.zeros(k, dtype=np.int64)
        # deterministic reduce: accumulate partials in (cid, block) order
        for r in sorted(parts, key=lambda r: int(r["cid"])):
            cid = int(r["cid"])
            sizes[cid] += int(r["cnt"])
            sums[cid] += np.asarray(r["ssum"], dtype=np.float64)
        nz = sizes > 0
        cents = np.where(nz[:, None], sums / np.maximum(sizes, 1)[:, None],
                         cents)

    return ray.data.from_arrow(pa.table({
        "cluster_id": pa.array(np.arange(k, dtype=np.int64)),
        "size": pa.array(sizes),
        "centroid": pa.array(list(cents), pa.list_(pa.float64())),
    }))


def _kmeans_train_fixed(
    embeddings: ray.data.Dataset,
    k: int,
    n_iter: int,
    id_col: str,
    vec_col: str,
    scale: int,
) -> ray.data.Dataset:
    """Exact fixed-point Lloyd (see kmeans_train docstring). Same
    distributed shape as the float path: one mergeable k×(d+2) combiner
    pass per iteration, centroids re-broadcast via ray.put."""
    ds = embeddings.select_columns([id_col, vec_col]).materialize()

    init = _smallest_ids(ds, k, id_col)
    # floor(x·S): x is float32-exact, S a power-of-two-friendly int —
    # double multiply + floor is exact on both engine and SQL sides
    cents = np.floor(
        np.array([r[vec_col] for r in init], dtype=np.float64) * scale
    ).astype(np.int64)
    d = cents.shape[1]

    def _partial(t: pa.Table, ref) -> pa.Table:
        c = ray.get(ref)  # (k, d) int64
        xf = _batch_matrix(t.column(vec_col), dim=c.shape[1])
        if len(xf) == 0:
            return pa.table({
                "cid": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
                "ssum": pa.array([], pa.list_(pa.int64())),
            })
        x = np.floor(xf * scale).astype(np.int64)
        xm = int(np.abs(x).max()) if x.size else 0
        cm = int(np.abs(c).max()) if c.size else 0
        # exact bound BEFORE any int64 product: per-term (x−c)² ≤
        # (xm+cm)², summed over d dims
        if (xm + cm) ** 2 * max(d, 1) >= (1 << 62):
            raise ValueError(
                "kmeans fixed-point distances would overflow int64; "
                "lower fixed_scale"
            )
        diff = x[:, None, :] - c[None, :, :]  # (n, k, d) int64
        dist = (diff * diff).sum(axis=2)
        best = np.argmin(dist, axis=1)  # first (lowest) cid wins ties
        cids = np.unique(best)
        cnt = np.bincount(best, minlength=c.shape[0])[cids]
        sums = np.zeros((len(cids), c.shape[1]), dtype=np.int64)
        np.add.at(sums, np.searchsorted(cids, best), x)
        return pa.table({
            "cid": pa.array(cids.astype(np.int64)),
            "cnt": pa.array(cnt.astype(np.int64)),
            "ssum": pa.array(list(sums), pa.list_(pa.int64())),
        })

    sizes = np.zeros(k, dtype=np.int64)
    for _ in range(n_iter):
        ref = ray.put(cents)
        parts = ds.map_batches(
            lambda t, ref=ref: _partial(t, ref), batch_format="pyarrow"
        ).take_all()
        sums = np.zeros((k, d), dtype=object)  # unbounded-int accumulate
        sums[:] = 0
        sizes = np.zeros(k, dtype=np.int64)
        for r in sorted(parts, key=lambda r: int(r["cid"])):
            cid = int(r["cid"])
            sizes[cid] += int(r["cnt"])
            sums[cid] += np.asarray(r["ssum"], dtype=np.int64)
        if (np.abs(sums.astype(np.float64)) >= float(1 << 62)).any():
            raise ValueError(
                "kmeans fixed-point coordinate sums exceed int64; "
                "lower fixed_scale"
            )
        sums = sums.astype(np.int64)
        nz = sizes > 0
        # exact integer FLOOR division (negative sums floor like
        # Python //, mirrored by the inlined SQL floor-div expression)
        upd = np.floor_divide(sums, np.maximum(sizes, 1)[:, None])
        cents = np.where(nz[:, None], upd, cents)

    return ray.data.from_arrow(pa.table({
        "cluster_id": pa.array(np.arange(k, dtype=np.int64)),
        "size": pa.array(sizes),
        "centroid": pa.array(list(cents), pa.list_(pa.int64())),
    }))
