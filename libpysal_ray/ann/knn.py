"""Similarity search over embedding columns (list<float>).

* ``ann_topk`` — exact brute-force cosine top-k against a broadcast query
  matrix: the query block is ``ray.put`` once (normalized), every data
  block computes one numpy matmul and emits its LOCAL top-k per query;
  one groupby(query) merges to the global top-k. Scales linearly in the
  corpus with no shuffle of the embedding column itself.
* ``ann_lsh_topk`` — the scale path: random-hyperplane (SimHash) bucket
  signatures; only buckets matching a query's signature band are scanned.
  Approximate (recall < 1), same output schema.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _norm_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _vec_matrix(col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix with NO Python-list
    round trip: combine chunks, flatten the child buffer, reshape by the
    (validated-constant) list length. Falls back to the slow path only
    for ragged lists."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.empty((0, 0), dtype=np.float64)
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
    d = int(lens[0])
    if (lens == d).all():
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return flat.astype(np.float64, copy=False).reshape(len(col), d)
    return np.array(col.to_pylist(), dtype=np.float64)


def _collect_queries(
    embeddings: ray.data.Dataset, query_ids, id_col: str, vec_col: str
):
    import numpy as _np
    qarr = _np.asarray(sorted(set(int(q) for q in query_ids)), dtype=_np.int64)

    def _sel(t):
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_np.isin(ids, qarr)))

    rows = embeddings.map_batches(_sel, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: r[id_col])
    qid = np.array([r[id_col] for r in rows], dtype=np.int64)
    qm = np.array([r[vec_col] for r in rows], dtype=np.float64)
    return qid, qm


def ann_topk(
    embeddings: ray.data.Dataset,
    query_ids,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """(query_id, neighbor_id, rank, sim) — exact cosine top-k, self
    excluded; ties broken by neighbor id ascending."""
    qid, qm = _collect_queries(embeddings, query_ids, id_col, vec_col)
    qn = _norm_rows(qm)
    ref = ray.put((qid, qn))

    def _local(t: pa.Table) -> pa.Table:
        qids, qmat = ray.get(ref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        m = _vec_matrix(t.column(vec_col))
        if len(m) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        sims = qmat @ _norm_rows(m).T  # (q, m)
        sims[qids[:, None] == ids[None, :]] = -np.inf  # exclude self
        take = min(k, sims.shape[1])
        ord_ = np.lexsort((np.broadcast_to(ids, sims.shape), -sims), axis=1)[:, :take]
        rows = np.repeat(np.arange(len(qids)), take)
        cols = ord_.ravel()
        keep = ~np.isinf(sims[rows, cols])
        return pa.table(
            {
                "query_id": pa.array(np.repeat(qids, take)[keep]),
                "neighbor_id": pa.array(ids[cols][keep]),
                "sim": pa.array(sims[rows, cols][keep]),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        s = t.column("sim").to_numpy(zero_copy_only=False)
        nb = t.column("neighbor_id").to_numpy(zero_copy_only=False)
        ord_ = np.lexsort((nb, -s))[:k]
        out = t.take(pa.array(ord_))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(ord_) + 1, dtype=np.int64))
        )

    return (
        embeddings.map_batches(_local, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(_merge, batch_format="pyarrow")
    )


def hard_negative_topk(
    embeddings: ray.data.Dataset,
    query_ids,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
) -> ray.data.Dataset:
    """Hard-negative mining for contrastive training: for every query
    embedding, the top-k most cosine-similar vectors of a DIFFERENT
    label — the classic in-batch-negatives upgrade (highest-similarity
    cross-label candidates are the hardest negatives). Same exact
    brute-force plan as :func:`ann_topk` (the label test replaces the
    self test): (query_id, neighbor_id, rank, sim), ties broken by
    neighbor id ascending.

    100 TB shape: queries + labels broadcast once via ray.put; one
    streaming matmul pass over embedding blocks emits per-block top-k
    partials; ONE small groupby(query_id) merge. Never all-pairs."""
    import numpy as _np

    qarr = _np.asarray(sorted(set(int(q) for q in query_ids)),
                       dtype=_np.int64)

    def _sel(t):
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_np.isin(ids, qarr)))

    rows = embeddings.map_batches(_sel, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: r[id_col])
    qid = np.array([r[id_col] for r in rows], dtype=np.int64)
    qlab = np.array([r[label_col] for r in rows], dtype=np.int64)
    qm = np.array([r[vec_col] for r in rows], dtype=np.float64)
    ref = ray.put((qid, qlab, _norm_rows(qm)))

    def _local(t: pa.Table) -> pa.Table:
        qids, qlabs, qmat = ray.get(ref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        lab = t.column(label_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        m = _vec_matrix(t.column(vec_col))
        if len(m) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        sims = qmat @ _norm_rows(m).T  # (q, m)
        sims[qlabs[:, None] == lab[None, :]] = -np.inf  # same-label out
        take = min(k, sims.shape[1])
        ord_ = np.lexsort(
            (np.broadcast_to(ids, sims.shape), -sims), axis=1
        )[:, :take]
        rws = np.repeat(np.arange(len(qids)), take)
        cols = ord_.ravel()
        keep = ~np.isinf(sims[rws, cols])
        return pa.table({
            "query_id": pa.array(np.repeat(qids, take)[keep]),
            "neighbor_id": pa.array(ids[cols][keep]),
            "sim": pa.array(sims[rws, cols][keep]),
        })

    def _merge(t: pa.Table) -> pa.Table:
        s = t.column("sim").to_numpy(zero_copy_only=False)
        nb = t.column("neighbor_id").to_numpy(zero_copy_only=False)
        ord_ = np.lexsort((nb, -s))[:k]
        out = t.take(pa.array(ord_))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(ord_) + 1, dtype=np.int64))
        )

    return (
        embeddings.map_batches(_local, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(_merge, batch_format="pyarrow")
    )


def ann_lsh_topk(
    embeddings: ray.data.Dataset,
    query_ids,
    k: int = 5,
    n_planes: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 5,
    dim: int | None = None,
) -> ray.data.Dataset:
    """Approximate cosine top-k: scan only blocks rows whose random-
    hyperplane signature matches a query signature in ≥1 of 4 bands."""
    qid, qm = _collect_queries(embeddings, query_ids, id_col, vec_col)
    qn = _norm_rows(qm)
    d = qm.shape[1] if dim is None else dim
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((d, n_planes))
    qsig = (qn @ planes > 0).astype(np.uint64)
    pw = np.uint64(1) << np.arange(n_planes, dtype=np.uint64)
    band_bits = n_planes // 4
    qbands = np.stack(
        [
            (qsig[:, b * band_bits: (b + 1) * band_bits]
             * pw[: band_bits]).sum(axis=1)
            for b in range(4)
        ],
        axis=1,
    )  # (q, 4)
    ref = ray.put((qid, qn, planes, qbands))

    def _local(t: pa.Table) -> pa.Table:
        qids, qmat, pl, qb = ray.get(ref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        m = _vec_matrix(t.column(vec_col))
        if len(m) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        mn = _norm_rows(m)
        sig = (mn @ pl > 0).astype(np.uint64)
        mb = np.stack(
            [
                (sig[:, b * band_bits: (b + 1) * band_bits]
                 * pw[: band_bits]).sum(axis=1)
                for b in range(4)
            ],
            axis=1,
        )
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qids)):
            cand = (mb == qb[qi][None, :]).any(axis=1)
            cand &= ids != qids[qi]
            if not cand.any():
                continue
            ci = np.flatnonzero(cand)
            sims = mn[ci] @ qmat[qi]
            take = min(k, len(ci))
            ord_ = np.lexsort((ids[ci], -sims))[:take]
            out_q.append(np.full(take, qids[qi]))
            out_n.append(ids[ci][ord_])
            out_s.append(sims[ord_])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "neighbor_id": pa.array(np.concatenate(out_n)),
                "sim": pa.array(np.concatenate(out_s)),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        s = t.column("sim").to_numpy(zero_copy_only=False)
        nb = t.column("neighbor_id").to_numpy(zero_copy_only=False)
        ord_ = np.lexsort((nb, -s))[:k]
        out = t.take(pa.array(ord_))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(ord_) + 1, dtype=np.int64))
        )

    return (
        embeddings.map_batches(_local, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(_merge, batch_format="pyarrow")
    )


def cosine_dup_pairs(
    embeddings: ray.data.Dataset,
    threshold: float,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    chunk_rows: int = 65536,
) -> ray.data.Dataset:
    """Embedding-cosine near-duplicate pairs: directed (id_a, id_b) with
    cosine similarity ≥ threshold, a ≠ b.

    Exact blocked-matmul plan, memory-bounded at every hop: the corpus is
    streamed through the driver ONE CHUNK AT A TIME (``iter_batches`` —
    never a whole-table ``take_all``) and each normalized chunk is
    ``ray.put`` once; a single ``map_batches`` pass then matmuls every
    data block against each chunk ref in turn. Work is the inherent
    O(n²/chunk) of an exact all-pairs scan, but no worker (or the driver)
    ever holds more than one chunk + one batch, and chunks live in the
    object store (spillable, fetched zero-copy per node). For the
    approximate sub-quadratic path see ``cosine_dup_pairs_lsh``.
    """
    chunk_refs = []
    for b in embeddings.select_columns([id_col, vec_col]).iter_batches(
        batch_size=chunk_rows, batch_format="pyarrow"
    ):
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            continue
        m = _norm_rows(_vec_matrix(b.column(vec_col)))
        chunk_refs.append(ray.put((ids, m)))

    def _scan(t: pa.Table) -> pa.Table:
        qid = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        qm = _norm_rows(
            _vec_matrix(t.column(vec_col))
        )
        out_a, out_b = [], []
        for ref in chunk_refs:
            aids, am = ray.get(ref)
            sims = qm @ am.T
            hit = sims >= threshold
            hit &= qid[:, None] != aids[None, :]
            r, c = np.nonzero(hit)
            out_a.append(qid[r])
            out_b.append(aids[c])
        if not out_a:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a)),
                "id_b": pa.array(np.concatenate(out_b)),
            }
        )

    return embeddings.map_batches(_scan, batch_format="pyarrow")


# above this corpus size the exact O(n²/chunk) all-pairs plan stops being
# the right default; the LSH band-bucket plan takes over (the minhash
# verify's VERIFY_BROADCAST_PAIRS size-switch pattern)
COSINE_EXACT_MAX_ROWS = 200_000


def cosine_dup_pairs_auto(
    embeddings: ray.data.Dataset,
    threshold: float,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exact_max_rows: int = COSINE_EXACT_MAX_ROWS,
) -> ray.data.Dataset:
    """Size-switched near-duplicate pairs: EXACT blocked-matmul below
    ``exact_max_rows`` corpus rows (where O(n²) compute and the chunk-ref
    object-store pins are cheap), the sub-quadratic LSH band-bucket plan
    above (approximate; recall pinned vs exact in pytest). This is the
    default entry a pipeline should call — neither branch materializes
    the corpus on the driver."""
    n = embeddings.count()
    if n <= exact_max_rows:
        return cosine_dup_pairs(embeddings, threshold, id_col, vec_col)
    return cosine_dup_pairs_lsh(embeddings, threshold, id_col, vec_col)


def cosine_dup_pairs_lsh(
    embeddings: ray.data.Dataset,
    threshold: float,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_planes: int = 16,
    bands: int = 4,
    seed: int = 5,
    dim: int | None = None,
) -> ray.data.Dataset:
    """Approximate near-duplicate pairs — the sub-quadratic scale path.

    Random-hyperplane (SimHash) signatures; each vector is emitted into
    ``bands`` band buckets; ONE groupby((band, bucket)) co-locates
    candidates; per bucket a single matmul emits directed pairs with
    cosine ≥ threshold; a final groupby dedups pairs found in several
    bands. Work is Σ bucket², not corpus² — recall governed by
    ``n_planes``/``bands`` (more bands → higher recall, more shuffle).
    Same output schema as the exact ``cosine_dup_pairs``.
    """
    if dim is None:
        dim = len(embeddings.take(1)[0][vec_col])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_planes))
    band_bits = n_planes // bands
    pw = np.uint64(1) << np.arange(band_bits, dtype=np.uint64)
    pref = ray.put(planes)

    def _emit(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table(
                {"band": pa.array([], pa.int64()),
                 "bucket": pa.array([], pa.int64()),
                 id_col: pa.array([], pa.int64()),
                 vec_col: pa.array([], pa.list_(pa.float64()))}
            )
        pl = ray.get(pref)
        mn = _norm_rows(_vec_matrix(t.column(vec_col)))
        sig = (mn @ pl > 0).astype(np.uint64)
        vec_list = pa.array(mn.tolist(), pa.list_(pa.float64()))
        parts = []
        for b in range(bands):
            bk = (sig[:, b * band_bits: (b + 1) * band_bits] * pw).sum(axis=1)
            parts.append(
                pa.table(
                    {
                        "band": pa.array(np.full(len(ids), b, dtype=np.int64)),
                        "bucket": pa.array(bk.astype(np.int64)),
                        id_col: pa.array(ids),
                        vec_col: vec_list,
                    }
                )
            )
        return pa.concat_tables(parts)

    tiled = embeddings.select_columns([id_col, vec_col]).map_batches(
        _emit, batch_format="pyarrow"
    )

    def _bucket_pairs(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64())})
        if len(ids) < 2:
            return empty
        mn = _vec_matrix(t.column(vec_col))
        out_a, out_b = [], []
        # chunk the probe side so a hot bucket never allocates a B×B matrix
        for s in range(0, len(ids), 1024):
            q = slice(s, s + 1024)
            sims = mn[q] @ mn.T
            hit = sims >= threshold
            hit &= ids[q, None] != ids[None, :]
            r, c = np.nonzero(hit)
            out_a.append(ids[q][r])
            out_b.append(ids[c])
        if not out_a:
            return empty
        return pa.table({"id_a": pa.array(np.concatenate(out_a)),
                         "id_b": pa.array(np.concatenate(out_b))})

    return (
        tiled.groupby(["band", "bucket"])
        .map_groups(_bucket_pairs, batch_format="pyarrow")
        .groupby(["id_a", "id_b"])
        .count()
        .select_columns(["id_a", "id_b"])
    )


def ann_ivf_topk(
    embeddings: ray.data.Dataset,
    query_ids,
    k: int = 5,
    n_centroids: int = 64,
    nprobe: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 11,
) -> ray.data.Dataset:
    """IVF (inverted-file) approximate cosine top-k — the
    coarse-quantizer scale path alongside ``ann_lsh_topk``.

    1. centroids = a deterministic uniform sample of ``n_centroids``
       vectors (smallest splitmix64(id ^ seed) — computable per block,
       merged once on the driver: bounded, no corpus materialization);
    2. every vector is assigned to its nearest centroid inside one
       ``map_batches`` pass against the broadcast centroid matrix;
    3. each query probes its ``nprobe`` nearest centroids and scans ONLY
       vectors assigned to those lists; per-block local top-k + one
       groupby(query) merge, exactly like the exact path.

    Recall grows with nprobe (nprobe = n_centroids ⇒ exact). Same output
    schema as ``ann_topk``.
    """
    from libpysal_ray.core.hashing import splitmix64

    qid, qm = _collect_queries(embeddings, query_ids, id_col, vec_col)
    qn = _norm_rows(qm)

    # 1. deterministic centroid sample (block-local top-C by hash, one
    # small driver merge)
    def _cand(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "__h": pa.array([], pa.int64()),
                             vec_col: t.column(vec_col)})
        h = splitmix64(ids.view(np.uint64) ^ np.uint64(seed))
        order = np.argsort(h)[:n_centroids]
        sub = t.take(pa.array(order))
        return pa.table(
            {
                id_col: sub.column(id_col),
                "__h": pa.array((h[order] >> np.uint64(1)).astype(np.int64)),
                vec_col: sub.column(vec_col),
            }
        )

    crows = (
        embeddings.select_columns([id_col, vec_col])
        .map_batches(_cand, batch_format="pyarrow")
        .take_all()
    )
    crows.sort(key=lambda r: r["__h"])
    crows = crows[:n_centroids]
    cm = _norm_rows(np.array([r[vec_col] for r in crows], dtype=np.float64))
    cref = ray.put(cm)
    qprobe = np.argsort(-(qn @ cm.T), axis=1)[:, :nprobe]  # (q, nprobe)
    qref = ray.put((qid, qn, qprobe))

    def _local(t: pa.Table) -> pa.Table:
        cm_ = ray.get(cref)
        qids, qmat, probe = ray.get(qref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        mn = _norm_rows(_vec_matrix(t.column(vec_col)))
        assign = np.argmax(mn @ cm_.T, axis=1)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qids)):
            cand = np.isin(assign, probe[qi]) & (ids != qids[qi])
            if not cand.any():
                continue
            ci = np.flatnonzero(cand)
            sims = mn[ci] @ qmat[qi]
            take = min(k, len(ci))
            ord_ = np.lexsort((ids[ci], -sims))[:take]
            out_q.append(np.full(take, qids[qi]))
            out_n.append(ids[ci][ord_])
            out_s.append(sims[ord_])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "neighbor_id": pa.array(np.concatenate(out_n)),
                "sim": pa.array(np.concatenate(out_s)),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        s = t.column("sim").to_numpy(zero_copy_only=False)
        nb = t.column("neighbor_id").to_numpy(zero_copy_only=False)
        ord_ = np.lexsort((nb, -s))[:k]
        out = t.take(pa.array(ord_))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(ord_) + 1, dtype=np.int64))
        )

    return (
        embeddings.map_batches(_local, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(_merge, batch_format="pyarrow")
    )


def assign_to_centroids(
    embeddings: ray.data.Dataset,
    centroid_ids,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """(vec_id, centroid_id): every vector assigned to its most-cosine-
    similar centroid (ties → lowest centroid id) — the cluster-assignment
    stage of k-means / IVF partitioning as a standalone operator. The
    centroid matrix broadcasts once (ray.put); each batch is one matmul +
    argmax. Output is integer-only so it hash-compares exactly."""
    cid, cm = _collect_queries(embeddings, centroid_ids, id_col, vec_col)
    cn = _norm_rows(cm)
    ref = ray.put((cid, cn))

    def _assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "centroid_id": pa.array([], pa.int64()),
            })
        cids, cmat = ray.get(ref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        m = _norm_rows(_vec_matrix(t.column(vec_col)))
        sims = m @ cmat.T
        # argmax with ties to the LOWEST centroid id: cids is sorted
        # ascending and np.argmax takes the first maximum
        best = cids[np.argmax(sims, axis=1)]
        return pa.table({
            "vec_id": pa.array(ids),
            "centroid_id": pa.array(best.astype(np.int64)),
        })

    return embeddings.select_columns([id_col, vec_col]).map_batches(
        _assign, batch_format="pyarrow"
    )


def semdedup(
    embeddings: ray.data.Dataset,
    centroid_ids,
    threshold: float,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_cluster_rows: int = 200_000,
) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540 semantics): assign
    every vector to its most-cosine-similar centroid, then WITHIN each
    cluster drop every vector that has a lower-id cluster-mate with
    cosine similarity ≥ threshold (survivor = lowest id per semantic
    duplicate group, transitively within the cluster partition).
    Returns (vec_id, centroid_id, keep) — integers/bool only, so it
    hash-compares exactly.

    Physical plan: the centroid matrix broadcasts once (ray.put) and
    assignment is a stateless matmul+argmax per batch (ties → lowest
    centroid id, matching assign_to_centroids); ONE grouped_by_key
    shuffle on centroid_id co-locates each cluster; per cluster a
    blocked lower-triangular matmul marks duplicates. The per-cluster
    comparison is quadratic BY THE ALGORITHM'S DEFINITION — cluster
    size is governed by the centroid count, guarded loudly at
    ``max_cluster_rows`` (pick more centroids rather than letting one
    cluster swallow the corpus)."""
    cid, cm = _collect_queries(embeddings, centroid_ids, id_col, vec_col)
    cn = _norm_rows(cm)
    ref = ray.put((cid, cn))
    th = float(threshold)

    def _assign_keep_vec(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "centroid_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    vec_col: pa.array([], t.schema.field(vec_col).type),
                }
            )
        cids, cmat = ray.get(ref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        m = _norm_rows(
            _vec_matrix(t.column(vec_col))
        )
        best = cids[np.argmax(m @ cmat.T, axis=1)]
        return pa.table(
            {
                "centroid_id": pa.array(best.astype(np.int64)),
                "vec_id": pa.array(ids),
                vec_col: t.column(vec_col),
            }
        )

    tagged = embeddings.select_columns([id_col, vec_col]).map_batches(
        _assign_keep_vec, batch_format="pyarrow"
    )

    def _cluster_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "centroid_id": pa.array([], pa.int64()),
                    "keep": pa.array([], pa.bool_()),
                }
            )
        cc = t.column("centroid_id").to_numpy(zero_copy_only=False)
        vv = t.column("vec_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((vv, cc))
        cc, vv = cc[order], vv[order]
        V = _norm_rows(
            _vec_matrix(t.column(vec_col))
        )[order]
        dup = np.zeros(len(vv), dtype=bool)
        starts = np.flatnonzero(
            np.concatenate([[True], cc[1:] != cc[:-1]])
        )
        ends = np.append(starts[1:], len(cc))
        for s, e in zip(starts, ends):
            c = e - s
            if c > max_cluster_rows:
                raise ValueError(
                    f"semdedup: cluster {int(cc[s])} holds {c} vectors "
                    f"(> max_cluster_rows={max_cluster_rows}); use more "
                    "centroids"
                )
            G = V[s:e]
            # blocked lower-triangular pass: row i duplicates iff some
            # j < i (lower vec_id — rows are id-sorted) has sim >= th
            for b0 in range(1, c, 512):
                b1 = min(b0 + 512, c)
                sims = G[b0:b1] @ G[:b1].T
                jj = np.arange(b1)[None, :]
                ii = np.arange(b0, b1)[:, None]
                dup[s + b0: s + b1] |= (
                    (sims >= th) & (jj < ii)
                ).any(axis=1)
        return pa.table(
            {
                "vec_id": pa.array(vv),
                "centroid_id": pa.array(cc),
                "keep": pa.array(~dup),
            }
        )

    from libpysal_ray.core.joins import grouped_by_key

    return grouped_by_key(tagged, ["centroid_id"], _cluster_kernel)


def emb_clusters(
    embeddings: ray.data.Dataset,
    threshold: float = 0.4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Semantic cluster discovery — the cross-domain composition the
    engine is built for: the cosine ≥ threshold pair graph (size-
    switched exact/LSH, ``cosine_dup_pairs_auto``) fed into RayGraph's
    DISTRIBUTED connected components (min-label propagation with
    pointer jumping). Output (id, cluster) for every vector, cluster =
    the minimum member id; singletons are their own cluster."""
    from libpysal_ray.core import edges as E
    from libpysal_ray.core.graph import RayGraph

    pairs = cosine_dup_pairs_auto(
        embeddings, threshold=threshold, id_col=id_col, vec_col=vec_col
    )

    def _as_edges(t: pa.Table) -> pa.Table:
        # pairs are already directed both ways (a != b scan)
        return E.edge_table(
            t.column("id_a").to_numpy(zero_copy_only=False),
            t.column("id_b").to_numpy(zero_copy_only=False),
            1.0,
        )

    ids = embeddings.select_columns([id_col]).rename_columns(
        {id_col: "focal"}
    )
    g = RayGraph(
        pairs.map_batches(_as_edges, batch_format="pyarrow"), ids=ids,
    )
    _n, labels = g.n_components()
    return labels.map_batches(
        lambda t: pa.table({
            id_col: t.column("focal"),
            "cluster": t.column("component"),
        }),
        batch_format="pyarrow",
    )


def dbscan_embeddings(
    embeddings: ray.data.Dataset,
    threshold: float = 0.4,
    min_pts: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """DBSCAN (Ester et al. 1996) over an embedding column with the
    cosine-similarity neighborhood {j : cos(i,j) ≥ threshold, j ≠ i}:

    - CORE points have ≥ min_pts points in their closed neighborhood
      (themselves + neighbors, the classic definition);
    - clusters are the connected components of the core-core ε-graph,
      labeled by their minimum core id;
    - BORDER points (non-core with ≥1 core neighbor) join the MINIMUM
      cluster label among their core neighbors — a deterministic pick
      of the classic's arbitrary assignment, so the output is
      layout-invariant and SQL-oracle-exact;
    - everything else is NOISE (cluster −1).

    Output (id_col, cluster, role['core'|'border'|'noise']).

    100 TB shape: the ε-pair graph comes from ``cosine_dup_pairs_auto``
    (size-switched exact / LSH-banded — never all-pairs at scale);
    degrees are ONE groupby(id).count(); core flags attach back to the
    pair stream via bucket_joins (two semi-join passes); components run
    through RayGraph.n_components (one min-label task on a bounded graph,
    local-contraction supersteps otherwise); border labels are ONE more bucket_join + groupby.min.
    No driver-side state beyond scalars."""
    from libpysal_ray.core import edges as E
    from libpysal_ray.core.graph import RayGraph
    from libpysal_ray.core.joins import bucket_join

    pairs = cosine_dup_pairs_auto(
        embeddings, threshold=threshold, id_col=id_col, vec_col=vec_col
    ).map_batches(
        lambda t: t.select(["id_a", "id_b"]), batch_format="pyarrow"
    ).materialize()

    def _empty(**cols) -> ray.data.Dataset:
        return ray.data.from_arrow(pa.table(
            {c: pa.array([], ty) for c, ty in cols.items()}
        ))

    def _all_noise(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            id_col: pa.compute.cast(t.column(id_col), pa.int64()),
            "cluster": pa.array(np.full(n, -1, dtype=np.int64)),
            "role": pa.array(np.full(n, "noise")),
        })

    if pairs.schema(fetch_if_missing=True) is None or pairs.count() == 0:
        # no point has ANY eps-neighbor -> everything is noise
        return embeddings.map_batches(_all_noise, batch_format="pyarrow")

    # closed-neighborhood size = directed out-degree + 1 (self)
    deg = pairs.groupby("id_a").count().map_batches(
        lambda t: pa.table({
            "node": t.column("id_a"),
            "is_core": pa.array(
                (t.column("count()").to_numpy(zero_copy_only=False) + 1
                 >= min_pts).astype(np.int64)
            ),
        }),
        batch_format="pyarrow",
    ).materialize()
    if deg.schema(fetch_if_missing=True) is None:
        deg = _empty(node=pa.int64(), is_core=pa.int64())

    # tag each pair endpoint with its core flag (isolated ids never
    # appear in pairs, so the inner joins lose nothing)
    tagged = bucket_join(
        bucket_join(
            pairs,
            deg.map_batches(
                lambda t: pa.table({
                    "id_a": t.column("node"), "core_a": t.column("is_core"),
                }),
                batch_format="pyarrow",
            ),
            on="id_a",
        ),
        deg.map_batches(
            lambda t: pa.table({
                "id_b": t.column("node"), "core_b": t.column("is_core"),
            }),
            batch_format="pyarrow",
        ),
        on="id_b",
    ).materialize()

    def _corecore(t: pa.Table) -> pa.Table:
        keep = pa.compute.and_(
            pa.compute.equal(t.column("core_a"), 1),
            pa.compute.equal(t.column("core_b"), 1),
        )
        k = t.filter(keep)
        return E.edge_table(
            k.column("id_a").to_numpy(zero_copy_only=False),
            k.column("id_b").to_numpy(zero_copy_only=False),
            1.0,
        )

    core_ids = deg.map_batches(
        lambda t: t.filter(
            pa.compute.equal(t.column("is_core"), 1)
        ).select(["node"]).rename_columns(["focal"]),
        batch_format="pyarrow",
    )
    cg = RayGraph(
        tagged.map_batches(_corecore, batch_format="pyarrow"), ids=core_ids
    )
    _n, labels = cg.n_components()
    corelab = labels.map_batches(
        lambda t: pa.table({
            "node": t.column("focal"), "cluster": t.column("component"),
        }),
        batch_format="pyarrow",
    ).materialize()
    if corelab.schema(fetch_if_missing=True) is None:
        # no core points at all -> typed empty side for the left joins
        corelab = _empty(node=pa.int64(), cluster=pa.int64())

    # border: non-core endpoint a with a core neighbor b -> min cluster
    corelab_b = corelab.map_batches(
        lambda t: pa.table({
            "id_b": t.column("node"), "cluster": t.column("cluster"),
        }),
        batch_format="pyarrow",
    ).materialize()
    if corelab_b.schema(fetch_if_missing=True) is None:
        corelab_b = _empty(id_b=pa.int64(), cluster=pa.int64())
    border = bucket_join(
        tagged.map_batches(
            lambda t: t.filter(pa.compute.and_(
                pa.compute.equal(t.column("core_a"), 0),
                pa.compute.equal(t.column("core_b"), 1),
            )).select(["id_a", "id_b"]),
            batch_format="pyarrow",
        ),
        corelab_b,
        on="id_b",
    ).groupby("id_a").min("cluster").map_batches(
        lambda t: pa.table({
            "node": t.column("id_a"), "bcluster": t.column("min(cluster)"),
        }),
        batch_format="pyarrow",
    ).materialize()
    if border.schema(fetch_if_missing=True) is None:
        border = _empty(node=pa.int64(), bcluster=pa.int64())

    ids = embeddings.map_batches(
        lambda t: pa.table({
            "node": pa.compute.cast(t.column(id_col), pa.int64()),
        }),
        batch_format="pyarrow",
    )
    out = bucket_join(
        bucket_join(ids, corelab, on="node", how="left"),
        border, on="node", how="left",
    )

    def _final(t: pa.Table) -> pa.Table:
        core = t.column("cluster").to_numpy(zero_copy_only=False)
        bord = t.column("bcluster").to_numpy(zero_copy_only=False)
        has_core = pa.compute.is_valid(t.column("cluster")).to_numpy(
            zero_copy_only=False
        )
        has_bord = pa.compute.is_valid(t.column("bcluster")).to_numpy(
            zero_copy_only=False
        )
        lab = np.full(t.num_rows, -1, dtype=np.int64)
        lab[has_bord] = bord[has_bord].astype(np.int64)
        lab[has_core] = core[has_core].astype(np.int64)
        role = np.where(
            has_core, "core", np.where(has_bord, "border", "noise")
        )
        return pa.table({
            id_col: t.column("node"),
            "cluster": pa.array(lab),
            "role": pa.array(role),
        })

    return out.map_batches(_final, batch_format="pyarrow")
