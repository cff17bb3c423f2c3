"""Deduplication operators for training-data pipelines.

* exact_dedup — content-hash partition + per-group min-id survivor.
  One groupby shuffle on a vectorized 128-bit composite digest;
  survivors and duplicate counts come out of the same pass.
* minhash_lsh_pairs — shingle → minhash (m permutations via universal
  hashing of md5-based shingle ids) → band buckets → candidate pairs by
  bucket groupby → exact-Jaccard verify per pair. Classic MinHash+LSH
  (Broder 1997); all stages are map_batches + ONE groupby(bucket) +
  ONE groupby(pair).
* simhash64 — 64-bit SimHash (Charikar 2002) over token md5 bits;
  near-dup candidates = identical value on any of 4 16-bit bands.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

_MERSENNE61 = np.uint64((1 << 61) - 1)

# below this many candidate pairs, near-dup verify collects the (bounded)
# endpoint signatures / shingle sets once and broadcasts them; above it,
# distributed bucket_joins run with no driver materialization at any size
VERIFY_BROADCAST_PAIRS = 100_000


def exact_dedup(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """(doc_id, n_dupes): per identical-text group, the minimum id survives
    with the duplicate count. One shuffle on the digest, native Min/Count
    aggregates (partial pre-aggregation per block, no per-group Python).

    The digest is a 128-bit vectorized content hash — two independently
    seeded 64-bit hashes as a composite group key (16 bytes vs a 32-char
    md5 hex, no per-row Python). At 10^12 documents the expected number
    of 128-bit birthday collisions is ~n^2/2^129 ≈ 1e-15, so the
    grouping matches the oracle's GROUP BY md5(text); a single 64-bit
    key would NOT (expected ~2.7e4 collisions at that scale). The hash
    values are engine-internal (only equality matters — the output is
    min-id + count per group), so this uses the ~GB/s
    ``fast_text_digest_u64``, not the SQL-mirrored byte mix."""
    from ray.data.aggregate import Count, Min

    from libpysal_ray.core.hashing import fast_text_digest_u64

    def _h(t: pa.Table) -> pa.Table:
        h1 = fast_text_digest_u64(t.column(text_col)).view(np.int64)
        h2 = fast_text_digest_u64(t.column(text_col),
                                  seed=0x5851F42D).view(np.int64)
        return pa.table({
            id_col: t.column(id_col),
            "text_h": pa.array(h1),
            "text_h2": pa.array(h2),
        })

    hashed = ds.map_batches(_h, batch_format="pyarrow")
    g = hashed.groupby(["text_h", "text_h2"]).aggregate(
        Min(id_col), Count()
    )
    return g.rename_columns(
        {f"min({id_col})": id_col, "count()": "n_dupes"}
    ).select_columns([id_col, "n_dupes"])


def _flat_shingles(col, k: int):
    """Vectorized k-token shingle hashes for a whole batch.

    Returns (sh uint64, sh_doc int64, n_docs): one row per shingle
    WINDOW (duplicates kept — min-hash is unaffected by multiplicity;
    exact-Jaccard callers unique per doc), sorted by document. Tokens
    hash via the flat Arrow tokenizer (core.hashing.tokenize_hash — no
    per-token Python); windows combine k consecutive token hashes with
    k shifted splitmix rounds. Docs with 0 < L < k tokens fold all L
    tokens into one shingle (the reference's join-all fallback)."""
    from libpysal_ray.core.hashing import splitmix64, tokenize_hash

    th, off = tokenize_hash(col)
    n_docs = len(off) - 1
    lens = np.diff(off)
    total = len(th)
    parts_h, parts_d = [], []
    if total >= k:
        W = total - k + 1
        acc = np.zeros(W, np.uint64)
        for j in range(k):
            acc = splitmix64(acc ^ th[j: j + W])
        doc_of = np.repeat(np.arange(n_docs), lens)
        valid = doc_of[:W] == doc_of[k - 1:]
        parts_h.append(acc[valid])
        parts_d.append(doc_of[:W][valid])
    short = np.flatnonzero((lens > 0) & (lens < k))
    for d in short:
        seg = th[off[d]: off[d + 1]]
        a = np.zeros(1, np.uint64)
        for x in seg:
            a = splitmix64(a ^ x)
        parts_h.append(a)
        parts_d.append(np.array([d], np.int64))
    if not parts_h:
        return (np.empty(0, np.uint64), np.empty(0, np.int64), n_docs)
    sh = np.concatenate(parts_h)
    sd = np.concatenate(parts_d)
    order = np.argsort(sd, kind="stable")
    return sh[order], sd[order], n_docs


def _perm_params(m: int, seed: int = 13) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, m, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, (1 << 61) - 1, m, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signatures(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    m: int = 64,
    seed: int = 13,
) -> ray.data.Dataset:
    """(doc_id, sig: list<int64>[m]) — FULLY vectorized across the batch:
    flat shingle hashes (see _flat_shingles) → (shingles, m) universal
    hash matrix → per-doc min via np.minimum.reduceat over the doc
    segments. No per-document Python; peak memory bounded by chunking
    the shingle rows."""
    a, b = _perm_params(m, seed)

    def _f(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        sh, sd, n_docs = _flat_shingles(t.column(text_col), k)
        sig = np.zeros((n_docs, m), dtype=np.int64)
        if len(sh):
            counts = np.bincount(sd, minlength=n_docs)
            seg = np.concatenate([[0], np.cumsum(counts)])[:-1]
            ne = counts > 0
            # chunk over shingle rows so (rows × m) stays ~32 MB
            step = max(1, 65536)
            doc_starts = seg[ne]
            # process contiguous shingle ranges aligned to doc boundaries
            lo = 0
            d_idx = np.flatnonzero(ne)
            while lo < len(d_idx):
                hi = lo
                row0 = seg[d_idx[lo]]
                row1 = row0
                while hi < len(d_idx) and row1 - row0 < step:
                    row1 = seg[d_idx[hi]] + counts[d_idx[hi]]
                    hi += 1
                hh = sh[row0:row1]
                v = (
                    a[None, :] * (hh[:, None] & _MERSENNE61) + b[None, :]
                ) % _MERSENNE61
                starts_rel = seg[d_idx[lo:hi]] - row0
                mins = np.minimum.reduceat(v, starts_rel, axis=0)
                sig[d_idx[lo:hi]] = mins.astype(np.int64)
                lo = hi
        return pa.table(
            {
                id_col: pa.array(ids.astype(np.int64)),
                "sig": pa.array(sig.tolist(), pa.list_(pa.int64())),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        _f, batch_format="pyarrow"
    )


def _list_col_matrix(col, m: int) -> np.ndarray:
    """Fixed-length list<int64> column → (n, m) numpy, zero-copy per chunk."""
    ch = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(ch, pa.ChunkedArray):  # 0-chunk edge
        return np.empty((0, m), dtype=np.int64)
    flat = ch.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(-1, m)


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    m: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.5,
    seed: int = 13,
    max_bucket: int = 10_000,
) -> ray.data.Dataset:
    """Near-duplicate pairs (a, b, jaccard) with a < b.

    signatures → per-band bucket keys (md5 of the band slice) → ONE
    groupby(band, bucket) emits candidate pairs → dedup pairs →
    signature-estimated Jaccard verify (mean matching minhashes — the
    standard scalable verify; see ngram_jaccard_pairs for the exact
    shingle-set verify built on top of this).

    The verify is size-switched (VERIFY_BROADCAST_PAIRS): above the
    threshold, candidate pairs are bucket-joined against the signature
    Dataset on each endpoint and compared with one vectorized matrix
    equality per batch — no driver-side signature map, no whole-corpus
    materialization at any size; below it, the BOUNDED endpoint
    signatures are collected through a filtered stream and broadcast
    (verification still runs vectorized inside map_batches).

    Buckets larger than ``max_bucket`` emit STAR pairs (every member ↔ the
    bucket minimum) instead of the full O(B²) cross product: near-dup
    cluster connectivity is preserved at O(B) output, and nothing is
    silently dropped.
    """
    sigs = minhash_signatures(ds, id_col, text_col, k, m, seed).materialize()
    rows_per_band = m // bands

    def _buckets(t: pa.Table) -> pa.Table:
        """Vectorized band keys: chained splitmix over each band's
        signature columns (one pass per band over the whole batch)."""
        from libpysal_ray.core.hashing import splitmix64

        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        sig = _list_col_matrix(t.column("sig"), m).view(np.uint64)
        out_b, out_h, out_i = [], [], []
        for bnd in range(bands):
            acc = np.full(len(ids), np.uint64(bnd + 1))
            for j in range(bnd * rows_per_band, (bnd + 1) * rows_per_band):
                acc = splitmix64(acc ^ sig[:, j])
            out_b.append(np.full(len(ids), bnd, dtype=np.int64))
            out_h.append((acc >> np.uint64(1)).astype(np.int64))
            out_i.append(ids)
        return pa.table(
            {
                "band": pa.array(np.concatenate(out_b)),
                "bucket": pa.array(np.concatenate(out_h)),
                id_col: pa.array(np.concatenate(out_i)),
            }
        )

    def _pairs_multi(t: pa.Table) -> pa.Table:
        """Vectorized pair emission over MANY (band, bucket) groups at
        once — no per-group Python (LSH has thousands of tiny groups, so
        a per-group fn dominates wall time on either execution path).
        Groups over ``max_bucket`` distinct ids emit STAR pairs (every
        member ↔ the group minimum): O(B) output, cluster connectivity
        preserved, nothing silently dropped."""
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        band = t.column("band").to_numpy(zero_copy_only=False)
        buck = t.column("bucket").to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, buck, band))
        b_, k_, i_ = band[order], buck[order], ids[order]
        # drop duplicate ids within a group
        keep = np.ones(len(i_), bool)
        keep[1:] = (b_[1:] != b_[:-1]) | (k_[1:] != k_[:-1]) | (i_[1:] != i_[:-1])
        b_, k_, i_ = b_[keep], k_[keep], i_[keep]
        n = len(i_)
        newg = np.ones(n, bool)
        newg[1:] = (b_[1:] != b_[:-1]) | (k_[1:] != k_[:-1])
        starts = np.flatnonzero(newg)
        sizes = np.diff(np.append(starts, n))
        gid = np.cumsum(newg) - 1
        m = sizes[gid]
        rank = np.arange(n) - starts[gid]
        is_star = m > max_bucket
        # normal groups (2 <= size <= max_bucket): per element, partners
        # are the rank>own positions — classic segment expansion
        cnt = np.where(~is_star & (m >= 2), m - 1 - rank, 0)
        total = int(cnt.sum())
        outs_a, outs_b = [], []
        if total:
            a = np.repeat(i_, cnt)
            base = np.repeat(np.arange(n) + 1, cnt)
            off = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            outs_a.append(a)
            outs_b.append(i_[base + off])
        srows = np.flatnonzero(is_star & (rank > 0))
        if len(srows):
            outs_a.append(i_[starts[gid[srows]]])  # group min id (sorted)
            outs_b.append(i_[srows])
        if not outs_a:
            return empty
        return pa.table({
            "a": pa.array(np.concatenate(outs_a).astype(np.int64)),
            "b": pa.array(np.concatenate(outs_b).astype(np.int64)),
        })

    from libpysal_ray.core.joins import grouped_agg, grouped_by_key

    _pairs_multi._size_expanding = True  # all-pairs per bucket
    cands = grouped_agg(
        # materialized: the pair emission is a marked size-expander; the
        # dedup aggregate would re-execute the lazy chain per pass
        grouped_by_key(
            sigs.map_batches(_buckets, batch_format="pyarrow"),
            ["band", "bucket"],
            _pairs_multi,
        ).materialize(),
        ("a", "b"),
        (None,),
        "count",
    ).select_columns(["a", "b"])

    # verify: signature-estimated jaccard. Size-switched like the
    # transform row sums: below VERIFY_BROADCAST_PAIRS candidate pairs
    # the (bounded) endpoint signatures are collected once via a filtered
    # stream and broadcast — verification still runs vectorized inside
    # map_batches; above it, two DISTRIBUTED bucket_joins attach sig_a /
    # sig_b with no driver materialization at any corpus size.
    from libpysal_ray.core import joins as J

    cands = cands.materialize()
    n_pairs = cands.count()

    def _verify_tbl(a_, b_, A, B):
        jac = (A == B).mean(axis=1) if len(a_) else np.empty(0)
        keep = jac >= jaccard_threshold
        return pa.table(
            {
                "a": pa.array(np.asarray(a_)[keep]),
                "b": pa.array(np.asarray(b_)[keep]),
                "jaccard": pa.array(jac[keep]),
            }
        )

    if n_pairs <= VERIFY_BROADCAST_PAIRS:
        crows = cands.take_all()
        need = np.unique(
            np.concatenate(
                [
                    np.array([r["a"] for r in crows], np.int64),
                    np.array([r["b"] for r in crows], np.int64),
                ]
            )
        ) if n_pairs else np.empty(0, np.int64)
        nref = ray.put(need)

        def _pick(t: pa.Table) -> pa.Table:
            na = ray.get(nref)
            ids_ = t.column(id_col).to_numpy(zero_copy_only=False)
            return t.filter(pa.array(np.isin(ids_, na)))

        rows = sigs.map_batches(_pick, batch_format="pyarrow").take_all()
        keys = np.array([r[id_col] for r in rows], np.int64)
        mat = np.array([r["sig"] for r in rows], np.int64).reshape(-1, m)
        order = np.argsort(keys)
        sref = ray.put((keys[order], mat[order]))

        def _verify_b(t: pa.Table) -> pa.Table:
            ks, ms = ray.get(sref)
            a_ = t.column("a").to_numpy(zero_copy_only=False)
            b_ = t.column("b").to_numpy(zero_copy_only=False)
            A = ms[np.searchsorted(ks, a_)]
            B = ms[np.searchsorted(ks, b_)]
            return _verify_tbl(a_, b_, A, B)

        return cands.map_batches(_verify_b, batch_format="pyarrow")

    sa = sigs.rename_columns({id_col: "a", "sig": "sig_a"})
    sb = sigs.rename_columns({id_col: "b", "sig": "sig_b"})
    j2 = J.bucket_join(J.bucket_join(cands, sa, on="a"), sb, on="b")

    def _verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"a": pa.array([], pa.int64()),
                 "b": pa.array([], pa.int64()),
                 "jaccard": pa.array([], pa.float64())}
            )
        A = _list_col_matrix(t.column("sig_a"), m)
        B = _list_col_matrix(t.column("sig_b"), m)
        return _verify_tbl(
            t.column("a").to_numpy(zero_copy_only=False),
            t.column("b").to_numpy(zero_copy_only=False),
            A, B,
        )

    return j2.map_batches(_verify, batch_format="pyarrow")


def simhash64(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """(doc_id, simhash, band0..band3): 64-bit SimHash (Charikar 2002) +
    16-bit bands for near-dup bucketing. FULLY vectorized: flat token
    hashes for the whole batch (core.hashing.tokenize_hash), per-doc
    UNIQUE tokens by lexsort-dedup, bitplane ±1 scatter-add per doc."""

    def _f(t: pa.Table) -> pa.Table:
        from libpysal_ray.core.hashing import tokenize_hash

        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        n_docs = t.num_rows
        th, off = tokenize_hash(t.column(text_col))
        out = np.zeros(n_docs, dtype=np.uint64)
        if len(th):
            doc_idx = np.repeat(np.arange(n_docs), np.diff(off))
            order = np.lexsort((th, doc_idx))
            di, ts = doc_idx[order], th[order]
            keep = np.r_[True, (di[1:] != di[:-1]) | (ts[1:] != ts[:-1])]
            di, ts = di[keep], ts[keep]
            shifts = np.arange(64, dtype=np.uint64)
            acc = np.zeros((n_docs, 64), dtype=np.int64)
            # chunk the (tokens × 64) bit matrix to ~32 MB
            step = 65536
            for s in range(0, len(ts), step):
                sl = slice(s, s + step)
                bits = (
                    (ts[sl, None] >> shifts[None, :]) & np.uint64(1)
                ).astype(np.int64)
                np.add.at(acc, di[sl], bits * 2 - 1)
            out = ((acc > 0).astype(np.uint64) << shifts[None, :]).sum(
                axis=1
            )
        cols = {
            id_col: pa.array(ids.astype(np.int64)),
            "simhash": pa.array(out.astype(np.int64)),
        }
        for bnd in range(4):
            cols[f"band{bnd}"] = pa.array(
                ((out >> np.uint64(16 * bnd)) & np.uint64(0xFFFF)).astype(np.int64)
            )
        return pa.table(cols)

    return ds.select_columns([id_col, text_col]).map_batches(
        _f, batch_format="pyarrow"
    )


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    jaccard_threshold: float = 0.5,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    m: int = 64,
    bands: int = 16,
) -> ray.data.Dataset:
    """Near-duplicate pairs by EXACT character-k-gram Jaccard, with
    MinHash+LSH candidate generation (the classic two-stage pipeline:
    LSH recall sweep → exact verification, so the output has no LSH false
    positives). Returns (id_a, id_b, jaccard) with id_a < id_b.

    Fully distributed verify: the candidate doc-id set is semi-joined
    against the corpus (bucket_join, one shuffle) so ONLY candidate docs
    get shingled; candidate pairs then bucket-join their two shingle sets
    and each batch computes exact Jaccard with sorted-array intersections
    (numpy per pair, spread across the cluster) — no driver-side pair
    loop, no whole-corpus shingle map.
    """
    from libpysal_ray.core import joins as J

    cands = (
        minhash_lsh_pairs(
            ds, jaccard_threshold=0.0, k=k, id_col=id_col,
            text_col=text_col, m=m, bands=bands,
        )
        .select_columns(["a", "b"])
        .materialize()
    )
    n_pairs = cands.count()
    if n_pairs <= VERIFY_BROADCAST_PAIRS:
        # size-switched small path: collect the BOUNDED candidate doc
        # shingle sets once (filtered stream, ≤ 2·n_pairs docs) and verify
        # vectorized inside map_batches over the pair table
        crows = cands.take_all()
        need_arr = np.unique(
            np.concatenate(
                [
                    np.array([r["a"] for r in crows], np.int64),
                    np.array([r["b"] for r in crows], np.int64),
                ]
            )
        ) if n_pairs else np.empty(0, np.int64)
        nref = ray.put(need_arr)

        def _pick_sh(t: pa.Table) -> pa.Table:
            na = ray.get(nref)
            ids_ = t.column(id_col).to_numpy(zero_copy_only=False)
            sub = t.filter(pa.array(np.isin(ids_, na)))
            sids = sub.column(id_col).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            sh, sd, n_docs = _flat_shingles(sub.column(text_col), k)
            out_i, out_s = [], []
            if len(sh):
                counts = np.bincount(sd, minlength=n_docs)
                seg = np.concatenate([[0], np.cumsum(counts)])
                for d in range(n_docs):
                    u = np.unique(sh[seg[d]: seg[d + 1]]).astype(np.int64)
                    out_i.append(int(sids[d]))
                    out_s.append(u.tolist())
            else:
                for d in range(n_docs):
                    out_i.append(int(sids[d]))
                    out_s.append([])
            return pa.table(
                {"doc": pa.array(out_i, pa.int64()),
                 "sh": pa.array(out_s, pa.list_(pa.int64()))}
            )

        rows = ds.select_columns([id_col, text_col]).map_batches(
            _pick_sh, batch_format="pyarrow"
        ).take_all()
        sh_map = {int(r["doc"]): np.asarray(r["sh"], np.int64)
                  for r in rows}
        mref = ray.put(sh_map)

        def _jac_b(t: pa.Table) -> pa.Table:
            mp = ray.get(mref)
            a_ = t.column("a").to_numpy(zero_copy_only=False)
            b_ = t.column("b").to_numpy(zero_copy_only=False)
            empty = np.empty(0, np.int64)
            sa_l = [mp.get(int(x), empty) for x in a_]
            sb_l = [mp.get(int(y_), empty) for y_ in b_]
            fa = np.concatenate(sa_l) if sa_l else empty
            fb = np.concatenate(sb_l) if sb_l else empty
            la = np.array([len(s) for s in sa_l], np.int64)
            lb = np.array([len(s) for s in sb_l], np.int64)
            jac = _jaccard_flat(fa, la, fb, lb)
            keep = jac >= jaccard_threshold
            return pa.table(
                {
                    "id_a": pa.array(a_[keep].astype(np.int64)),
                    "id_b": pa.array(b_[keep].astype(np.int64)),
                    "jaccard": pa.array(jac[keep]),
                }
            )

        return cands.map_batches(_jac_b, batch_format="pyarrow")

    need = (
        cands.select_columns(["a"]).rename_columns({"a": id_col})
        .union(cands.select_columns(["b"]).rename_columns({"b": id_col}))
        .groupby(id_col)
        .count()
        .select_columns([id_col])
    )
    docs = J.bucket_join(
        ds.select_columns([id_col, text_col]), need, on=id_col, how="semi"
    )

    def _shingles(t: pa.Table) -> pa.Table:
        """Per-doc UNIQUE sorted shingle hash sets, vectorized."""
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        sh, sd, n_docs = _flat_shingles(t.column(text_col), k)
        out_s: list = [[] for _ in range(n_docs)]
        if len(sh):
            order = np.lexsort((sh, sd))
            di, hs = sd[order], sh[order]
            keep = np.r_[True, (di[1:] != di[:-1]) | (hs[1:] != hs[:-1])]
            di, hs = di[keep], hs[keep]
            counts = np.bincount(di, minlength=n_docs)
            seg = np.concatenate([[0], np.cumsum(counts)])
            hi = hs.astype(np.int64)
            for d in range(n_docs):
                out_s[d] = hi[seg[d]: seg[d + 1]].tolist()
        return pa.table({"doc": pa.array(ids), "sh": pa.array(
            out_s, pa.list_(pa.int64()))})

    shingles = docs.map_batches(_shingles, batch_format="pyarrow")
    ja = shingles.rename_columns({"doc": "a", "sh": "sh_a"})
    jb = shingles.rename_columns({"doc": "b", "sh": "sh_b"})
    j2 = J.bucket_join(J.bucket_join(cands, ja, on="a"), jb, on="b")

    def _jac(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "jaccard": pa.array([], pa.float64())})
        a_ = t.column("a").to_numpy(zero_copy_only=False)
        b_ = t.column("b").to_numpy(zero_copy_only=False)
        fa, la = _list_col_flat(t.column("sh_a"))
        fb, lb = _list_col_flat(t.column("sh_b"))
        jac = _jaccard_flat(fa, la, fb, lb)
        keep = jac >= jaccard_threshold
        return pa.table(
            {
                "id_a": pa.array(a_[keep].astype(np.int64)),
                "id_b": pa.array(b_[keep].astype(np.int64)),
                "jaccard": pa.array(jac[keep]),
            }
        )

    return j2.map_batches(_jac, batch_format="pyarrow")


def _list_col_flat(col) -> tuple[np.ndarray, np.ndarray]:
    """Arrow list<int64> column → (flat values, per-row lengths)."""
    ch = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.asarray(ch.offsets, dtype=np.int64)
    lens = np.diff(offs)
    return ch.flatten().to_numpy(zero_copy_only=False), lens


def _jaccard_flat(
    fa: np.ndarray, la: np.ndarray, fb: np.ndarray, lb: np.ndarray
) -> np.ndarray:
    """Exact Jaccard for P (set_a, set_b) pairs at once — sets given as
    flat per-row-UNIQUE value arrays + lengths. ONE lexsort over
    (pair, value); intersection count = adjacent duplicates (each side's
    values are unique within a pair, so an equal adjacent pair means one
    value present on both sides). Replaces the per-pair np.intersect1d
    loop (VERDICT r2 #5)."""
    P = len(la)
    pid = np.concatenate([np.repeat(np.arange(P), la),
                          np.repeat(np.arange(P), lb)])
    vals = np.concatenate([fa, fb])
    order = np.lexsort((vals, pid))
    p_, v_ = pid[order], vals[order]
    dup = (p_[1:] == p_[:-1]) & (v_[1:] == v_[:-1])
    inter = np.bincount(p_[1:][dup], minlength=P).astype(np.int64)
    union = la + lb - inter
    jac = np.full(P, -1.0)  # both-empty rows stay -1 (excluded upstream)
    nz = union > 0
    jac[nz] = inter[nz] / union[nz]
    return jac


def near_dedup_survivors(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    m: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.5,
    seed: int = 13,
) -> ray.data.Dataset:
    """(doc_id, cluster, keep): the full near-dedup decision pipeline —
    MinHash+LSH pairs → connected components over the pair graph
    (RayGraph's distributed local-contraction supersteps) → per-cluster
    min-id survivor. ``keep`` is True for survivors and for documents
    with no near-duplicate. This is the composition a training-data
    pipeline actually runs: the output is a keep/drop decision per
    document, not a pair list."""
    from libpysal_ray.core import edges as E
    from libpysal_ray.core.graph import RayGraph

    pairs = minhash_lsh_pairs(
        ds, id_col=id_col, text_col=text_col, k=k, m=m, bands=bands,
        jaccard_threshold=jaccard_threshold, seed=seed,
    )

    def _as_edges(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return E.edge_table(
            np.concatenate([a, b]), np.concatenate([b, a]), 1.0
        )

    ids = ds.select_columns([id_col]).rename_columns({id_col: "focal"})
    g = RayGraph(
        pairs.map_batches(_as_edges, batch_format="pyarrow"), ids=ids,
    )
    _n, labels = g.n_components()

    def _decide(t: pa.Table) -> pa.Table:
        f = t.column("focal").to_numpy(zero_copy_only=False)
        c = t.column("component").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(f),
                "cluster": pa.array(c),
                "keep": pa.array(f == c),  # component label = min id
            }
        )

    return labels.map_batches(_decide, batch_format="pyarrow")


def cross_containment(
    test: ray.data.Dataset,
    train: ray.data.Dataset,
    k: int = 5,
    threshold: float = 0.3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Benchmark decontamination: for every TEST document, the TRAIN
    documents containing ≥ ``threshold`` of its distinct k-token
    shingles. Returns (test_id, train_id, n_shared, n_test).

    Asymmetric containment (shared / |test shingles|), not Jaccard — a
    short benchmark prompt embedded in a long training page must still
    flag. Plan: distinct shingle hashes per doc on both sides (the
    vectorized flat-shingle path), ONE equi-join shuffle on the shingle
    hash, a pair-count aggregate, and a size lookup — every stage
    size-switched, nothing driver-side."""
    from libpysal_ray.core.joins import bucket_join, grouped_agg, grouped_sum

    def _rows(side_id: str):
        def f(t: pa.Table) -> pa.Table:
            sh, sd, _ = _flat_shingles(t.column(text_col), k)
            ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            # distinct (doc, shingle): docs are row-local, one lexsort
            order = np.lexsort((sh, sd))
            sds, shs = sd[order], sh[order]
            first = np.ones(len(sds), bool)
            first[1:] = (sds[1:] != sds[:-1]) | (shs[1:] != shs[:-1])
            return pa.table({
                "sh": pa.array((shs[first] >> np.uint64(1)).astype(np.int64)),
                side_id: pa.array(ids[sds[first]]),
            })

        return f

    tsh = test.map_batches(_rows("test_id"), batch_format="pyarrow")
    rsh = train.map_batches(_rows("train_id"), batch_format="pyarrow")
    sizes = grouped_agg(tsh, ("test_id",), (None,), "count").rename_columns(
        {"count()": "n_test"}
    )
    pairs = bucket_join(tsh, rsh, on="sh").map_batches(
        lambda t: pa.table({
            "test_id": t.column("test_id"),
            "train_id": t.column("train_id"),
            "c": pa.array(np.ones(t.num_rows, np.int64)),
        }),
        batch_format="pyarrow",
    ).materialize()  # marked expander: see strict_pairs note
    cnt = grouped_sum(pairs, ("test_id", "train_id"), ("c",)).rename_columns(
        {"sum(c)": "n_shared"}
    )
    out = bucket_join(cnt, sizes, on="test_id")

    def _filt(t: pa.Table) -> pa.Table:
        ns = t.column("n_shared").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        nt = t.column("n_test").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        keep = ns / nt >= threshold
        t = t.filter(pa.array(keep))
        return t.select(["test_id", "train_id", "n_shared", "n_test"])

    return out.map_batches(_filt, batch_format="pyarrow")


def substring_dedup(
    ds: ray.data.Dataset,
    k: int = 16,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """EXACT substring-overlap dedup (RefinedWeb / BigCode style): drop
    every document that shares ANY ``k``-token window with a lower-id
    document; return the surviving ids. Unlike the threshold near-dup
    family this is all-or-nothing — one shared window kills the later
    doc, which is the published semantics for exact-substring training
    dedup (50-token overlap in the suffix-array formulation).

    100 TB plan: distinct (window-hash, id) rows per batch (the
    vectorized flat-shingle path), ONE groupby(hash) pass whose bucket
    kernel emits ids exceeding their group minimum, one distinct pass on
    the flagged ids, and an anti semi-join back to the corpus ids. Σ
    work is corpus tokens, never doc-pair quadratic; docs with < k
    tokens fold to a whole-doc window (shared semantics with
    cross_containment)."""
    from libpysal_ray.core.joins import bucket_join, grouped_agg, grouped_by_key

    def _rows(t: pa.Table) -> pa.Table:
        sh, sd, _ = _flat_shingles(t.column(text_col), k)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        order = np.lexsort((sh, sd))
        sds, shs = sd[order], sh[order]
        first = np.ones(len(sds), bool)
        first[1:] = (sds[1:] != sds[:-1]) | (shs[1:] != shs[:-1])
        return pa.table({
            "sh": pa.array((shs[first] >> np.uint64(1)).astype(np.int64)),
            id_col: pa.array(ids[sds[first]]),
        })

    rows = ds.map_batches(_rows, batch_format="pyarrow")

    def _flag(t: pa.Table) -> pa.Table:
        # bucket kernel: per-sh min, emit distinct ids above it
        sh = t.column("sh").to_numpy(zero_copy_only=False)
        i = t.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((i, sh))
        s, v = sh[order], i[order]
        new = np.ones(len(s), bool)
        new[1:] = s[1:] != s[:-1]
        gmin = v[np.flatnonzero(new)][np.cumsum(new) - 1]
        bad = np.unique(v[v > gmin])
        return pa.table({id_col: pa.array(bad.astype(np.int64))})

    flagged = grouped_by_key(rows, ["sh"], _flag).map_batches(
        lambda t: t.select([id_col]), batch_format="pyarrow"
    )
    distinct = grouped_agg(flagged, (id_col,), (None,), "count").map_batches(
        lambda t: t.select([id_col]), batch_format="pyarrow"
    )
    # map_batches projection, not select_columns: the lazy projection's
    # schema() can report pre-projection names to bucket_join
    ids_only = ds.map_batches(lambda t: t.select([id_col]),
                              batch_format="pyarrow")
    return bucket_join(ids_only, distinct, on=id_col, how="anti")


def paragraph_dedup(
    ds: ray.data.Dataset,
    window: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """CCNet-style duplicated-SPAN removal: split every document into
    non-overlapping ``window``-token chunks (the paragraph proxy — the
    synthetic corpus has no newline structure; a real corpus would
    chunk on '\\n\\n'), keep each distinct chunk's FIRST occurrence only
    (lexicographic (doc_id, chunk_id) min), drop every later copy, and
    reassemble the survivors per document in order. Unlike
    :func:`substring_dedup` (drop the whole later document) this
    preserves the unique remainder. Output (doc_id, clean_text,
    n_kept); documents whose every chunk was removed disappear.

    100 TB shape: chunking is stateless (Σ rows ≈ corpus tokens /
    window); winner selection is ONE grouped_by_key pass on the 128-bit
    chunk digest (two independently seeded 64-bit keys — the
    exact_dedup collision discipline, so grouping matches the oracle's
    GROUP BY chunk text); reassembly is ONE grouped_by_key pass on
    doc_id whose kernel is a flat-buffer segmented gather (no per-doc
    Python string building). Nothing driver-side."""
    from libpysal_ray.core.hashing import (
        _string_array_parts, fast_text_digest_u64,
    )
    from libpysal_ray.core.joins import grouped_by_key
    from libpysal_ray.text.ngrams import chunk_documents

    chunks = chunk_documents(
        ds, window=window, stride=window, text_col=text_col, id_col=id_col
    )

    def _h(t: pa.Table) -> pa.Table:
        col = t.column("chunk_text")
        return pa.table({
            "h1": pa.array(fast_text_digest_u64(col).view(np.int64)),
            "h2": pa.array(
                fast_text_digest_u64(col, seed=0x5851F42D).view(np.int64)
            ),
            id_col: t.column(id_col),
            "chunk_id": t.column("chunk_id"),
            "chunk_text": col,
        })

    hashed = chunks.map_batches(_h, batch_format="pyarrow")

    def _win(t: pa.Table) -> pa.Table:
        h1 = t.column("h1").to_numpy(zero_copy_only=False)
        h2 = t.column("h2").to_numpy(zero_copy_only=False)
        d = t.column(id_col).to_numpy(zero_copy_only=False)
        c = t.column("chunk_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((c, d, h2, h1))
        h1s, h2s = h1[order], h2[order]
        first = np.ones(len(order), bool)
        first[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        keep = t.take(pa.array(order[first]))
        return keep.select([id_col, "chunk_id", "chunk_text"])

    winners = grouped_by_key(hashed, ["h1", "h2"], _win)

    def _asm(t: pa.Table) -> pa.Table:
        d = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        c = t.column("chunk_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((c, d))
        t = t.take(pa.array(order))
        d = d[order]
        data, starts, lens = _string_array_parts(t.column("chunk_text"))
        r = len(d)
        if r == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "clean_text": pa.array([], pa.large_string()),
                "n_kept": pa.array([], pa.int64()),
            })
        # interleave (chunk range, separator range) — the separator is
        # one space byte appended to the data buffer; last-in-doc rows
        # get a ZERO-length separator range
        data2 = np.concatenate([data, np.array([32], np.uint8)])
        sep = np.int64(len(data))
        last = np.empty(r, bool)
        last[:-1] = d[1:] != d[:-1]
        last[-1] = True
        s2 = np.empty(2 * r, dtype=np.int64)
        e2 = np.empty(2 * r, dtype=np.int64)
        s2[0::2], e2[0::2] = starts, starts + lens
        s2[1::2] = sep
        e2[1::2] = np.where(last, sep, sep + 1)
        # flat gather of all ranges (the _multirange_gather cumsum
        # trick), then doc-boundary offsets slice it into one string
        # per document
        rl = e2 - s2
        total = int(rl.sum())
        if total == 0:
            values = np.empty(0, dtype=np.uint8)
        else:
            ne = rl > 0
            s, e = s2[ne], e2[ne]
            seg = np.concatenate([[0], np.cumsum(e - s)])
            idx = np.ones(total, dtype=np.int64)
            idx[0] = s[0]
            idx[seg[1:-1]] = s[1:] - e[:-1] + 1
            values = data2[np.cumsum(idx)]
        firsts = np.flatnonzero(
            np.concatenate([[True], d[1:] != d[:-1]])
        )
        n_kept = np.diff(np.concatenate([firsts, [r]])).astype(np.int64)
        row_out = lens + (~last)
        doc_out = np.add.reduceat(row_out, firsts)
        new_off = np.concatenate([[0], np.cumsum(doc_out)]).astype(
            np.int64
        )
        txt = pa.Array.from_buffers(
            pa.large_string(), len(firsts),
            [None, pa.py_buffer(new_off), pa.py_buffer(values)],
        )
        return pa.table({
            id_col: pa.array(d[firsts]),
            "clean_text": txt,
            "n_kept": pa.array(n_kept),
        })

    return grouped_by_key(winners, [id_col], _asm)


def novelty_score(
    ds: ray.data.Dataset,
    k: int = 16,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Document originality score (the inverse of the RefinedWeb
    exact-substring signal :func:`substring_dedup` acts on): for every
    document, the fraction of its DISTINCT ``k``-token windows that
    occur in NO other document,

        novelty_f = novel / n_windows

    with n_windows the doc's distinct window count and novel those of
    corpus document-frequency 1. Output (doc_id, n_windows, novel,
    novelty_f) for every document; docs with < k tokens fold to a
    whole-doc window (shared semantics with substring_dedup), so every
    doc emits exactly one row. Joining on the 64-bit window hash keeps
    the shuffle narrow; a cross-window collision (~2^-64 birthday
    terms) would merge two frequencies — the declared caveat of the
    whole dedup family.

    100 TB shape: distinct (window-hash, id) rows per batch (the
    vectorized flat-shingle path, Σ rows ≈ corpus tokens), ONE
    ``grouped_agg`` count by hash (= document frequency, rows are
    per-doc distinct; the materialized rows' known size picks one
    coalesced task when small, the sharded groupby otherwise), one
    bucket_join back, per-doc segmented batch partials into a final
    groupby(id)."""
    from libpysal_ray.core.joins import bucket_join, grouped_agg

    def _rows(t: pa.Table) -> pa.Table:
        sh, sd, _ = _flat_shingles(t.column(text_col), k)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        order = np.lexsort((sh, sd))
        sds, shs = sd[order], sh[order]
        first = np.ones(len(sds), bool)
        first[1:] = (sds[1:] != sds[:-1]) | (shs[1:] != shs[:-1])
        return pa.table({
            "sh": pa.array((shs[first] >> np.uint64(1)).astype(np.int64)),
            id_col: pa.array(ids[sds[first]]),
        })

    import pyarrow.compute as pc

    rows = ds.map_batches(_rows, batch_format="pyarrow").materialize()
    df = grouped_agg(rows, ("sh",), (None,), "count").map_batches(
        lambda t: pa.table({
            "sh": t.column("sh"),
            "df": pc.cast(t.column("count()"), pa.int64()),
        }),
        batch_format="pyarrow",
    )
    joined = bucket_join(rows, df, on="sh")

    def _partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        dfv = t.column("df").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        order = np.argsort(ids, kind="stable")
        si, sd = ids[order], dfv[order]
        new = np.ones(len(si), bool)
        new[1:] = si[1:] != si[:-1]
        starts = np.flatnonzero(new)
        if len(starts) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "n_windows": pa.array([], pa.int64()),
                "novel": pa.array([], pa.int64()),
            })
        ones = np.ones(len(si), dtype=np.int64)
        return pa.table({
            id_col: pa.array(si[starts]),
            "n_windows": pa.array(np.add.reduceat(ones, starts)),
            "novel": pa.array(
                np.add.reduceat((sd == 1).astype(np.int64), starts)),
        })

    out = joined.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby(id_col).sum(["n_windows", "novel"])

    def _shape(t: pa.Table) -> pa.Table:
        nw = pc.cast(t.column("sum(n_windows)"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        nv = pc.cast(t.column("sum(novel)"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return pa.table({
            id_col: t.column(id_col),
            "n_windows": pa.array(nw),
            "novel": pa.array(nv),
            "novelty_f": pa.array(
                nv.astype(np.float64) / nw.astype(np.float64)
            ),
        })

    return out.map_batches(_shape, batch_format="pyarrow")
