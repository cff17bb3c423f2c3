"""Flagship pipeline — the north-rule spatial-join + tiling chain.

pages (url, warc_ts, html, text, lang)
  → project to (doc_id, url, text) at ingest (wide binary never crosses a
    shuffle — SURVEY §7.4.7)
  → vectorized 64-bit text digest per row (the byte-identity invariant,
    BASELINE.json:15; flat-utf8-buffer splitmix hash, no per-row Python)
  → deterministic geocode (doc_id hash → lon/lat)
  → quadcell assignment at ``res``
  → hot-cell salting (pre-aggregated counts → salt factors, broadcast)
  → on a resume only: drop the rows of (cell, salt) partitions already done
  → PIP join against the polygon layer (broadcast STRtree-style index,
    memoized per worker, fused map tasks; semantics
    graph/_contiguity.py:94-135)
  → re-verify the text digest byte-for-byte, drop the text
  → ONE shuffle on cell_salted: a range sort by default, a hash
    repartition when the Dataset's context selects HASH_SHUFFLE
  → per partition: attach the polygon's neighbor set (from the
    queen-contiguity graph of the layer, broadcast as a small dict), write
    a checkpointed partition + lineage marker
  → result rows (url, cell, polygon_id, neighbor_set, digest_ok).

Both executions (the salt count and the main chain) run without Ray
Data's per-operator resource reservation (``J.unreserved``): it keeps a
CPU for the shuffle and the finalize map, which cannot start before the
fused map ends, and so holds that map to one task at a time on 4 CPUs.

Resumable: a re-run loads the manifest's done-set once at plan build and
filters those partitions' rows out right after salting, so finished
partitions never reach the PIP join or the shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data


from libpysal_ray.core import joins as J
from libpysal_ray.core.hashing import fast_text_digest_u64
from libpysal_ray.sources.pages import pages_from_documents
from libpysal_ray.sources.polygons import _poly_table
from libpysal_ray.spatial.cells import assign_cells, assign_salt, salt_factors
from libpysal_ray.spatial.geocode import geocode_ids
from libpysal_ray.spatial.pip import pip_join
from libpysal_ray.state import lineage


def lonlat_coverage(n: int = 12) -> pa.Table:
    """n×n rectangular polygon layer covering lon [-180,180) × lat [-85,85);
    polygon_id = row-major. The 'admin regions' of the flagship join."""
    pids, rings = [], []
    for r in range(n):
        for c in range(n):
            x0 = -180.0 + 360.0 * c / n
            x1 = -180.0 + 360.0 * (c + 1) / n
            y0 = -85.0 + 170.0 * r / n
            y1 = -85.0 + 170.0 * (r + 1) / n
            pids.append(r * n + c)
            rings.append(([x0, x1, x1, x0, x0], [y0, y0, y1, y1, y0]))
    return _poly_table(pids, rings)


def _queen_small(polys: pa.Table) -> dict[int, list[int]]:
    """Driver-side queen contiguity for a small polygon layer: invert a
    vertex → {polygon ids} hash keyed on raw float64 bit patterns — the
    exact semantics of the distributed builder (builders/contiguity.py)."""
    pids = polys.column("polygon_id").to_numpy(zero_copy_only=False)
    buckets: dict[tuple, set] = {}
    for pid, xs, ys in zip(pids, polys.column("xs").to_pylist(),
                           polys.column("ys").to_pylist()):
        for x, y in set(zip(xs, ys)):
            buckets.setdefault((x, y), set()).add(int(pid))
    nbrs: dict[int, list[int]] = {int(p): [] for p in pids}
    pairs: set = set()
    for members in buckets.values():
        if len(members) > 1:
            ms = sorted(members)
            for i, a in enumerate(ms):
                for b in ms[i + 1:]:
                    pairs.add((a, b))
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def _digest_batch(t: pa.Table, col: str = "text",
                  out: str = "text_digest") -> pa.Table:
    """Vectorized 64-bit text digest (hashing.fast_text_digest_u64 —
    polars' ~GB/s string hash; zero per-row Python). The digest is
    engine-internal (only ``digest_ok`` reaches the output), so the
    algorithm only needs to witness byte identity within the run, not
    match md5 or the SQL-mirrored hash. History: r3 shipped a hashlib.md5
    row loop (~200 MB/s), r4 swapped it for the per-byte numpy mix
    (31 MB/s — a 2x flagship regression, caught by the r5 worktree A/B);
    this digest measures ~1.9 GB/s."""
    dg = fast_text_digest_u64(t.column(col)).view(np.int64)
    return t.append_column(out, pa.array(dg))


def flagship(
    sf_dir: str | None = None,
    pages: ray.data.Dataset | None = None,
    out_dir: str | None = None,
    res: int = 5,
    poly_n: int = 12,
    rows_per_part: int = 200_000,
    narrow: ray.data.Dataset | None = None,
    salt_sample_mod: int = 1,
    cell_remap=None,
) -> ray.data.Dataset:
    """``narrow`` (optional): a doc_id-only Dataset for the salt-factor
    pre-aggregate — pass one when ``pages`` is synthesized, so the count
    pass does not re-run the page synthesis just to read ids.

    ``salt_sample_mod``: keep only ids with ``doc_id % mod == 0`` in the
    salt pre-aggregate and scale counts back up. Salting affects ONLY the
    physical partitioning (cell_salted), never an output row, so a
    deterministic 1-in-mod sample is the scale-correct plan — the exact
    count pass costs a full second read of the corpus."""
    if pages is None:
        assert sf_dir is not None
        pages = pages_from_documents(sf_dir)

    # 1. project to the columns the chain reads (drops the wide html
    # binary) before anything else; a projection needs no schema fetch
    pages = J.unreserved(pages.select_columns(["doc_id", "url", "text"]))

    # 2. ingest digest (byte-identity invariant start)
    ds = pages.map_batches(_digest_batch, batch_format="pyarrow")

    # 3. geocode + cell assignment (stateless, no shuffle).
    # ``cell_remap``: optional deterministic (doc_id, cell) -> cell
    # map_batches hook applied identically to the main stream and the
    # salt-count stream — the skew benchmark uses it to concentrate a
    # configurable fraction of pages into one hot cell (bench.py --skew)
    ds = geocode_ids(ds, "doc_id", lonlat=True)
    ds = assign_cells(ds, res)
    if cell_remap is not None:
        ds = ds.map_batches(cell_remap, batch_format="pyarrow")

    # 4. hot-cell salting. Salt factors come from a SEPARATE narrow
    # pipeline that reads only doc_id (column-pruned at the source) — the
    # wide text column never flows through the count pre-aggregate, and the
    # main pipeline stays single-pass streaming (no materialize).
    if narrow is None:
        if sf_dir is not None:
            from libpysal_ray.sources.read import read_parquet_sized

            narrow = read_parquet_sized(
                f"{sf_dir}/documents.parquet", columns=["doc_id"]
            )
        else:
            narrow = pages.select_columns(["doc_id"])
    if salt_sample_mod > 1:
        mod = salt_sample_mod

        def _sample(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ids % mod == 0))

        narrow = narrow.map_batches(_sample, batch_format="pyarrow")
    narrow = J.unreserved(
        assign_cells(geocode_ids(narrow, "doc_id", lonlat=True), res)
    )
    if cell_remap is not None:
        narrow = narrow.map_batches(cell_remap, batch_format="pyarrow")
    factors = salt_factors(
        narrow,
        target_rows_per_part=max(1, rows_per_part // salt_sample_mod),
    )
    ds = assign_salt(ds, factors, id_col="doc_id")

    # 4b. resume: drop the rows of partitions that are already durable, so
    # they skip the PIP join, the verify and the shuffle. The done-set is
    # read once here; the write pass (empty done-set) adds no operator.
    done = lineage.load_done(out_dir) if out_dir else set()
    if done:
        done_keys = np.sort(np.fromiter(map(int, done), np.int64, len(done)))

        def _skip_done(t: pa.Table) -> pa.Table:
            cs = t.column("cell_salted").to_numpy(zero_copy_only=False)
            i = np.minimum(np.searchsorted(done_keys, cs), len(done_keys) - 1)
            return t.filter(pa.array(done_keys[i] != cs))

        ds = ds.map_batches(_skip_done, batch_format="pyarrow")

    # 5. polygon layer + its queen contiguity, broadcast as neighbor lists.
    # The layer IS the broadcast small side (a few hundred admin polygons),
    # so its contiguity is a driver-side vertex-hash — the distributed
    # queen builder would spend seconds of fixed pipeline latency on a
    # kilobyte-scale input. Semantics identical (_contW_lists.py:70-128).
    polys = lonlat_coverage(poly_n)
    nbrs = _queen_small(polys)
    max_pid = max(nbrs) if nbrs else -1
    nbr_offsets = np.zeros(max_pid + 2, dtype=np.int64)
    flat = []
    for pid in range(max_pid + 1):
        ns = sorted(nbrs.get(pid, []))
        flat.extend(ns)
        nbr_offsets[pid + 1] = len(flat)
    nbr_ref = ray.put((nbr_offsets, np.asarray(flat, dtype=np.int64)))

    # 6. PIP join (broadcast polygon layer, fused map tasks; no shuffle)
    joined = pip_join(
        ds,
        polys,
        res=res,
        id_col="doc_id",
        keep_unmatched=True,
        passthrough=("url", "text", "text_digest", "cell_salted"),
    )

    # 7. verify the byte-identity invariant BEFORE the shuffle: recompute
    # the digest from the text bytes as they arrive at the shuffle boundary
    # and compare to the ingest digest — this witnesses that `text` passed
    # every map stage unchanged. Then DROP the wide text column so the one
    # shuffle moves only the 8-byte digest + join keys (SURVEY §7.4.7:
    # wide payloads never cross a shuffle).
    def _verify_drop(t: pa.Table) -> pa.Table:
        carried = t.column("text_digest").to_numpy(zero_copy_only=False)
        recomputed = fast_text_digest_u64(t.column("text")).view(np.int64)
        ok = carried == recomputed
        if not ok.all():
            raise RuntimeError(
                f"text byte-identity violated pre-shuffle: "
                f"{int((~ok).sum())} rows"
            )
        return t.drop_columns(["text"]).append_column(
            "digest_ok", pa.array(ok)
        )

    joined = joined.map_batches(_verify_drop, batch_format="pyarrow")

    # 8. the one shuffle: (cell, salt) partitions; per-partition
    # neighbor-set attach + digest-XOR lineage + checkpointed write
    import uuid as _uuid

    run_id = _uuid.uuid4().hex[:12]
    out_dir_v = out_dir

    def _finalize_block(t: pa.Table) -> pa.Table:
        """One shuffle output block = many complete (cell, salt) groups,
        sorted by cell_salted within the block. The neighbor-set attach is
        vectorized over the WHOLE block; per-group work is only the
        digest-XOR lineage metric and the checkpoint write."""
        n = t.num_rows
        if n == 0:
            return _empty_result()
        cs = t.column("cell_salted").to_numpy(zero_copy_only=False)
        change = np.zeros(n, dtype=bool)
        change[0] = True
        change[1:] = cs[1:] != cs[:-1]
        g_starts = np.flatnonzero(change)
        g_ends = np.append(g_starts[1:], n)

        carried = t.column("text_digest").to_numpy(zero_copy_only=False)
        ok = t.column("digest_ok").to_numpy(zero_copy_only=False)
        offs, flat_arr = ray.get(nbr_ref)
        pids = t.column("polygon_id").to_numpy(zero_copy_only=False)
        valid = (pids >= 0) & (pids < len(offs) - 1)
        p_safe = np.where(valid, pids, 0)
        cnt = np.where(valid, offs[p_safe + 1] - offs[p_safe], 0)
        total = int(cnt.sum())
        starts = np.repeat(offs[p_safe], cnt)
        within = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        vals = flat_arr[starts + within] if total else np.empty(0, np.int64)
        offsets = np.concatenate([[0], np.cumsum(cnt)]).astype(np.int32)
        nbr_col = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(vals)
        )
        out = pa.table(
            {
                "url": t.column("url"),
                "cell": t.column("cell"),
                "polygon_id": t.column("polygon_id"),
                "neighbor_set": nbr_col,
                "digest_ok": pa.array(ok),
            }
        )
        if out_dir_v:
            xors = np.bitwise_xor.reduceat(carried.view(np.uint64), g_starts)
            for gi, (s, e) in enumerate(zip(g_starts, g_ends)):
                lineage.write_partition(
                    out_dir_v, str(int(cs[s])), out.slice(s, e - s),
                    metrics={"digest_xor": int(xors[gi])},
                    run_id=run_id,
                )
        return out

    # ONE shuffle on cell_salted. Hash repartition (no boundary sampling,
    # one pass) when the context enables it; else a range sort +
    # whole-block map (batch_size=None pinned). The sort path relies on
    # equal keys not straddling sort output blocks — NOT documented by
    # Ray — so the per-partition checkpoint write carries this run's id
    # and FAILS LOUDLY on a second write of the same key within the run
    # (lineage.write_partition), instead of silently corrupting the
    # checkpoint if that behavior ever changes (ADVICE r01).
    # Ray plans the shuffle from the Dataset's own context, so the
    # choice reads that context, not the process-wide one.
    from ray.data.context import ShuffleStrategy

    if joined.context.shuffle_strategy == ShuffleStrategy.HASH_SHUFFLE:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        shuffled = joined.repartition(
            max(16, 2 * ncpu), keys=["cell_salted"], sort=True
        )
    else:
        shuffled = joined.sort("cell_salted")
    return shuffled.map_batches(
        _finalize_block, batch_format="pyarrow", batch_size=None
    )


def _empty_result() -> pa.Table:
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "cell": pa.array([], pa.int64()),
            "polygon_id": pa.array([], pa.int64()),
            "neighbor_set": pa.array([], pa.list_(pa.int64())),
            "digest_ok": pa.array([], pa.bool_()),
        }
    )
