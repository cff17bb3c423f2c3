"""Benchmark inputs, generated from a seed, and their order-insensitive
digests.

* ``documents(n, variant)``: the ``documents`` table the suite queries read.
  ``doc_id`` is always ``0..n-1``, so every graph the suites build has the
  same structure in every variant; the variant draws the attribute columns
  (``text``, ``lang``, ``n_chars``) from its own random stream.
* ``page_batch(base, n)``: pages with the columns
  ``sources.pages.synth_pages`` produces (``html`` left out, as the
  flagship projects it away), over ``doc_id`` ``base..base+n-1``.
* ``digest(table)``: row count plus sum and xor of 64-bit row hashes, after
  the dtype normalisation ``tools/check_oracle.py`` applies, so equal
  multisets of rows give equal digests and floats compare exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

VOCAB = (
    "a the data row key join sort scan hash group agg value filter query "
    "table column part order line customer window stream batch vector "
    "spark fast slow big small merge"
).split()
LANGS = ("en", "zh", "fr", "es", "de")
LANG_P = (0.4, 0.15, 0.15, 0.15, 0.15)
WARC_EPOCH_US = 1_600_000_000_000_000  # sources.pages.WARC_EPOCH_US


def documents(n: int, variant: int) -> pa.Table:
    rng = np.random.default_rng([20261017, variant])
    nw = rng.integers(8, 80, n)
    words = np.array(VOCAB)[rng.integers(0, len(VOCAB), int(nw.sum()))]
    ends = np.cumsum(nw)
    text = [" ".join(words[e - k:e]) for k, e in zip(nw, ends)]
    ids = np.arange(n, dtype=np.int64)
    return pa.table({
        "doc_id": ids,
        "text": text,
        "lang": np.array(LANGS)[rng.choice(len(LANGS), n, p=LANG_P)],
        "source": [f"src{i % 20}" for i in ids],
        "n_chars": np.array([len(s) for s in text], np.int64),
    })


def page_batch(base: int, n: int) -> pa.Table:
    """Pages ``base..base+n-1``; the same rows as ``synth_pages`` makes for
    those ids (url, warc_ts, text, lang, doc_id)."""
    ids = np.arange(base, base + n, dtype=np.int64)
    return _pages(ids)


def _pages(ids: np.ndarray) -> pa.Table:
    return pa.table({
        "url": [f"https://site{i % 1000:06d}.example/{i:08d}" for i in ids],
        "warc_ts": pa.array(ids * 1_000_000 + WARC_EPOCH_US,
                            pa.timestamp("us")),
        "text": [f"synthetic text for doc {i} " * 8 for i in ids],
        "lang": pa.array(["en"] * len(ids)),
        "doc_id": pa.array(ids),
    })


def pages_dataset(base: int, n: int, blocks: int | None = None):
    """(pages, narrow) Datasets for ``flagship(pages=..., narrow=...)``:
    generated shard-parallel inside Ray tasks, as ``synth_pages`` does."""
    import ray.data

    def _ids(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.add(t.column(0), base)})

    def _mk(t: pa.Table) -> pa.Table:
        return _pages(t.column("doc_id").to_numpy())

    kw = {"override_num_blocks": blocks} if blocks else {}
    ids = ray.data.range(n, **kw).map_batches(
        _ids, batch_format="pyarrow")
    return ids.map_batches(_mk, batch_format="pyarrow"), ids


def flagship_rows(t: pa.Table) -> pa.Table:
    """The flagship's nested output flattened to FLAGSHIP_SQL's row form:
    one row per (url, neighbor of the assigned polygon), -1 for none."""
    ns = t.column("neighbor_set")
    ns = ns.combine_chunks() if isinstance(ns, pa.ChunkedArray) else ns
    cnt = np.diff(np.asarray(ns.offsets))
    reps = np.maximum(cnt, 1)
    idx = np.repeat(np.arange(t.num_rows), reps)
    nbr = np.full(int(reps.sum()), -1, dtype=np.int64)
    nbr[np.repeat(cnt > 0, reps)] = ns.flatten().to_numpy(zero_copy_only=False)
    out = t.select(["url", "cell", "polygon_id", "digest_ok"]).take(
        pa.array(idx))
    return out.append_column("neighbor", pa.array(nbr))


# ------------------------------------------------------------------ digests
def _normalise(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Map a column to the type it is compared in, so that the engine's
    and DuckDB's spellings of one value hash alike: integers, booleans and
    integral floats to int64 (the oracle comparison casts one side to the
    other's dtype), other floats and decimals to float64."""
    t = col.type
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        return pc.cast(col, pa.int64())
    if pa.types.is_floating(t) or pa.types.is_decimal(t):
        f = pc.cast(col, pa.float64())
        v = f.to_numpy(zero_copy_only=False)   # nulls read as NaN
        if (not np.isnan(v).any() and np.all(np.abs(v) < 2.0 ** 53)
                and np.all(v == np.round(v))):
            return pc.cast(f, pa.int64())
        # -0.0 == 0.0 and NaN == NaN under the oracle comparison
        f = pc.if_else(pc.equal(f, 0.0), 0.0, f)
        return pc.if_else(pc.is_nan(f), float("nan"), f)
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pc.cast(col, pa.large_string())
    return col


def digest(table: pa.Table) -> str:
    import polars as pl

    names = sorted(table.column_names)
    norm = pa.table({c: _normalise(table.column(c)) for c in names})
    h = pl.from_arrow(norm).hash_rows(seed=0, seed_1=1, seed_2=2, seed_3=3)
    h = h.to_numpy().astype(np.uint64)
    s = int(h.sum(dtype=np.uint64))
    x = int(np.bitwise_xor.reduce(h)) if len(h) else 0
    return f"{table.num_rows}:{','.join(names)}:{s:016x}:{x:016x}"


def perturb(table: pa.Table) -> pa.Table:
    """Add 1 to the first value of the first numeric column: a planted
    defect for the benchmark's self-test."""
    for i, f in enumerate(table.schema):
        if (pa.types.is_integer(f.type) or pa.types.is_floating(f.type)) \
                and table.num_rows:
            v = table.column(i).to_numpy(zero_copy_only=False).copy()
            v[0] += 1
            return table.set_column(i, f.name, pa.array(v, f.type))
    raise ValueError("no numeric column to perturb")


def to_table(res) -> pa.Table:
    """Fetch a consumed query result (a materialized Dataset or a table)."""
    import ray
    import ray.data

    if isinstance(res, pa.Table):
        return res
    if isinstance(res, ray.data.Dataset):
        tables = [t for t in ray.get(res.to_arrow_refs())
                  if t.num_rows or t.num_columns]
        tables = [t for t in tables if t.num_rows] or tables[:1]
        if not tables:
            return pa.table({})
        return pa.concat_tables(tables, promote_options="permissive")
    import pandas as pd

    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    raise TypeError(f"unsupported query result {type(res).__name__}")
