"""Edge-table primitives: the engine's one canonical relation.

Schema: ``focal: int64, neighbor: int64, weight: float64``. This mirrors the
reference's own canonical columnar adjacency (a pandas Series indexed by a
(focal, neighbor) MultiIndex — /root/reference/libpysal/graph/base.py:68-141 —
which it serializes natively to Parquet, graph/io/_parquet.py:27-36).

Invariants preserved here, matching the reference:
* isolates (ids with no neighbors) appear as zero-weight self-loops
  (reference graph/_utils.py:248-272 ``_resolve_islands``). ``RayGraph``
  owns this invariant: it keeps a builder's real edges and its id
  universe, and builds the markers (``with_isolates``) only when a
  consumer first reads its full edge table;
* canonical presentation order is (focal, neighbor) sorted — applied ONLY at
  the serialize/compare boundary (``canonical``), never mid-pipeline;
* dedup keeps one row per directed (focal, neighbor) pair.

Everything is a lazy Dataset → Dataset transform; nothing materializes the
full relation on the driver.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import ray.data

EDGE_SCHEMA = pa.schema(
    [
        pa.field("focal", pa.int64()),
        pa.field("neighbor", pa.int64()),
        pa.field("weight", pa.float64()),
    ]
)


def edge_table(
    focal: np.ndarray, neighbor: np.ndarray, weight: np.ndarray | float = 1.0
) -> pa.Table:
    """Build an Arrow edge table from numpy arrays (zero-copy where possible)."""
    f = np.asarray(focal, dtype=np.int64)
    n = np.asarray(neighbor, dtype=np.int64)
    if np.isscalar(weight):
        w = np.full(len(f), float(weight), dtype=np.float64)
    else:
        w = np.asarray(weight, dtype=np.float64)
    return pa.Table.from_arrays(
        [pa.array(f), pa.array(n), pa.array(w)], schema=EDGE_SCHEMA
    )


def empty_edges() -> pa.Table:
    return edge_table(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))


def from_arrays(focal, neighbor, weight=1.0) -> ray.data.Dataset:
    return ray.data.from_arrow(edge_table(focal, neighbor, weight))


_COMPACT_BLOCK_BYTES = 64 << 20  # ~64 MiB target blocks after compaction


def compact(ds: ray.data.Dataset, min_blocks: int = 1) -> ray.data.Dataset:
    """Materialize + re-block a Dataset to ~64 MiB blocks.

    Ray's sort/aggregate/union operators produce one output block per input
    block, so a chain of graph ops multiplies tiny blocks (16 → 48 → 240 →
    864 for a 4k-row table) until per-block overhead dominates every later
    shuffle. Builders call this at their output boundary: the blocks land in
    the (spillable) object store once, sized so downstream shuffles see a
    sane partition count at ANY data scale — big tables keep many 64 MiB
    blocks, small tables collapse to a few.
    """
    ds = ds.materialize()
    nb = ds.num_blocks()
    target = max(min_blocks, int(np.ceil(ds.size_bytes() / _COMPACT_BLOCK_BYTES)))
    if nb > max(target, 8):
        ds = ds.repartition(target).materialize()
    return ds


def dedup(edges: ray.data.Dataset, keep: str = "min") -> ray.data.Dataset:
    """One row per directed (focal, neighbor); a distributed sort-shuffle.

    ``keep`` picks the surviving weight among duplicates (min/max/sum/mean).
    Builders should pre-dedup inside each batch before calling this so the
    shuffle moves already-compacted blocks.
    """
    if keep not in ("min", "max", "sum", "mean"):
        raise ValueError(f"unknown keep={keep!r}")
    from libpysal_ray.core.joins import grouped_agg

    out = grouped_agg(edges, ("focal", "neighbor"), ("weight",), keep)
    return out.rename_columns({f"{keep}(weight)": "weight"})


def batch_dedup(t: pa.Table) -> pa.Table:
    """In-batch (focal, neighbor) dedup — the pre-shuffle combiner."""
    if t.num_rows == 0:
        return t
    f = t.column("focal").to_numpy(zero_copy_only=False)
    n = t.column("neighbor").to_numpy(zero_copy_only=False)
    order = np.lexsort((n, f))
    fs, ns = f[order], n[order]
    first = np.ones(len(fs), dtype=bool)
    first[1:] = (fs[1:] != fs[:-1]) | (ns[1:] != ns[:-1])
    return t.take(pa.array(order[first]))


def canonical(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Canonical (focal, neighbor) order — boundary-only global sort.

    Mirrors the reference's canonical adjacency sort
    (graph/base.py:103-140); the engine keeps edges unordered internally.
    """
    return edges.sort(["focal", "neighbor"])


def with_isolates(
    real: ray.data.Dataset, ids: ray.data.Dataset | np.ndarray
) -> ray.data.Dataset:
    """``real`` plus one zero-weight self-loop marker per id with no real
    focal row — the second half of reference ``_resolve_islands``
    (graph/_utils.py:248-272). ``real`` must be marker-free and
    materialized; ``RayGraph`` calls this on the first full-table read.
    ``ids`` may repeat ids and may be a lazy plan."""
    if isinstance(ids, np.ndarray):
        ids_ds = ray.data.from_arrow(
            pa.table({"focal": pa.array(ids.astype(np.int64))})
        )
    else:
        ids_ds = ids
    # Physical plan (fully vectorized — no per-group Python):
    # 1. isolates = ids with no real focal row, found by ONE sum-aggregate
    #    over a tagged union of (ids, real focals) — robust to duplicate
    #    ids on either side;
    # 2. output = real ∪ one (i, i, 0.0) marker per isolate.

    def _tag_focal(side: int):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            one = np.ones(n, np.int64) if side else np.zeros(n, np.int64)
            other = np.zeros(n, np.int64) if side else np.ones(n, np.int64)
            # per-batch unique focal — combiner that shrinks the shuffle
            fo = t.column("focal").to_numpy(zero_copy_only=False)
            uf = np.unique(fo)
            k = len(uf)
            return pa.table(
                {
                    "focal": pa.array(uf),
                    "ci": pa.array(one[:k]),
                    "cr": pa.array(other[:k]),
                }
            )

        return f

    tagged = ids_ds.select_columns(["focal"]).map_batches(
        _tag_focal(1), batch_format="pyarrow"
    )
    # Ray calls no map UDF on an empty block, so an edgeless graph's real
    # side would reach the aggregate as a schema-less block; its count is
    # block metadata (``real`` is materialized), and without rows it adds
    # nothing to the sums
    if real.count():
        tagged = tagged.union(
            real.select_columns(["focal"]).map_batches(
                _tag_focal(0), batch_format="pyarrow"
            )
        )
    # size-switched aggregate (joins.grouped_sum): real is materialized and
    # ids_ds is typically a map over materialized edge blocks, so small
    # graphs prove their size and skip the native sort-aggregate's fixed
    # stage cost; unknown/big sizes shuffle.
    from libpysal_ray.core.joins import grouped_sum

    iso = (
        grouped_sum(tagged, ("focal",), ("ci", "cr"), ids_ds, real)
        .rename_columns({"sum(ci)": "ci", "sum(cr)": "cr"})
        .filter(expr="cr == 0")
    )
    markers = iso.map_batches(
        lambda t: pa.Table.from_arrays(
            [
                t.column("focal"),
                t.column("focal"),
                pa.array(np.full(t.num_rows, 0.0)),
            ],
            schema=EDGE_SCHEMA,
        ),
        batch_format="pyarrow",
    ).materialize()
    # both sides are materialized, so the union is pure block refs: every
    # downstream consumer (set ops read a graph's edges twice — real rows +
    # id universe) reuses the cached blocks with zero recompute. No
    # isolates means no union: the empty marker output carries no schema,
    # and Ray warns on every later execution that reads the union.
    return real if markers.count() == 0 else real.union(markers)


def without_markers(edges: ray.data.Dataset) -> ray.data.Dataset:
    """``edges`` without isolate markers: one per-batch filter. Prefer a
    graph's kept real edges (``RayGraph._real_edges``) where there are
    any: this filter empties a marker block, and an empty block reaches
    the next fused map without a schema, so Ray logs a schema change on
    every execution that reads it."""
    return edges.map_batches(drop_isolate_markers, batch_format="pyarrow")


def drop_isolate_markers(t: pa.Table) -> pa.Table:
    f = t.column("focal").to_numpy(zero_copy_only=False)
    n = t.column("neighbor").to_numpy(zero_copy_only=False)
    w = t.column("weight").to_numpy(zero_copy_only=False)
    keep = ~((f == n) & (w == 0.0))
    return t.filter(pa.array(keep))


def reverse(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Swap focal/neighbor (transpose W)."""

    def _rev(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column("neighbor"), t.column("focal"), t.column("weight")],
            schema=EDGE_SCHEMA,
        )

    return edges.map_batches(_rev, batch_format="pyarrow")


def filter_ids(
    edges: ray.data.Dataset, keep_ids: np.ndarray, mode: str = "both"
) -> ray.data.Dataset:
    """Semi-join against a broadcast id set (small side in the object store).

    For id sets too large to broadcast, callers should hash-join instead;
    at 10^12-row scale the subgraph id list is the small side by definition.
    """
    import ray as _ray

    keep_ref = _ray.put(np.asarray(sorted(set(keep_ids.tolist())), dtype=np.int64))

    def _filt(t: pa.Table) -> pa.Table:
        keep = _ray.get(keep_ref)
        f = t.column("focal").to_numpy(zero_copy_only=False)
        n = t.column("neighbor").to_numpy(zero_copy_only=False)
        fin = np.isin(f, keep)
        nin = np.isin(n, keep)
        if mode == "both":
            m = fin & nin
        elif mode == "focal":
            m = fin
        else:
            m = nin
        return t.filter(pa.array(m))

    return edges.map_batches(_filt, batch_format="pyarrow")


def tag(edges: ray.data.Dataset, side: int) -> ray.data.Dataset:
    """Append a constant int8 'side' column (for cogroup-style set ops)."""

    def _tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "side", pa.array(np.full(t.num_rows, side, dtype=np.int8))
        )

    return edges.map_batches(_tag, batch_format="pyarrow")
