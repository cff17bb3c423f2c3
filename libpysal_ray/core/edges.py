"""Edge-table primitives: the engine's one canonical relation.

Schema: ``focal: int64, neighbor: int64, weight: float64``. This mirrors the
reference's own canonical columnar adjacency (a pandas Series indexed by a
(focal, neighbor) MultiIndex — /root/reference/libpysal/graph/base.py:68-141 —
which it serializes natively to Parquet, graph/io/_parquet.py:27-36).

Invariants preserved here, matching the reference:
* isolates (ids with no neighbors) appear as zero-weight self-loops
  (reference graph/_utils.py:248-272 ``_resolve_islands``). ``RayGraph``
  owns this invariant: it keeps a builder's real edges and its id
  universe, builds one ``node_table`` (focal, cardinality) from them at
  most once, and reads the markers off it (``isolate_markers``) when a
  consumer reads its full edge table;
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


NODE_SCHEMA = pa.schema(
    [pa.field("focal", pa.int64()), pa.field("cardinality", pa.int64())]
)


def _focal_counts(t: pa.Table) -> pa.Table:
    """Per-block (focal, number of non-marker rows): the combiner that
    feeds the node table's one aggregate; a marker row counts 0."""
    f = t.column("focal").to_numpy(zero_copy_only=False)
    n = t.column("neighbor").to_numpy(zero_copy_only=False)
    w = t.column("weight").to_numpy(zero_copy_only=False)
    u, inv = np.unique(f, return_inverse=True)
    c = np.bincount(inv, weights=~((f == n) & (w == 0.0)), minlength=len(u))
    return pa.Table.from_arrays(
        [pa.array(u.astype(np.int64)), pa.array(c.astype(np.int64))],
        schema=NODE_SCHEMA,
    )


def _id_rows(t: pa.Table) -> pa.Table:
    u = np.unique(t.column("focal").to_numpy(zero_copy_only=False))
    return pa.Table.from_arrays(
        [pa.array(u.astype(np.int64)), pa.array(np.zeros(len(u), np.int64))],
        schema=NODE_SCHEMA,
    )


def node_table(
    edges: ray.data.Dataset, ids: ray.data.Dataset | np.ndarray | None = None
) -> ray.data.Dataset:
    """The materialized ``(focal, cardinality)`` table, one row per id,
    ``cardinality`` = the id's non-marker focal rows (reference ``W``'s
    ``cardinalities``, weights.py:747-756). One size-switched sum over
    per-block counts.

    ``ids=None``: ``edges`` is a finished table and its focals are the
    ids (marker rows count 0). Otherwise ``edges`` is a builder's
    materialized real edges and the ids are ``ids`` ∪ their focals;
    ``ids`` (a numpy array or a lazy plan with a ``focal`` column) may
    repeat ids."""
    from libpysal_ray.core.joins import grouped_sum

    side = edges.map_batches(_focal_counts, batch_format="pyarrow")
    sizes = (edges,)
    if ids is not None:
        if isinstance(ids, np.ndarray):
            ids_ds = ray.data.from_arrow(_id_rows(pa.table({"focal": ids})))
        else:
            ids_ds = ids.select_columns(["focal"]).map_batches(
                _id_rows, batch_format="pyarrow"
            )
        # Ray calls no map UDF on an empty block, so an edgeless graph's
        # count side would reach the aggregate as a schema-less block; its
        # row count is block metadata (the real edges are materialized),
        # and without rows it adds nothing to the sums
        side = ids_ds.union(side) if edges.count() else ids_ds
        sizes = (ids_ds, edges)
    return (
        grouped_sum(side, ("focal",), ("cardinality",), *sizes)
        .rename_columns({"sum(cardinality)": "cardinality"})
        .materialize()
    )


@ray.remote(num_returns=2)
def _block_markers(nodes: pa.Table) -> tuple[pa.Table, int]:
    if nodes.num_rows == 0:  # a shuffle's empty partition may be untyped
        return empty_edges(), 0
    c = nodes.column("cardinality").to_numpy(zero_copy_only=False)
    iso = nodes.column("focal").to_numpy(zero_copy_only=False)[c == 0]
    return edge_table(iso, iso, 0.0), len(iso)


def isolate_markers(nodes: ray.data.Dataset) -> ray.data.Dataset | None:
    """One zero-weight self-loop ``(i, i, 0.0)`` per row of the
    materialized node table ``nodes`` with cardinality 0 — the second
    half of reference ``_resolve_islands`` (graph/_utils.py:248-272) —
    materialized, or None without isolates.

    One small task per node-table block, not a Dataset map: a lazy map
    over a block without isolates yields a zero-row block, which the next
    fused map passes on without a schema (Ray then logs a schema change
    on every execution that reads the edges), so only blocks with
    isolates may enter the edge table, and no Dataset execution can tell
    which those are without running."""
    refs = [ref for b in nodes.iter_internal_ref_bundles() for ref, _ in b.blocks]
    out = [_block_markers.remote(ref) for ref in refs]
    counts = ray.get([k for _m, k in out])
    kept = [m for (m, _k), k in zip(out, counts) if k]
    return ray.data.from_arrow_refs(kept) if kept else None


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
