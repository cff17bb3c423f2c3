"""Quadcell — the engine's H3/S2-style hierarchical tiling index.

No H3 library exists in this environment, so the engine defines its own
discrete global grid: at resolution ``r`` the lon/lat plane is a
``2^r × 2^r`` grid; ``cell_id = cy * 2^r + cx`` (row-major, uint64). Ring-k
neighborhoods are pure integer offset arithmetic — the same trick the
reference uses for raster contiguity (weights/raster.py:748-874) — which
makes cell-graph construction shuffle-light and the DuckDB oracle exact.

Also here: hot-cell salting. Web corpora concentrate mass in few cells
(SURVEY §4 skew row); ``salt_factors`` counts rows per cell with a per-block
``np.unique`` combiner merged by ``core.joins.grouped_sum``, derives exact
per-cell salt factors, and ``assign_salt`` splits hot cells into
``(cell, salt)`` sub-keys so no single reducer drowns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from libpysal_ray.core import joins as J
from libpysal_ray.core.hashing import splitmix64

LON_SPAN = 360.0
LAT_SPAN = 170.0  # clamp to [-85, 85) like web-mercator-ish tilings


def cell_encode(x: np.ndarray, y: np.ndarray, res: int) -> np.ndarray:
    """lon/lat → uint64 cell id at resolution ``res`` (2^res per axis)."""
    n = 1 << res
    cx = np.floor((x + 180.0) / LON_SPAN * n).astype(np.int64)
    cy = np.floor((y + 85.0) / LAT_SPAN * n).astype(np.int64)
    cx = np.clip(cx, 0, n - 1)
    cy = np.clip(cy, 0, n - 1)
    return (cy * n + cx).astype(np.int64)


def cell_decode(cell: np.ndarray, res: int) -> tuple[np.ndarray, np.ndarray]:
    n = 1 << res
    return cell % n, cell // n  # (cx, cy)


def cell_ring(cell: np.ndarray, res: int, k: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All cells at Chebyshev ring distance exactly ``k`` (H3 grid_ring
    semantics, reference graph/_indices.py:37-45, on the square grid).

    Returns (focal_cell_repeated, ring_cell, ring_distance) with
    out-of-domain cells dropped. Vectorized over the input cells.
    """
    n = 1 << res
    cx, cy = cell_decode(cell, res)
    offs = []
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            if max(abs(dx), abs(dy)) == k:
                offs.append((dx, dy))
    f_out, r_out, d_out = [], [], []
    for dx, dy in offs:
        nx, ny = cx + dx, cy + dy
        ok = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
        f_out.append(cell[ok])
        r_out.append(ny[ok] * n + nx[ok])
        d_out.append(np.full(int(ok.sum()), k, dtype=np.int64))
    return (
        np.concatenate(f_out) if f_out else np.empty(0, np.int64),
        np.concatenate(r_out) if r_out else np.empty(0, np.int64),
        np.concatenate(d_out) if d_out else np.empty(0, np.int64),
    )


def assign_cells(
    ds: ray.data.Dataset, res: int, x_col: str = "x", y_col: str = "y",
    out_col: str = "cell",
) -> ray.data.Dataset:
    """Append the quadcell id — stateless map_batches."""

    def _enc(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False)
        return t.append_column(out_col, pa.array(cell_encode(x, y, res)))

    return ds.map_batches(_enc, batch_format="pyarrow")


def salt_factors(
    ds: ray.data.Dataset, cell_col: str = "cell", target_rows_per_part: int = 100_000
) -> dict[int, int]:
    """Pre-aggregate per-cell counts → salt factor per hot cell.

    Each block is reduced to its ``(cell, cnt)`` partials by a
    ``np.unique`` combiner, and ``grouped_sum`` merges the partials: one
    coalesced task when the input is provably small, otherwise the
    sharded groupby over at most blocks × distinct-cells partial rows
    instead of one row per page. The merged counts are exact, so the
    factors equal those of a plain ``groupby(cell).count()`` — checkpoint
    partition keys (``cell_salted``) depend on them.

    Returns {cell: ceil(cnt / target)} for cells with cnt > target (cold
    cells default to 1 and are not listed). The dict is small (only hot
    cells) and is broadcast via ray.put by assign_salt.
    """

    def _count(t: pa.Table) -> pa.Table:
        cell, cnt = np.unique(
            t.column(cell_col).to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True,
        )
        return pa.table({cell_col: cell, "cnt": cnt.astype(np.int64)})

    partial = ds.map_batches(_count, batch_format="pyarrow")
    counts = J.grouped_sum(partial, (cell_col,), ("cnt",)).map_batches(
        lambda t: pa.table({
            cell_col: t.column(cell_col),
            "cnt": pc.cast(t.column("sum(cnt)"), pa.int64()),
        }),
        batch_format="pyarrow",
    )
    hot = counts.filter(expr=f"cnt > {target_rows_per_part}").take_all()
    return {
        int(r[cell_col]): int(np.ceil(r["cnt"] / target_rows_per_part))
        for r in hot
    }


def assign_salt(
    ds: ray.data.Dataset,
    factors: dict[int, int],
    cell_col: str = "cell",
    id_col: str = "doc_id",
    out_col: str = "cell_salted",
) -> ray.data.Dataset:
    """(cell, salt=hash(id) % S) sub-key for hot cells; salt 0 elsewhere.

    The factor table is put in the object store ONCE; each batch does a
    vectorized lookup. cell_salted = cell * 4096 + salt (S capped at 4096).
    """
    if factors:
        keys = np.array(sorted(factors), dtype=np.int64)
        vals = np.array([min(factors[k], 4096) for k in sorted(factors)], np.int64)
    else:
        keys = np.empty(0, np.int64)
        vals = np.empty(0, np.int64)
    ref = ray.put((keys, vals))

    def _salt(t: pa.Table) -> pa.Table:
        ks, vs = ray.get(ref)
        cell = t.column(cell_col).to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        s = np.ones(len(cell), dtype=np.int64)
        if len(ks):
            idx = np.searchsorted(ks, cell)
            idx = np.clip(idx, 0, len(ks) - 1)
            hit = ks[idx] == cell
            s[hit] = vs[idx[hit]]
        salt = (splitmix64(ids) % s.astype(np.uint64)).astype(np.int64)
        return t.append_column(out_col, pa.array(cell * 4096 + salt))

    return ds.map_batches(_salt, batch_format="pyarrow")
