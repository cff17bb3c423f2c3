"""Deterministic geocoding of record ids / urls to points.

The engine's web-page input has no coordinates; points are derived by a
stable multiplicative hash (Knuth constants) so that every run, every batch
order, and every cluster size produces identical coordinates — and so that
the DuckDB correctness oracle can reproduce them exactly in ANSI SQL:

    ix = (id * 2654435761) % 2^32        -- exact in int64 SQL
    x  = ix % grid                        -- integer coordinate space
    lon = ix / 2^32 * 360 - 180           -- single correctly-rounded IEEE ops

Float determinism note: every derivation is a chain of individually
correctly-rounded IEEE-754 double ops in a fixed order, so numpy and DuckDB
produce bit-identical results.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from libpysal_ray.core.hashing import GEO_CX, GEO_CY, mul32

M32F = 4294967296.0


def geocode_ids(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    grid: int | None = None,
    lonlat: bool = False,
) -> ray.data.Dataset:
    """Append deterministic coordinates derived from an integer id column.

    grid → integer coords x = hash % grid (exact, SQL-reproducible).
    lonlat → x ∈ [-180, 180), y ∈ [-85, 85) floats.
    Stateless map_batches; no shuffle.
    """

    def _geo(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ix = mul32(ids, GEO_CX).astype(np.float64)
        iy = mul32(ids, GEO_CY).astype(np.float64)
        if grid is not None:
            x = (mul32(ids, GEO_CX) % np.uint64(grid)).astype(np.float64)
            y = (mul32(ids, GEO_CY) % np.uint64(grid)).astype(np.float64)
        elif lonlat:
            x = ix / M32F * 360.0 - 180.0
            y = iy / M32F * 170.0 - 85.0
        else:
            x, y = ix, iy
        t = t.append_column("x", pa.array(x))
        return t.append_column("y", pa.array(y))

    return ds.map_batches(_geo, batch_format="pyarrow")
