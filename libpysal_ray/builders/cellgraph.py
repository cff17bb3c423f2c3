"""Cell-graph builder — the H3-style tiling graph on quadcells.

Reference semantics: graph/_indices.py:4-58 ``_build_from_h3`` /
base.py:1598-1660 ``build_h3``: nodes = occupied cells; neighbors = cells
in ``grid_ring(ix, i)`` for i = 1..order that are ALSO in the id set;
weight = ring distance ('distance'), binary, or 1/distance ('inverse').

Quadcell rings are Chebyshev rings on the 2^r × 2^r grid (see
spatial/cells.py). Plan: flat-map each occupied cell → candidate
(focal, neighbor, ring) rows by offset arithmetic, then ONE cogroup
semi-join against the occupied-cell set keyed on neighbor (no broadcast —
the cell set can be arbitrarily large).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from libpysal_ray.core import edges as E
from libpysal_ray.core.graph import RayGraph
from libpysal_ray.spatial.cells import cell_ring


def cell_graph(
    cells: ray.data.Dataset,
    res: int,
    order: int = 1,
    weight: str = "distance",
    cell_col: str = "cell",
) -> RayGraph:
    """Graph over occupied cells; ``cells`` must have unique cell ids."""
    ids = cells.select_columns([cell_col]).rename_columns({cell_col: "focal"})

    def _cands(t: pa.Table) -> pa.Table:
        c = t.column(cell_col).to_numpy(zero_copy_only=False).astype(np.int64)
        fs, ns, ds = [], [], []
        for k in range(1, order + 1):
            f, r, d = cell_ring(c, res, k)
            fs.append(f)
            ns.append(r)
            ds.append(d)
        f = np.concatenate(fs) if fs else np.empty(0, np.int64)
        n = np.concatenate(ns) if ns else np.empty(0, np.int64)
        d = np.concatenate(ds) if ds else np.empty(0, np.int64)
        return pa.table(
            {"focal": pa.array(f), "neighbor": pa.array(n),
             "ring": pa.array(d)}
        )

    cands = cells.map_batches(_cands, batch_format="pyarrow")
    occupied = ids.rename_columns({"focal": "neighbor"})

    # bucketed vectorized semi-join on neighbor: keep candidates whose
    # target cell is occupied (no broadcast — the cell set can be
    # arbitrarily large; one shuffle on the bucketed cell key)
    from libpysal_ray.core.joins import bucket_join

    kept = bucket_join(cands, occupied, on="neighbor", how="semi")

    def _weights(t: pa.Table) -> pa.Table:
        f = t.column("focal").to_numpy(zero_copy_only=False)
        n = t.column("neighbor").to_numpy(zero_copy_only=False)
        d = t.column("ring").to_numpy(zero_copy_only=False).astype(np.float64)
        if weight == "distance":
            w = d
        elif weight == "binary":
            w = np.ones(len(d))
        elif weight == "inverse":
            w = 1.0 / d
        else:
            raise ValueError(weight)
        return E.edge_table(f, n, w)

    edges = kept.map_batches(_weights, batch_format="pyarrow")
    return RayGraph(edges, ids=ids)
