#!/usr/bin/env python3
"""Regenerate perfbench/refs.json: the expected output of every suite query
as an order-insensitive digest, computed from the query's ORACLE_SQL with
DuckDB over each generated ``documents`` variant.

    python3 perfbench/make_refs.py

Run it from the repository root after changing a suite, the documents
generator or an oracle. DuckDB runs single-threaded with a capped spill
size and a per-query time limit; a query whose oracle fails or runs out of
time is reported and left without a reference, so the benchmark counts it
as failed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIMIT_S = 120.0

# Candidate suite queries the suites do not run, with the reason. The
# first five reasons were measured once at sf0.1; this script does not
# re-check them.
EXCLUDED = {
    "gabriel": "oracle spills without bound at sf0.1 (filled a 12 GB disk)",
    "rng": "oracle spills without bound at sf0.1 (filled a 12 GB disk)",
    "delaunay": "oracle runs past 60 s at sf0.1",
    "voronoi": "oracle runs past 60 s at sf0.1",
    "lisa_inference": "oracle overflows INT128 at sf0.1",
    "tile_counts": "run budget; pip_assign covers the PIP kernel instead",
    "pip_assign": "run budget; PIP is measured by flagship_synth",
    "kernel_triangular": "run budget; distance_band50 covers the tiled "
                         "distance builder",
    "kernel_adaptive": "run budget (14 executions)",
    "hex_lattice": "run budget",
    "raster_rook": "run budget",
    "raster_queen_k2_nodata": "run budget (4.5 s native sort-aggregate)",
    "fuzzy_gap": "run budget (8 s at sf0.1)",
    "symmetrize_knn": "run budget (15 executions); knn4 covers the build",
    "min_threshold": "run budget",
    "cell_graph": "run budget",
    "block_lang": "run budget",
    "correlogram": "run budget (60 executions, 9 s at sf0.01)",
    "hits_dist": "run budget (26 executions)",
    "pagerank_dist": "run budget",
    "lpa_dist": "run budget",
    "g_inference": "run budget",
    "moran_inf": "run budget (15 executions)",
    "travel_cost": "run budget",
    "flow_acc": "run budget",
    "gfj": "run budget",
}


def oracle_digest(con, sql: str) -> str:
    from perfbench import inputs

    timer = threading.Timer(LIMIT_S, con.interrupt)
    timer.start()
    try:
        return inputs.digest(con.execute(sql).arrow())
    finally:
        timer.cancel()


def main() -> int:
    sys.path.insert(0, ROOT)
    import duckdb
    import pyarrow.parquet as pq

    from libpysal_ray.pipelines.queries import ORACLE_SQL
    from perfbench import inputs, workloads

    sizes = {n for n, _ in workloads.SUITES.values()} | {workloads.QUICK_DOCS}
    out = {"suites": {}, "excluded": EXCLUDED}
    bad = 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for n in sorted(sizes):
            names = [q for s, (n_docs, qs) in workloads.SUITES.items()
                     for q in qs if n_docs == n or n == workloads.QUICK_DOCS]
            for v in range(workloads.VARIANTS):
                path = os.path.join(tmp, "documents.parquet")
                pq.write_table(inputs.documents(n, v), path)
                con = duckdb.connect(config={
                    "threads": 1, "memory_limit": "2GB",
                    "temp_directory": os.path.join(tmp, "spill"),
                    "max_temp_directory_size": "2GB",
                })
                con.execute("CREATE VIEW documents AS SELECT * FROM "
                            f"read_parquet('{path}')")
                refs = out["suites"].setdefault(str(n), {}).setdefault(
                    str(v), {})
                for q in names:
                    t0 = time.time()
                    try:
                        refs[q] = oracle_digest(con, ORACLE_SQL[q])
                    except Exception as e:  # noqa: BLE001
                        bad += 1
                        print(f"{n} v{v} {q}: {type(e).__name__}: {e}",
                              file=sys.stderr)
                        continue
                    print(f"{n} v{v} {q:18s} {time.time() - t0:6.2f}s "
                          f"{refs[q]}", file=sys.stderr)
                con.close()
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
