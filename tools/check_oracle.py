"""Local replica of the driver's correctness gate.

Runs every queries() entry at the given sf and compares against its
oracle_sql() via DuckDB: row count, sorted-column schema, and
order-insensitive value comparison. Usage:

    PYTHONPATH=. python tools/check_oracle.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

# the checkout this script lives in, ahead of any installed copy
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True
    )
    return df


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if len(ray_df) != len(sql_df):
        return f"ROWS ray={len(ray_df)} sql={len(sql_df)}"
    a, b = canon(ray_df), canon(sql_df)
    if list(a.columns) != list(b.columns):
        return f"SCHEMA ray={list(a.columns)} sql={list(b.columns)}"
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            eq = (av == bv.astype(av.dtype)) | (pd.isna(av) & pd.isna(bv))
            if not eq.all():
                i = int(np.flatnonzero(~eq)[0])
                return (
                    f"VALUES col={c} row={i} ray={av[i]!r} sql={bv[i]!r} "
                    f"(n_bad={int((~eq).sum())})"
                )
        else:
            if not (av == bv).all():
                i = int(np.flatnonzero(av != bv)[0])
                return f"VALUES col={c} row={i} ray={av[i]!r} sql={bv[i]!r}"
    return "OK"


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as m

    qs, oracles = m.queries(), m.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )
    fails = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"{name:22s} RAY-ERROR {type(e).__name__}: {e}")
            fails += 1
            continue
        if name not in oracles:
            print(f"{name:22s} rows-only rows={len(ray_df)} "
                  f"({time.time()-t0:.1f}s)")
            continue
        sql_df = con.execute(oracles[name]).fetchdf()
        verdict = compare(name, ray_df, sql_df)
        status = "ok" if verdict == "OK" else "FAIL"
        if verdict != "OK":
            fails += 1
        print(f"{name:22s} {status} rows={len(ray_df)} "
              f"({time.time()-t0:.1f}s) {verdict if verdict != 'OK' else ''}")
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
