"""Per-partition lineage: checkpointed, resumable Parquet outputs.

The reference has no checkpoint/resume story (single process); at 100-TB
scale a failed run must skip finished partitions (SURVEY §4). Design:

* each output partition (one per shuffle key group) is written as ONE
  parquet file named by its key, plus a JSON done-marker in ``_manifest/``
  recording rows, bytes, a text-digest XOR (the byte-identity invariant
  aggregated per partition), and wall time;
* both writes are atomic (tmp file + rename), so a marker implies a
  complete partition file;
* resume = read the marker set (one listdir) once at plan build; the
  pipeline filters the rows of done keys out as soon as their key is known
  (the flagship: right after salting, before the PIP join and the
  shuffle), so finished partitions are never joined, shuffled or
  rewritten. No driver-side data pass.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def load_done(out_dir: str) -> set[str]:
    md = manifest_dir(out_dir)
    if not os.path.isdir(md):
        return set()
    return {
        f[: -len(".json")]
        for f in os.listdir(md)
        if f.endswith(".json")
    }


def load_manifest(out_dir: str) -> list[dict]:
    md = manifest_dir(out_dir)
    if not os.path.isdir(md):
        return []
    out = []
    for f in sorted(os.listdir(md)):
        if f.endswith(".json"):
            with open(os.path.join(md, f)) as fh:
                out.append(json.load(fh))
    return out


def write_partition(
    out_dir: str, key: str, table: pa.Table, metrics: dict | None = None,
    run_id: str | None = None,
) -> dict:
    """Atomically write one partition + its done-marker. Idempotent
    across runs: re-running a finished partition overwrites with
    identical content. WITHIN one run (same ``run_id``) a second write of
    the same key fails loudly — it means the shuffle delivered one key
    group to two tasks (e.g. equal sort keys straddling block boundaries,
    ADVICE r01), which would silently corrupt the checkpoint otherwise."""
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(manifest_dir(out_dir), exist_ok=True)
    if run_id is not None:
        # ATOMIC per-(run_id, key) sentinel: content is written to a tmp
        # file and os.link'ed into place — link fails with EEXIST if any
        # other writer got there first, closing the read-check-write race
        # of the former manifest inspection (ADVICE r2 #4). An identical
        # rewrite (task retry) is allowed; differing content means the
        # shuffle delivered one key group to two tasks.
        content = json.dumps(
            {
                "rows": table.num_rows,
                "digest_xor": (metrics or {}).get("digest_xor"),
            },
            sort_keys=True,
        )
        spath = os.path.join(
            manifest_dir(out_dir), f"{key}.run-{run_id}.sentinel"
        )
        stmp = spath + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(stmp, "w") as fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.link(stmp, spath)
        except FileExistsError:
            with open(spath) as fh:
                prev = fh.read()
            if prev != content:
                raise RuntimeError(
                    f"partition {key!r} written twice with differing "
                    f"content in run {run_id} — a shuffle key group "
                    "straddled task boundaries; checkpoint would be "
                    "corrupt"
                ) from None
        finally:
            os.unlink(stmp)
    t0 = time.time()
    data_path = os.path.join(out_dir, f"part-{key}.parquet")
    tmp = data_path + f".tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp)
    os.replace(tmp, data_path)
    row = {
        "key": key,
        "rows": table.num_rows,
        "bytes": table.nbytes,
        "wall_s": time.time() - t0,
        **({"run_id": run_id} if run_id is not None else {}),
        **(metrics or {}),
    }
    mpath = os.path.join(manifest_dir(out_dir), f"{key}.json")
    mtmp = mpath + f".tmp-{uuid.uuid4().hex[:8]}"
    with open(mtmp, "w") as fh:
        json.dump(row, fh)
    os.replace(mtmp, mpath)
    return row
