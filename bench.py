#!/usr/bin/env python
"""Benchmark harness — runs the engine's headline pipelines over
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) and prints ONE JSON line.

Modes:
  python bench.py                 # all queries, one session
  python bench.py --scaling      # flagship at N and 4N CPUs in FRESH
                                  # processes → throughput + scaling efficiency
                                  # (N = $GRAFT_SCALE_N, default host CPUs / 4),
                                  # with the pre-shuffle map's elapsed
                                  # time and summed task wall per level
  python bench.py --only a,b,c   # subset (internal / debugging)

Owns its Ray session (ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS),
default the host's CPU count); nothing in libpysal_ray calls ray.init.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
HOST_CPUS = os.cpu_count() or 1
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or HOST_CPUS)


def _consume(res) -> int:
    """Execute a query result and return its row count (never a driver
    materialize of the data itself)."""
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.count()
    if isinstance(res, pa.Table):
        return res.num_rows
    return len(res)


def run(sf_dir: str, num_cpus: int, only: list[str] | None = None):
    import logging
    import warnings

    warnings.filterwarnings("ignore")
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            log_to_driver=False,
        )
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from libpysal_ray.pipelines.queries import QUERIES

    timings: dict[str, float] = {}
    rows: dict[str, int] = {}
    for name, fn in QUERIES.items():
        if only and name not in only:
            continue
        t0 = time.time()
        rows[name] = _consume(fn(sf_dir))
        timings[name] = round(time.time() - t0, 3)
    return timings, rows


SCALE_ROWS = int(os.environ.get("GRAFT_SCALE_ROWS", "6000000"))
# N vs 4N parallelism levels for --scaling and --skew. The default puts 4N
# at the host's CPU count: a level above it measures the host's
# overcommit (SMT or shared vCPUs), not the engine's scaling.
SCALE_N = int(os.environ.get("GRAFT_SCALE_N") or max(1, HOST_CPUS // 4))


def _warn_overcommit() -> None:
    if 4 * SCALE_N > HOST_CPUS:
        print(
            f"WARNING: 4N = {4 * SCALE_N} CPUs exceeds this host's "
            f"{HOST_CPUS}; the {4 * SCALE_N}-CPU leg is overcommitted and "
            "its scaling efficiency measures the host, not the engine",
            file=sys.stderr,
            flush=True,
        )


def _pre_shuffle_map(ds) -> dict:
    """Elapsed seconds and summed task wall of the fused map that feeds
    the flagship's shuffle (the operator ending in ``_verify_drop``), read
    from an executed Dataset's stats. Elapsed well above wall / CPUs means
    the map ran narrower than the session."""
    stack = [ds._plan.stats().to_summary()]
    while stack:
        s = stack.pop()
        for op in s.operators_stats:
            if "_verify_drop" in op.operator_name:
                return {"map_elapsed_s": round(op.time_total_s, 2),
                        "map_task_wall_s": round(op.wall_time["sum"], 2)}
        stack.extend(s.parents)
    return {}


def run_scaling_once(n_rows: int, num_cpus: int) -> dict:
    """Flagship over n synthetic pages (generated shard-parallel, no driver
    data, identical input at both parallelism levels). Returns the seconds
    of the faster of 2 runs and that run's pre-shuffle map split."""
    import logging
    import warnings

    warnings.filterwarnings("ignore")
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        log_to_driver=False,
    )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import ray.data

    from libpysal_ray.pipelines.flagship import flagship
    from libpysal_ray.sources.pages import synth_pages

    def _run(rows: int, blocks: int) -> dict:
        pages = synth_pages(rows, include_html=False, num_blocks=blocks)
        narrow = ray.data.range(
            rows, override_num_blocks=blocks
        ).map_batches(
            lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow"
        )
        t0 = time.time()
        out = flagship(
            pages=pages,
            narrow=narrow,
            rows_per_part=max(50_000, rows // 64),
            salt_sample_mod=64,
        ).materialize()  # keeps the execution's stats; count() does not
        dt = time.time() - t0
        n = out.count()
        assert n == rows, (n, rows)
        return {"seconds": dt, **_pre_shuffle_map(out)}

    # warmup: spin up the worker pool so measured throughput reflects
    # steady-state, not cluster cold-start
    _run(50_000, max(8, num_cpus))
    blocks = max(64, n_rows // 25_000)  # FIXED across cluster sizes
    # min of 2 repeats: this sandbox has bursty external contention
    # (observed ±30% on identical runs); min is the least-contended sample
    best = min((_run(n_rows, blocks) for _ in range(2)),
               key=lambda r: r["seconds"])
    ray.shutdown()
    return best


HOT_FRAC = float(os.environ.get("GRAFT_SKEW_FRAC", "0.5"))
HOT_CELL = 777  # one fixed quadcell (res=5 domain is 0..1023)


def _hot_cell_remap(t):
    """Deterministic skew injector: splitmix(doc_id) < frac → the hot
    cell. Applied identically to the main and salt-count streams by the
    flagship's cell_remap hook."""
    import numpy as np
    import pyarrow as pa

    from libpysal_ray.core.hashing import splitmix64

    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    cell = t.column("cell").to_numpy(zero_copy_only=False).copy()
    hot = splitmix64(ids) < np.uint64(int(HOT_FRAC * 2.0**64))
    cell[hot] = HOT_CELL
    idx = t.schema.get_field_index("cell")
    return t.set_column(idx, "cell", pa.array(cell))


def run_skew_once(n_rows: int, num_cpus: int, salted: bool) -> float:
    """Flagship over n synthetic pages with ~HOT_FRAC of them remapped
    into ONE quadcell — the adversarial shuffle-skew case. salted=False
    disables hot-cell salting by setting the per-partition target above
    any count (factor 1 everywhere); salted=True is the production path."""
    import logging
    import warnings

    warnings.filterwarnings("ignore")
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        log_to_driver=False,
    )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import ray.data

    from libpysal_ray.pipelines.flagship import flagship
    from libpysal_ray.sources.pages import synth_pages

    def _run(rows: int, blocks: int) -> float:
        pages = synth_pages(rows, include_html=False, num_blocks=blocks)
        narrow = ray.data.range(
            rows, override_num_blocks=blocks
        ).map_batches(
            lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow"
        )
        rpp = max(50_000, rows // 64) if salted else (1 << 60)
        t0 = time.time()
        out = flagship(
            pages=pages,
            narrow=narrow,
            rows_per_part=rpp,
            salt_sample_mod=64 if salted else 1,
            cell_remap=_hot_cell_remap,
        )
        n = out.count()
        dt = time.time() - t0
        assert n == rows, (n, rows)
        return dt

    _run(50_000, max(8, num_cpus))
    blocks = max(64, n_rows // 25_000)
    dt = min(_run(n_rows, blocks) for _ in range(2))
    ray.shutdown()
    return dt


def main() -> None:
    argv = sys.argv[1:]
    if "--skew-once" in argv:
        i = argv.index("--skew-once")
        cpus = int(argv[i + 1])
        salted = argv[i + 2] == "salted"
        dt = run_skew_once(SCALE_ROWS, cpus, salted)
        print(json.dumps({"cpus": cpus, "salted": salted,
                          "seconds": dt, "rows": SCALE_ROWS}))
        return
    if "--skew" in argv:
        _warn_overcommit()
        # Skew robustness (SURVEY §4 skew row): ~HOT_FRAC of pages in ONE
        # quadcell; scaling efficiency N→4N with and without salting,
        # interleaved min-of-2 per level (bimodal host contention).
        results: dict = {}
        for _round in range(2):
            for salted in ("salted", "unsalted"):
                for cpus in (SCALE_N, 4 * SCALE_N):
                    out = subprocess.run(
                        [sys.executable, os.path.abspath(__file__),
                         "--skew-once", str(cpus), salted],
                        env=dict(os.environ), capture_output=True,
                        text=True, timeout=3600,
                    )
                    line = [ln for ln in out.stdout.splitlines()
                            if ln.startswith("{")][-1]
                    r = json.loads(line)
                    key = (salted, cpus)
                    if key not in results or r["seconds"] < results[key]["seconds"]:
                        results[key] = r
        rep: dict = {
            "metric": f"skew_scaling_efficiency_{SCALE_N}to{4*SCALE_N}cpu",
            "unit": "ratio",
            "rows": SCALE_ROWS,
            "hot_frac": HOT_FRAC,
        }
        for salted in ("salted", "unsalted"):
            tn = results[(salted, SCALE_N)]["seconds"]
            t4n = results[(salted, 4 * SCALE_N)]["seconds"]
            eff = (SCALE_ROWS / t4n) / (SCALE_ROWS / tn) / 4.0
            rep[salted] = {
                "efficiency": round(eff, 3),
                f"sec_cpus{SCALE_N}": round(tn, 2),
                f"sec_cpus{4*SCALE_N}": round(t4n, 2),
                f"rows_per_sec_cpus{4*SCALE_N}": round(SCALE_ROWS / t4n, 1),
            }
        rep["value"] = rep["salted"]["efficiency"]
        print(json.dumps(rep))
        return
    if "--scaling-once" in argv:
        cpus = int(argv[argv.index("--scaling-once") + 1])
        r = run_scaling_once(SCALE_ROWS, cpus)
        print(json.dumps({"cpus": cpus, "rows": SCALE_ROWS, **r}))
        return
    if "--scaling" in argv:
        _warn_overcommit()
        # Same input, two parallelism levels, FRESH processes — the
        # in-sandbox stand-in for the north rule's N vs 4N cluster sizes.
        # The host's contention is BIMODAL (identical runs alternate
        # ~30s / ~60s windows), so the two levels are measured in
        # INTERLEAVED rounds (N, 4N, N, 4N) with a min per level —
        # otherwise one slow window on one level fabricates a regression
        # (or perfect scaling) that no code change explains.
        results = {}
        for _round in range(2):
            for cpus in (SCALE_N, 4 * SCALE_N):
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--scaling-once", str(cpus)],
                    env=dict(os.environ), capture_output=True, text=True,
                    timeout=3600,
                )
                line = [ln for ln in out.stdout.splitlines()
                        if ln.startswith("{")][-1]
                r = json.loads(line)
                if cpus not in results or r["seconds"] < results[cpus]["seconds"]:
                    results[cpus] = r
        tn = results[SCALE_N]["seconds"]
        t4n = results[4 * SCALE_N]["seconds"]
        n_rows = results[4 * SCALE_N]["rows"]
        thr_n = n_rows / tn
        thr_4n = n_rows / t4n
        eff = (thr_4n / thr_n) / 4.0
        print(json.dumps({
            "metric": f"flagship_scaling_efficiency_{SCALE_N}cpu_to_{4*SCALE_N}cpu",
            "value": round(eff, 3),
            "unit": "ratio",
            "rows": n_rows,
            "num_cpus": [SCALE_N, 4 * SCALE_N],
            "seconds": {f"cpus{SCALE_N}": round(tn, 2),
                        f"cpus{4*SCALE_N}": round(t4n, 2)},
            "rows_per_sec": {f"cpus{SCALE_N}": round(thr_n, 1),
                            f"cpus{4*SCALE_N}": round(thr_4n, 1)},
            # the fused map ahead of the shuffle, from the same runs
            "pre_shuffle_map": {
                f"cpus{c}": {k: v for k, v in results[c].items()
                             if k.startswith("map_")}
                for c in (SCALE_N, 4 * SCALE_N)
            },
            "note": (
                "min over 2 interleaved rounds per level; values > 1.0 "
                "mean the longer low-CPU runs could not dodge the host's "
                "bimodal contention windows (see BASELINE.md)"
            ),
        }))
        return

    only = None
    if "--only" in argv:
        only = argv[argv.index("--only") + 1].split(",")
    timings, rows = run(SF_DIR, NUM_CPUS, only)
    total = round(sum(timings.values()), 3)
    flag_t = timings.get("flagship")
    flag_rps = (
        round(rows["flagship"] / flag_t, 1)
        if flag_t and rows.get("flagship")
        else None
    )
    # Full per-query detail first (humans / logs), then ONE SHORT summary
    # as the LAST stdout line: the driver machine-parses only the final
    # line and keeps a ~1KB tail, so a 96-query detail dict there parses
    # as null (VERDICT r3 "do this" #8). Totals + slowest-10 + flagship
    # rows/s stay well under the capture window.
    sys.stdout.flush()
    print(json.dumps({
        "metric": "total_pipeline_seconds_detail",
        "value": total,
        "unit": "sec",
        "queries": {k: round(v, 2) for k, v in timings.items()},
        "rows": rows,
        "flagship_rows_per_sec": flag_rps,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
    }, separators=(",", ":")))
    slowest = dict(sorted(timings.items(), key=lambda kv: -kv[1])[:10])
    print(json.dumps({
        "metric": "total_pipeline_seconds",
        "value": total,
        "unit": "sec",
        "n_queries": len(timings),
        "queries": {k: round(v, 2) for k, v in slowest.items()},
        "flagship_rows_per_sec": flag_rps,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
    }, separators=(",", ":")))
    sys.stdout.flush()
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
