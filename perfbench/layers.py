"""Per-layer instrumentation for the traced benchmark run.

Everything here wraps engine or Ray entry points from the benchmark
process; nothing inside the engine is changed. ``install`` must run before
the query registry is imported, because engine modules bind some
``core.joins`` functions by name at import time.

Spans form a tree pass -> query -> execution. Each span has a name, a start,
an end and the id of its parent. They are kept in memory and written out by
the caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import Counter

JOIN_FNS = (
    "grouped_by_key",
    "grouped_agg",
    "grouped_sum",
    "pair_semi",
    "bucket_join",
    "cogroup_pairs",
    "per_group",
    "topk_per_group",
    "broadcast_lookup",
)

OP_KINDS = ("map", "actor_map", "sort", "aggregate", "repartition")


class Tracer:
    """Span and counter store. Recording happens only while ``on`` is set,
    so the wrappers stay installed, and nearly free, during the untraced
    passes of a traced run."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.exec_ms: list[float] = []
        self._lock = threading.Lock()
        self._current: int | None = None
        self._open: dict[int, int] = {}

    def _begin(self, name: str) -> int:
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"id": sid, "parent": self._current,
                               "name": name, "start": time.perf_counter(),
                               "end": None})
        return sid

    def _end(self, sid: int) -> float:
        s = self.spans[sid]
        s["end"] = time.perf_counter()
        return s["end"] - s["start"]

    def scope(self, name: str) -> "_Scope":
        return _Scope(self, name)

    def reset_counts(self) -> None:
        self.counts.clear()
        self.times.clear()
        self.exec_ms.clear()

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "times": dict(self.times),
                "exec_p50_ms": (statistics.median(self.exec_ms)
                                if self.exec_ms else 0.0)}

    def exec_started(self, executor) -> None:
        sid = self._begin("execution")
        with self._lock:
            self._open[id(executor)] = sid

    def exec_finished(self, executor) -> None:
        with self._lock:
            sid = self._open.pop(id(executor), None)
        if sid is None:
            return
        dt = self._end(sid)
        self.counts["exec.count"] += 1
        self.times["exec.busy_s"] += dt
        self.exec_ms.append(dt * 1e3)
        try:
            _op_stats(executor, self.counts, self.times)
        except Exception as e:  # noqa: BLE001 - never break the execution
            self.counts["op.stats_errors"] += 1
            print(f"perfbench: no operator stats: {e!r}", file=sys.stderr)


class _Scope:
    """A span around a block; ``execs`` is the number of executions that
    started inside it."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.t, self.name, self.execs = tracer, name, 0

    def __enter__(self):
        self.prev = self.t._current
        self.sid = self.t._begin(self.name)
        self.t._current = self.sid
        self.execs0 = self.t.counts["exec.count"]
        return self

    def __exit__(self, *exc):
        self.t._end(self.sid)
        self.t._current = self.prev
        self.execs = self.t.counts["exec.count"] - self.execs0
        return False


def _kind_of(op) -> str | None:
    cls = type(op).__name__
    if cls == "ActorPoolMapOperator":
        return "actor_map"
    if cls == "TaskPoolMapOperator":
        return "map"
    name = op.name.lower()
    for k in ("sort", "aggregate", "repartition"):
        if name.startswith(k):
            return k
    return None


def _is_all_to_all(op) -> bool:
    return any(c.__name__ in ("AllToAllOperator", "HashShufflingOperatorBase")
               for c in type(op).__mro__)


def _op_stats(executor, counts: Counter, times: Counter) -> None:
    """Sum task wall time (and UDF time for actor maps) of one finished
    execution by operator kind, from the executor's final DatasetStats."""
    kinds: dict[str, str] = {}
    for op in executor._topology:
        k = _kind_of(op)
        if k is not None:
            kinds[op.name] = k
        if _is_all_to_all(op):
            counts["op.alltoall.count"] += 1
            counts["op.alltoall.blocks_in"] += int(
                op.metrics.num_inputs_received)
    stats = executor._final_stats
    seen: set[int] = set()
    stack = [stats] if stats is not None else []
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        for name, blocks in s.metadata.items():
            kind = kinds.get(name)
            if kind is None:
                # all-to-all sub-stages are named <Op><Stage>, e.g. SortMap
                kind = next((k for n, k in kinds.items()
                             if k in ("sort", "aggregate", "repartition")
                             and name.startswith(n)), None)
            if kind is None:
                continue
            ex = [b.exec_stats for b in blocks if b.exec_stats is not None]
            times[f"op.{kind}.wall_s"] += sum(e.wall_time_s for e in ex)
            if kind == "actor_map":
                times["op.actor_map.udf_s"] += sum(e.udf_time_s for e in ex)
        stack.extend(s.parents or [])


def install(tracer: Tracer) -> None:
    """Wrap plan execution, ``core.joins``, ``Dataset.groupby`` and the
    parquet source. Call before importing ``pipelines.queries``."""
    from ray.data import Dataset
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    orig_execute = StreamingExecutor.execute
    orig_shutdown = StreamingExecutor.shutdown

    @functools.wraps(orig_execute)
    def execute(self, *a, **k):
        if tracer.on:
            tracer.exec_started(self)
        return orig_execute(self, *a, **k)

    @functools.wraps(orig_shutdown)
    def shutdown(self, *a, **k):
        out = orig_shutdown(self, *a, **k)
        if tracer.on:
            tracer.exec_finished(self)
        return out

    StreamingExecutor.execute = execute
    StreamingExecutor.shutdown = shutdown

    import libpysal_ray.core.joins as joins

    for fn in JOIN_FNS:
        setattr(joins, fn, _counted(tracer, f"joins.{fn}.calls",
                                    getattr(joins, fn)))

    orig_groupby = Dataset.groupby

    @functools.wraps(orig_groupby)
    def groupby(self, *a, **k):
        if tracer.on and "libpysal_ray" in sys._getframe(1).f_globals.get(
                "__name__", ""):
            tracer.counts["native_groupby.calls"] += 1
        return orig_groupby(self, *a, **k)

    Dataset.groupby = groupby

    import libpysal_ray.sources.read as read

    orig_read = read.read_parquet_sized

    @functools.wraps(orig_read)
    def read_parquet_sized(*a, **k):
        ds = orig_read(*a, **k)
        if tracer.on:
            tracer.counts["read.blocks"] += int(
                ds._plan.initial_num_blocks() or 0)
        return ds

    read.read_parquet_sized = read_parquet_sized


def install_registry(tracer: Tracer, queries) -> None:
    """Count hits and misses of the query registry's shared-build memo and
    time the flagship's driver-side manifest load (``lineage.load_done``)."""
    orig_memo = queries._memo

    def _memo(key, build):
        if tracer.on:
            hit = key in queries._MEMO
            tracer.counts["memo.hits" if hit else "memo.misses"] += 1
        return orig_memo(key, build)

    queries._memo = _memo

    import libpysal_ray.state.lineage as lineage

    orig_load = lineage.load_done

    @functools.wraps(orig_load)
    def load_done(out_dir):
        t0 = time.perf_counter()
        out = orig_load(out_dir)
        if tracer.on:
            tracer.times["lineage.manifest_load_s"] += time.perf_counter() - t0
        return out

    lineage.load_done = load_done


def _counted(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*a, **k):
        if tracer.on:
            tracer.counts[key] += 1
        return fn(*a, **k)

    return wrapper


# ------------------------------------------------------------------ kernels
def kernel_rates(n: int = 200_000, reps: int = 5) -> dict[str, float]:
    """Time the flagship's per-row kernels in-process on a fixed batch of
    generated pages (the pipeline runs them inside Ray workers, where driver
    wrappers cannot see them). Each rate is the median of ``reps`` calls."""
    import numpy as np
    import pyarrow as pa

    from libpysal_ray.core.hashing import fast_text_digest_u64
    from libpysal_ray.pipelines.flagship import lonlat_coverage
    from libpysal_ray.spatial.cells import cell_encode
    from libpysal_ray.spatial.pip import PIPJoiner

    from perfbench.inputs import page_batch

    t = page_batch(0, n)
    text = t.column("text")
    mb = text.nbytes / 1e6
    ids = t.column("doc_id").to_numpy()
    x = ((ids * 2654435761) % 4294967296).astype(np.float64) \
        / 4294967296.0 * 360.0 - 180.0
    y = ((ids * 2246822519) % 4294967296).astype(np.float64) \
        / 4294967296.0 * 170.0 - 85.0
    pts = pa.table({"doc_id": pa.array(ids), "x": pa.array(x),
                    "y": pa.array(y)})
    joiner = PIPJoiner(lonlat_coverage(12), res=5, id_col="doc_id",
                       keep_unmatched=True)

    def rate(fn, work):
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return work / statistics.median(ts)

    return {
        "kernel.digest_mb_s": rate(lambda: fast_text_digest_u64(text), mb),
        "kernel.cells_rows_s": rate(lambda: cell_encode(x, y, 5), n),
        "kernel.pip_rows_s": rate(lambda: joiner(pts), n),
    }


# ------------------------------------------------------------------ report
def metrics(wl, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of one pass: counts from the first traced pass
    (they repeat exactly), times as the median over traced passes."""
    from perfbench import workloads

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    layers = [p["layers"] for p in traced]
    first = layers[0] if layers else {"counts": {}, "times": {}}
    c = first["counts"]

    def tmed(key):
        return med([lp["times"].get(key, 0.0) for lp in layers])

    def op_med(name, field):
        return med([o[field] for p in traced for o in p["ops"]
                    if o["name"] == name])

    m: dict[str, tuple[float, str]] = {
        "exec.count": (c.get("exec.count", 0), "count"),
        "exec.busy_s": (tmed("exec.busy_s"), "s"),
        "exec.p50_ms": (med([lp["exec_p50_ms"] for lp in layers]), "ms"),
        "driver.self_s": (med([p["wall"] - p["layers"]["times"].get(
            "exec.busy_s", 0.0) for p in traced]), "s"),
    }
    for k in OP_KINDS:
        m[f"op.{k}.wall_s"] = (tmed(f"op.{k}.wall_s"), "s")
    m["op.actor_map.udf_s"] = (tmed("op.actor_map.udf_s"), "s")
    for k in ("op.alltoall.count", "op.alltoall.blocks_in", "memo.hits",
              "memo.misses", "native_groupby.calls", "read.blocks"):
        m[k] = (c.get(k, 0), "count")
    for fn in JOIN_FNS:
        m[f"joins.{fn}.calls"] = (c.get(f"joins.{fn}.calls", 0), "count")
    for q in workloads.SUITE_QUERIES:
        m[f"q.{q}.s"] = (op_med(q, "s"), "s")
        execs = [o["execs"] for p in traced[:1] for o in p["ops"]
                 if o["name"] == q]
        m[f"q.{q}.execs"] = (execs[0] if execs else 0, "count")
    ckpt = wl.kind == "checkpoint"
    m["lineage.files"] = (wl.files if ckpt else 0, "count")
    m["lineage.bytes"] = (wl.bytes if ckpt else 0, "B")
    m["lineage.manifest_load_s"] = (tmed("lineage.manifest_load_s"), "s")
    m["ckpt.write_pass_s"] = (op_med("write", "s"), "s")
    m["ckpt.resume_pass_s"] = (op_med("resume", "s"), "s")
    walls = [p["wall"] for p in untraced]
    pages = wl.n if wl.kind == "flagship" else 0
    m["pages_per_s"] = (pages / med(walls) if pages and walls else 0.0, "1/s")
    t_walls = [p["wall"] for p in traced]
    overhead = med(t_walls) / med(walls) - 1.0 if walls and t_walls else 0.0
    m["trace.overhead_frac"] = (overhead, "fraction")
    for k, v in kernel_rates().items():
        m[k] = (v, "MB/s" if k == "kernel.digest_mb_s" else "1/s")
    return m
