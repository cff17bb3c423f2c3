#!/usr/bin/env python3
"""Oracle-checked benchmark of the libpysal_ray engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: flagship_synth, weights_build,
esda_iterative, flagship_checkpoint (see perfbench/README.md).

One single-threaded driver owns a Ray session pinned at 4 logical CPUs.
After set-up and a warm-up, it runs passes until ``--seconds`` have elapsed
(at least ``MIN_PASSES``; two with ``--trace 1``). Each operation runs
under a timeout; one that raises, times out or returns output that differs
from its DuckDB-derived reference counts as failed. Outputs are fetched and checked between passes,
outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
carries the host block and per-pass detail. ``--trace 1`` alternates
untraced and traced passes and writes its spans to
``.perfbench_out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NUM_CPUS = 4                  # fixed, as in tests/conftest.py; never nproc
OBJECT_STORE_BYTES = 512 << 20
MIN_FREE_BYTES = 2 << 30      # spill ceiling + logs + checkpoint output
OP_TIMEOUT_S = {"suite": 60.0, "flagship": 90.0, "checkpoint": 90.0}
RUN_DEADLINE_S = 150.0        # no pass starts after this; exit by 180 s
# more passes where a pass uses all CPUs at once and so varies most
MIN_PASSES = {"suite": 3, "flagship": 4, "checkpoint": 2}
SETUP_REPEATS = 3
SETTLE_S = 0.3                # lets the previous pass's workers wind down

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "driver_peak_rss_mb": "MB",
}


class _Aborted(Exception):
    """An operation timed out and may still hold a thread inside Ray."""


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _check_tree() -> None:
    if not os.path.isfile(os.path.join(ROOT, "libpysal_ray", "__init__.py")):
        _fail(f"no libpysal_ray package under {ROOT}; run from a checkout "
              "of the repository")
    free = shutil.disk_usage(ROOT).free
    if free < MIN_FREE_BYTES:
        _fail(f"{free >> 20} MiB free under {ROOT}; one run needs "
              f"{MIN_FREE_BYTES >> 20} MiB")


def _ray_temp_dir() -> str | None:
    """A Ray temp dir inside the checkout, when its unix socket paths
    (<temp>/session_<date>_<pid>/sockets/plasma_store) fit in 107 bytes."""
    d = os.path.join(ROOT, ".pbr")
    return d if len(d) + 66 <= 107 else None


def _host(ray_temp: str | None) -> dict:
    import ray

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "loadavg": list(os.getloadavg()),
        "ray": ray.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "logical_cpus": NUM_CPUS,
        "ray_temp_dir": ray_temp or "ray default (checkout path too long)",
    }


class RssSampler:
    """Peak resident set size of this process while sampling is on."""

    def __init__(self, period_s: float = 0.02) -> None:
        self.period_s = period_s
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = None

    def _rss(self) -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self.peak = max(self.peak, self._rss())

    def __enter__(self):
        self.peak = max(self.peak, self._rss())
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())
        return False


def _run_op(fn, timeout: float):
    """Run ``fn`` in a daemon thread; return (seconds, result, error)."""
    box: dict = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["res"] = fn()
        except Exception as e:  # noqa: BLE001 - a failed op is a data point
            box["err"] = f"{type(e).__name__}: {e}"[:500]
        box["dt"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return timeout, None, f"timeout after {timeout:.0f} s"
    return box["dt"], box.get("res"), box.get("err")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="sf0.01 suites and a tiny flagship (self-tests)")
    ap.add_argument("--plant-defect", metavar="OP",
                    help="perturb one value of OP's output before checking "
                         "(self-tests)")
    args = ap.parse_args()
    _check_tree()
    t_start = time.perf_counter()

    sys.path.insert(0, ROOT)
    # Ray workers import the engine from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}")
    scratch = os.path.join(ROOT, ".pbs", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        return _bench(args, scratch, t_start)
    except _Aborted:
        shutil.rmtree(scratch, ignore_errors=True)
        sys.stdout.flush()
        os._exit(0)   # do not join the thread of the hung operation
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass


def _bench(args, scratch: str, t_start: float) -> int:
    import logging
    import warnings

    warnings.filterwarnings("ignore")
    setup = {}
    t0 = time.perf_counter()
    import ray

    ray_temp = _ray_temp_dir()
    kw = {"_temp_dir": ray_temp} if ray_temp else {}
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             **kw)
    setup["ray_init_s"] = time.perf_counter() - t0
    session_dir = ray._private.worker._global_node.get_session_dir_path()
    from ray.data.context import DataContext

    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)
    DataContext.get_current().enable_progress_bars = False
    try:
        result = _measure(args, scratch, t_start, setup)
        result[0]["host"] = _host(ray_temp)
        return _report(*result)
    finally:
        _stop_ray(ray, ray_temp, session_dir)


def _stop_ray(ray, ray_temp: str | None, session_dir: str) -> None:
    """Shut the session down (bounded, in case an operation hung) and
    delete its temp files when they live in the checkout."""
    th = threading.Thread(target=ray.shutdown, daemon=True)
    th.start()
    th.join(30)
    if ray_temp:
        shutil.rmtree(session_dir, ignore_errors=True)
        latest = os.path.join(ray_temp, "session_latest")
        if os.path.islink(latest) and not os.path.exists(latest):
            os.unlink(latest)
        if os.path.isdir(ray_temp) and not os.listdir(ray_temp):
            os.rmdir(ray_temp)


def _measure(args, scratch: str, t_start: float, setup: dict):
    """Set up, warm up, then run and check passes. Returns
    (detail, metrics, attempted, failures)."""
    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        from perfbench import layers

        tracer = layers.Tracer()
        layers.install(tracer)       # before the query registry is imported
    from libpysal_ray.pipelines import flagship, queries  # noqa: F401
    from perfbench import inputs, workloads

    if tracer is not None:
        layers.install_registry(tracer, queries)
    setup["import_s"] = time.perf_counter() - t0

    wl = workloads.make(args.workload, args.seed, scratch, args.quick)
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        reps.append(time.perf_counter() - t0)
    setup["inputs_median_s"] = _median(reps)
    t0 = time.perf_counter()
    wl.reference()
    setup["reference_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    workloads.warmup(NUM_CPUS)
    setup["warmup_s"] = time.perf_counter() - t0

    timeout = OP_TIMEOUT_S[wl.kind]
    min_passes = max(MIN_PASSES[wl.kind], 2 if tracer else 1)
    rss = RssSampler()
    passes, failures, attempted = [], [], 0
    t_measure = time.perf_counter()
    aborted = None
    while len(passes) < min_passes or \
            time.perf_counter() - t_measure < args.seconds:
        if time.perf_counter() - t_start > RUN_DEADLINE_S:
            aborted = "run deadline reached"
            break
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        time.sleep(SETTLE_S)
        with rss:
            rec = _run_pass(wl, timeout, tracer if traced else None)
        passes.append(rec)
        for op in rec["ops"]:
            attempted += 1
            err = op.pop("err") or _check(wl, op, args.plant_defect, inputs)
            if err:
                failures.append({"op": op["name"], "error": err})
                if err.startswith("timeout"):
                    aborted = f"{op['name']}: {err}"
        try:
            errs = wl.after_pass()
        except Exception as e:  # noqa: BLE001 - a failed check is a data point
            errs = [f"pass check failed: {type(e).__name__}: {e}"[:500]]
        attempted += wl.pass_checks
        if errs:
            failures.append({"op": "pass", "error": "; ".join(errs)})
        if aborted:
            break
    wl.cleanup()

    untraced = [p for p in passes if not p["traced"]]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup": {k: round(v, 4) for k, v in setup.items()},
        "passes": [{"wall_s": round(p["wall"], 4), "traced": p["traced"],
                    "ops": {o["name"]: round(o["s"], 4) for o in p["ops"]}}
                   for p in passes],
        "failures": failures[:20],
        "aborted": aborted,
    }
    if args.trace:
        from perfbench import layers

        metrics = layers.metrics(wl, untraced,
                                 [p for p in passes if p["traced"]])
        _write_spans(tracer, args)
    else:
        metrics = {
            "setup_s": sum(setup.values()),
            "wall_s": _median([p["wall"] for p in untraced]),
            "op_p50_s": _median([
                _median([o["s"] for p in untraced for o in p["ops"]
                         if o["name"] == name])
                for name in {o["name"] for p in untraced for o in p["ops"]}]),
            "driver_peak_rss_mb": rss.peak / (1 << 20),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return detail, metrics, attempted, failures


def _run_pass(wl, timeout: float, tracer) -> dict:
    """One timed pass. With a tracer, record pass and query spans and
    snapshot the layer counters."""
    if tracer is not None:
        tracer.reset_counts()
        tracer.on = True
    ops = wl.ops()
    rec = {"traced": tracer is not None, "ops": []}
    t0 = time.perf_counter()
    with (tracer.scope("pass") if tracer else contextlib.nullcontext()):
        for name, fn in ops:
            with (tracer.scope(name) if tracer
                  else contextlib.nullcontext()) as q:
                dt, res, err = _run_op(fn, timeout)
            rec["ops"].append({"name": name, "s": dt, "res": res,
                               "err": err, "execs": getattr(q, "execs", 0)})
            if err and err.startswith("timeout"):
                break
    rec["wall"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.on = False
        rec["layers"] = tracer.snapshot()
    return rec


def _check(wl, op: dict, plant_defect: str | None, inputs) -> str | None:
    """Fetch one operation's output and compare it with its reference."""
    try:
        table = inputs.to_table(op.pop("res"))
        if plant_defect == op["name"]:
            table = inputs.perturb(table)
        return wl.check(op["name"], table)
    except Exception as e:  # noqa: BLE001 - a failed check is a data point
        return f"check failed: {type(e).__name__}: {e}"[:500]


def _report(detail, metrics, attempted, failures) -> int:
    print(json.dumps(detail))
    aborted = detail["aborted"]
    print(json.dumps({
        "correct": not failures and aborted is None,
        "attempted": max(attempted, 1),
        "failed": len(failures) or (1 if aborted else 0),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    if aborted and aborted != "run deadline reached":
        raise _Aborted()
    return 0


def _write_spans(tracer, args) -> None:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
