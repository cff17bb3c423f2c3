#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. A quick run (sf0.01 suites, a 4,000-page flagship) of every workload,
   untraced and traced, emits every metric BENCHMARK.json declares, with
   its unit, and every output matches its reference.
2. A planted defect (one perturbed value in one query's result) is caught:
   ``failed`` > 0 and ``correct`` is false.
3. In a directory that holds only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args: list[str], cwd: str = ROOT) -> tuple[int, dict | None]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        if cwd == ROOT:
            print(p.stderr[-3000:], file=sys.stderr)
        return p.returncode, None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = []
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, res = run(["--workload", w["name"], "--seed", "1",
                             "--trace", trace, "--quick"])
            tag = f"{w['name']} --trace {trace}"
            if code != 0 or res is None:
                errors.append(f"{tag}: exit {code}, no result")
                continue
            if not res["correct"] or res["failed"]:
                errors.append(f"{tag}: correct={res['correct']} "
                              f"failed={res['failed']}")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{tag}: metric {m['name']} missing or "
                                  f"with another unit: {got}")
            extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                errors.append(f"{tag}: undeclared metrics {sorted(extra)}")
            print(f"ok {tag}" if not errors else f"checked {tag}")

    code, res = run(["--workload", "esda_iterative", "--seed", "1",
                     "--trace", "0", "--quick", "--plant-defect", "kcore"])
    if res is None or res["correct"] or not res["failed"] > 0:
        errors.append(f"planted defect not caught: exit {code}, {res}")
    else:
        print(f"ok planted defect: fail_frac "
              f"{res['failed'] / res['attempted']:.3f}")

    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, res = run(["--workload", "flagship_synth", "--seed", "1",
                         "--trace", "0"], cwd=bare)
        if code == 0 or res is not None:
            errors.append(f"bare directory: exit {code}, result {res}")
        else:
            print(f"ok bare directory: exit {code}")

    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
