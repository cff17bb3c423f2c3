"""Ratchet on per-call size knobs. The graph algorithms and the
travel-cost builders choose between their one-task and sharded paths
through the engine's one small-input switch (``core.joins._coalesced``),
so under ``libpysal_ray/`` no function takes a parameter named
``max_driver_edges``, ``force_distributed``, ``single_block_limit`` or
``broadcast_assemble_max``, and no call passes one (an AST walk, so
strings and comments do not count). The table may only go down: it is
empty, and no entry may be added."""

import ast
import pathlib
from collections import Counter

PKG = pathlib.Path(__file__).resolve().parent.parent / "libpysal_ray"

KNOBS = {"max_driver_edges", "force_distributed", "single_block_limit",
         "broadcast_assemble_max"}

ALLOWED: dict[str, int] = {}


def _knob_sites() -> Counter:
    sites = Counter()
    for path in sorted(PKG.rglob("*.py")):
        mod = path.relative_to(PKG).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                sites[mod] += sum(p.arg in KNOBS for p in params)
            elif isinstance(node, ast.Call):
                sites[mod] += sum(k.arg in KNOBS for k in node.keywords)
    return +sites


def test_no_size_knobs_outside_the_table():
    sites = _knob_sites()
    over = {
        m: (n, ALLOWED.get(m, 0))
        for m, n in sites.items() if n > ALLOWED.get(m, 0)
    }
    assert not over, f"size-knob sites above the table: {over}"
