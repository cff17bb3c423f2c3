"""Ratchet on per-call size knobs. The graph algorithms choose between
their one-task and sharded paths through the engine's one small-input
switch (``core.joins._coalesced``), so under ``libpysal_ray/`` no
function takes a parameter named ``max_driver_edges``,
``force_distributed`` or ``single_block_limit``, and no call passes one
(an AST walk, so strings and comments do not count).

The one exemption is ``builders/network.py``'s travel-cost switch: its
entry counts the knob parameters of that module's functions plus every
call, anywhere in the package, that passes a knob to one of them. The
table may only go down: lower the entry when a site goes, and never
raise it or add one."""

import ast
import pathlib
from collections import Counter

PKG = pathlib.Path(__file__).resolve().parent.parent / "libpysal_ray"

KNOBS = {"max_driver_edges", "force_distributed", "single_block_limit"}

ALLOWED = {
    "builders/network.py": 5,
}


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _knob_sites() -> Counter:
    trees = {p.relative_to(PKG).as_posix(): ast.parse(p.read_text(), str(p))
             for p in sorted(PKG.rglob("*.py"))}
    # a function name -> the module that defines it, for the exemption
    owner = {
        node.name: mod
        for mod, tree in trees.items() if mod in ALLOWED
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    sites = Counter()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                sites[mod] += sum(p.arg in KNOBS for p in params)
            elif isinstance(node, ast.Call):
                n = sum(k.arg in KNOBS for k in node.keywords)
                if n:
                    sites[owner.get(_callee(node), mod)] += n
    return +sites


def test_no_size_knobs_outside_the_table():
    sites = _knob_sites()
    over = {
        m: (n, ALLOWED.get(m, 0))
        for m, n in sites.items() if n > ALLOWED.get(m, 0)
    }
    assert not over, f"size-knob sites above the table: {over}"
