"""Ratchet on filtering isolate markers outside the graph: no module under
``libpysal_ray/`` other than ``core/edges.py`` may map
``drop_isolate_markers`` itself or run ``without_markers`` over a graph's
``.edges`` (an AST walk, so strings and comments do not count).

Consumers read ``RayGraph._real_edges()`` instead. A graph built with
``ids=`` hands back its materialized real edges there, so the consumer
neither forces the pending isolate markers nor feeds a block emptied by
the filter (and so without a schema) to the next fused map."""

import ast
import pathlib
from collections import Counter

PKG = pathlib.Path(__file__).resolve().parent.parent / "libpysal_ray"

ALLOWED: dict[str, int] = {}  # outside core/edges.py; may only go down


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _marker_filter_sites() -> Counter:
    sites = Counter()
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            fn = _name(node.func)
            args = list(node.args) + [k.value for k in node.keywords]
            if (fn == "map_batches" and any(
                    _name(a) == "drop_isolate_markers" for a in args)) or (
                    fn == "without_markers" and any(
                        isinstance(a, ast.Attribute) and a.attr == "edges"
                        for a in args)):
                sites[path.relative_to(PKG).as_posix()] += 1
    return sites


def test_marker_filters_stay_in_core_edges():
    sites = _marker_filter_sites()
    assert sites.pop("core/edges.py", 0) >= 1, (
        "AST walk found no marker filter in core/edges.py at all"
    )
    over = {
        m: (n, ALLOWED.get(m, 0))
        for m, n in sites.items() if n > ALLOWED.get(m, 0)
    }
    assert not over, f"marker filters over a graph's edges: {over}"
