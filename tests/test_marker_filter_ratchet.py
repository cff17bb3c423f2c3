"""Ratchet on deriving graph facts from a full edge table outside the
graph (an AST walk, so strings and comments do not count):

* no module under ``libpysal_ray/`` other than ``core/edges.py`` may map
  ``drop_isolate_markers`` itself or run ``without_markers`` over a
  graph's ``.edges``. Consumers read ``RayGraph._real_edges()`` instead:
  a graph built with ``ids=`` hands back its materialized real edges
  there, so the consumer neither builds the node table nor feeds a block
  emptied by the filter (and so without a schema) to the next fused map;
* no module may work out an id universe from a graph's ``.edges``:
  ``ids_dataset(<x>.edges)``, ``all_ids_dataset(<x>.edges)`` or
  ``<x>.edges.select_columns(["focal"])``. Consumers read
  ``RayGraph.ids()``, the node table that the graph builds once."""

import ast
import pathlib
from collections import Counter

PKG = pathlib.Path(__file__).resolve().parent.parent / "libpysal_ray"

ALLOWED: dict[str, int] = {}  # outside core/edges.py; may only go down
ALLOWED_ID_SITES: dict[str, int] = {}  # anywhere; may only go down


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_edges(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "edges"


def _sites() -> tuple[Counter, Counter]:
    """(marker filter sites, id-universe sites) per module."""
    markers, ids = Counter(), Counter()
    for path in sorted(PKG.rglob("*.py")):
        mod = path.relative_to(PKG).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            fn = _name(node.func)
            args = list(node.args) + [k.value for k in node.keywords]
            if (fn == "map_batches" and any(
                    _name(a) == "drop_isolate_markers" for a in args)) or (
                    fn == "without_markers" and any(
                        _is_edges(a) for a in args)):
                markers[mod] += 1
            if fn in ("ids_dataset", "all_ids_dataset") and any(
                    _is_edges(a) for a in args):
                ids[mod] += 1
            if (fn == "select_columns"
                    and isinstance(node.func, ast.Attribute)
                    and _is_edges(node.func.value)
                    and any(isinstance(a, ast.List) and any(
                        isinstance(e, ast.Constant) and e.value == "focal"
                        for e in a.elts) for a in args)):
                ids[mod] += 1
    return markers, ids


def test_marker_filters_stay_in_core_edges():
    sites, id_sites = _sites()
    assert sites.pop("core/edges.py", 0) >= 1, (
        "AST walk found no marker filter in core/edges.py at all"
    )
    over = {
        m: (n, ALLOWED.get(m, 0))
        for m, n in sites.items() if n > ALLOWED.get(m, 0)
    }
    assert not over, f"marker filters over a graph's edges: {over}"
    over = {
        m: (n, ALLOWED_ID_SITES.get(m, 0))
        for m, n in id_sites.items() if n > ALLOWED_ID_SITES.get(m, 0)
    }
    assert not over, f"id universes worked out from a graph's edges: {over}"
