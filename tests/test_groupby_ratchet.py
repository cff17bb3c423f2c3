"""Ratchet on Ray's native ``Dataset.groupby``: each module's count of
``.groupby(`` call sites (an AST walk, so strings and comments do not
count) must stay at or below the committed table. Migrated sites go
through ``core.joins.grouped_agg``/``grouped_sum`` instead; ``core/joins.py``
keeps its own sites, which are the scale path of that primitive.

The table may only go down: lower an entry when a site is migrated,
drop it at 0, and never raise one."""

import ast
import pathlib
from collections import Counter

PKG = pathlib.Path(__file__).resolve().parent.parent / "libpysal_ray"

ALLOWED = {
    "ann/knn.py": 8,
    "builders/contiguity.py": 2,
    "builders/delaunay.py": 2,
    "builders/distance.py": 2,
    "builders/raster.py": 5,
    "builders/sphere.py": 2,
    "builders/triangulation.py": 1,
    "core/graph.py": 11,
    "core/ids.py": 1,
    "core/joins.py": 4,
    "core/sketch.py": 3,
    "multimodal/stages.py": 1,
    "pipelines/queries.py": 5,
    "spatial/inequality.py": 4,
    "spatial/ops.py": 2,
    "spatial/overlay.py": 2,
    "spatial/pointpat.py": 8,
    "spatial/smoothing.py": 1,
    "spatial/stats.py": 20,
    "temporal/joins.py": 1,
    "text/analysis.py": 11,
    "text/dedup.py": 3,
    "text/export.py": 1,
    "text/ngrams.py": 5,
    "text/urls.py": 1,
}


def _groupby_sites() -> Counter:
    sites = Counter()
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "groupby"):
                sites[path.relative_to(PKG).as_posix()] += 1
    return sites


def test_native_groupby_sites_do_not_grow():
    sites = _groupby_sites()
    assert sites, "AST walk found no groupby sites at all"
    over = {
        m: (n, ALLOWED.get(m, 0))
        for m, n in sites.items() if n > ALLOWED.get(m, 0)
    }
    assert not over, f"native groupby sites above the table: {over}"

