"""Isolate markers owned by ``RayGraph``: a graph built with ``ids=``
materializes its real edges at construction and builds the zero-weight
self-loop markers once, on the first read of its full edge table.

Every full-table read must equal an eager reference computed here in
numpy; ``_real_edges()``, ``cache()`` and ``max_degree()`` must build no
markers, which the execution counts pin."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from libpysal_ray.builders.contiguity import rook
from libpysal_ray.builders.distance import knn_edges_with_dist
from libpysal_ray.core import edges as E
from libpysal_ray.core.graph import RayGraph
from libpysal_ray.sources.polygons import grid_coverage


@pytest.fixture
def executions(monkeypatch):
    """A counter of ``StreamingExecutor.execute`` calls (Dataset
    executions); read ``executions[0]`` before and after a step."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    calls = [0]
    orig = StreamingExecutor.execute

    def _execute(self, *a, **k):
        calls[0] += 1
        return orig(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", _execute)
    return calls


def _lattice(nrows: int, ncols: int, drop=()) -> ray.data.Dataset:
    gone = pa.array(np.asarray(drop, np.int64), pa.int64())
    return grid_coverage(nrows, ncols).map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(t["polygon_id"], gone))),
        batch_format="pyarrow",
    ).materialize()


def _lattice_rook_ref(nrows: int, ncols: int, drop=()):
    """(focal, neighbor, weight) rows and ids of rook on a lattice with
    ``drop``ped cells."""
    alive = set(range(nrows * ncols)) - set(drop)
    f, n = [], []
    for i in sorted(alive):
        r, c = divmod(i, ncols)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            j = rr * ncols + cc
            if 0 <= rr < nrows and 0 <= cc < ncols and j in alive:
                f.append(i)
                n.append(j)
    return (np.asarray(f, np.int64), np.asarray(n, np.int64),
            np.ones(len(f)), np.asarray(sorted(alive), np.int64))


def _eager(f, n, w, ids):
    """The eager resolution: real rows plus one (i, i, 0.0) marker per id
    with no real focal row, with the per-focal reads derived from it."""
    real = [(int(a), int(b), float(c)) for a, b, c in zip(f, n, w)
            if not (a == b and c == 0.0)]
    has = {r[0] for r in real}
    universe = sorted(set(int(i) for i in ids) | has)
    full = real + [(i, i, 0.0) for i in universe if i not in has]
    card = Counter(r[0] for r in real)
    rs = Counter()
    for a, _b, c in real:
        rs[a] += c
    r_rows = [(a, b, c / rs[a] if rs[a] != 0.0 else 0.0)
              for a, b, c in full]
    return {
        "edges": full,
        "n": len(universe),
        "card": {i: card.get(i, 0) for i in universe},
        "isolates": sorted(i for i in universe if i not in has),
        "R": r_rows,
    }


def _rows(ds: ray.data.Dataset) -> list:
    return [(int(r["focal"]), int(r["neighbor"]), float(r["weight"]))
            for r in ds.take_all()]


def _same_rows(got: list, want: list) -> None:
    got, want = sorted(got), sorted(want)
    assert [r[:2] for r in got] == [r[:2] for r in want]
    np.testing.assert_allclose([r[2] for r in got], [r[2] for r in want],
                               rtol=1e-12, atol=0.0)


def _graphs():
    rng = np.random.default_rng(5)
    f = rng.integers(0, 12, 40).astype(np.int64)
    n = rng.integers(0, 12, 40).astype(np.int64)
    w = rng.integers(1, 5, 40).astype(np.float64)
    f, n, w = f[f != n], n[f != n], w[f != n]
    # a marker row in the builder output must be dropped, not doubled
    f, n, w = np.r_[f, 3], np.r_[n, 3], np.r_[w, 0.0]
    with_iso = np.arange(16, dtype=np.int64)  # 12..15 have no edges
    no_iso = np.unique(f)
    cases = {}
    for label, ids in (("isolates", with_iso), ("no_isolates", no_iso)):
        cases[f"{label}-ndarray"] = (f, n, w, ids, ids)
        ids_ds = ray.data.from_arrow(
            pa.table({"focal": np.r_[ids, ids[:3]]})  # repeats allowed
        )
        cases[f"{label}-dataset"] = (f, n, w, ids, ids_ds)
    return cases


@pytest.mark.parametrize("case", [
    "isolates-ndarray", "isolates-dataset",
    "no_isolates-ndarray", "no_isolates-dataset",
])
def test_pending_graph_reads_equal_eager_reference(case):
    f, n, w, ids, given = _graphs()[case]
    ref = _eager(f, n, w, ids)
    g = RayGraph(E.from_arrays(f, n, w), ids=given)
    _check_against(g, ref)


def test_lattice_with_dropped_polygons_equals_eager_reference():
    # dropping the four rook neighbours of cell 12 leaves it an isolate
    drop = (7, 11, 13, 17, 24)
    g = rook(_lattice(5, 5, drop))
    ref = _eager(*_lattice_rook_ref(5, 5, drop))
    assert ref["isolates"] == [12]
    _check_against(g, ref)


def _check_against(g: RayGraph, ref: dict) -> None:
    _same_rows(_rows(g.edges), ref["edges"])
    assert g.n() == ref["n"]
    card = {int(r["focal"]): int(r["cardinality"])
            for r in g.cardinalities().take_all()}
    assert card == ref["card"]
    assert sorted(int(r["focal"]) for r in g.isolates().take_all()) == \
        ref["isolates"]
    _same_rows(_rows(g.transform("R").edges), ref["R"])
    _same_rows(_rows(g.transform("R").transform("O").edges), ref["edges"])
    _same_rows(_rows(g.transform("O").edges), ref["edges"])


def test_isolate_markers_build_once_on_first_full_read(executions):
    polys = _lattice(6, 6)
    c0 = executions[0]
    g = rook(polys)
    real = g._real_edges().materialize()
    assert executions[0] - c0 == 1  # the real edges, nothing more
    assert real.count() == 2 * (2 * 6 * 5)

    c0 = executions[0]
    full = g.edges
    assert executions[0] - c0 == 1  # the markers
    c0 = executions[0]
    assert g.edges is full
    assert executions[0] - c0 == 0

    pending = rook(polys)
    c0 = executions[0]
    assert pending.cache() is pending
    assert executions[0] - c0 == 0  # cache() builds no markers
    assert pending._full is None


def test_knn_edges_execution_budget(executions):
    rng = np.random.default_rng(3)
    pts = ray.data.from_arrow(pa.table({
        "id": np.arange(400, dtype=np.int64),
        "x": rng.random(400), "y": rng.random(400),
    })).materialize()
    c0 = executions[0]
    out = knn_edges_with_dist(pts, 4).materialize()
    # the count and bounding box come from one aggregate
    assert executions[0] - c0 == 4
    assert out.count() == 4 * 400


@pytest.mark.parametrize("case", ["isolates", "no_isolates", "no_edges"])
def test_max_degree_equals_cardinality_max(case, executions):
    if case == "no_edges":
        e = np.empty(0, np.int64)
        g = RayGraph(E.from_arrays(e, e, 1.0), ids=np.arange(5))
    else:
        f, n, w, _ids, given = _graphs()[f"{case}-ndarray"]
        g = RayGraph(E.from_arrays(f, n, w), ids=given)
    c0 = executions[0]
    got = g.max_degree()
    assert g._full is None  # read from the real edges alone
    assert executions[0] - c0 == 1
    want = int(g.cardinalities().max("cardinality") or 0)
    assert got == want
    assert (got == 0) == (case == "no_edges")


@pytest.mark.parametrize("case", ["isolates", "edgeless_n"])
def test_isolate_reads_emit_no_schemaless_block(case):
    # isolates() filters every block of cardinalities(); an edgeless
    # graph's markers come from its ids alone. Neither may hand Ray a
    # block without a schema, or Ray logs a schema change
    import logging

    from libpysal_ray.sources.polygons import holes_and_islands

    if case == "isolates":
        g = rook(holes_and_islands(3, 3, holes=(4,), n_islands=2))
        read, want = (lambda: sorted(
            r["focal"] for r in g.isolates().take_all())), [9, 10]
    else:
        g = RayGraph.from_arrays(np.array([], np.int64),
                                 np.array([], np.int64), ids=np.arange(4))
        read, want = g.n, 4
    warned = []

    class _Warnings(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                warned.append(record.getMessage())

    handler = _Warnings()
    logging.getLogger("ray.data").addHandler(handler)
    try:
        assert read() == want
    finally:
        logging.getLogger("ray.data").removeHandler(handler)
    assert not warned, warned
