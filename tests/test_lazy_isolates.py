"""The node table and isolate markers owned by ``RayGraph``: a graph
built with ``ids=`` materializes its real edges at construction; any
graph builds its ``(focal, cardinality)`` node table once, and ``ids()``,
``n()``, ``cardinalities()``, ``isolates()`` and the zero-weight
self-loop markers of its full edge table all read it.

Every read must equal an eager reference computed here in numpy, on
pending and on finished graphs; ``_real_edges()``, ``cache()`` and
``max_degree()`` must build no node table, and the execution counts pin
what each read costs."""

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
from libpysal_ray.pipelines.queries import unbounded_graph
from libpysal_ray.sources.polygons import grid_coverage


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
        "ids": universe,
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
    """case → (f, n, w, ids, given): a pending graph is
    ``RayGraph(E.from_arrays(f, n, w), ids=given)``; ``given`` None is the
    finished table ``RayGraph(E.from_arrays(f, n, w))``, whose ids are
    its focals (``ids`` then names its marker rows)."""
    rng = np.random.default_rng(5)
    f = rng.integers(0, 12, 40).astype(np.int64)
    n = rng.integers(0, 12, 40).astype(np.int64)
    w = rng.integers(1, 5, 40).astype(np.float64)
    f, n, w = f[f != n], n[f != n], w[f != n]
    # a finished table is taken as it is: markers only on isolates
    iso = np.arange(12, 16, dtype=np.int64)
    cases = {
        "finished-markers": (np.r_[f, iso], np.r_[n, iso],
                             np.r_[w, np.zeros(4)], iso, None),
        # 20 is only ever a neighbor: not an id of a finished table
        "finished-neighbor_only": (np.r_[f, 0], np.r_[n, 20], np.r_[w, 2.0],
                                   np.empty(0, np.int64), None),
    }
    # a marker row in the builder output must be dropped, not doubled
    f, n, w = np.r_[f, 3], np.r_[n, 3], np.r_[w, 0.0]
    with_iso = np.arange(16, dtype=np.int64)  # 12..15 have no edges
    no_iso = np.unique(f)
    for label, ids in (("isolates", with_iso), ("no_isolates", no_iso)):
        cases[f"{label}-ndarray"] = (f, n, w, ids, ids)
        ids_ds = ray.data.from_arrow(
            pa.table({"focal": np.r_[ids, ids[:3]]})  # repeats allowed
        )
        cases[f"{label}-dataset"] = (f, n, w, ids, ids_ds)
    e = np.empty(0, np.int64)
    cases["edgeless"] = (e, e, np.empty(0), np.arange(4), np.arange(4))
    return cases


def _graph(f, n, w, given) -> RayGraph:
    if given is None:
        return RayGraph(E.from_arrays(f, n, w))
    return RayGraph(E.from_arrays(f, n, w), ids=given)


@pytest.mark.parametrize("case", [
    "isolates-ndarray", "isolates-dataset",
    "no_isolates-ndarray", "no_isolates-dataset", "edgeless",
])
def test_pending_graph_reads_equal_eager_reference(case):
    f, n, w, ids, given = _graphs()[case]
    ref = _eager(f, n, w, ids)
    _check_against(_graph(f, n, w, given), ref)


@pytest.mark.parametrize("case", [
    "finished-markers", "finished-neighbor_only",
])
def test_finished_graph_reads_equal_eager_reference(case):
    f, n, w, ids, given = _graphs()[case]
    ref = _eager(f, n, w, ids)
    _check_against(_graph(f, n, w, given), ref)


@pytest.mark.parametrize("case", ["isolates-dataset", "finished-markers"])
def test_sharded_node_table_reads_equal_eager_reference(case, monkeypatch):
    # the node table's aggregate forced onto its sharded path: many
    # blocks, some of them empty
    from libpysal_ray.core import joins as J

    monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", -1)
    f, n, w, ids, given = _graphs()[case]
    ref = _eager(f, n, w, ids)
    _check_against(_graph(f, n, w, given), ref)


def test_spanning_forest_labels_a_neighbor_only_id():
    # the distributed forest labels ids() ∪ real neighbors, so an id seen
    # only as a neighbor of a finished table still joins the forest
    f, n, w, _ids, given = _graphs()["finished-neighbor_only"]
    g = _graph(f, n, w, given)
    assert 20 not in {int(r["focal"]) for r in g.ids().take_all()}

    def forest(h):
        return {(int(r["focal"]), int(r["neighbor"]), float(r["weight"]))
                for r in h.spanning_forest().take_all()}

    driver = forest(g)
    assert forest(unbounded_graph(g.edges)) == driver
    assert (0, 20, 2.0) in driver


def test_lattice_with_dropped_polygons_equals_eager_reference():
    # dropping the four rook neighbours of cell 12 leaves it an isolate
    drop = (7, 11, 13, 17, 24)
    g = rook(_lattice(5, 5, drop))
    ref = _eager(*_lattice_rook_ref(5, 5, drop))
    assert ref["isolates"] == [12]
    _check_against(g, ref)


def _check_against(g: RayGraph, ref: dict) -> None:
    _same_rows(_rows(g.edges), ref["edges"])
    assert sorted(int(r["focal"]) for r in g.ids().take_all()) == ref["ids"]
    assert g.n() == ref["n"]
    card = {int(r["focal"]): int(r["cardinality"])
            for r in g.cardinalities().take_all()}
    assert card == ref["card"]
    assert sorted(int(r["focal"]) for r in g.isolates().take_all()) == \
        ref["isolates"]
    _same_rows(_rows(g.transform("R").edges), ref["R"])
    _same_rows(_rows(g.transform("R").transform("O").edges), ref["edges"])
    _same_rows(_rows(g.transform("O").edges), ref["edges"])


def test_isolate_markers_build_once_on_first_full_read(executed_dags):
    polys = _lattice(6, 6)
    c0 = len(executed_dags)
    g = rook(polys)
    real = g._real_edges().materialize()
    assert len(executed_dags) - c0 == 1  # the real edges, nothing more
    assert real.count() == 2 * (2 * 6 * 5)

    c0 = len(executed_dags)
    full = g.edges
    assert len(executed_dags) - c0 == 1  # the node table
    c0 = len(executed_dags)
    assert g.edges is full
    assert len(executed_dags) - c0 == 0

    pending = rook(polys)
    c0 = len(executed_dags)
    assert pending.cache() is pending
    assert len(executed_dags) - c0 == 0  # cache() builds no node table
    assert pending._full is None
    assert pending._nodes is None


_READS = {
    # read → its Dataset executions at most (the n() reads: exactly)
    "n": (lambda g: g.n(), 1),
    "n_twice": (lambda g: (g.n(), g.n()), 1),
    "n_then_edges": (lambda g: (g.n(), g.edges), 1),
    "isolates": (lambda g: g.isolates().materialize(), 2),
    "cardinalities": (lambda g: g.cardinalities().materialize(), 2),
    "higher_order2": (
        lambda g: g.higher_order(2)._real_edges().materialize(), 9),
    "eliminate_zeros_n": (lambda g: g.eliminate_zeros().n(), 3),
    "union_self_n": (lambda g: g.union_g(g).n(), 3),
}


@pytest.mark.parametrize("read", list(_READS))
def test_node_table_read_budgets(read, executed_dags):
    # each read on a fresh pending rook graph over a 30×30 grid; the node
    # table is built once, and ids, n(), cardinalities, isolates and the
    # markers all come from it
    polys = _lattice(30, 30)
    g = rook(polys)
    fn, budget = _READS[read]
    c0 = len(executed_dags)
    fn(g)
    used = len(executed_dags) - c0
    assert used <= budget, used
    if read.startswith("n"):
        assert used == budget
        assert g.n() == 900
        assert len(executed_dags) - c0 == used  # cached: no new execution


def test_edgeless_graph_reads_carry_schema():
    # an edgeless builder output keeps a typed (empty) real-edge table,
    # and no read of the graph hands Ray a block without a schema
    import logging

    e = np.empty(0, np.int64)
    g = RayGraph.from_arrays(e, e, ids=np.arange(4))
    assert g._real_edges().schema().base_schema == E.EDGE_SCHEMA
    warned = []

    class _Warnings(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                warned.append(record.getMessage())

    handler = _Warnings()
    logging.getLogger("ray.data").addHandler(handler)
    try:
        assert g.n() == 4
        assert sorted(r["focal"] for r in g.isolates().take_all()) == \
            [0, 1, 2, 3]
        assert {(r["focal"], r["cardinality"])
                for r in g.cardinalities().take_all()} == \
            {(i, 0) for i in range(4)}
        assert sorted(_rows(g.edges)) == [(i, i, 0.0) for i in range(4)]
    finally:
        logging.getLogger("ray.data").removeHandler(handler)
    assert not warned, warned


def test_knn_edges_execution_budget(executed_dags):
    rng = np.random.default_rng(3)
    pts = ray.data.from_arrow(pa.table({
        "id": np.arange(400, dtype=np.int64),
        "x": rng.random(400), "y": rng.random(400),
    })).materialize()
    c0 = len(executed_dags)
    out = knn_edges_with_dist(pts, 4).materialize()
    # the count and bounding box come from one aggregate
    assert len(executed_dags) - c0 == 4
    assert out.count() == 4 * 400


@pytest.mark.parametrize("case", ["isolates", "no_isolates", "no_edges"])
def test_max_degree_equals_cardinality_max(case, executed_dags):
    if case == "no_edges":
        e = np.empty(0, np.int64)
        g = RayGraph(E.from_arrays(e, e, 1.0), ids=np.arange(5))
    else:
        f, n, w, _ids, given = _graphs()[f"{case}-ndarray"]
        g = RayGraph(E.from_arrays(f, n, w), ids=given)
    c0 = len(executed_dags)
    got = g.max_degree()
    assert g._full is None  # read from the real edges alone
    assert g._nodes is None
    assert len(executed_dags) - c0 == 1
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
