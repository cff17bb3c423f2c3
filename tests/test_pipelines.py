"""Flagship pipeline, lineage resume, text ops, ANN."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from libpysal_ray.ann.knn import ann_topk
from libpysal_ray.pipelines.flagship import flagship
from libpysal_ray.sources.pages import pages_from_documents, synth_pages
from libpysal_ray.state import lineage
from libpysal_ray.text.dedup import exact_dedup, minhash_lsh_pairs, simhash64

SF = "/root/testdata/sf0.001"


def test_flagship_smoke_and_invariant():
    out = flagship(SF).to_pandas()
    assert len(out) > 0
    assert out["digest_ok"].all()
    assert set(out.columns) == {"url", "cell", "polygon_id", "neighbor_set",
                                "digest_ok"}
    # every row has a polygon (the lonlat coverage tiles the whole plane)
    assert (out["polygon_id"] >= 0).all()


def test_flagship_checkpoint_resume(tmp_path):
    out_dir = str(tmp_path / "flag")
    r1 = flagship(SF, out_dir=out_dir).to_pandas()
    m1 = lineage.load_manifest(out_dir)
    assert len(m1) > 0
    assert sum(r["rows"] for r in m1) == len(r1)
    # resume: all partitions done → second run emits nothing new
    r2 = flagship(SF, out_dir=out_dir).to_pandas()
    assert len(r2) == 0
    m2 = lineage.load_manifest(out_dir)
    assert len(m2) == len(m1)


def test_synth_pages_deterministic():
    a = synth_pages(100).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = synth_pages(100).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (a["url"] == b["url"]).all()
    assert (a["text"] == b["text"]).all()
    assert a["html"].iloc[0].startswith(b"<html>")


def test_exact_dedup_finds_planted_dupes():
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array(["aa bb", "cc dd", "aa bb", "ee", "aa bb"]),
        }
    )
    out = exact_dedup(ray.data.from_arrow(tbl)).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    got = dict(zip(out["doc_id"], out["n_dupes"]))
    assert got == {0: 3, 1: 1, 3: 1}


def test_minhash_finds_near_dupes():
    base = "the quick brown fox jumps over the lazy dog " * 5
    near = base.replace("lazy", "sleepy")
    far = "completely different content about spatial weights " * 5
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([base, near, far]),
        }
    )
    out = minhash_lsh_pairs(
        ray.data.from_arrow(tbl), jaccard_threshold=0.3
    ).to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert (0, 1) in pairs
    assert (0, 2) not in pairs and (1, 2) not in pairs


def test_simhash_near_dupes_close_hamming():
    words = [f"tok{i}" for i in range(100)]
    base = " ".join(words)
    near = base + " extra"
    far = " ".join(f"other{i}" for i in range(100))
    tbl = pa.table(
        {"doc_id": pa.array([0, 1, 2], pa.int64()),
         "text": pa.array([base, near, far])}
    )
    out = simhash64(ray.data.from_arrow(tbl)).to_pandas().sort_values("doc_id")
    h = out["simhash"].to_numpy().astype(np.uint64)

    def hamming(a, b):
        return bin(int(a) ^ int(b)).count("1")

    assert hamming(h[0], h[1]) < hamming(h[0], h[2])
    assert hamming(h[0], h[1]) <= 16  # near-dup: few bit flips


def test_ann_topk_exact():
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((50, 8))
    vecs[7] = vecs[3] * 2.0  # same direction as 3 → cosine 1
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(50, dtype=np.int64)),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float64())),
        }
    )
    out = ann_topk(ray.data.from_arrow(tbl), query_ids=[3], k=3).to_pandas()
    out = out.sort_values("rank")
    assert out.iloc[0]["neighbor_id"] == 7
    assert abs(out.iloc[0]["sim"] - 1.0) < 1e-12
    assert len(out) == 3


def test_flagship_partial_resume(tmp_path):
    """Deleting ONE done-marker re-emits exactly that partition's rows."""
    import os

    out_dir = str(tmp_path / "flagp")
    r1 = flagship(SF, out_dir=out_dir).to_pandas()
    m1 = {m["key"]: m for m in lineage.load_manifest(out_dir)}
    assert len(m1) >= 2
    victim = sorted(m1)[0]
    os.remove(os.path.join(lineage.manifest_dir(out_dir), f"{victim}.json"))
    r2 = flagship(SF, out_dir=out_dir).to_pandas()
    assert len(r2) == m1[victim]["rows"]
    # marker restored, digest-xor lineage metric identical
    m2 = {m["key"]: m for m in lineage.load_manifest(out_dir)}
    assert m2[victim]["digest_xor"] == m1[victim]["digest_xor"]
    assert len(m2) == len(m1)


def _stage_rows(ds) -> dict:
    """Output rows per executed stage, from the Dataset's stats."""
    rows, stack = {}, [ds._plan.stats()]
    while stack:
        st = stack.pop()
        for name, blocks in st.metadata.items():
            rows[name] = rows.get(name, 0) + sum(b.num_rows or 0
                                                 for b in blocks)
        stack.extend(st.parents or [])
    return rows


def test_flagship_runs_two_executions(executed_dags):
    """The salt-factor count and the main chain; the ingest projection
    runs no schema fetch."""
    assert len(flagship(SF).take_all()) > 0
    assert len(executed_dags) == 2


def test_flagship_plan_has_no_actor_pool(executed_dags):
    """The PIP join runs as map tasks fused with the neighbouring maps."""
    from ray.data._internal.execution.operators.actor_pool_map_operator \
        import ActorPoolMapOperator

    flagship(SF).take_all()
    ops = executed_dags.operators()
    assert any("_pip_task" in op.name for op in ops)
    assert not [op.name for op in ops
                if isinstance(op, ActorPoolMapOperator)]


def test_flagship_runs_without_reservation(executed_dags):
    """Both flagship executions run without Ray Data's per-operator
    reservation; the caller's context, the process-wide one and a Dataset
    built afterwards keep it."""
    from ray.data.context import DataContext

    flagship(SF).take_all()
    assert executed_dags.reserved == [False, False]

    pages = pages_from_documents(SF)
    flagship(pages=pages).take_all()
    assert executed_dags.reserved[2:] == [False, False]
    assert pages.context.op_resource_reservation_enabled
    assert DataContext.get_current().op_resource_reservation_enabled

    ray.data.range(100).map_batches(lambda b: b).materialize()
    assert executed_dags.reserved[4:] == [True]


def _result_rows(df) -> list:
    return sorted(
        (r.url, r.cell, r.polygon_id, tuple(r.neighbor_set), r.digest_ok)
        for r in df.itertuples()
    )


@pytest.mark.parametrize("made,later", [
    ("SORT_SHUFFLE_PULL_BASED", "HASH_SHUFFLE"),
    ("HASH_SHUFFLE", "SORT_SHUFFLE_PULL_BASED"),
])
def test_flagship_shuffle_follows_pages_context(monkeypatch, executed_dags,
                                                made, later):
    """The shuffle follows the strategy the pages were made under, not the
    process-wide one set afterwards, and both give the same rows."""
    from ray.data.context import DataContext, ShuffleStrategy

    want = _result_rows(flagship(SF).to_pandas())
    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "shuffle_strategy", ShuffleStrategy[made])
    pages = pages_from_documents(SF)
    monkeypatch.setattr(ctx, "shuffle_strategy", ShuffleStrategy[later])

    c0 = len(executed_dags)
    got = _result_rows(flagship(pages=pages).to_pandas())
    assert got == want
    names = [op.name for op in executed_dags.operators(c0)]
    assert any(n.startswith("Sort") for n in names) == (
        made != "HASH_SHUFFLE"), names


def test_flagship_full_resume_sorts_no_rows(tmp_path):
    """A full resume drops every row before the PIP join: the map chain
    feeding the shuffle emits nothing and the Sort sees no row."""
    out_dir = str(tmp_path / "flagr")
    flagship(SF, out_dir=out_dir).materialize()
    r2 = flagship(SF, out_dir=out_dir).materialize()
    assert r2.count() == 0
    rows = _stage_rows(r2)
    sort = {n: r for n, r in rows.items() if n.startswith("Sort")}
    chain = [r for n, r in rows.items() if "_verify_drop" in n]
    assert sort and chain, rows
    assert sum(sort.values()) == 0 and sum(chain) == 0, rows
    assert max(rows.values()) > 0  # the source still reads every page


def test_flagship_partial_resume_salted(tmp_path):
    """Hot cells are salted (rows_per_part=3); deleting the markers of a
    salted key and of one other key re-emits exactly run 1's rows of those
    two partitions, with the same digest-XOR and no double-write."""
    import pyarrow.parquet as pq

    out_dir = str(tmp_path / "flags")
    mdir = lineage.manifest_dir(out_dir)
    r1 = flagship(SF, out_dir=out_dir, rows_per_part=3).to_pandas()
    m1 = {m["key"]: m for m in lineage.load_manifest(out_dir)}
    assert sum(m["rows"] for m in m1.values()) == len(r1)
    salted = sorted(k for k in m1 if int(k) % 4096 > 0)
    assert salted, "no cell was salted"
    victims = [salted[0], next(k for k in sorted(m1) if int(k) % 4096 == 0)]
    want = pa.concat_tables([
        pq.read_table(os.path.join(out_dir, f"part-{k}.parquet"))
        for k in victims
    ]).to_pandas()
    for k in victims:
        os.remove(os.path.join(mdir, f"{k}.json"))
    sentinels = {f for f in os.listdir(mdir) if f.endswith(".sentinel")}

    r2 = flagship(SF, out_dir=out_dir, rows_per_part=3).to_pandas()

    assert _result_rows(r2) == _result_rows(want)
    assert set(_result_rows(r2)) <= set(_result_rows(r1))
    m2 = {m["key"]: m for m in lineage.load_manifest(out_dir)}
    assert set(m2) == set(m1)
    for k in victims:
        assert m2[k]["digest_xor"] == m1[k]["digest_xor"]
        assert m2[k]["run_id"] != m1[k]["run_id"]
    # run 2 wrote one sentinel per re-emitted key and nothing else
    new = {f for f in os.listdir(mdir) if f.endswith(".sentinel")} - sentinels
    assert sorted(f.split(".")[0] for f in new) == sorted(victims)


def test_cross_containment_closed_form(ray_session):
    import pyarrow as pa
    import ray.data

    from libpysal_ray.text.dedup import cross_containment

    # test doc 0: "a b c d e f" -> 5-gram shingles {abcde, bcdef} (2)
    # train doc 10 contains "a b c d e" (1 of 2 shared -> 0.5)
    # train doc 11 shares nothing
    test = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0]),
        "text": pa.array(["a b c d e f"]),
    }))
    train = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([10, 11]),
        "text": pa.array(["x y a b c d e q r s", "u v w x y z"]),
    }))
    out = cross_containment(test, train, k=5, threshold=0.5).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["test_id"], r["train_id"], r["n_shared"], r["n_test"]) == \
        (0, 10, 1, 2)


def test_select_top_fraction_exact(ray_session):
    """Exactly ceil(frac*n) rows survive; they are the rank-(score desc,
    id asc) prefix, including boundary-tie splitting."""
    from libpysal_ray.text.analysis import select_top_fraction

    rng = np.random.default_rng(2)
    n = 1000
    scores = rng.integers(0, 50, n)  # heavy ties
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "s": pa.array(scores.astype(np.int64)),
            }
        )
    )
    for frac in (0.1, 0.33, 0.5, 1.0):
        got = {int(r["doc_id"]) for r in
               select_top_fraction(ds, "s", frac).take_all()}
        k = max(1, int(np.ceil(frac * n)))
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        assert got == set(order[:k]), frac


def test_select_top_fraction_massive_boundary_tie(ray_session):
    """≥50% of the corpus tied AT the cutoff score must not be gathered
    to the driver: max_boundary_ids=0 forces the distributed prefix-sum
    rank path, and the result is still the exact (score desc, id asc)
    prefix."""
    from libpysal_ray.text.analysis import select_top_fraction

    n = 4000
    scores = np.where(np.arange(n) % 2 == 0, 7, 3).astype(np.int64)
    # shuffle ids across blocks so the tie stream is layout-dependent
    rng = np.random.default_rng(11)
    ids = rng.permutation(n).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids), "s": pa.array(scores)})
    ).repartition(8)
    # frac=0.6 → k=2400; 2000 rows score 7, so 400 of the 2000 rows
    # tied at score 3 (50% of the corpus) survive — lowest ids first.
    got = {int(r["doc_id"]) for r in
           select_top_fraction(ds, "s", 0.6, max_boundary_ids=0)
           .take_all()}
    order = sorted(range(n), key=lambda i: (-int(scores[i]), int(ids[i])))
    want = {int(ids[i]) for i in order[:2400]}
    assert got == want
    # k landing exactly on the bucket edge takes the no-cutoff path
    got_all7 = {int(r["doc_id"]) for r in
                select_top_fraction(ds, "s", 0.5, max_boundary_ids=0)
                .take_all()}
    assert got_all7 == {int(ids[i]) for i in range(n) if scores[i] == 7}


@pytest.mark.parametrize("name", [
    "ktruss", "kcore", "rook_lattice", "queen_strict", "higher_order2",
])
def test_isolate_graph_queries_emit_no_schemaless_block(name):
    # the graphs under these queries can carry isolate markers; a block
    # left empty by dropping them must still reach every later fused map
    # with its schema, or Ray logs a schema change
    import logging

    from libpysal_ray.pipelines.queries import QUERIES

    warned = []

    class _Warnings(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                warned.append(record.getMessage())

    handler = _Warnings()
    logging.getLogger("ray.data").addHandler(handler)
    try:
        assert QUERIES[name](SF).materialize().count() > 0
    finally:
        logging.getLogger("ray.data").removeHandler(handler)
    assert not warned, warned


# Dataset executions of each query whose graph algorithm asks the
# small-input switch, once the shared graphs are built (the second run)
_SWITCHED_QUERY_EXECS = {
    "order3": 1, "pagerank": 1, "hits": 1, "lpa": 1, "seed_dist": 3,
    "kcore": 2, "mst": 3, "centrality3": 4,
}


@pytest.mark.parametrize("name", sorted(_SWITCHED_QUERY_EXECS))
def test_switched_query_execution_budget(executed_dags, name):
    from libpysal_ray.pipelines.queries import QUERIES

    QUERIES[name](SF).materialize()
    c0 = len(executed_dags)
    QUERIES[name](SF).materialize()
    assert len(executed_dags) - c0 <= _SWITCHED_QUERY_EXECS[name]


@pytest.mark.parametrize("name", [
    "pagerank_dist", "hits_dist", "lpa_dist", "seed_dist_fd",
    "components_band", "travel_cost",
])
def test_evidence_queries_take_the_sharded_path(monkeypatch, name):
    # these queries exist to prove the sharded plans against the oracle:
    # their graphs carry no size bound, so the switch never coalesces
    from libpysal_ray.core import graph as G
    from libpysal_ray.pipelines.queries import QUERIES

    took = []
    orig = G._one_task

    def _spy(*a, **k):
        out = orig(*a, **k)
        took.append(out is not None)
        return out

    monkeypatch.setattr(G, "_one_task", _spy)
    assert QUERIES[name](SF).materialize().count() > 0
    assert took and not any(took), took
