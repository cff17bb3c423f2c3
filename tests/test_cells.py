"""Hot-cell salt factors (spatial/cells.salt_factors) against a numpy
reference count and against the plain native groupby().count() formula
the salted partition keys were first written with."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from libpysal_ray.spatial.cells import salt_factors


def _cells_ds(cells, blocks):
    cells = np.asarray(cells, dtype=np.int64)
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(len(cells), dtype=np.int64)),
        "cell": pa.array(cells),
    })).repartition(blocks)


def _ref_factors(cells, target):
    u, c = np.unique(np.asarray(cells, dtype=np.int64), return_counts=True)
    return {
        int(k): int(np.ceil(int(n) / target))
        for k, n in zip(u, c) if n > target
    }


def _native_factors(ds, target):
    # the formula salt_factors replaced, kept here as the reference
    counts = ds.groupby("cell").count().rename_columns({"count()": "cnt"})
    hot = counts.filter(expr=f"cnt > {target}").take_all()
    return {int(r["cell"]): int(np.ceil(r["cnt"] / target)) for r in hot}


def _check(ds, cells, target):
    got = salt_factors(ds, target_rows_per_part=target)
    assert got == _ref_factors(cells, target)
    assert got == _native_factors(ds, target)
    return got


@pytest.mark.parametrize("path", ["coalesced", "sharded"])
def test_hot_cell_split_across_blocks(path, monkeypatch):
    from libpysal_ray.core import joins as J

    if path == "sharded":  # no input is provably small: native merge
        monkeypatch.setattr(J, "SMALL_COGROUP_BYTES", -1)
    native = []
    orig = ray.data.Dataset.groupby
    monkeypatch.setattr(
        ray.data.Dataset, "groupby",
        lambda self, *a, **k: native.append(a) or orig(self, *a, **k),
    )
    # 90 rows of cell 7 over 9 blocks: no block holds more than 10 of
    # them, so only the merged count can exceed the target of 40
    cells = np.concatenate([np.full(90, 7), np.arange(100, 190)])
    rng = np.random.default_rng(0)
    rng.shuffle(cells)
    ds = _cells_ds(cells, 9)
    per_block = [
        int((b["cell"].to_numpy() == 7).sum())
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    assert len(per_block) == 9 and max(per_block) < 40
    assert salt_factors(ds, target_rows_per_part=40) == {7: 3}
    assert len(native) == (path == "sharded")
    assert _check(ds, cells, 40) == {7: 3}


def test_count_equal_to_target_is_not_salted():
    cells = np.concatenate([np.full(25, 3), np.full(26, 4), np.arange(10, 20)])
    assert _check(_cells_ds(cells, 4), cells, 25) == {4: 2}


def test_target_above_every_count_is_empty():
    cells = np.random.default_rng(1).integers(0, 64, 500)
    assert _check(_cells_ds(cells, 5), cells, 10_000) == {}


def test_empty_dataset():
    ds = _cells_ds(np.arange(20), 3).filter(expr="cell < 0")
    assert salt_factors(ds, target_rows_per_part=1) == {}


@pytest.mark.parametrize("target", [1, 7, 300])
def test_remapped_hot_cell(target):
    # the bench.py --skew shape: a hash of doc_id sends about half of
    # the rows into one fixed cell, the rest spread over a res-5 domain
    from libpysal_ray.core.hashing import splitmix64

    n = 4_000
    rng = np.random.default_rng(2)
    cells = rng.integers(0, 1024, n)
    hot = splitmix64(np.arange(n, dtype=np.uint64)) < np.uint64(1 << 63)
    cells[hot] = 777
    assert 777 in _check(_cells_ds(cells, 8), cells, target)
