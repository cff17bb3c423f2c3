"""gini / spatial_gini / dissimilarity_index vs brute-force dense
references on small inputs, plus exactness past int64 and the loud
guards."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from libpysal_ray.builders.lattice import lat2graph
from libpysal_ray.spatial.inequality import (
    dissimilarity_index,
    gini,
    spatial_gini,
)


def _attrs(x, ids=None):
    n = len(x)
    ids = np.arange(n, dtype=np.int64) if ids is None else ids
    return ray.data.from_arrow(pa.table({
        "id": pa.array(ids),
        "x": pa.array(np.asarray(x, dtype=np.int64)),
    })).repartition(3)


def _brute_num(x):
    x = np.asarray(x, dtype=object)
    return int(np.abs(x[:, None] - x[None, :]).sum())


def test_gini_matches_brute(ray_session):
    rng = np.random.default_rng(5)
    x = rng.integers(0, 1000, 40).astype(np.int64)
    row = gini(_attrs(x)).take_all()[0]
    num = _brute_num(x)
    assert row["n"] == 40
    assert row["sum_x"] == int(x.sum())
    assert int(row["num"]) == num
    assert row["gini_f"] == float(num) / float(2 * 40 * int(x.sum()))


def test_gini_exact_past_int64(ray_session):
    # pairwise sums far beyond int64 stay exact in the decimal string
    x = np.array([0, (1 << 60), (1 << 60) + 7, 3], dtype=np.int64)
    row = gini(_attrs(x)).take_all()[0]
    assert int(row["num"]) == _brute_num(x)


def test_gini_guards(ray_session):
    with pytest.raises(ValueError, match="n > 0"):
        gini(_attrs(np.zeros(4)))


def test_spatial_gini_decomposition(ray_session):
    g = lat2graph(5, 6, rook=True)
    rng = np.random.default_rng(9)
    x = rng.integers(0, 500, 30).astype(np.int64)
    row = spatial_gini(g, _attrs(x)).take_all()[0]
    m, ids = g.to_dense()
    w = (m > 0).astype(np.int64)
    xo = x[np.argsort(ids)] if not np.array_equal(
        ids, np.arange(30)) else x
    num = _brute_num(x)
    num_nbr = int((w * np.abs(xo[:, None] - xo[None, :])).sum())
    assert int(row["num"]) == num
    assert int(row["num_nbr"]) == num_nbr
    assert int(row["num_far"]) == num - num_nbr
    assert row["s0"] == int(w.sum())
    assert row["gini_f"] == float(num) / float(2 * 30 * int(x.sum()))
    assert row["frac_nbr_f"] == float(num_nbr) / float(num)


def test_spatial_gini_universe_guard(ray_session):
    g = lat2graph(3, 3, rook=True)
    half = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(4, dtype=np.int64)),
        "x": pa.array(np.ones(4, dtype=np.int64)),
    }))
    with pytest.raises(ValueError, match="node universe"):
        spatial_gini(g, half)


def _units(b, w):
    n = len(b)
    return ray.data.from_arrow(pa.table({
        "unit": pa.array(np.arange(n, dtype=np.int64)),
        "b": pa.array(np.asarray(b, dtype=np.int64)),
        "w": pa.array(np.asarray(w, dtype=np.int64)),
    })).repartition(2)


def test_dissimilarity_matches_brute(ray_session):
    rng = np.random.default_rng(3)
    b = rng.integers(0, 100, 12)
    w = rng.integers(0, 100, 12)
    row = dissimilarity_index(_units(b, w)).take_all()[0]
    B, W = int(b.sum()), int(w.sum())
    num = int(sum(abs(int(bi) * W - int(wi) * B) for bi, wi in zip(b, w)))
    assert int(row["b_tot"]) == B and int(row["w_tot"]) == W
    assert int(row["d_num"]) == num
    assert row["d_f"] == float(num) / float(2 * B * W)
    # classic identity: 0 <= D <= 1
    assert 0.0 <= row["d_f"] <= 1.0


def test_dissimilarity_wide_path_exact(ray_session):
    # counts big enough that b*W overflows int64 -> object-dtype path
    b = np.array([(1 << 40), 5, 0], dtype=np.int64)
    w = np.array([7, (1 << 40), 2], dtype=np.int64)
    row = dissimilarity_index(_units(b, w)).take_all()[0]
    B, W = int(b.sum()), int(w.sum())
    num = int(sum(abs(int(bi) * W - int(wi) * B) for bi, wi in zip(b, w)))
    assert int(row["d_num"]) == num


def test_dissimilarity_guards(ray_session):
    with pytest.raises(ValueError, match="B > 0"):
        dissimilarity_index(_units([0, 0], [1, 1]))
    with pytest.raises(ValueError, match="nonnegative"):
        dissimilarity_index(_units([2, -1], [1, 1]))


def test_palma_exact_past_int64(ray_session):
    from libpysal_ray.spatial.inequality import palma_ratio

    # four rows hold one value near 2^62: value × count passes 2^63,
    # so the top share and the total only fit unbounded ints
    big = (1 << 62) + 7
    v = list(range(1, 17)) + [big] * 4
    ds = ray.data.from_arrow(pa.table({
        "v": pa.array(np.array(v, dtype=np.int64)),
    })).repartition(3)
    row = palma_ratio(ds, value_col="v").take_all()[0]
    sv = sorted(v)
    n = len(sv)
    k_top, k_bot = n * 10 // 100, n * 40 // 100
    top, bot = sum(sv[n - k_top:]), sum(sv[:k_bot])
    assert max(v) * v.count(big) >= 1 << 63
    assert (row["n"], row["k_top"], row["k_bot"]) == (n, k_top, k_bot)
    assert row["top_sum"] == str(top)
    assert row["bot_sum"] == str(bot)
    assert row["palma_f"] == pytest.approx(top / bot, rel=1e-15)
