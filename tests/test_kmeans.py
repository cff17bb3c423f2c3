"""kmeans_train parity against a single-process numpy Lloyd reference."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data


def _make(n=200, d=8, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    # three planted blobs so clusters are non-trivial
    x[: n // 3] += 4.0
    x[n // 3: 2 * n // 3] -= 4.0
    return x


def _numpy_lloyd(x, k, n_iter):
    cents = x[:k].astype(np.float64).copy()  # ids 0..k-1 = smallest ids
    sizes = np.zeros(k, dtype=np.int64)
    for _ in range(n_iter):
        dist = -2.0 * (x @ cents.T) + (cents * cents).sum(axis=1)[None, :]
        best = np.argmin(dist, axis=1)
        sizes = np.bincount(best, minlength=k)
        for c in range(k):
            if sizes[c]:
                cents[c] = x[best == c].mean(axis=0)
    return cents, sizes


def _ds(x):
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(len(x), dtype=np.int64)),
        "embedding": pa.array(list(x.astype(np.float64))),
    })).repartition(7)  # force multi-block partial reduction


def test_kmeans_train_matches_numpy():
    from libpysal_ray.ann.kmeans import kmeans_train

    x = _make()
    out = kmeans_train(_ds(x), k=4, n_iter=5).to_pandas()
    cents, sizes = _numpy_lloyd(x, k=4, n_iter=5)
    out = out.sort_values("cluster_id")
    assert list(out["size"]) == list(sizes)
    got = np.stack(out["centroid"].to_numpy())
    # partial sums are reduced in block order → ULP-level float drift
    np.testing.assert_allclose(got, cents, rtol=1e-9, atol=1e-12)


def test_kmeans_empty_cluster_keeps_centroid():
    from libpysal_ray.ann.kmeans import kmeans_train

    # two far-apart points, k=2, plus a duplicate → cluster of id 1 keeps
    # its init if emptied; here both survive, sizes sum to n
    x = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 10.0]])
    out = kmeans_train(_ds(x), k=2, n_iter=3).to_pandas()
    assert int(out["size"].sum()) == 3


def test_kmeans_k_exceeds_n_raises():
    from libpysal_ray.ann.kmeans import kmeans_train

    with pytest.raises(ValueError):
        kmeans_train(_ds(np.zeros((3, 2))), k=5, n_iter=1)


@pytest.mark.parametrize("fixed_scale", [None, 1 << 20])
def test_kmeans_init_runs_no_sort(executed_dags, fixed_scale):
    """The init takes the k smallest ids per block and merges them on the
    driver: no executed plan contains a Sort."""
    from libpysal_ray.ann.kmeans import kmeans_train

    x = _make(n=60, d=3)
    out = kmeans_train(_ds(x), k=4, n_iter=1, fixed_scale=fixed_scale)
    assert len(out.take_all()) == 4
    names = [op.name for op in executed_dags.operators()]
    assert names
    assert not [n for n in names if "sort" in n.lower()], names
