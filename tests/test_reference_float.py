"""Fixed-point statistics against plain float64 textbook formulas.

The DuckDB oracles mirror the engine's integer arithmetic expression by
expression, so they cannot catch a wrong formula. These references are
written from the published definitions instead, and each comparison
carries a tolerance derived from the fixed-point ``scale``."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data


def _clayton_kaldor(e, b):
    """Global Empirical Bayes rates (Clayton & Kaldor 1987) in float64:
    theta_i = m + (r_i - m) * a / (a + m / b_i)."""
    e, b = e.astype(np.float64), b.astype(np.float64)
    m = e.sum() / b.sum()
    r = e / b
    s2 = (b * (r - m) ** 2).sum() / b.sum()
    a = max(s2 - m / (b.sum() / len(b)), 0.0)
    return m + (r - m) * a / (a + m / b), r, m


@pytest.mark.parametrize("scale", [100, 1000, 10000])
@pytest.mark.parametrize("seed", [0, 1])
def test_eb_smooth_matches_clayton_kaldor(ray_session, seed, scale):
    from libpysal_ray.spatial.smoothing import eb_smooth

    rng = np.random.default_rng(seed)
    n = 300
    b = rng.integers(1, 60, n)
    e = rng.binomial(b, rng.uniform(0.05, 0.9, n))
    ds = ray.data.from_arrow(pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "e": pa.array(e.astype(np.int64)),
        "b": pa.array(b.astype(np.int64)),
    })).repartition(3)
    got = np.zeros(n)
    for row in eb_smooth(ds, scale=scale).take_all():
        got[row["id"]] = row["theta_f"]
    want, r, m = _clayton_kaldor(e, b)
    # m, r_i and the quotient each truncate by < 1/scale; the truncated
    # moments move the shrinkage weight by a few 1/scale, which moves
    # theta by that much times |r_i - m|
    tol = 4.0 * (1.0 + np.abs(r - m)) / scale
    assert np.all(np.abs(got - want) <= tol), np.max(
        np.abs(got - want) * scale)
