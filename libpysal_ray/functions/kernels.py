"""Kernel functions — vectorized per-edge maps.

Two families, matching both reference generations:
* legacy `Kernel._eval_kernel` (weights/distance.py:702-745): triangular,
  uniform (constant 0.5), quadratic, quartic, gaussian (with the
  (2π)^-1/2 normalizer, or c=1 when normalize=False);
* modern `libpysal/kernels.py:243-310`: parabolic, bisquare, tricube,
  cosine, exponential, boxcar, identity, + arbitrary callable.

All evaluate z = d/bandwidth arrays elementwise — pure numpy, used inside
``map_batches``; passing a callable as ``function`` mirrors the reference's
custom kernel hook (graph/_kernel.py:255-258).
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def evaluate_kernel(z: np.ndarray, function: str | Callable = "triangular",
                    normalize: bool = True) -> np.ndarray:
    if callable(function):
        return np.asarray(function(z), dtype=np.float64)
    f = function.lower()
    az = np.abs(z)
    if f == "triangular":
        return 1.0 - az
    if f == "uniform":
        return np.full_like(az, 0.5)
    if f in ("quadratic", "parabolic", "epanechnikov"):
        return 0.75 * (1.0 - az**2)
    if f in ("quartic", "bisquare"):
        return (15.0 / 16.0) * (1.0 - az**2) ** 2
    if f == "tricube":
        return (70.0 / 81.0) * (1.0 - az**3) ** 3
    if f == "gaussian":
        c = (2.0 * np.pi) ** (-0.5) if normalize else 1.0
        return c * np.exp(-(az**2) / 2.0)
    if f == "exponential":
        return np.exp(-az)
    if f == "cosine":
        return (np.pi / 4.0) * np.cos((np.pi / 2.0) * az)
    if f in ("boxcar", "discrete"):
        return (az < 1.0).astype(np.float64)
    if f == "identity":
        return az
    raise ValueError(f"unsupported kernel function {function!r}")
