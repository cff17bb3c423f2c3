"""Mergeable cardinality sketches — the 100 TB count-distinct path.

HyperLogLog (Flajolet et al. 2007) and a Bloom filter (Bloom 1970),
both over the engine's splitmix64 hash. HLL:
the accumulator is the 2^p register array, combine = elementwise max —
order-independent and mergeable, so it runs as a Ray-native AggregateFnV2
(one combiner pass per block, tiny merge tree, never a distinct shuffle).

Register derivation (shared by the exact oracle):
    h    = splitmix64(int64 value)
    reg  = h >> (64 - p)                      (top p bits)
    rest = h & (2^(64-p) - 1)                 (low 64-p bits)
    rho  = (64 - p) - bitlen(rest) + 1        (rho = 64-p+1 when rest = 0)

Bitlen runs on 32-bit halves so every frexp input is float64-exact at
ANY p — and DuckDB reproduces it with ``length(bin(rest))``: the
register table itself is
hash-compare EXACT (see the ``hll_registers`` query); only the final
cardinality ESTIMATE is approximate (standard error ≈ 1.04/sqrt(2^p)),
verified by pytest accuracy/merge tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from libpysal_ray.core.hashing import splitmix64
from libpysal_ray.core.joins import _agg_block_i64, _aggfn_v2_base


def _registers(vals: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(reg indices int64, rho uint8) per value — vectorized. Bitlen of
    the (64-p)-bit rest is computed on 32-bit HALVES so each frexp input
    is float64-exact (≤ 2^32) for every p — a direct float64 conversion
    of a >52-bit rest would round at the boundary and shift rho by one."""
    if p < 4 or p > 16:
        raise ValueError("p must be in [4, 16]")
    h = splitmix64(vals.astype(np.int64).view(np.uint64))
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h & np.uint64((1 << (64 - p)) - 1)
    hi = (rest >> np.uint64(32)).astype(np.float64)
    lo = (rest & np.uint64(0xFFFFFFFF)).astype(np.float64)
    # frexp(r) = (m, e), r = m * 2^e with 0.5 <= m < 1 -> e = bitlen(r)
    _, e_hi = np.frexp(hi)
    _, e_lo = np.frexp(lo)
    bitlen = np.where(hi > 0, 32 + e_hi, e_lo)
    rho = ((64 - p) - bitlen + 1).astype(np.uint8)  # rest=0 -> 64-p+1
    return reg, rho


def _estimate(regs: np.ndarray, p: int) -> float:
    m = 1 << p
    alpha = 0.7213 / (1.0 + 1.079 / m)
    s = float(np.sum(np.exp2(-regs.astype(np.float64))))
    e = alpha * m * m / s
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros:
        return m * float(np.log(m / zeros))  # linear counting
    return e


class HllAgg(_aggfn_v2_base()):
    """HyperLogLog count-distinct AggregateFnV2 over an int64 column:
    accumulator = the 2^p uint8 register array, combine = elementwise
    max, finalize = the HLL estimate (float). Use inside any
    ``groupby(...).aggregate(HllAgg(col))`` — one combiner pass per
    block, no distinct shuffle at any scale."""

    def __init__(self, on: str, p: int = 12):
        self._on = on
        self._p = p
        m = 1 << p
        super().__init__(
            f"hll({on})",
            zero_factory=lambda: np.zeros(m, dtype=np.uint8),
            on=on,
            ignore_nulls=True,
        )

    def aggregate_block(self, block):
        v = _agg_block_i64(block, self._on)
        regs = np.zeros(1 << self._p, dtype=np.uint8)
        if len(v):
            reg, rho = _registers(v, self._p)
            np.maximum.at(regs, reg, rho)
        return regs

    def combine(self, a, b):
        return np.maximum(np.asarray(a, dtype=np.uint8),
                          np.asarray(b, dtype=np.uint8))

    def finalize(self, accumulator):
        return _estimate(np.asarray(accumulator, dtype=np.uint8), self._p)


def hll_registers(
    ds: ray.data.Dataset, col: str, p: int = 12
) -> ray.data.Dataset:
    """The EXACT register table (reg, rho) of the HLL sketch of ``col``
    — a deterministic function of the value SET, so it is both the
    mergeable distributed state and an oracle-checkable artifact.
    Per-batch max-combine shrinks the ONE groupby(reg) shuffle to ≤ 2^p
    rows per block."""

    def _partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({
                "reg": pa.array([], pa.int64()),
                "rho": pa.array([], pa.int64()),
            })
        reg, rho = _registers(np.asarray(v, dtype=np.int64), p)
        regs = np.zeros(1 << p, dtype=np.uint8)
        np.maximum.at(regs, reg, rho)
        nz = np.flatnonzero(regs)
        return pa.table({
            "reg": pa.array(nz.astype(np.int64)),
            "rho": pa.array(regs[nz].astype(np.int64)),
        })

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("reg")
        .max("rho")
        .rename_columns({"max(rho)": "rho"})
    )


def hll_distinct(ds: ray.data.Dataset, col: str, p: int = 12) -> float:
    """Scalar HLL cardinality estimate of ``col`` (standard error
    ≈ 1.04/sqrt(2^p); p=12 → ~1.6%)."""
    regs = np.zeros(1 << p, dtype=np.uint8)
    for r in hll_registers(ds, col, p).take_all():
        regs[r["reg"]] = r["rho"]
    return _estimate(regs, p)


_BLOOM_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _bloom_positions(vals: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions: h_j = splitmix64(v + j·GOLDEN) % m — the
    derivation the SQL oracle replicates with the sm64/wrap64 macros."""
    v = vals.astype(np.int64).view(np.uint64)
    out = np.empty((len(v), k), dtype=np.int64)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        for j in range(k):
            h = splitmix64(v + np.uint64(j) * _BLOOM_GOLDEN)
            out[:, j] = (h % np.uint64(m_bits)).astype(np.int64)
    return out


def bloom_words(
    ds: ray.data.Dataset, col: str, m_bits: int = 1 << 18, k: int = 4
) -> ray.data.Dataset:
    """Bloom-filter state as a (word, bits) table — uint64 words of the
    m-bit array, OR-merged. Like the HLL registers, the STATE is a
    deterministic function of the value set (oracle-exact); only
    membership answers are approximate (no false negatives, bounded
    false positives). Per-batch OR-combine shrinks the ONE groupby(word)
    shuffle to ≤ m/64 rows per block."""
    if m_bits % 64 or m_bits < 64:
        raise ValueError("m_bits must be a positive multiple of 64")
    if not (1 <= k <= 8):
        raise ValueError("k must be in [1, 8]")

    def _partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        words = np.zeros(m_bits // 64, dtype=np.uint64)
        if len(v):
            pos = _bloom_positions(np.asarray(v, np.int64), m_bits, k)
            w = (pos >> 6).ravel()
            b = np.uint64(1) << (pos & 63).ravel().astype(np.uint64)
            np.bitwise_or.at(words, w, b)
        nz = np.flatnonzero(words)
        return pa.table({
            "word": pa.array(nz.astype(np.int64)),
            "bits": pa.array(words[nz].view(np.int64)),
        })

    part = ds.map_batches(_partial, batch_format="pyarrow")
    return part.groupby("word").aggregate(OrAgg("bits")).rename_columns(
        {"or(bits)": "bits"}
    )


class OrAgg(_aggfn_v2_base()):
    """bit_or aggregate for Ray's native groupby — the Bloom word merge;
    mirrors DuckDB's bit_or."""

    def __init__(self, on: str):
        self._on = on
        super().__init__(
            f"or({on})", zero_factory=lambda: 0, on=on, ignore_nulls=True
        )

    def aggregate_block(self, block):
        v = _agg_block_i64(block, self._on)
        return int(np.bitwise_or.reduce(v, initial=np.int64(0)))

    def combine(self, a, b):
        return int(np.int64(a) | np.int64(b))


def cms_counts(
    ds: ray.data.Dataset, col: str, width: int = 8192, depth: int = 4
) -> ray.data.Dataset:
    """Count-min sketch state (d, w, cnt) of ``col`` — depth hash rows ×
    width counters, merge = elementwise SUM (a plain grouped sum, so the
    state is oracle-EXACT like the HLL registers / Bloom words). Point
    estimates (``cms_estimate``) never underestimate; overestimation is
    bounded by 2N/width per row w.h.p. This is the engine's hot-key
    detector: feed the estimates of a key sample into the salt-factor
    choice instead of a full groupby(count).

    Per-batch bincount-combine shrinks the ONE groupby((d, w)) shuffle
    to ≤ depth·width rows per block."""
    if width < 16 or depth < 1 or depth > 8:
        raise ValueError("need width >= 16 and 1 <= depth <= 8")

    def _partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({
                "d": pa.array([], pa.int64()),
                "w": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            })
        pos = _bloom_positions(np.asarray(v, np.int64), width, depth)
        ds_, ws_, cs_ = [], [], []
        for j in range(depth):
            c = np.bincount(pos[:, j], minlength=width)
            nz = np.flatnonzero(c)
            ds_.append(np.full(len(nz), j, dtype=np.int64))
            ws_.append(nz.astype(np.int64))
            cs_.append(c[nz].astype(np.int64))
        return pa.table({
            "d": pa.array(np.concatenate(ds_)),
            "w": pa.array(np.concatenate(ws_)),
            "cnt": pa.array(np.concatenate(cs_)),
        })

    from libpysal_ray.core.joins import grouped_sum

    part = ds.map_batches(_partial, batch_format="pyarrow")
    return grouped_sum(part, ("d", "w"), ("cnt",)).rename_columns(
        {"sum(cnt)": "cnt"}
    )


def cms_estimate(
    state: ray.data.Dataset,
    values: np.ndarray,
    width: int = 8192,
    depth: int = 4,
) -> np.ndarray:
    """Point-count estimates (min over depth rows) for ``values`` from a
    ``cms_counts`` state Dataset. Never underestimates the true count."""
    table = np.zeros((depth, width), dtype=np.int64)
    for r in state.take_all():
        table[r["d"], r["w"]] = r["cnt"]
    v = np.asarray(values, dtype=np.int64)
    pos = _bloom_positions(v, width, depth)
    ests = np.stack([table[j, pos[:, j]] for j in range(depth)], axis=1)
    return ests.min(axis=1)


def hll_registers_by_key(
    ds: ray.data.Dataset, key_col: str, col: str, p: int = 12
) -> ray.data.Dataset:
    """Per-key HLL register tables — the keyed (e.g. per-window,
    per-domain) distinct-count sketch: one EXACT (key, reg, rho) state
    per integer key, mergeable at any layout like the global
    :func:`hll_registers`. The per-batch combiner max-folds registers
    per key BEFORE the one groupby(key, reg) shuffle, so blocks ship at
    most #keys_in_block × 2^p rows (usually far fewer).

    100 TB shape: identical to hll_registers with the key carried
    through — per-window/per-domain distinct-user counting over an
    unbounded stream reduces to this one bounded shuffle."""

    def _partial(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        v = t.column(col).to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({
                "key": pa.array([], pa.int64()),
                "reg": pa.array([], pa.int64()),
                "rho": pa.array([], pa.int64()),
            })
        reg, rho = _registers(np.asarray(v, dtype=np.int64), p)
        uk, inv = np.unique(k, return_inverse=True)
        packed = inv.astype(np.int64) * np.int64(1 << p) + reg
        regs = np.zeros(len(uk) << p, dtype=np.uint8)
        np.maximum.at(regs, packed, rho)
        nz = np.flatnonzero(regs)
        return pa.table({
            "key": pa.array(uk[(nz >> p)].astype(np.int64)),
            "reg": pa.array((nz & ((1 << p) - 1)).astype(np.int64)),
            "rho": pa.array(regs[nz].astype(np.int64)),
        })

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["key", "reg"])
        .max("rho")
        .rename_columns({"max(rho)": "rho"})
    )
