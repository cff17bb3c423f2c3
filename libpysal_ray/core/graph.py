"""RayGraph — the engine's spatial-weights graph over a Ray Dataset.

Reimplements the semantics of the reference's two graph abstractions
(legacy ``W``: /root/reference/libpysal/weights/weights.py:134-197; modern
``Graph``: /root/reference/libpysal/graph/base.py:68-141) on a single lazy
``ray.data.Dataset`` edge table ``(focal, neighbor, weight)``.

Physical-plan notes (this is what makes it Ray-Data-first, not a port):

* transforms B is a stateless per-edge ``map_batches``; R is ONE
  ``groupby(focal).map_groups`` (no join-back needed — the group holds the
  whole row); D and V are two-pass: a global aggregate reduced to a driver
  scalar, broadcast into a per-edge map;
* spatial lag joins the attribute vector on ``neighbor`` (broadcast for
  small attrs, distributed hash join otherwise) then ``groupby(focal).sum``;
* higher-order is k−1 distributed hash self-joins with per-batch dedup
  before each shuffle;
* set ops are cogroups: tag each side, union, one groupby on
  (focal, neighbor), per-group bitmask logic;
* summary scalars (s0/s1/s2, traces) are groupby/aggregate pipelines — no
  sparse matrix is ever materialized.

Isolates are zero-weight self-loops throughout (reference
graph/_utils.py:248-272), and canonical (focal, neighbor) order is applied
only at the serialize/compare boundary.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from libpysal_ray.core import edges as E
from libpysal_ray.core import joins as J

ALLOWED_TRANSFORMATIONS = ("O", "B", "R", "D", "V")


def _attach_attr(
    edges: ray.data.Dataset,
    attrs,
    values=None,
    key_col: str = "neighbor",
    out_col: str = "__y",
    default: float = 0.0,
    id_col: str = "id",
    val_col: str = "value",
) -> ray.data.Dataset:
    """Attach an attribute column onto the edge table by ``key_col``.

    ``attrs`` is either a numpy id array (+ ``values``) — broadcast once
    via ray.put — or an attribute ``Dataset`` with (id_col, val_col)
    columns, joined via a distributed bucket_join (left join; missing
    keys get ``default``). The Dataset path is the 100 TB form: no
    driver-side attribute materialization at any size."""
    if isinstance(attrs, ray.data.Dataset):
        a = attrs.select_columns([id_col, val_col]).rename_columns(
            {id_col: key_col, val_col: out_col}
        )
        joined = J.bucket_join(edges, a, on=key_col, how="left")

        def _fill(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            idx = t.schema.get_field_index(out_col)
            col = pc.cast(t.column(out_col), pa.float64())
            return t.set_column(
                idx, out_col, pc.fill_null(col, pa.scalar(default, pa.float64()))
            )

        return joined.map_batches(_fill, batch_format="pyarrow")
    return J.broadcast_lookup(
        edges,
        np.asarray(attrs, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        key_col=key_col,
        out_col=out_col,
        default=default,
    )


def _batch_unique_focal(t: pa.Table) -> pa.Table:
    """Per-batch distinct — the combiner that shrinks the unique shuffle."""
    f = np.unique(t.column("focal").to_numpy(zero_copy_only=False))
    return pa.table({"focal": pa.array(f)})


def _neighbors_as_focal(edges: ray.data.Dataset) -> ray.data.Dataset:
    return edges.map_batches(
        lambda t: pa.table({"focal": t.column("neighbor")}),
        batch_format="pyarrow",
    )


def _wl_equivalent(a: "RayGraph", b: "RayGraph", rounds: int = 6) -> bool:
    """Distributed 1-WL (Weisfeiler–Leman color refinement) screen.

    Returns False the moment any refinement round's color-class multiset
    digest differs between the two graphs — a PROOF of non-isomorphism
    at any scale (isomorphic graphs produce identical color multisets
    every round, so identical digests; digests are wrap-sums of hashed
    (color, count) pairs, so a hash collision can only MERGE classes —
    it can never make equal multisets look different). True means WL
    could not distinguish the graphs within ``rounds`` rounds
    (inconclusive — WL cannot separate, e.g., same-degree regular
    graphs). The reference stops at networkx degree-sequence screens
    (graph/_set_ops.py:197-207); refinement strictly dominates them.

    Per round and graph: two bucket_joins (attach current colors to each
    edge end), two grouped wrap-sums, one left-join back onto the node
    universe — all single-key hash shuffles; driver state is one digest
    int per round (the color table itself never leaves the cluster).
    Directed orientation is respected: in- and out-neighborhood sums are
    keyed by different round constants.
    """
    from libpysal_ray.core.hashing import splitmix64

    K_OUT = np.uint64(0x9E3779B97F4A7C15)
    K_IN = np.uint64(0xBF58476D1CE4E5B9)
    K_MIX = np.uint64(0x94D049BB133111EB)

    def _u(col: pa.ChunkedArray) -> np.ndarray:
        # int64 bits → uint64, nulls (left-join misses) → 0
        return (
            pc.fill_null(col, 0)
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .view(np.uint64)
        )

    def _init_colors(g: "RayGraph") -> ray.data.Dataset:
        # out-degree = the node table's cardinality (isolates 0)
        outd = g.cardinalities().map_batches(
            lambda t: pa.table(
                {"focal": t.column("focal"), "od": t.column("cardinality")}
            ),
            batch_format="pyarrow",
        )
        real = g._real_edges().select_columns(["focal", "neighbor"])
        ind = J.grouped_agg(
            _neighbors_as_focal(real), ("focal",), (None,), "count",
        ).map_batches(
            lambda t: pa.table(
                {"focal": t.column("focal"), "idg": t.column("count()")}
            ),
            batch_format="pyarrow",
        )
        j = J.bucket_join(outd, ind, on="focal", how="left")

        def _c0(t: pa.Table) -> pa.Table:
            od = _u(t.column("od"))
            idg = _u(t.column("idg"))
            c = splitmix64(splitmix64(od ^ K_OUT) ^ idg)
            return pa.table({
                "focal": t.column("focal"),
                "color": pa.array(c.view(np.int64)),
            })

        return j.map_batches(_c0, batch_format="pyarrow").materialize()

    def _refine(real: ray.data.Dataset, colors: ray.data.Dataset,
                rnd: int) -> ray.data.Dataset:
        kr = np.uint64(0xD6E8FEB86659FD93) * np.uint64(2 * rnd + 1)

        def _h(key: np.uint64, key_name: str, out_name: str):
            # explicit map_batches rename: Dataset.rename_columns is lazy
            # and its schema can leak pre-rename names into bucket_join
            def f(t: pa.Table) -> pa.Table:
                c = _u(t.column("color"))
                return pa.table({
                    key_name: t.column("focal"),
                    out_name: pa.array(
                        splitmix64(c ^ key ^ kr).view(np.int64)
                    ),
                })
            return f

        # Σ over out-edges f→n of h(color(n)), keyed by f
        nbc = colors.map_batches(
            _h(K_OUT, "neighbor", "hc"), batch_format="pyarrow"
        )
        osum = J.grouped_agg(
            J.bucket_join(real, nbc, on="neighbor"
                          ).select_columns(["focal", "hc"]),
            ("focal",), ("hc",), "sum",
        ).map_batches(
            lambda t: pa.table(
                {"focal": t.column("focal"), "os": t.column("sum(hc)")}
            ),
            batch_format="pyarrow",
        )
        # Σ over in-edges u→f of h(color(u)), keyed by f
        fcc = colors.map_batches(
            _h(K_IN, "focal", "hd"), batch_format="pyarrow"
        )
        isum = J.grouped_agg(
            J.bucket_join(real, fcc, on="focal"
                          ).map_batches(
                lambda t: pa.table(
                    {"focal": t.column("neighbor"), "hd": t.column("hd")}
                ),
                batch_format="pyarrow",
            ),
            ("focal",), ("hd",), "sum",
        ).map_batches(
            lambda t: pa.table(
                {"focal": t.column("focal"), "ins": t.column("sum(hd)")}
            ),
            batch_format="pyarrow",
        )
        j = J.bucket_join(
            J.bucket_join(colors, osum, on="focal", how="left"),
            isum, on="focal", how="left",
        )

        def _mix(t: pa.Table) -> pa.Table:
            c = _u(t.column("color"))
            os_ = _u(t.column("os"))
            ins = _u(t.column("ins"))
            nc = splitmix64(splitmix64(c ^ K_MIX) ^ os_ * np.uint64(3)
                            ^ ins * np.uint64(5))
            return pa.table({
                "focal": t.column("focal"),
                "color": pa.array(nc.view(np.int64)),
            })

        return j.map_batches(_mix, batch_format="pyarrow").materialize()

    def _digest(colors: ray.data.Dataset) -> tuple[int, int]:
        """(multiset digest, #distinct color classes) — one groupby,
        then O(#blocks) one-row partials combined on the driver."""
        counts = J.grouped_agg(
            colors.select_columns(["color"]), ("color",), (None,), "count"
        )

        def _part(t: pa.Table) -> pa.Table:
            c = _u(t.column("color"))
            k = _u(t.column("count()"))
            d = np.uint64(splitmix64(c ^ splitmix64(k)).sum())
            return pa.table({
                "d": pa.array([d.view(np.int64)]),
                "k": pa.array([np.int64(len(c))]),
            })

        parts = counts.map_batches(
            _part, batch_format="pyarrow"
        ).take_all()
        dig = sum(int(r["d"]) for r in parts) & ((1 << 64) - 1)
        return dig, sum(int(r["k"]) for r in parts)

    ra = a._real_edges().select_columns(["focal", "neighbor"]).materialize()
    rb = b._real_edges().select_columns(["focal", "neighbor"]).materialize()
    ca, cb = _init_colors(a), _init_colors(b)
    prev_classes = -1
    for rnd in range(rounds + 1):
        (da, ka), (db, kb) = _digest(ca), _digest(cb)
        if da != db or ka != kb:
            return False
        if ka == prev_classes:
            # refinement stabilized (class count stopped growing on both
            # sides) — further rounds cannot distinguish
            return True
        prev_classes = ka
        if rnd < rounds:
            ca, cb = _refine(ra, ca, rnd), _refine(rb, cb, rnd)
    return True


class RayGraph:
    """Immutable spatial-weights graph; every op returns a new RayGraph.

    (Reference Graph is likewise immutable — graph/_set_ops.py:41-45.)

    ``RayGraph(edges)`` takes a finished edge table as it is; its ids
    are its focals. ``RayGraph(edges, ids=ids)`` takes a builder's output
    and owns the isolate invariant: construction materializes the real
    edges (markers dropped, one Dataset execution) and keeps ``ids`` (a
    numpy array or a lazy Dataset with a ``focal`` column, repeats
    allowed) as a pending plan.

    Either graph builds one **node table** (``cardinalities()``: one
    ``(focal, cardinality)`` row per id, materialized, one Dataset
    execution) at most once, on the first read that needs the id set
    (the reference ``W`` caches its derived facts the same way,
    weights.py:199-201). ``ids()``, ``n()``, ``isolates()`` and the
    isolate markers of ``edges`` (one zero-weight self-loop per id with
    cardinality 0, unioned onto the real edges) all read it. ``_real_edges()`` and ``max_degree()`` never
    build it, so a consumer of the real edges alone pays nothing for
    isolates. The pending plan reads the builder's inputs, so those
    inputs (files, object-store blocks) must stay readable until the
    node table is built.
    """

    def __init__(
        self,
        edges: ray.data.Dataset,
        transformation: str = "O",
        original: ray.data.Dataset | None = None,
        *,
        ids: ray.data.Dataset | np.ndarray | None = None,
    ):
        if ids is None:
            self._full, self._real = edges, None
        else:
            self._full = None
            self._real = E.compact(E.without_markers(edges))
            if self._real.count() == 0:  # block metadata: no execution
                # a map never called on an empty block leaves it without
                # a schema; every reader of the real edges needs one
                self._real = ray.data.from_arrow(E.empty_edges())
        self._ids = ids
        self._nodes: ray.data.Dataset | None = None
        self.transformation = transformation
        # handle to the pre-transform edge Dataset so transform("O") can
        # restore originals (reference caches transformations["O"],
        # weights/weights.py:166-174,1074-1184). Datasets are immutable
        # lazy handles, so carrying one costs nothing; only transform()
        # threads it — derived graphs (set ops, subgraph, …) reset their
        # original to their own edges, like fresh reference W objects
        # (None: the graph's own edges, read through ``_original``).
        self._orig = original

    # ------------------------------------------------------------------ io
    @classmethod
    def from_arrays(cls, focal, neighbor, weight=1.0, ids=None) -> "RayGraph":
        ds = E.from_arrays(focal, neighbor, weight)
        if ids is not None:
            return cls(ds, ids=np.asarray(ids, dtype=np.int64))
        # id universe = focal ∪ neighbor (ids seen only as neighbors must
        # still exist as observations — reference W keys every id); the
        # node table drops the repeats
        return cls(ds, ids=ds.select_columns(["focal"]).union(
            _neighbors_as_focal(ds)))

    @classmethod
    def from_parquet(cls, path: str, **kwargs) -> "RayGraph":
        return cls(ray.data.read_parquet(path, **kwargs))

    @classmethod
    def from_pandas_adjlist(cls, df: pd.DataFrame) -> "RayGraph":
        return cls.from_arrays(
            df["focal"].to_numpy(np.int64),
            df["neighbor"].to_numpy(np.int64),
            df["weight"].to_numpy(np.float64),
        )

    def to_parquet(self, path: str) -> None:
        """Canonical-order partitioned Parquet (the reference's own native
        Graph serialization is this exact table — graph/io/_parquet.py)."""
        E.canonical(self.edges).write_parquet(path)

    # ------------------------------------------------------------ accessors
    @property
    def edges(self) -> ray.data.Dataset:
        """The full edge table. On a graph constructed with ``ids``: the
        materialized real edges plus the isolate markers read off the
        node table, so the first read costs the node table's one
        execution; both sides are block refs, so every consumer reuses
        them."""
        if self._full is None:
            markers = E.isolate_markers(self.cardinalities())
            if markers is None:
                self._full = self._real
            elif self._real.count() == 0:  # no zero-row block in the union
                self._full = markers
            else:
                self._full = self._real.union(markers)
        return self._full

    def ids(self) -> ray.data.Dataset:
        """The id universe as a ``(focal,)`` Dataset, one row per id: the
        node table's ``focal`` column (reference ``W.id_order``)."""
        return self.cardinalities().select_columns(["focal"])

    @property
    def _original(self) -> ray.data.Dataset:
        return self.edges if self._orig is None else self._orig

    def canonical_edges(self) -> ray.data.Dataset:
        return E.canonical(self.edges)

    def to_pandas(self) -> pd.DataFrame:
        """Driver-side canonical adjacency frame — small graphs/tests only."""
        df = self.canonical_edges().to_pandas()
        return df.reset_index(drop=True)

    def neighbors_dict(self) -> tuple[dict, dict]:
        """(neighbors, weights) dicts — the legacy-W presentation
        (weights.py:134-197). Driver-side; small graphs/tests only."""
        df = self.to_pandas()
        neighbors: dict = {}
        weights: dict = {}
        for f, g in df.groupby("focal", sort=True):
            is_marker = (g["neighbor"] == f) & (g["weight"] == 0.0)
            real = g[~is_marker]
            neighbors[int(f)] = [int(x) for x in real["neighbor"]]
            weights[int(f)] = [float(x) for x in real["weight"]]
        return neighbors, weights

    # ------------------------------------------------------------- scalars
    def n(self) -> int:
        """The number of ids: the node table's row count (metadata)."""
        return self.cardinalities().count()

    def nonzero(self) -> int:
        return self.edges.filter(
            expr="weight != 0.0 or focal != neighbor"
        ).count()

    def cache(self) -> "RayGraph":
        """Materialize the edge table into the object store (spillable).

        Use before feeding the same graph to several downstream pipelines —
        Ray does not share common DAG branches, so an uncached graph would
        recompute its builder once per consumer. This materializes only
        what is already resolved: it does not build the node table (the
        real edges are materialized at construction, and the node table
        and markers are cached on the graph when first built)."""
        if self._full is not None:
            self._full = self._full.materialize()
        return self

    # ----------------------------------------------------------- transforms
    def transform(self, code: str | Callable) -> "RayGraph":
        """B/R/D/V weight transforms (semantics: weights.py:1074-1184,
        graph/base.py:1827-1902). Callable → per-row-group transform ('C')."""
        if isinstance(code, str):
            code = code.upper()
        ds = self.edges

        if code == "O":
            # restore the original (pre-transform) weights
            # (weights.py:1074-1184: transformations["O"]).
            return RayGraph(self._original, "O", original=self._original)

        if code == "B":
            def _b(t: pa.Table) -> pa.Table:
                w = t.column("weight").to_numpy(zero_copy_only=False)
                return t.set_column(
                    t.schema.get_field_index("weight"),
                    "weight",
                    pa.array((w != 0.0).astype(np.float64)),
                )
            return RayGraph(ds.map_batches(_b, batch_format="pyarrow"), "B",
                            original=self._original)

        if code == "R":
            # Two-pass, fully vectorized: grouped sum per focal → per-edge
            # divide. Row sums the size predicate (``J._small``) bounds
            # are a driver broadcast (ray.put once); others stay a
            # Dataset and attach via a distributed bucket_join on focal —
            # no n-row driver materialization at web scale.
            sums_ds = J.grouped_sum(ds, ("focal",), ("weight",)).materialize()
            if J._small(sums_ds):
                sums = sums_ds.to_pandas()
                out = J.broadcast_lookup(
                    ds,
                    sums["focal"].to_numpy(np.int64),
                    sums["sum(weight)"].to_numpy(np.float64),
                    key_col="focal",
                    out_col="__rs",
                    default=0.0,
                )
            else:
                out = J.bucket_join(
                    ds,
                    sums_ds.rename_columns({"sum(weight)": "__rs"}),
                    on="focal",
                )

            def _r(t: pa.Table) -> pa.Table:
                w = t.column("weight").to_numpy(zero_copy_only=False)
                s = t.column("__rs").to_numpy(zero_copy_only=False)
                res = np.divide(w, s, out=np.zeros_like(w), where=s != 0.0)
                return pa.Table.from_arrays(
                    [t.column("focal"), t.column("neighbor"), pa.array(res)],
                    schema=E.EDGE_SCHEMA,
                )

            return RayGraph(out.map_batches(_r, batch_format="pyarrow"), "R",
                            original=self._original)

        if code == "D":
            s0 = float(ds.sum("weight") or 0.0)
            def _d(t: pa.Table) -> pa.Table:
                w = t.column("weight").to_numpy(zero_copy_only=False)
                return t.set_column(
                    t.schema.get_field_index("weight"), "weight", pa.array(w / s0)
                )
            return RayGraph(ds.map_batches(_d, batch_format="pyarrow"), "D",
                            original=self._original)

        if code == "V":
            # pass 1: s_ij = w_ij / sqrt(sum_j w_ij^2) per row — native
            # groupby sum of w² + divide (same size-switched plan as 'R')
            sq_ds = J.grouped_sum(
                ds.map_batches(
                    lambda t: pa.table(
                        {
                            "focal": t.column("focal"),
                            "__w2": pa.array(
                                t.column("weight").to_numpy(
                                    zero_copy_only=False
                                )
                                ** 2
                            ),
                        }
                    ),
                    batch_format="pyarrow",
                ),
                ("focal",),
                ("__w2",),
            ).materialize()
            if J._small(sq_ds):
                sq = sq_ds.to_pandas()
                withq = J.broadcast_lookup(
                    ds,
                    sq["focal"].to_numpy(np.int64),
                    np.sqrt(sq["sum(__w2)"].to_numpy(np.float64)),
                    key_col="focal",
                    out_col="__q",
                    default=0.0,
                )
            else:
                sqrt_ds = sq_ds.map_batches(
                    lambda t: pa.table(
                        {
                            "focal": t.column("focal"),
                            "__q": pa.array(
                                np.sqrt(
                                    t.column("sum(__w2)").to_numpy(
                                        zero_copy_only=False
                                    )
                                )
                            ),
                        }
                    ),
                    batch_format="pyarrow",
                )
                withq = J.bucket_join(ds, sqrt_ds, on="focal")

            def _v1(t: pa.Table) -> pa.Table:
                w = t.column("weight").to_numpy(zero_copy_only=False)
                q = t.column("__q").to_numpy(zero_copy_only=False)
                res = np.divide(w, q, out=np.zeros_like(w), where=q != 0.0)
                return pa.Table.from_arrays(
                    [t.column("focal"), t.column("neighbor"), pa.array(res)],
                    schema=E.EDGE_SCHEMA,
                )

            s = withq.map_batches(_v1, batch_format="pyarrow")
            # pass 2: global rescale n / Q (weights.py:1160-1173)
            s = s.materialize()  # avoid recomputing pass 1 for Q and output
            big_q = float(s.sum("weight") or 0.0)
            n = self.n()
            nq = n / big_q if big_q != 0.0 else 0.0
            def _v2(t: pa.Table) -> pa.Table:
                w = t.column("weight").to_numpy(zero_copy_only=False)
                return t.set_column(
                    t.schema.get_field_index("weight"), "weight", pa.array(w * nq)
                )
            return RayGraph(s.map_batches(_v2, batch_format="pyarrow"), "V",
                            original=self._original)

        if callable(code):
            # per-focal callable, reference 'C' hook (weights.py:1176-1184).
            # One grouped-by-key hash shuffle, then the callable runs per
            # focal SEGMENT inside each bucket block — bounded task count
            # (one per bucket), not one task per focal group.
            fn = code

            def _c_block(t: pa.Table) -> pa.Table:
                f = t.column("focal").to_numpy(zero_copy_only=False)
                w = t.column("weight").to_numpy(zero_copy_only=False)
                out = np.empty(len(w), dtype=np.float64)
                if len(f):
                    starts = np.flatnonzero(np.r_[True, f[1:] != f[:-1]])
                    bounds = np.append(starts, len(f))
                    for i in range(len(starts)):
                        lo, hi = bounds[i], bounds[i + 1]
                        out[lo:hi] = np.asarray(
                            fn(w[lo:hi]), dtype=np.float64
                        )
                return pa.Table.from_arrays(
                    [t.column("focal"), t.column("neighbor"), pa.array(out)],
                    schema=E.EDGE_SCHEMA,
                )

            return RayGraph(
                J.grouped_by_key(ds, ["focal"], _c_block),
                "C",
                original=self._original,
            )

        raise ValueError(f"Transformation '{code}' is not supported.")

    # ------------------------------------------------------------- lag
    def lag(
        self,
        attr_ids,
        attr_values=None,
        broadcast: bool = True,
        id_col: str = "id",
        val_col: str = "value",
    ) -> ray.data.Dataset:
        """Numeric spatial lag: (Wy)_i = sum_j w_ij * y_j.

        Semantics: weights/spatial_lag.py:16-88 / graph/base.py:2357-2413.
        ``attr_ids`` is either a numpy id array (+ ``attr_values``; joined
        by broadcast when ``broadcast`` else bucket_join) or an attribute
        ``Dataset`` with (id_col, val_col) — the 100 TB path, attached via
        a distributed bucket_join on ``neighbor`` with no driver-side
        materialization. Then ``groupby(focal).sum(weight*y)``. Returns
        Dataset (focal, lag)."""
        if isinstance(attr_ids, ray.data.Dataset):
            withy = _attach_attr(
                self.edges, attr_ids, key_col="neighbor", out_col="__y",
                default=0.0, id_col=id_col, val_col=val_col,
            )
        elif broadcast:
            withy = J.broadcast_lookup(
                self.edges,
                np.asarray(attr_ids, dtype=np.int64),
                np.asarray(attr_values, dtype=np.float64),
                key_col="neighbor",
                out_col="__y",
                default=0.0,
            )
        else:
            attrs = ray.data.from_arrow(
                pa.table(
                    {
                        "neighbor": pa.array(np.asarray(attr_ids, np.int64)),
                        "__y": pa.array(np.asarray(attr_values, np.float64)),
                    }
                )
            )
            withy = J.bucket_join(self.edges, attrs, on="neighbor")

        def _wy(t: pa.Table) -> pa.Table:
            w = t.column("weight").to_numpy(zero_copy_only=False)
            y = t.column("__y").to_numpy(zero_copy_only=False)
            return pa.table(
                {"focal": t.column("focal"), "__wy": pa.array(w * y)}
            )

        return (
            withy.map_batches(_wy, batch_format="pyarrow")
            .groupby("focal")
            .sum("__wy")
            .rename_columns({"sum(__wy)": "lag"})
        )

    def lag_categorical(
        self,
        attr_ids,
        attr_codes=None,
        ties: str = "raise",
        seed: int = 42,
        id_col: str = "id",
        val_col: str = "value",
    ) -> ray.data.Dataset:
        """Categorical lag: weighted modal neighbor label (int codes).

        Semantics: weights/spatial_lag.py:91-241 (tie policies 'raise' |
        'random' (seeded by focal id — cluster-size independent) |
        'lowest' | 'highest'). ``attr_ids`` may be a numpy id array
        (+ ``attr_codes``, broadcast) or an attribute Dataset.

        Plan (fully vectorized — no per-focal Python): attach code on
        neighbor, then ONE hash-bucket groupby on focal; inside each
        bucket the (focal, code) weight totals come from np.unique +
        np.add.at over the whole bucket, and the per-focal argmax with
        tie policy is a lexsort + run-length scan. Focals whose neighbors
        all lack codes emit -1.
        Returns Dataset (focal, lag_code)."""
        withc = _attach_attr(
            self.edges, attr_ids, attr_codes, key_col="neighbor",
            out_col="__c", default=np.nan, id_col=id_col, val_col=val_col,
        )
        if ties == "tryself":
            # the focal's OWN label joins the tally on a tie
            # (spatial_lag.py:236-240): attach it as a second column
            withc = _attach_attr(
                withc, attr_ids, attr_codes, key_col="focal",
                out_col="__fc", default=np.nan, id_col=id_col,
                val_col=val_col,
            )

        def _modal_block(t: pa.Table) -> pa.Table:
            f = t.column("focal").to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            w = t.column("weight").to_numpy(zero_copy_only=False)
            c = t.column("__c").to_numpy(zero_copy_only=False)
            all_f = np.unique(f)
            ok = ~np.isnan(c) & (w != 0.0)
            f_, c_, w_ = f[ok], c[ok].astype(np.int64), w[ok]
            if len(f_):
                fc = np.column_stack([f_, c_])
                uniq, inv = np.unique(fc, axis=0, return_inverse=True)
                tot = np.zeros(len(uniq))
                np.add.at(tot, inv, w_)
                uf, uc = uniq[:, 0], uniq[:, 1]
                # per-focal argmax: sort by (focal, -total, code)
                order = np.lexsort((uc, -tot, uf))
                uf_s, uc_s, tot_s = uf[order], uc[order], tot[order]
                first = np.flatnonzero(
                    np.r_[True, uf_s[1:] != uf_s[:-1]]
                )
                ends = np.append(first[1:], len(uf_s))
                tied = (ends > first + 1) & (
                    tot_s[np.minimum(first + 1, len(uf_s) - 1)]
                    == tot_s[first]
                )
                best = uc_s[first].copy()
                if tied.any():
                    if ties == "raise":
                        raise ValueError(
                            f"tie in categorical lag for focal "
                            f"{int(uf_s[first[tied][0]])}"
                        )
                    if ties == "tryself":
                        # per-focal own code + mean neighbor weight
                        fc = t.column("__fc").to_numpy(
                            zero_copy_only=False
                        )
                        # rows of one focal carry identical __fc values
                        own_arr = np.full(len(all_f), np.nan)
                        own_arr[np.searchsorted(all_f, f)] = fc
                        mw_sum = np.zeros(len(all_f))
                        mw_cnt = np.zeros(len(all_f))
                        pos_f = np.searchsorted(all_f, f_)
                        np.add.at(mw_sum, pos_f, w_)
                        np.add.at(mw_cnt, pos_f, 1.0)
                    for gi in np.flatnonzero(tied):
                        s, e = first[gi], ends[gi]
                        cand = uc_s[s:e][tot_s[s:e] == tot_s[s]]
                        rng = np.random.default_rng(seed + int(uf_s[s]))
                        if ties == "random":
                            best[gi] = cand[
                                rng.integers(0, len(cand), 1)[0]
                            ]
                        elif ties == "highest":
                            best[gi] = cand.max()
                        elif ties == "tryself":
                            # add mean neighbor weight to the own-label
                            # tally, re-resolve, random if still tied
                            # (reference _resolve_ties 'tryself' branch)
                            fid = int(uf_s[s])
                            own = own_arr[int(np.searchsorted(all_f, fid))]
                            if np.isnan(own):
                                best[gi] = cand[
                                    rng.integers(0, len(cand), 1)[0]
                                ]
                                continue
                            own = int(own)
                            fpos = int(
                                np.searchsorted(all_f, fid)
                            )
                            mw = (
                                mw_sum[fpos] / mw_cnt[fpos]
                                if mw_cnt[fpos]
                                else 0.0
                            )
                            in_g = uc_s[s:e] == own
                            own_base = (
                                float(tot_s[s:e][in_g][0])
                                if in_g.any()
                                else 0.0
                            )
                            own_tot = own_base + mw
                            if own_tot > tot_s[s]:
                                best[gi] = own
                            elif own_tot == tot_s[s]:
                                winners = np.unique(
                                    np.append(cand, own)
                                )
                                best[gi] = winners[
                                    rng.integers(0, len(winners), 1)[0]
                                ]
                            else:
                                best[gi] = cand[
                                    rng.integers(0, len(cand), 1)[0]
                                ]
                        else:  # 'lowest' — ascending code order
                            best[gi] = cand.min()
                # map winners back onto the full focal list (searchsorted —
                # uf_s[first] is ascending by lexsort construction)
                codes_out = np.full(len(all_f), -1, dtype=np.int64)
                keys = uf_s[first]
                pos = np.searchsorted(keys, all_f)
                posc = np.clip(pos, 0, len(keys) - 1)
                hit = (pos < len(keys)) & (keys[posc] == all_f)
                codes_out[hit] = best[posc[hit]]
            else:
                codes_out = np.full(len(all_f), -1, dtype=np.int64)
            return pa.table(
                {"focal": pa.array(all_f), "lag_code": pa.array(codes_out)}
            )

        return J.grouped_by_key(withc, ["focal"], _modal_block)

    # ------------------------------------------------------ graph algebra
    def _real_edges(self) -> ray.data.Dataset:
        """The edges without isolate markers; never builds the markers.
        A graph constructed with ``ids`` returns its materialized real
        edges, any other graph filters its table."""
        if self._real is not None:
            return self._real
        return E.without_markers(self._full)  # only ids= defers _full

    def higher_order(
        self,
        k: int = 2,
        shortest_path: bool = True,
        lower_order: bool = False,
        diagonal: bool = False,
    ) -> "RayGraph":
        """k-order neighbors (semantics: weights/util.py:442-553,
        graph/base.py:2274-2355). Binary matrix powers re-expressed as k−1
        distributed hash self-joins with per-batch dedup before each shuffle.
        """
        ids = self.ids()
        adj = E.dedup(
            self._real_edges().map_batches(
                lambda t: _binarize(t), batch_format="pyarrow"
            )
        ).materialize()  # reused every iteration — cache the blocks once
        if lower_order:
            shortest_path = True  # union of exact orders 1..k

        # seen = diagonal ∪ order-1 (excluded from "exactly k")
        diag = ids.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("focal"), t.column("focal"),
                 pa.array(np.ones(t.num_rows))],
                schema=E.EDGE_SCHEMA,
            ),
            batch_format="pyarrow",
        )
        seen = adj.union(diag).materialize()
        orders = [adj]
        cur = adj
        for _step in range(2, k + 1):
            left = cur.select_columns(["focal", "neighbor"]).rename_columns(
                {"neighbor": "mid"}
            )
            right = adj.select_columns(["focal", "neighbor"]).rename_columns(
                {"focal": "mid"}
            )
            joined = J.bucket_join(left, right, on="mid").select_columns(
                ["focal", "neighbor"]
            )
            # per-batch combiner only: pair_anti's cogroup is the global
            # dedup (one fewer shuffle per power step — the order() fix);
            # its summed duplicate weights are re-binarized on the way out
            cand = joined.map_batches(
                lambda t: E.batch_dedup(
                    t.append_column(
                        "weight", pa.array(np.ones(t.num_rows))
                    )
                ),
                batch_format="pyarrow",
            ).materialize()  # marked expander upstream: avoid re-execution
            if shortest_path:
                nxt = J.pair_anti(cand, seen).map_batches(
                    _binarize, batch_format="pyarrow"
                ).materialize()
                # union nxt, not cand: cand ∖ nxt ⊆ seen already, and nxt
                # is the deduplicated (smaller) set
                seen = seen.union(nxt).materialize()
            else:
                # path-of-length-k semantics: only remove the diagonal
                nxt = J.pair_anti(cand, diag).map_batches(
                    _binarize, batch_format="pyarrow"
                ).materialize()
            orders.append(nxt)
            cur = nxt

        if lower_order:
            out = orders[0]
            for o in orders[1:]:
                out = out.union(o)
            out = E.dedup(out)
        else:
            out = orders[-1]
        if not diagonal:
            out = out.filter(expr="focal != neighbor")
        return RayGraph(out, ids=ids)

    def symmetrize(self, method: str = "union", reduction: str = "max") -> "RayGraph":
        """make_symmetric (weights.py:1254-1274 / graph/base.py:2187-2272).

        union: W ∨ Wᵀ; intersection: keep only mutual links. ``reduction``
        resolves conflicting weights (max/min/sum/mean).
        """
        ids = self.ids()
        real = self._real_edges().materialize()
        if method == "union":
            out = E.dedup(real.union(E.reverse(real)), keep=reduction)
        elif method == "intersection":
            # one cogroup aggregate: keep pairs present in BOTH directions,
            # weight = reduction over (w_ij, w_ji)
            cg = J.cogroup_pairs(real, E.reverse(real)).filter(
                expr="ca > 0 and cb > 0"
            )

            def _reduce(t: pa.Table) -> pa.Table:
                wl = t.column("wl").to_numpy(zero_copy_only=False)
                wr = t.column("wr").to_numpy(zero_copy_only=False)
                if reduction == "max":
                    w = np.maximum(wl, wr)
                elif reduction == "min":
                    w = np.minimum(wl, wr)
                elif reduction == "sum":
                    w = wl + wr
                elif reduction == "mean":
                    w = (wl + wr) / 2.0
                else:
                    raise ValueError(reduction)
                return pa.Table.from_arrays(
                    [t.column("focal"), t.column("neighbor"), pa.array(w)],
                    schema=E.EDGE_SCHEMA,
                )

            out = cg.map_batches(_reduce, batch_format="pyarrow")
        else:
            raise ValueError(method)
        return RayGraph(out, ids=ids)

    def asymmetries(self) -> ray.data.Dataset:
        """Directed pairs where w_ij != w_ji (weights.py:1186-1252).

        Cogroup of W with Wᵀ on (focal, neighbor); emit keys present on one
        side only or with differing weights. One native aggregate."""
        real = self._real_edges().materialize()
        cg = J.cogroup_pairs(real, E.reverse(real))
        return cg.filter(
            expr="ca == 0 or cb == 0 or wl != wr"
        ).select_columns(["focal", "neighbor"])

    # ------------------------------------------------------------- set ops
    def _setop(self, other: "RayGraph", mode: str) -> "RayGraph":
        """union/intersection/difference/symmetric_difference — binary
        results (set_operations.py:29-334 / graph/_set_ops.py). ONE cogroup
        sum-aggregate shuffle on (focal, neighbor) + an expression filter —
        no per-group Python, no join-actor startup."""
        exprs = {
            "union": "ca > 0 or cb > 0",
            "intersection": "ca > 0 and cb > 0",
            "difference": "ca > 0 and cb == 0",
            "symmetric_difference": "(ca > 0 and cb == 0) or (ca == 0 and cb > 0)",
        }
        cg = J.cogroup_pairs(self._real_edges(), other._real_edges())

        def _binary_edges(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [
                    t.column("focal"),
                    t.column("neighbor"),
                    pa.array(np.ones(t.num_rows)),
                ],
                schema=E.EDGE_SCHEMA,
            )

        out = cg.filter(expr=exprs[mode]).map_batches(
            _binary_edges, batch_format="pyarrow"
        )
        # id universe per reference defaults: union/sym-diff → union of ids;
        # intersection/difference → ids of self (set_operations.py defaults).
        # The node table drops repeated ids.
        ids = self.ids()
        if mode in ("union", "symmetric_difference"):
            ids = ids.union(other.ids())
        return RayGraph(out, ids=ids)

    def union_g(self, other: "RayGraph") -> "RayGraph":
        return self._setop(other, "union")

    def intersection_g(self, other: "RayGraph") -> "RayGraph":
        return self._setop(other, "intersection")

    def difference_g(self, other: "RayGraph") -> "RayGraph":
        return self._setop(other, "difference")

    def symmetric_difference_g(self, other: "RayGraph") -> "RayGraph":
        return self._setop(other, "symmetric_difference")

    def issubgraph(self, other: "RayGraph") -> bool:
        """True iff every real edge of self appears in other
        (graph/_set_ops.py:150-176) — empty anti-join check."""
        missing = J.cogroup_pairs(
            self._real_edges(),
            other._real_edges().select_columns(["focal", "neighbor"]),
        ).filter(expr="ca > 0 and cb == 0")
        return missing.count() == 0

    def equals(self, other: "RayGraph") -> bool:
        """Identical adjacency incl. weights (graph/_set_ops.py:178-195):
        one cogroup — no one-sided keys and wl == wr everywhere."""
        diff = J.cogroup_pairs(self._real_edges(), other._real_edges()).filter(
            expr="ca == 0 or cb == 0 or wl != wr"
        )
        return diff.count() == 0

    def isomorphic(self, other: "RayGraph", max_nodes: int = 2000) -> bool:
        """Structural isomorphism (graph/_set_ops.py:197-207; the
        reference delegates to networkx, absent here).

        Staged exactly like the reference: cheap DISTRIBUTED invariant
        screens first — node/edge counts, then the sorted degree
        sequence (one groupby each) — mirroring
        ``faster_could_be_isomorphic``; only graphs that survive fall to
        a driver-side backtracking matcher (most-constrained-first, a
        VF2-style search), bounded by ``max_nodes`` (isomorphism needs
        the full adjacency in one place — the reference holds it in
        networkx the same way)."""
        if self.n() != other.n():
            return False
        a = self._real_edges()
        b = other._real_edges()
        if a.count() != b.count():
            return False
        # degree-sequence screen as a distributed degree HISTOGRAM: equal
        # sorted sequences ⇔ equal (degree → count) maps, and the collect
        # is bounded by the number of DISTINCT degrees, not n — the screen
        # itself stays scale-safe even though the matcher below is
        # driver-side and max_nodes-guarded
        def _deg_hist(g: "RayGraph") -> dict[int, int]:
            h = J.grouped_agg(
                g.cardinalities(), ("cardinality",), (None,), "count"
            ).take_all()
            return {int(r["cardinality"]): int(r["count()"]) for r in h}

        if _deg_hist(self) != _deg_hist(other):
            return False
        if self.n() > max_nodes:
            # distributed screens that can PROVE non-isomorphism at any
            # scale: component count, then 1-WL color refinement. Only
            # the POSITIVE certificate needs the adjacency in one place.
            if self.n_components()[0] != other.n_components()[0]:
                return False
            if not _wl_equivalent(self, other):
                return False
            raise NotImplementedError(
                f"graphs are WL-equivalent and above the {max_nodes}-node "
                "exact-matcher cap; a positive isomorphism certificate "
                "needs the full adjacency on one node — raise max_nodes "
                "or use domain structure"
            )
        # Asymmetric graphs (e.g. KNN) must be matched over DIRECTED
        # adjacency — the reference converts them to nx.DiGraph
        # (base.py:2522-2525). Symmetrizing would conflate graphs with
        # the same undirected skeleton but different edge orientations
        # (ADVICE r2 #1).
        directed = (
            self.asymmetries().count() > 0
            or other.asymmetries().count() > 0
        )

        def _adj(g: "RayGraph"):
            """(out_sets, in_sets) — identical views when undirected."""
            out: dict[int, set] = {}
            inn: dict[int, set] = {}
            for r in g.edges.take_all():
                f_, n_ = int(r["focal"]), int(r["neighbor"])
                out.setdefault(f_, set())
                inn.setdefault(f_, set())
                if not (f_ == n_ and r["weight"] == 0.0):
                    out[f_].add(n_)
                    inn.setdefault(n_, set()).add(f_)
                    out.setdefault(n_, set())
                    if not directed:
                        out[n_].add(f_)
                        inn[f_].add(n_)
            return out, inn

        (ao, ai), (bo, bi) = _adj(self), _adj(other)
        if directed:
            # (out-degree, in-degree) multiset screen
            if sorted((len(ao[u]), len(ai[u])) for u in ao) != sorted(
                (len(bo[v]), len(bi[v])) for v in bo
            ):
                return False
        order = sorted(ao, key=lambda u: -(len(ao[u]) + len(ai[u])))
        by_deg: dict[tuple, list] = {}
        for v_ in bo:
            by_deg.setdefault((len(bo[v_]), len(bi[v_])), []).append(v_)
        mapping: dict[int, int] = {}
        used: set = set()

        def bt(i: int) -> bool:
            if i == len(order):
                return True
            u = order[i]
            for v_ in by_deg.get((len(ao[u]), len(ai[u])), []):
                if v_ in used:
                    continue
                ok = True
                for un, um in mapping.items():
                    if (un in ao[u]) != (um in bo[v_]) or (
                        un in ai[u]
                    ) != (um in bi[v_]):
                        ok = False
                        break
                if ok:
                    mapping[u] = v_
                    used.add(v_)
                    if bt(i + 1):
                        return True
                    del mapping[u]
                    used.discard(v_)
            return False

        return bt(0)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(row, col, data, ids) COO arrays over dense positions sorted by
        id — the WSP/scipy-interop export (weights.py sparse property;
        driver-side, small-layer: the 100 TB graph IS the edge Dataset)."""
        ids = np.sort(
            np.array([r["focal"] for r in self.ids().take_all()],
                     dtype=np.int64)
        )
        rows, cols, data = [], [], []
        for b in E.canonical(self._real_edges()).iter_batches(
            batch_format="pyarrow"
        ):
            rows.append(
                np.searchsorted(
                    ids, b.column("focal").to_numpy(zero_copy_only=False)
                )
            )
            cols.append(
                np.searchsorted(
                    ids, b.column("neighbor").to_numpy(zero_copy_only=False)
                )
            )
            data.append(b.column("weight").to_numpy(zero_copy_only=False))
        if rows:
            return (
                np.concatenate(rows), np.concatenate(cols),
                np.concatenate(data), ids,
            )
        z = np.empty(0, np.int64)
        return z, z, np.empty(0, np.float64), ids

    def to_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, data, ids) CSR arrays (sorted row-major)."""
        row, col, data, ids = self.to_coo()
        order = np.lexsort((col, row))
        row, col, data = row[order], col[order], data[order]
        indptr = np.searchsorted(row, np.arange(len(ids) + 1))
        return indptr, col, data, ids

    def to_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(matrix, ids) dense weight matrix sorted by id — the
        reference's ``full(w)`` (weights/util.py:662). Driver-side BY
        CONTRACT like the reference (a dense n×n matrix is inherently
        driver-scale); raises loudly above 10k nodes."""
        row, col, data, ids = self.to_coo()
        n = len(ids)
        if n > 10_000:
            raise ValueError(
                f"to_dense on {n} nodes would allocate {n}x{n} doubles; "
                "dense export is a small-graph interop path"
            )
        m = np.zeros((n, n), dtype=np.float64)
        m[row, col] = data
        return m, ids

    @classmethod
    def from_dense(cls, m: np.ndarray, ids=None) -> "RayGraph":
        """Dense matrix → graph — the reference's ``full2W``
        (weights/util.py:694): nonzero entries become edges; all-zero
        rows survive as isolates."""
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("from_dense needs a square matrix")
        n = m.shape[0]
        ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(
            ids, dtype=np.int64
        )
        r, c = np.nonzero(m)
        return cls.from_arrays(ids[r], ids[c], m[r, c], ids=ids)

    @staticmethod
    def _pagerank_check_bounds(
        iters: int, damping_pct: int, base: int, r0: int, max_indeg: int
    ) -> None:
        """Exact unbounded-int worst-case bound on every intermediate
        (the hub sum s <= max_indeg * r_max): raise BEFORE any int64 adds
        could silently wrap. The SQL oracle raises on BIGINT overflow, so
        the engine must refuse the same inputs loudly."""
        r_max = int(r0)
        for _ in range(iters):
            s_max = max_indeg * r_max
            if s_max >= (1 << 62):
                raise ValueError(
                    f"pagerank_int would overflow int64: max in-degree "
                    f"{max_indeg} x rank bound {r_max} exceeds 2^62; "
                    "reduce r0/base or damping_pct"
                )
            r_max = int(base) + damping_pct * s_max // 100
        if r_max >= (1 << 62):
            raise ValueError(
                "pagerank_int rank bound exceeds 2^62; reduce r0/base"
            )

    @staticmethod
    def _pagerank_damp(s: np.ndarray, dp: int, base: int) -> np.ndarray:
        """base + dp*s//100 WITHOUT forming dp*s: floor((dp*s)/100) =
        dp*(s//100) + (dp*(s%100))//100 — exact, overflow-safe given the
        _pagerank_check_bounds guarantee s < 2^62."""
        q, rem = s // 100, s % 100
        return int(base) + np.int64(dp) * q + (np.int64(dp) * rem) // 100

    def pagerank_int(
        self,
        iters: int = 3,
        damping_pct: int = 85,
        base: int = 150_000_000_000,
        r0: int = 1_000_000_000_000,
    ) -> ray.data.Dataset:
        """Fixed-point INTEGER PageRank over the directed edge set:
        r_{t+1}(v) = base + damping_pct·(Σ_{u→v} r_t(u) // outdeg(u)) // 100
        for ``iters`` rounds from r_0 = ``r0``. Every operation is int64
        floor arithmetic, so the result is bit-exact at any cluster
        size/batch layout AND SQL-reproducible (the oracle unrolls the
        same iterations) — the engine's exactness discipline applied to
        the classic iterative web-graph algorithm. Isolates and dangling
        nodes settle at ``base``; this is the deterministic fixed-point
        variant, not the stochastic-matrix normalization.

        Two paths, chosen by the small-input switch (``joins._coalesced``)
        on the full edge table: with a size bound ONE task runs the whole
        recurrence as an O(E)-per-round numpy scatter-add; without one,
        the sharded path — the edge table and out-degrees materialized
        ONCE, the rank state carries the out-degree, so each round is one
        bucket_join (state onto edges by source) + one groupby(dest) sum
        + one left join back onto the node universe — TWO key shuffles +
        one aggregate, no driver-side data. Both paths run the IDENTICAL
        int64 recurrence. Returns (node, r)."""
        from libpysal_ray.core.joins import bucket_join

        if iters < 1:
            raise ValueError("iters must be >= 1")
        dp, b0, rr0 = int(damping_pct), int(base), int(r0)

        def _task(t: pa.Table) -> pa.Table:
            ids, row, col, known, nbr = _real_positions(t)
            try:
                RayGraph._pagerank_check_bounds(
                    iters, dp, b0, rr0, _max_count(nbr))
            except ValueError as e:
                return _task_error(e)
            deg = np.bincount(row, minlength=len(ids)).astype(np.int64)
            row, col = row[known], col[known]
            r = np.full(len(ids), rr0, dtype=np.int64)
            for _ in range(iters):
                c = r // np.maximum(deg, 1)
                s = np.zeros(len(ids), dtype=np.int64)
                np.add.at(s, col, c[row])
                r = RayGraph._pagerank_damp(s, dp, b0)
            return pa.table({"node": pa.array(ids), "r": pa.array(r)})

        small = _one_task(self.edges, _task, pa.table({
            "node": pa.array([], pa.int64()), "r": pa.array([], pa.int64()),
        }))
        if small is not None:
            return small
        edges = (
            self._real_edges()
            .map_batches(
                lambda t: t.select(["focal", "neighbor"]),
                batch_format="pyarrow",
            )
            .materialize()
        )
        deg = self.cardinalities().map_batches(
            lambda t: pa.table({
                "node": t.column("focal"),
                "d": pc.cast(t.column("cardinality"), pa.int64()),
            }),
            batch_format="pyarrow",
        ).materialize()
        self._pagerank_check_bounds(
            iters, dp, b0, rr0, _max_in_degree(edges))

        def _init(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t.column("node"),
                "d": t.column("d"),
                "r": pa.array(
                    np.full(t.num_rows, rr0, dtype=np.int64)
                ),
            })

        # the rank state CARRIES the out-degree so each round needs only
        # TWO key shuffles: edges⋈state (contributions) and the
        # deg-universe left join (update) — no separate ranks⋈deg pass
        state = deg.map_batches(_init, batch_format="pyarrow").map_batches(
            lambda t: pa.table({
                "focal": t.column("node"),
                "d": t.column("d"),
                "r": t.column("r"),
            }),
            batch_format="pyarrow",
        ).materialize()
        for _ in range(iters):
            contrib = bucket_join(edges, state, on="focal").map_batches(
                lambda t: pa.table({
                    "node": t.column("neighbor"),
                    "c": pa.array(
                        t.column("r").to_numpy(zero_copy_only=False)
                        // np.maximum(
                            t.column("d").to_numpy(zero_copy_only=False), 1
                        )
                    ),
                }),
                batch_format="pyarrow",
            )
            sums = contrib.groupby("node").sum("c").rename_columns(
                {"sum(c)": "s"}
            )
            joined = bucket_join(deg, sums, on="node", how="left")

            def _update(t: pa.Table) -> pa.Table:
                s = pc.fill_null(
                    pc.cast(t.column("s"), pa.int64()), 0
                ).to_numpy(zero_copy_only=False)
                return pa.table({
                    "focal": t.column("node"),
                    "d": t.column("d"),
                    "r": pa.array(
                        RayGraph._pagerank_damp(s, dp, b0)
                    ),
                })

            state = joined.map_batches(
                _update, batch_format="pyarrow"
            ).materialize()  # next round's join input
        return state.map_batches(
            lambda t: pa.table({
                "node": t.column("focal"),
                "r": t.column("r"),
            }),
            batch_format="pyarrow",
        )

    def seed_distance(self, seeds, kmax: int = 3) -> ray.data.Dataset:
        """Multi-source BFS hop distance to the nearest seed (the
        TrustRank-style 'distance from a trusted/spam seed set'
        primitive), bounded to ``kmax`` hops: rows (node, dist) for
        every node whose nearest seed is within kmax (seeds at dist 0).
        ``seeds`` is a numpy int64 array of node ids, a Python
        sequence, or a single-column Dataset.

        Two paths, chosen by the small-input switch (``joins._coalesced``)
        on the real edges: with a size bound ONE task runs a vectorized
        frontier BFS in numpy; without one, per round ONE frontier⋈edges
        bucket_join (frontier is the small side) + an anti-join against
        the seen set + a dedup — the :meth:`order` frontier machinery
        pointed at one source set instead of all-pairs."""
        from libpysal_ray.core.joins import bucket_join

        if isinstance(seeds, ray.data.Dataset):
            name = seeds.schema().base_schema.names[0]
            seeds = [r[name] for r in seeds.take_all()]
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if len(seeds) == 0:
            raise ValueError("seed_distance needs at least one seed")
        at_seeds = pa.table({
            "node": pa.array(seeds),
            "dist": pa.array(np.zeros(len(seeds), np.int64)),
        })

        def _task(t: pa.Table) -> pa.Table:
            f = t.column("focal").to_numpy(zero_copy_only=False)
            n = t.column("neighbor").to_numpy(zero_copy_only=False)
            nodes, inv = np.unique(np.concatenate([f, n, seeds]),
                                   return_inverse=True)
            fi, ni = inv[:len(f)], inv[len(f):len(f) + len(n)]
            order = np.argsort(fi, kind="stable")
            ptr = np.searchsorted(fi[order], np.arange(len(nodes) + 1))
            nbr = ni[order]
            dist = np.full(len(nodes), -1, np.int64)
            frontier = np.unique(inv[len(f) + len(n):])
            dist[frontier] = 0
            for d in range(1, kmax + 1):
                reach = nbr[_ranges(ptr[frontier], ptr[frontier + 1])]
                frontier = np.unique(reach[dist[reach] < 0])
                if len(frontier) == 0:
                    break
                dist[frontier] = d
            hit = dist >= 0
            return pa.table({"node": pa.array(nodes[hit]),
                             "dist": pa.array(dist[hit])})

        small = _one_task(self._real_edges(), _task, at_seeds)
        if small is not None:
            return small
        adj = E.dedup(
            self._real_edges().map_batches(_binarize, batch_format="pyarrow")
        ).materialize()

        def _lvl(ds: ray.data.Dataset, d: int) -> ray.data.Dataset:
            return ds.map_batches(
                lambda t, dd=d: pa.table({
                    "node": t.column("node"),
                    "dist": pa.array(
                        np.full(t.num_rows, dd, dtype=np.int64)
                    ),
                }),
                batch_format="pyarrow",
            )

        frontier = ray.data.from_arrow(
            pa.table({"node": pa.array(seeds)})
        ).materialize()
        seen = frontier
        outs = [_lvl(frontier, 0)]
        for d in range(1, kmax + 1):
            if int(frontier.count()) == 0:
                break
            nxt = bucket_join(
                adj.select_columns(["focal", "neighbor"]).map_batches(
                    lambda t: pa.table({
                        "node": t.column("focal"),
                        "nb": t.column("neighbor"),
                    }),
                    batch_format="pyarrow",
                ),
                frontier,
                on="node",
                how="semi",
            ).map_batches(
                lambda t: pa.table({"node": t.column("nb")}),
                batch_format="pyarrow",
            )
            nxt = J.grouped_agg(
                nxt, ("node",), (None,), "count"
            ).map_batches(
                lambda t: pa.table({"node": t.column("node")}),
                batch_format="pyarrow",
            )
            nxt = bucket_join(nxt, seen, on="node", how="anti").materialize()
            seen = seen.union(nxt).materialize()
            outs.append(_lvl(nxt, d))
            frontier = nxt
        out = outs[0]
        for o in outs[1:]:
            out = out.union(o)
        return out

    def label_propagation(self, iters: int = 3) -> ray.data.Dataset:
        """Synchronous label-propagation community detection (Raghavan
        et al. 2007), DETERMINISTIC variant: labels start as node ids;
        each round every node adopts the most frequent label among its
        neighbors, ties broken by the SMALLEST label; a fixed ``iters``
        rounds (not to convergence — synchronous LPA can oscillate, so
        a pinned round count is the reproducible contract, bit-exact at
        any layout and SQL-mirrored by unrolled CTEs). Nodes with no
        neighbors keep their own id. Returns (node, label).

        Two paths, chosen by the small-input switch (``joins._coalesced``)
        on the full edge table: with a size bound ONE task runs a numpy
        lexsort recurrence; without one, each round is ONE labels⋈edges
        bucket_join + one per-node argmax over (count desc, label asc)
        in a grouped kernel + a left join back onto the node universe.
        Requires ids < 2^31 (the dense-codec guarantee) and degree
        < 2^31."""
        from libpysal_ray.core.joins import bucket_join

        if iters < 1:
            raise ValueError("iters must be >= 1")

        def _task(t: pa.Table) -> pa.Table:
            ids, row, col, known, _nbr = _real_positions(t)
            if ids.max() >= (1 << 31):
                return _task_error(
                    "label_propagation needs ids < 2^31; remap first")
            row, col = row[known], col[known]
            lab_vals = ids.copy()  # label VALUE per node position
            for _ in range(iters):
                nl = lab_vals[col]  # neighbor label values per edge
                # count per (focal position, label value), then argmax
                # by (count desc, label asc) via one lexsort
                uq, cnt = np.unique(
                    np.stack([row, nl], axis=1), axis=0,
                    return_counts=True,
                )
                order = np.lexsort((uq[:, 1], -cnt, uq[:, 0]))
                uqo = uq[order]
                first = np.ones(len(uqo), dtype=bool)
                first[1:] = uqo[1:, 0] != uqo[:-1, 0]
                upd = uqo[first]
                new = lab_vals.copy()
                new[upd[:, 0]] = upd[:, 1]
                lab_vals = new
            return pa.table({
                "node": pa.array(ids),
                "label": pa.array(lab_vals),
            })

        small = _one_task(self.edges, _task, pa.table({
            "node": pa.array([], pa.int64()),
            "label": pa.array([], pa.int64()),
        }))
        if small is not None:
            return small
        if self.max_degree() >= (1 << 31):
            raise ValueError("label_propagation: degree >= 2^31")
        edges = (
            self._real_edges()
            .map_batches(
                lambda t: t.select(["focal", "neighbor"]),
                batch_format="pyarrow",
            )
            .materialize()
        )
        nodes = self.ids().map_batches(
            lambda t: pa.table({"node": t.column("focal")}),
            batch_format="pyarrow",
        ).materialize()
        if int(nodes.max("node") or 0) >= (1 << 31):
            raise ValueError(
                "label_propagation needs ids < 2^31; remap first")
        state = nodes.map_batches(
            lambda t: pa.table({
                "node": t.column("node"), "label": t.column("node"),
            }),
            batch_format="pyarrow",
        ).materialize()
        for _ in range(iters):
            nl = bucket_join(
                edges,
                state.map_batches(
                    lambda t: pa.table({
                        "neighbor": t.column("node"),
                        "lab": t.column("label"),
                    }),
                    batch_format="pyarrow",
                ),
                on="neighbor",
            ).map_batches(
                lambda t: pa.table({
                    "node": t.column("focal"), "lab": t.column("lab"),
                }),
                batch_format="pyarrow",
            )
            # per node: modal neighbor label, ties to the LOWEST label —
            # one grouped_by_key argmax kernel instead of the two-key
            # native groupby + enc + max (the few-block native
            # sort-aggregate pathology; see pair_semi / BASELINE r5)
            def _argmax(t: pa.Table) -> pa.Table:
                nd = t.column("node").to_numpy(zero_copy_only=False)
                lb = t.column("lab").to_numpy(zero_copy_only=False)
                if len(nd) == 0:
                    return pa.table({
                        "node": pa.array([], pa.int64()),
                        "newlab": pa.array([], pa.int64()),
                    })
                order = np.lexsort((lb, nd))
                ns, ls = nd[order], lb[order]
                pnew = np.ones(len(ns), bool)
                pnew[1:] = (ns[1:] != ns[:-1]) | (ls[1:] != ls[:-1])
                starts = np.flatnonzero(pnew)
                runs = np.diff(np.append(starts, len(ns)))
                pn, pl = ns[starts], ls[starts]
                gnew = np.ones(len(pn), bool)
                gnew[1:] = pn[1:] != pn[:-1]
                gid = np.cumsum(gnew) - 1
                o2 = np.lexsort((pl, -runs, gid))
                first = np.ones(len(o2), bool)
                first[1:] = gid[o2][1:] != gid[o2][:-1]
                top = o2[first]
                return pa.table({
                    "node": pa.array(pn[top].astype(np.int64)),
                    "newlab": pa.array(pl[top].astype(np.int64)),
                })

            enc = J.grouped_by_key(nl, ["node"], _argmax)
            upd = bucket_join(
                state.map_batches(
                    lambda t: pa.table({
                        "node": t.column("node"), "old": t.column("label"),
                    }),
                    batch_format="pyarrow",
                ),
                enc,
                on="node",
                how="left",
            )
            state = J.unchained(upd.map_batches(
                lambda t: pa.table({
                    "node": t.column("node"),
                    "label": pa.array(np.where(
                        pc.is_null(t.column("newlab"))
                        .to_numpy(zero_copy_only=False),
                        t.column("old").to_numpy(zero_copy_only=False),
                        pc.fill_null(
                            pc.cast(t.column("newlab"), pa.int64()), 0
                        ).to_numpy(zero_copy_only=False),
                    )),
                }),
                batch_format="pyarrow",
            ))
        return state

    def khop_centrality(self, kmax: int = 3) -> ray.data.Dataset:
        """k-hop-bounded harmonic and closeness centrality, riding
        :meth:`order` (the shortest-path k-hop table): for every node,
        over the pairs first reachable within ``kmax`` hops,

            reached  = #pairs,  hop_sum = Σ hops,
            harm_num = Σ lcm(1..kmax) // hops     (exact — every hop
                                                    divides the lcm)
            harm_f  = harm_num / (lcm·(n−1))       (∈ [0,1])
            close_f = reached² / (hop_sum·(n−1))   (Lin's closeness
                                                    bounded to k hops)

        All sums exact int64; both floats are single pinned divisions of
        exact integer cross-products, SQL-mirrored. Nodes reaching
        nothing within kmax get all-zero rows. Requires n < 2^31 so
        reached² fits int64 (raises otherwise). Returns (node, reached,
        hop_sum, harm_num, harm_f, close_f)."""
        import math

        n = self.n()
        if n < 2:
            raise ValueError("khop_centrality needs n >= 2")
        lc = math.lcm(*range(1, kmax + 1))
        # exact unbounded-int worst case: reached <= n-1 and
        # hop_sum <= kmax*(n-1), so the largest int64 intermediate is
        # max(reached^2, hop_sum*(n-1), harm_num's lc*(n-1) scale)
        if max(
            (n - 1) * (n - 1), kmax * (n - 1) * (n - 1), lc * (n - 1)
        ) >= (1 << 62):
            raise ValueError(
                "khop_centrality: per-node products would overflow "
                "int64 at this n; rescale or shard the id space"
            )
        ord_ds = self.order(kmax=kmax)

        def _parts(t: pa.Table) -> pa.Table:
            po = t.column("path_order").to_numpy(zero_copy_only=False)
            return pa.table({
                "node": t.column("focal"),
                "hop": pa.array(po),
                "harm": pa.array(np.int64(lc) // po),
            })

        agg = ord_ds.map_batches(_parts, batch_format="pyarrow").groupby(
            "node"
        ).aggregate(
            ray.data.aggregate.Count(),
            ray.data.aggregate.Sum("hop"),
            ray.data.aggregate.Sum("harm"),
        )
        uni = self.ids().map_batches(
            lambda t: pa.table({"node": t.column("focal")}),
            batch_format="pyarrow",
        )
        joined = J.bucket_join(uni, agg, on="node", how="left")
        den_h = lc * (n - 1)

        def _final(t: pa.Table) -> pa.Table:
            reached = pc.fill_null(
                pc.cast(t.column("count()"), pa.int64()), 0
            ).to_numpy(zero_copy_only=False)
            hop_sum = pc.fill_null(
                pc.cast(t.column("sum(hop)"), pa.int64()), 0
            ).to_numpy(zero_copy_only=False)
            harm = pc.fill_null(
                pc.cast(t.column("sum(harm)"), pa.int64()), 0
            ).to_numpy(zero_copy_only=False)
            close = np.where(
                hop_sum > 0,
                (reached * reached).astype(np.float64)
                / (hop_sum * np.int64(n - 1)).astype(np.float64),
                0.0,
            )
            return pa.table({
                "node": t.column("node"),
                "reached": pa.array(reached),
                "hop_sum": pa.array(hop_sum),
                "harm_num": pa.array(harm),
                "harm_f": pa.array(
                    harm.astype(np.float64) / np.float64(den_h)
                ),
                "close_f": pa.array(close),
            })

        return joined.map_batches(_final, batch_format="pyarrow")

    @staticmethod
    def _hits_check_bounds(
        iters: int, h0: int, max_in: int, max_out: int
    ) -> None:
        """Exact unbounded-int growth bound BEFORE any int64 sum: raise
        instead of letting a round wrap."""
        hmax = int(h0)
        for _ in range(iters):
            amax = max_in * hmax
            hmax = max_out * amax
            if amax >= (1 << 62) or hmax >= (1 << 62):
                raise ValueError(
                    "hits_int would overflow int64: in/out-degree "
                    f"bounds {max_in}x{max_out} over {iters} rounds "
                    "exceed 2^62; reduce h0 or iters"
                )

    def hits_int(self, iters: int = 3, h0: int = 1_000_000) -> ray.data.Dataset:
        """Fixed-point INTEGER HITS (Kleinberg hubs/authorities) over
        the directed edge set, ``iters`` synchronous rounds from
        h_0 = ``h0``:

            a_t(v) = Σ_{u→v} h_{t-1}(u)     (authority update)
            h_t(u) = Σ_{u→v} a_t(v)         (hub update)

        UN-normalized int64 sums — the engine's exactness discipline
        (pagerank_int) applied to the second classic web-graph
        iteration: bit-exact at any cluster size / batch layout and
        SQL-reproducible by unrolled oracle CTEs. Worst-case growth
        (max_indeg·max_outdeg per round) is pre-checked in unbounded
        Python ints and raises loudly instead of wrapping. Nodes with no
        in-edges hold authority 0, dangling nodes hub 0.

        Two paths like pagerank_int, chosen by the small-input switch
        (``joins._coalesced``) on the full edge table: ONE numpy
        scatter-add task with a size bound; without one, each round is
        two state⋈edges bucket_joins + two grouped sums + two
        node-universe left joins — FOUR key shuffles, no driver-side
        data. Returns (node, hub, auth)."""
        from libpysal_ray.core.joins import bucket_join

        if iters < 1:
            raise ValueError("iters must be >= 1")

        def _task(t: pa.Table) -> pa.Table:
            ids, row, col, known, nbr = _real_positions(t)
            try:
                RayGraph._hits_check_bounds(
                    iters, h0, _max_count(nbr), _max_count(row))
            except ValueError as e:
                return _task_error(e)
            row, col = row[known], col[known]
            h = np.full(len(ids), int(h0), dtype=np.int64)
            for _ in range(iters):
                a = np.zeros(len(ids), dtype=np.int64)
                np.add.at(a, col, h[row])
                h = np.zeros(len(ids), dtype=np.int64)
                np.add.at(h, row, a[col])
            return pa.table({
                "node": pa.array(ids),
                "hub": pa.array(h),
                "auth": pa.array(a),
            })

        small = _one_task(self.edges, _task, pa.table({
            "node": pa.array([], pa.int64()),
            "hub": pa.array([], pa.int64()),
            "auth": pa.array([], pa.int64()),
        }))
        if small is not None:
            return small
        edges = (
            self._real_edges()
            .map_batches(
                lambda t: t.select(["focal", "neighbor"]),
                batch_format="pyarrow",
            )
            .materialize()
        )
        self._hits_check_bounds(
            iters, h0, _max_in_degree(edges), self.max_degree())

        nodes = self.ids().map_batches(
            lambda t: pa.table({"node": t.column("focal")}),
            batch_format="pyarrow",
        ).materialize()

        def _sum_onto(state, key_in, key_out, val, out_col):
            """Σ state[val] over edges grouped by the OTHER endpoint,
            left-joined onto the node universe with 0 fill."""
            contrib = bucket_join(
                edges,
                state.map_batches(
                    lambda t, ki=key_in, v=val: pa.table({
                        ki: t.column("node"), "vv": t.column(v),
                    }),
                    batch_format="pyarrow",
                ),
                on=key_in,
            ).map_batches(
                lambda t, ko=key_out: pa.table({
                    "node": t.column(ko), "vv": t.column("vv"),
                }),
                batch_format="pyarrow",
            ).groupby("node").sum("vv").map_batches(
                lambda t: pa.table({
                    "node": t.column("node"), "s": t.column("sum(vv)"),
                }),
                batch_format="pyarrow",
            )
            joined = bucket_join(nodes, contrib, on="node", how="left")
            return J.unchained(joined.map_batches(
                lambda t, oc=out_col: pa.table({
                    "node": t.column("node"),
                    oc: pc.fill_null(pc.cast(t.column("s"), pa.int64()), 0),
                }),
                batch_format="pyarrow",
            ))

        hstate = nodes.map_batches(
            lambda t: pa.table({
                "node": t.column("node"),
                "h": pa.array(np.full(t.num_rows, int(h0), np.int64)),
            }),
            batch_format="pyarrow",
        ).materialize()
        astate = None
        for _ in range(iters):
            astate = _sum_onto(hstate, "focal", "neighbor", "h", "a")
            hstate = _sum_onto(astate, "neighbor", "focal", "a", "h")
        out = bucket_join(hstate, astate, on="node")
        return out.map_batches(
            lambda t: pa.table({
                "node": t.column("node"),
                "hub": t.column("h"),
                "auth": t.column("a"),
            }),
            batch_format="pyarrow",
        )

    def spanning_forest(self) -> ray.data.Dataset:
        """Minimum spanning forest of the UNDIRECTED weighted graph —
        the base structure of single-linkage clustering and SKATER-style
        regionalization. Ties are broken by the total order
        (weight, min_id, max_id), which makes every edge weight
        effectively distinct, so the forest is unique and deterministic
        at any cluster size. Returns canonical rows (focal < neighbor,
        weight); a spanning FOREST on disconnected graphs.

        Two paths, chosen by the small-input switch (``joins._coalesced``)
        on the real edges: with a size bound ONE task runs Kruskal +
        union-find; without one, distributed Borůvka — per round,
        component labels attach to the edge ends (two bucket_joins),
        each component picks its minimum outgoing edge (ONE
        grouped-argmin shuffle), chosen edges dedup on the canonical
        pair, and components merge through ``n_components`` on the
        (comp_a, comp_b) pseudoforest (≤ one pair per component,
        halving each round — O(log n) rounds)."""
        from libpysal_ray.core.joins import bucket_join, grouped_by_key

        def _canon(t: pa.Table) -> pa.Table:
            f = t.column("focal").to_numpy(zero_copy_only=False)
            n = t.column("neighbor").to_numpy(zero_copy_only=False)
            w = t.column("weight").to_numpy(zero_copy_only=False)
            lo, hi = np.minimum(f, n), np.maximum(f, n)
            keep = lo != hi
            # batch-local per-pair min (the global min resolves in the
            # grouped pass below) — handles asymmetric edge sets (raw
            # KNN) without dropping the f>n-only direction
            lo, hi, w = lo[keep], hi[keep], w[keep]
            order = np.lexsort((w, hi, lo))
            ls, hs = lo[order], hi[order]
            first = np.ones(len(ls), bool)
            first[1:] = (ls[1:] != ls[:-1]) | (hs[1:] != hs[:-1])
            heads = np.flatnonzero(first)
            return pa.table({
                "a": pa.array(ls[heads]),
                "b": pa.array(hs[heads]),
                "w": pa.array(w[order][heads]),
            })

        def _pair_min(t: pa.Table) -> pa.Table:
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            w = t.column("w").to_numpy(zero_copy_only=False)
            order = np.lexsort((w, b, a))
            aa, bb = a[order], b[order]
            first = np.ones(len(aa), bool)
            first[1:] = (aa[1:] != aa[:-1]) | (bb[1:] != bb[:-1])
            sel = order[np.flatnonzero(first)]
            return pa.table({
                "a": pa.array(a[sel]), "b": pa.array(b[sel]),
                "w": pa.array(w[sel]),
            })

        out_schema = ("focal", "neighbor", "weight")

        def _task(t: pa.Table) -> pa.Table:
            t = _pair_min(_canon(t))
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            w = t.column("w").to_numpy(zero_copy_only=False)
            parent: dict[int, int] = {}

            def find(x: int) -> int:
                r = x
                while parent.get(r, r) != r:
                    r = parent[r]
                while parent.get(x, x) != x:
                    parent[x], x = r, parent[x]
                return r

            keep = []
            for i in np.lexsort((b, a, w)):
                ra, rb = find(int(a[i])), find(int(b[i]))
                if ra != rb:
                    parent[ra] = rb
                    keep.append(i)
            keep = np.array(keep, dtype=np.int64)
            return pa.table({
                out_schema[0]: pa.array(a[keep].astype(np.int64)),
                out_schema[1]: pa.array(b[keep].astype(np.int64)),
                out_schema[2]: pa.array(w[keep].astype(np.float64)),
            })

        small = _one_task(self._real_edges(), _task, E.empty_edges())
        if small is not None:
            return small
        und = grouped_by_key(
            self._real_edges().map_batches(
                _canon, batch_format="pyarrow"
            ),
            ["a"],
            _pair_min,
        ).materialize()

        # ---- distributed Borůvka ----
        # label universe = ids ∪ real neighbors: on a finished table a
        # node seen only as neighbor must still get a label (the sides
        # attach via INNER joins)
        universe = self.ids().union(
            _neighbors_as_focal(self._real_edges())
        ).map_batches(_batch_unique_focal, batch_format="pyarrow")
        labels = J.grouped_agg(
            universe, ("focal",), (None,), "count"
        ).map_batches(
            lambda t: pa.table({
                "node": t.column("focal"),
                "comp": t.column("focal"),
            }),
            batch_format="pyarrow",
        ).materialize()
        chosen_parts: list[ray.data.Dataset] = []
        for _round in range(64):
            la = labels.map_batches(
                lambda t: pa.table({
                    "a": t.column("node"), "ca": t.column("comp"),
                }),
                batch_format="pyarrow",
            )
            lb = labels.map_batches(
                lambda t: pa.table({
                    "b": t.column("node"), "cb": t.column("comp"),
                }),
                batch_format="pyarrow",
            )
            tagged = bucket_join(
                bucket_join(und, la, on="a"), lb, on="b"
            )

            def _sides(t: pa.Table) -> pa.Table:
                ca = t.column("ca").to_numpy(zero_copy_only=False)
                cb = t.column("cb").to_numpy(zero_copy_only=False)
                t = t.filter(pa.array(ca != cb))  # cross-component only
                cols = {c: t.column(c) for c in ("a", "b", "w",
                                                 "ca", "cb")}
                base = pa.table({
                    "comp": cols["ca"], "a": cols["a"], "b": cols["b"],
                    "w": cols["w"], "ca": cols["ca"], "cb": cols["cb"],
                })
                flip = pa.table({
                    "comp": cols["cb"], "a": cols["a"], "b": cols["b"],
                    "w": cols["w"], "ca": cols["ca"], "cb": cols["cb"],
                })
                return pa.concat_tables([base, flip])

            _sides._size_expanding = True  # 2x fanout
            # materialized: count() + grouped_by_key would otherwise each
            # re-run the two bucket_joins (Ray shares no subplans)
            sides = tagged.map_batches(
                _sides, batch_format="pyarrow"
            ).materialize()
            if sides.count() == 0:
                break

            def _argmin(t: pa.Table) -> pa.Table:
                comp = t.column("comp").to_numpy(zero_copy_only=False)
                a = t.column("a").to_numpy(zero_copy_only=False)
                b = t.column("b").to_numpy(zero_copy_only=False)
                w = t.column("w").to_numpy(zero_copy_only=False)
                ca = t.column("ca").to_numpy(zero_copy_only=False)
                cb = t.column("cb").to_numpy(zero_copy_only=False)
                order = np.lexsort((b, a, w, comp))
                cs = comp[order]
                first = np.ones(len(cs), bool)
                first[1:] = cs[1:] != cs[:-1]
                sel = order[np.flatnonzero(first)]
                return pa.table({
                    "a": pa.array(a[sel]), "b": pa.array(b[sel]),
                    "w": pa.array(w[sel]),
                    "ca": pa.array(ca[sel]), "cb": pa.array(cb[sel]),
                })

            picked = grouped_by_key(sides, ["comp"], _argmin)

            # dedup edges chosen from both sides: distinct canonical pair
            def _dd(t: pa.Table) -> pa.Table:
                a = t.column("a").to_numpy(zero_copy_only=False)
                b = t.column("b").to_numpy(zero_copy_only=False)
                w = t.column("w").to_numpy(zero_copy_only=False)
                ca = t.column("ca").to_numpy(zero_copy_only=False)
                cb = t.column("cb").to_numpy(zero_copy_only=False)
                order = np.lexsort((b, a))
                aa, bb = a[order], b[order]
                first = np.ones(len(aa), bool)
                first[1:] = (aa[1:] != aa[:-1]) | (bb[1:] != bb[:-1])
                sel = order[np.flatnonzero(first)]
                return pa.table({
                    "a": pa.array(a[sel]), "b": pa.array(b[sel]),
                    "w": pa.array(w[sel]),
                    "ca": pa.array(ca[sel]), "cb": pa.array(cb[sel]),
                })

            # rows sharing "a" colocate, so the (a, b) dedup is
            # bucket-local — group by the existing column directly
            chosen = grouped_by_key(picked, ["a"], _dd).materialize()
            chosen_parts.append(chosen)
            # merge components through the chosen (ca, cb) pseudoforest
            # (built as a DATASET — never a driver list; ≤ one pair per
            # component this round)
            def _pair_edges(t: pa.Table) -> pa.Table:
                ca = t.column("ca").to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
                cb = t.column("cb").to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
                return pa.Table.from_arrays(
                    [
                        pa.array(np.concatenate([ca, cb])),
                        pa.array(np.concatenate([cb, ca])),
                        pa.array(np.ones(2 * len(ca), dtype=np.float64)),
                    ],
                    schema=E.EDGE_SCHEMA,
                )

            pair_edges = chosen.map_batches(
                _pair_edges, batch_format="pyarrow"
            )
            gm = RayGraph(pair_edges)
            _nc, lab2 = gm.n_components()
            lab2r = lab2.map_batches(
                lambda t: pa.table({
                    "comp": t.column("focal"),
                    "newc": t.column("component"),
                }),
                batch_format="pyarrow",
            )
            upd = bucket_join(labels, lab2r, on="comp", how="left")

            def _compose(t: pa.Table) -> pa.Table:
                comp = t.column("comp").to_numpy(zero_copy_only=False)
                newc = pc.fill_null(
                    pc.cast(t.column("newc"), pa.int64()), -1
                ).to_numpy(zero_copy_only=False)
                return pa.table({
                    "node": t.column("node"),
                    "comp": pa.array(np.where(newc >= 0, newc, comp)),
                })

            labels = upd.map_batches(
                _compose, batch_format="pyarrow"
            ).materialize()
        if not chosen_parts:
            return ray.data.from_arrow(E.empty_edges())
        allp = chosen_parts[0]
        for p in chosen_parts[1:]:
            allp = allp.union(p)
        return allp.map_batches(
            lambda t: pa.table({
                out_schema[0]: t.column("a"),
                out_schema[1]: t.column("b"),
                out_schema[2]: t.column("w"),
            }),
            batch_format="pyarrow",
        )

    def neighbor_equality(self, other: "RayGraph") -> bool:
        """True iff every node has the SAME neighbor SET in both graphs,
        ignoring weights — the reference's ``neighbor_equality``
        (weights/util.py:1236). One distributed symmetric-difference on
        the unweighted edge sets plus an id-universe check — both ways
        as anti-join emptiness probes on the id Datasets (no driver id
        sets: driver sees at most ONE row per probe)."""
        a, b = self.ids(), other.ids()
        for left, right in ((a, b), (b, a)):
            extra = J.bucket_join(left, right, on="focal", how="anti")
            if extra.limit(1).count() != 0:
                return False
        sd = self._setop(other, "symmetric_difference")
        return sd._real_edges().limit(1).count() == 0

    def w_clip(self, mask: "RayGraph") -> "RayGraph":
        """Keep self's weights only where mask has a (nonzero) link
        (set_operations.py:389-513)."""
        keep = mask._real_edges().filter(expr="weight != 0.0")
        out = J.pair_semi(
            self._real_edges(), keep.select_columns(["focal", "neighbor"])
        )
        return RayGraph(out, ids=self.ids())

    def subgraph(self, keep_ids) -> "RayGraph":
        """w_subset / Graph.subgraph (set_operations.py:337-386,
        base.py:2708-2770): id-set semi-join + isolate re-resolve.
        ``keep_ids`` may be a numpy array (broadcast semi-join) or a
        Dataset with a ``focal`` id column — the 100 TB path: two
        distributed bucket_join semi-joins, no driver id set."""
        if isinstance(keep_ids, ray.data.Dataset):
            ids_ds = keep_ids.select_columns(["focal"]).materialize()
            out = J.bucket_join(
                self._real_edges(), ids_ds, on="focal", how="semi"
            )
            nbr_keys = ids_ds.map_batches(
                lambda t: pa.table({"neighbor": t.column("focal")}),
                batch_format="pyarrow",
            )
            out = J.bucket_join(out, nbr_keys, on="neighbor", how="semi")
            return RayGraph(out, ids=ids_ds)
        keep = np.asarray(keep_ids, dtype=np.int64)
        out = E.filter_ids(self._real_edges(), keep, mode="both")
        return RayGraph(out, ids=keep)

    def remap_ids(self, old_ids: np.ndarray, new_ids: np.ndarray) -> "RayGraph":
        """Relabel all ids through a bijection (weights.py:868-925,
        util.py:895-950). Broadcast map applied to focal AND neighbor in one
        stateless pass — no shuffle."""
        old = np.asarray(old_ids, np.int64)
        new = np.asarray(new_ids, np.int64)
        order = np.argsort(old, kind="stable")
        ref = ray.put((old[order], new[order]))

        def _remap(t: pa.Table) -> pa.Table:
            k, v = ray.get(ref)
            out = {}
            for col in ("focal", "neighbor"):
                q = t.column(col).to_numpy(zero_copy_only=False)
                idx = np.searchsorted(k, q)
                idx = np.clip(idx, 0, len(k) - 1)
                hit = k[idx] == q
                mapped = np.where(hit, v[idx], q)
                out[col] = pa.array(mapped)
            out["weight"] = t.column("weight")
            return pa.table(out)

        return RayGraph(
            self.edges.map_batches(_remap, batch_format="pyarrow"),
            self.transformation,
        )

    def attach_islands(
        self,
        points: ray.data.Dataset,
        id_col: str = "id",
        x_col: str = "x",
        y_col: str = "y",
    ) -> "RayGraph":
        """Connect each island to its nearest non-self neighbor
        (util.py:1297-1343 ``attach_islands``): union of the islands'
        KNN(k=1) edges plus their reverses, weight 1."""
        from libpysal_ray.builders.distance import knn_edges_with_dist

        iso_df = self.isolates().to_pandas()
        if len(iso_df) == 0 or "focal" not in iso_df.columns:
            return self
        iso = iso_df["focal"].to_numpy(np.int64)
        # islands-only focal set: the tile scan queries |islands| points,
        # not the whole corpus (every point still serves as a candidate)
        knn1 = knn_edges_with_dist(points, k=1, id_col=id_col,
                                   x_col=x_col, y_col=y_col,
                                   query_ids=iso)

        def _keep_iso(t: pa.Table) -> pa.Table:
            f = t.column("focal").to_numpy(zero_copy_only=False)
            nb = t.column("neighbor").to_numpy(zero_copy_only=False)
            # edge + reverse, binary weight (reference w_knn1 weights)
            return E.edge_table(
                np.concatenate([f, nb]), np.concatenate([nb, f]), 1.0
            )

        new_edges = knn1.map_batches(_keep_iso, batch_format="pyarrow")
        out = E.dedup(self._real_edges().union(new_edges), keep="max")
        return RayGraph(out, ids=self.ids())

    def fill_diagonal(
        self, value=1.0, id_col: str = "id", val_col: str = "value"
    ) -> "RayGraph":
        """Set self-loop weights (util.py:830-892 / base.py:2795-2872).

        ``value``: scalar, (ids, values) numpy pair, or an attribute
        Dataset with (id_col, val_col) — per-observation diagonal values,
        the reference's array variant (util.py:830-892 accepts a vector
        aligned to id_order)."""
        ids = self.ids()
        no_diag = self.edges.filter(expr="focal != neighbor")
        if isinstance(value, (int, float)):
            diag = ids.map_batches(
                lambda t: pa.Table.from_arrays(
                    [t.column("focal"), t.column("focal"),
                     pa.array(np.full(t.num_rows, float(value)))],
                    schema=E.EDGE_SCHEMA,
                ),
                batch_format="pyarrow",
            )
        else:
            base = ids.map_batches(
                lambda t: pa.table(
                    {
                        "focal": t.column("focal"),
                        "neighbor": t.column("focal"),
                    }
                ),
                batch_format="pyarrow",
            )
            if isinstance(value, ray.data.Dataset):
                withv = _attach_attr(
                    base, value, key_col="focal", out_col="__v",
                    default=0.0, id_col=id_col, val_col=val_col,
                )
            else:
                v_ids, v_vals = value
                withv = _attach_attr(
                    base, np.asarray(v_ids), np.asarray(v_vals),
                    key_col="focal", out_col="__v", default=0.0,
                )
            diag = withv.map_batches(
                lambda t: pa.Table.from_arrays(
                    [t.column("focal"), t.column("neighbor"),
                     t.column("__v")],
                    schema=E.EDGE_SCHEMA,
                ),
                batch_format="pyarrow",
            )
        return RayGraph(no_diag.union(diag))

    def eliminate_zeros(self) -> "RayGraph":
        """Drop zero-weight edges that are not isolate markers
        (base.py:2772-2793)."""
        nz = self._real_edges().filter(expr="weight != 0.0")
        return RayGraph(nz, ids=self.ids())

    # --------------------------------------------------------- descriptive
    def cardinalities(self) -> ray.data.Dataset:
        """The node table: a materialized (focal, cardinality) Dataset,
        one row per id, isolates 0 (weights.py:747-756). Built once per
        graph by ``E.node_table`` and cached; the builder's pending id
        plan is dropped once it is built."""
        if self._nodes is None:
            if self._real is None:
                self._nodes = E.node_table(self._full)
            else:
                self._nodes = E.node_table(self._real, self._ids)
                self._ids = None
        return self._nodes

    def max_degree(self) -> int:
        """Largest real-edge count of any focal, 0 with no real edges —
        ``cardinalities()``'s max, since isolates count 0, read from the
        real edges alone: a per-block ``np.unique`` combiner into
        ``grouped_sum``, then one max. Builds no isolate markers."""

        def _count(t: pa.Table) -> pa.Table:
            f, c = np.unique(
                t.column("focal").to_numpy(zero_copy_only=False),
                return_counts=True,
            )
            return pa.table({"focal": f.astype(np.int64),
                             "cnt": c.astype(np.int64)})

        real = self._real_edges()
        partial = real.map_batches(_count, batch_format="pyarrow")
        deg = J.grouped_sum(partial, ("focal",), ("cnt",), real)
        return int(deg.max("sum(cnt)") or 0)

    def isolates(self) -> ray.data.Dataset:
        """Ids with no real edge, as a (focal,) Dataset: the node table's
        cardinality-0 rows. One map filters and projects each block, so a
        block without isolates still carries its schema."""

        def _iso(t: pa.Table) -> pa.Table:
            f = t.column("focal").to_numpy(zero_copy_only=False)
            c = t.column("cardinality").to_numpy(zero_copy_only=False)
            return pa.table({"focal": pa.array(f[c == 0], pa.int64())})

        return self.cardinalities().map_batches(_iso, batch_format="pyarrow")

    def summary(self) -> dict:
        """n, s0, s1, s2, trcW2/WtW/WtW_WW, pct_nonzero, mean/max card.

        All computed as distributed groupby/aggregate pipelines
        (semantics: weights.py:610-828, graph/_summary.py)."""
        real = self._real_edges().materialize()
        n = self.n()
        # ONE pass for s0, nnz and trcWtW: sum over (w, 1, w²) columns
        base = real.map_batches(
            lambda t: pa.table(
                {
                    "w": t.column("weight"),
                    "one": pa.array(np.ones(t.num_rows, np.int64)),
                    "w2": pa.array(
                        t.column("weight").to_numpy(zero_copy_only=False) ** 2
                    ),
                }
            ),
            batch_format="pyarrow",
        ).sum(["w", "one", "w2"])
        s0 = float(base["sum(w)"] or 0.0)
        nnz = int(base["sum(one)"] or 0)
        trcWtW = float(base["sum(w2)"] or 0.0)

        # s1 = 1/2 Σ_ij (w_ij + w_ji)^2 ; trcW2 = Σ_ij w_ij w_ji — one
        # vectorized cogroup aggregate (wl = w_ij, wr = w_ji per pair)
        def _sq_tr(t: pa.Table) -> pa.Table:
            wl = t.column("wl").to_numpy(zero_copy_only=False)
            wr = t.column("wr").to_numpy(zero_copy_only=False)
            return pa.table(
                {"sq": pa.array((wl + wr) ** 2), "tr": pa.array(wl * wr)}
            )

        pair = (
            J.cogroup_pairs(real, E.reverse(real))
            .map_batches(_sq_tr, batch_format="pyarrow")
            .sum(["sq", "tr"])
        )
        s1 = float(pair["sum(sq)"] or 0.0) / 2.0
        trcW2 = float(pair["sum(tr)"] or 0.0)

        # s2 = Σ_i (rowsum_i + colsum_i)^2 — two groupbys unioned
        rows = J.grouped_sum(real, ("focal",), ("weight",)).rename_columns(
            {"sum(weight)": "v"}
        )
        cols = J.grouped_sum(
            E.reverse(real), ("focal",), ("weight",)
        ).rename_columns({"sum(weight)": "v"})
        rc = J.grouped_sum(rows.union(cols), ("focal",), ("v",))

        def _sq(t: pa.Table) -> pa.Table:
            v = t.column("sum(v)").to_numpy(zero_copy_only=False)
            return pa.table({"sq": pa.array(v * v)})

        s2 = float(
            rc.map_batches(_sq, batch_format="pyarrow").sum("sq") or 0.0
        )

        return {
            "n": n,
            "s0": s0,
            "s1": s1,
            "s2": s2,
            "nonzero": nnz,
            "pct_nonzero": 100.0 * nnz / (n * n) if n else 0.0,
            "trcW2": trcW2,
            "trcWtW": trcWtW,
            "trcWtW_WW": trcWtW + trcW2,
        }

    def describe(
        self,
        attr_ids,
        attr_values=None,
        stats: tuple[str, ...] = ("count", "sum", "mean", "min", "max", "std", "median", "nunique", "mode"),
        q: tuple[float, float] | None = None,
        id_col: str = "id",
        val_col: str = "value",
    ) -> ray.data.Dataset:
        """Per-focal stats over neighbor attribute values
        (base.py:2874-2989). ``attr_ids`` is a numpy id array
        (+ ``attr_values``, broadcast) or an attribute Dataset (bucket_join
        — no driver materialization). Join attr on neighbor →
        groupby(focal) with NATIVE vectorized aggregates for
        count/sum/mean/min/max/std; median/nunique/mode (not expressible as
        distributive aggregates) and the ``q=`` percentile band run as
        per-group reducers through ``joins.per_group`` (one task over a
        provably small table) and are joined back on focal."""
        withy = _attach_attr(
            self._real_edges(), attr_ids, attr_values,
            key_col="neighbor", out_col="__y", default=np.nan,
            id_col=id_col, val_col=val_col,
        ).map_batches(
            # NaN→null so Arrow-native aggregates skip missing attrs, plus a
            # non-null indicator for the count stat
            lambda t: pa.table(
                {
                    "focal": t.column("focal"),
                    "__y": pa.array(
                        t.column("__y").to_numpy(zero_copy_only=False),
                        from_pandas=True,
                    ),
                    "__nn": pa.array(
                        (~np.isnan(
                            t.column("__y").to_numpy(zero_copy_only=False)
                        )).astype(np.int64)
                    ),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

        if q is not None:
            # percentile filtration (graph/_utils.py:284-386): keep only
            # neighbor values inside the per-neighborhood [q_lo, q_hi]
            # percentile band, then reduce — inherently per-group.
            lo, hi = q

            def _qstats(t: pa.Table) -> pa.Table:
                if t.num_rows == 0:
                    return _empty_stats(stats)
                f = t.column("focal")[0].as_py()
                y = t.column("__y").to_numpy(zero_copy_only=False)
                y = y[~np.isnan(y)]
                if len(y):
                    ql, qh = np.percentile(y, [lo, hi])
                    y = y[(y >= ql) & (y <= qh)]
                out: dict = {"focal": pa.array([f], pa.int64())}
                for s in stats:
                    if s == "count":
                        v = float(len(y))
                    elif s == "nunique":
                        v = float(len(np.unique(y)))
                    elif len(y) == 0:
                        v = float("nan")
                    elif s == "mode":
                        vals, cnt = np.unique(y, return_counts=True)
                        v = float(vals[np.argmax(cnt)])
                    elif s == "std":
                        v = (float(np.std(y, ddof=1)) if len(y) > 1
                             else float("nan"))
                    else:
                        v = float(getattr(np, s)(y))
                    out[s] = pa.array([v], pa.float64())
                return pa.table(out)

            return J.per_group(withy, ("focal",), _qstats)

        native = [s for s in stats if s in
                  ("count", "sum", "mean", "min", "max", "std")]
        exotic = [s for s in stats if s in ("median", "nunique", "mode")]

        parts: list[ray.data.Dataset] = []
        if native:
            from ray.data.aggregate import Max, Mean, Min, Std, Sum

            aggs = []
            renames = {}
            for s in native:
                if s == "count":
                    aggs.append(Sum("__nn"))
                    renames["sum(__nn)"] = "count"
                elif s == "sum":
                    aggs.append(Sum("__y"))
                    renames["sum(__y)"] = "sum"
                elif s == "mean":
                    aggs.append(Mean("__y"))
                    renames["mean(__y)"] = "mean"
                elif s == "min":
                    aggs.append(Min("__y"))
                    renames["min(__y)"] = "min"
                elif s == "max":
                    aggs.append(Max("__y"))
                    renames["max(__y)"] = "max"
                elif s == "std":
                    aggs.append(Std("__y", ddof=1))
                    renames["std(__y)"] = "std"
            parts.append(
                withy.groupby("focal").aggregate(*aggs).rename_columns(renames)
            )
        if exotic:
            def _stats(t: pa.Table) -> pa.Table:
                if t.num_rows == 0:
                    return _empty_stats(exotic)
                f = t.column("focal")[0].as_py()
                y = t.column("__y").to_numpy(zero_copy_only=False)
                y = y[~np.isnan(y)]
                out: dict = {"focal": pa.array([f], pa.int64())}
                for s in exotic:
                    if s == "nunique":
                        v = float(len(np.unique(y)))
                    elif len(y) == 0:
                        v = float("nan")
                    elif s == "mode":
                        vals, cnt = np.unique(y, return_counts=True)
                        v = float(vals[np.argmax(cnt)])
                    else:
                        v = float(np.median(y))
                    out[s] = pa.array([v], pa.float64())
                return pa.table(out)

            parts.append(J.per_group(withy, ("focal",), _stats))

        out = parts[0]
        for p in parts[1:]:
            out = J.bucket_join(out, p, on="focal")
        return out

    def local_clustering(self) -> ray.data.Dataset:
        """Local clustering coefficient per node (util.py:556-607
        ``w_local_cluster``): c_i = |{(j,k) : j,k ∈ N(i), w_jk ≠ 0}| /
        (k_i (k_i − 1)), counting ordered neighbor pairs.

        Plan: triangle counting as ONE bucketed self-join (paths i→j→k)
        followed by a pair-cogroup semi-join against the edge set — the
        cogroup's weight sum IS the per-(i,k) path count — then a native
        per-focal aggregate. No per-group Python."""
        adj = E.dedup(
            self._real_edges().map_batches(_binarize, batch_format="pyarrow")
        ).materialize()
        e1 = adj.select_columns(["focal", "neighbor"]).rename_columns(
            {"neighbor": "mid"}
        )
        e2 = adj.select_columns(["focal", "neighbor"]).rename_columns(
            {"focal": "mid"}
        )
        # paths is MATERIALIZED: the join is a marked size-expander (its
        # true size is only known after it runs), and the downstream
        # native sort-aggregate would otherwise re-execute the lazy join
        # chain per consumption pass
        paths = J.bucket_join(e1, e2, on="mid").map_batches(
            lambda t: pa.table(
                {
                    "focal": t.column("focal"),
                    "neighbor": t.column("neighbor"),
                    "weight": pa.array(np.ones(t.num_rows)),
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        # semi-join on (i,k) ∈ adj; summed weight = #paths i→j→k per (i,k).
        # Materialized: the upstream join is a marked size-expander, so
        # downstream switches need the TRUE size, and Ray re-executes the
        # whole join chain per consumer otherwise.
        tri = J.pair_semi(
            paths, adj.select_columns(["focal", "neighbor"])
        ).materialize()
        tcount = (
            J.grouped_sum(tri, ("focal",), ("weight",))
            .rename_columns({"sum(weight)": "__t"})
        )
        cards_ds = self.cardinalities().materialize()
        if J._small(cards_ds):
            cards = cards_ds.to_pandas()
            out = J.broadcast_lookup(
                tcount,
                cards["focal"].to_numpy(np.int64),
                cards["cardinality"].to_numpy(np.float64),
                key_col="focal",
                out_col="__k",
                default=0.0,
            )
        else:
            out = J.bucket_join(
                tcount,
                cards_ds.map_batches(
                    lambda t: pa.table(
                        {
                            "focal": t.column("focal"),
                            "__k": pa.array(
                                t.column("cardinality")
                                .to_numpy(zero_copy_only=False)
                                .astype(np.float64)
                            ),
                        }
                    ),
                    batch_format="pyarrow",
                ),
                on="focal",
            )

        def _coef(t: pa.Table) -> pa.Table:
            tt = t.column("__t").to_numpy(zero_copy_only=False)
            k = t.column("__k").to_numpy(zero_copy_only=False)
            denom = k * (k - 1.0)
            c = np.divide(tt, denom, out=np.zeros_like(tt),
                          where=denom > 0.0)
            return pa.table(
                {"focal": t.column("focal"), "cluster_coef": pa.array(c)}
            )

        withc = out.map_batches(_coef, batch_format="pyarrow")
        # nodes with no triangle rows still need a 0.0 row
        zeros = cards_ds.map_batches(
            lambda t: pa.table(
                {
                    "focal": t.column("focal"),
                    "cluster_coef": pa.array(
                        np.zeros(t.num_rows, np.float64)
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        both = withc.union(zeros)
        return (
            J.grouped_agg(both, ("focal",), ("cluster_coef",), "max")
            .rename_columns({"max(cluster_coef)": "cluster_coef"})
        )

    def transitivity(self) -> ray.data.Dataset:
        """Global transitivity (the graph-level companion of
        :meth:`local_clustering`, util.py:556-607): T = closed / triads
        with closed = # ordered node triples (i, j, k), i≠k, where all
        three edges exist, and triads = Σ_j deg_j·(deg_j − 1) = #
        ordered connected triples centered at j. One row
        (closed, triads, transitivity_f) — both counts exact int64,
        one pinned float division.

        Plan: the same ONE bucketed self-join (paths i→j→k) +
        pair-cogroup semi-join as local_clustering, but reduced to two
        scalar integer partial sums instead of per-node rows."""
        adj = E.dedup(
            self._real_edges().map_batches(_binarize, batch_format="pyarrow")
        ).materialize()
        e1 = adj.select_columns(["focal", "neighbor"]).rename_columns(
            {"neighbor": "mid"}
        )
        e2 = adj.select_columns(["focal", "neighbor"]).rename_columns(
            {"focal": "mid"}
        )
        paths = J.bucket_join(e1, e2, on="mid").map_batches(
            lambda t: pa.table({
                "focal": t.column("focal"),
                "neighbor": t.column("neighbor"),
                "weight": pa.array(np.ones(t.num_rows)),
            }),
            batch_format="pyarrow",
        ).filter(expr="focal != neighbor").materialize()
        tri = J.pair_semi(
            paths, adj.select_columns(["focal", "neighbor"])
        )

        def _wsum(t: pa.Table) -> pa.Table:
            w = t.column("weight").to_numpy(zero_copy_only=False)
            return pa.table({
                "c": pa.array([np.int64(w.sum())])
            })

        closed = sum(
            int(r["c"]) for r in tri.map_batches(
                _wsum, batch_format="pyarrow").take_all()
        )

        def _triads(t: pa.Table) -> pa.Table:
            k = t.column("cardinality").to_numpy(
                zero_copy_only=False).astype(np.int64)
            return pa.table({"c": pa.array([np.int64((k * (k - 1)).sum())])})

        triads = sum(
            int(r["c"]) for r in self.cardinalities().map_batches(
                _triads, batch_format="pyarrow").take_all()
        )
        return ray.data.from_arrow(pa.table({
            "closed": pa.array([closed], pa.int64()),
            "triads": pa.array([triads], pa.int64()),
            "transitivity_f": pa.array(
                [float(closed) / float(triads) if triads else 0.0],
                pa.float64(),
            ),
        }))

    def order(self, kmax: int = 3) -> ray.data.Dataset:
        """Shortest-path contiguity order up to ``kmax`` (util.py:339-397
        ``order`` / shimbel): Dataset (focal, neighbor, path_order) with
        path_order = k for pairs first reachable in exactly k hops.

        Two paths, chosen by the small-input switch (``joins._coalesced``)
        on the real edges: with a size bound ONE task runs a vectorized
        BFS over packed pair keys (:func:`_order_pairs` — the k-hop loop
        is pure searchsorted/repeat/unique, no per-round shuffle);
        without one, the distributed frontier expansion: one bucket_join
        + one pair_anti cogroup per round — the same machinery
        higher_order keeps oracle-proven."""

        def _task(t: pa.Table) -> pa.Table:
            return _order_pairs(
                t.column("focal").to_numpy(zero_copy_only=False),
                t.column("neighbor").to_numpy(zero_copy_only=False),
                kmax,
            )

        small = _one_task(self._real_edges(), _task, pa.table({
            "focal": pa.array([], pa.int64()),
            "neighbor": pa.array([], pa.int64()),
            "path_order": pa.array([], pa.int64()),
        }))
        if small is not None:
            return small
        ids = self.ids()
        adj = E.dedup(
            self._real_edges().map_batches(_binarize, batch_format="pyarrow")
        ).materialize()
        diag = ids.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("focal"), t.column("focal"),
                 pa.array(np.ones(t.num_rows))],
                schema=E.EDGE_SCHEMA,
            ),
            batch_format="pyarrow",
        )
        seen = adj.union(diag).materialize()

        def _with_order(ds: ray.data.Dataset, k: int) -> ray.data.Dataset:
            return ds.map_batches(
                lambda t: pa.table(
                    {
                        "focal": t.column("focal"),
                        "neighbor": t.column("neighbor"),
                        "path_order": pa.array(
                            np.full(t.num_rows, k, dtype=np.int64)
                        ),
                    }
                ),
                batch_format="pyarrow",
            )

        outs = [_with_order(adj, 1)]
        cur = adj
        for k in range(2, kmax + 1):
            left = cur.select_columns(["focal", "neighbor"]).rename_columns(
                {"neighbor": "mid"}
            )
            right = adj.select_columns(["focal", "neighbor"]).rename_columns(
                {"focal": "mid"}
            )
            # per-batch combiner only — the global dedup groupby is
            # REDUNDANT here: pair_anti's cogroup already groups by
            # (focal, neighbor), and order() never reads the weight
            # column (wl sums of duplicates are discarded by the
            # path_order projection). Saves one full shuffle per round.
            cand = (
                J.bucket_join(left, right, on="mid")
                .select_columns(["focal", "neighbor"])
                .map_batches(
                    lambda t: E.batch_dedup(
                        t.append_column(
                            "weight", pa.array(np.ones(t.num_rows))
                        )
                    ),
                    batch_format="pyarrow",
                )
            )
            nxt = J.pair_anti(cand, seen).materialize()
            seen = seen.union(nxt).materialize()
            outs.append(_with_order(nxt, k))
            cur = nxt
        out = outs[0]
        for o in outs[1:]:
            out = out.union(o)
        return out

    def n_components(self) -> tuple[int, ray.data.Dataset]:
        """(n_components, labels Dataset (focal, component)); the
        component label is the minimum node id of the component (both
        paths and the SQL oracle agree on this invariant).

        Two paths, chosen by the small-input switch (``joins._coalesced``)
        on the full edge table (its isolate markers carry every id): with
        a size bound ONE task runs the vectorized min-label fixpoint
        (:func:`_min_labels`); without one, the local-contraction
        supersteps of :meth:`_components_distributed`. Reference
        semantics: scipy connected_components on CSR,
        weights.py:549-569.
        """

        def _task(t: pa.Table) -> pa.Table:
            lab = _min_labels(t)
            return pa.table({"focal": lab.column("node"),
                             "component": lab.column("root")})

        labels = _one_task(self.edges, _task, pa.table({
            "focal": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64()),
        }))
        if labels is None:
            return self._components_distributed()
        ncomp = sum(ray.get(
            [_root_count.remote(r) for r in labels.to_arrow_refs()]))
        return ncomp, labels

    def _components_distributed(self) -> tuple[int, ray.data.Dataset]:
        """Distributed connected components by LOCAL-CONTRACTION
        supersteps (the practical large-graph plan; cf. Kiveris et al.'s
        contraction family):

        per level: (1) each edge block runs an in-memory vectorized
        min-label fixpoint (:func:`_min_labels` — numpy ``minimum.at`` +
        pointer jumping, no per-edge Python) emitting a (node → local
        component min) mapping; (2) conflicting block-local roots
        reconcile through ONE groupby(node).min; (3) edges contract
        through the mapping (two bucket_joins) and self-loops/duplicates
        drop. Each level collapses every within-block structure, so a
        handful of levels resolve even adversarial graphs; once the
        small-input switch (``joins._coalesced``) bounds the surviving
        edge set, one task labels it and the loop ends. Final labels
        compose the per-level mappings back-to-front with left
        bucket_joins (a root with no later entry is its own component
        representative). The component label is the component's minimum
        node id — the global minimum maps to itself at every level, so
        composition preserves it."""
        real = self._real_edges().select_columns(["focal", "neighbor"])
        # the reversed side keeps the canonical (focal, neighbor) order,
        # so both halves of the union share one schema
        und = real.union(real.map_batches(
            lambda t: pa.table({"focal": t.column("neighbor"),
                                "neighbor": t.column("focal")}),
            batch_format="pyarrow",
        )).materialize()
        try:
            ncpu = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            ncpu = 8

        def _ren(ds: ray.data.Dataset, mapping: dict) -> ray.data.Dataset:
            # map_batches-based rename: Dataset.rename_columns is lazy and
            # its schema() can report the PRE-rename names to bucket_join
            def f(t: pa.Table) -> pa.Table:
                return pa.table(
                    {mapping.get(c, c): t.column(c) for c in t.schema.names}
                )

            return ds.map_batches(f, batch_format="pyarrow")

        mappings: list[ray.data.Dataset] = []
        cur = und
        converged = False
        for _level in range(12):
            if cur.count() == 0:
                converged = True
                break
            small = J._coalesced(cur, _min_labels)
            if small is not None:
                mappings.append(small.materialize())
                converged = True
                break
            mapping = (
                cur.repartition(max(16, ncpu))
                .map_batches(_min_labels, batch_format="pyarrow")
                .groupby("node")
                .min("root")
                .rename_columns({"min(root)": "root"})
                .materialize()
            )
            mappings.append(mapping)
            # contract edges through the mapping, drop self/dup edges
            m_f = _ren(mapping, {"node": "focal", "root": "__rf"})
            m_n = _ren(mapping, {"node": "neighbor", "root": "__rn"})

            def _contract(t: pa.Table) -> pa.Table:
                rf = t.column("__rf").to_numpy(zero_copy_only=False)
                rn = t.column("__rn").to_numpy(zero_copy_only=False)
                keep = rf != rn
                return pa.table(
                    {
                        "focal": pa.array(rf[keep]),
                        "neighbor": pa.array(rn[keep]),
                    }
                )

            stepped = J.bucket_join(
                J.bucket_join(cur, m_f, on="focal"), m_n, on="neighbor"
            ).map_batches(_contract, batch_format="pyarrow")
            cur = (
                stepped.groupby(["focal", "neighbor"])
                .count()
                .select_columns(["focal", "neighbor"])
                .materialize()
            )

        if not converged:
            # labels composed from a partially-contracted graph would be
            # silently wrong — fail loudly instead (ADVICE r2 #2). Each
            # level contracts every local component to one node, so 12
            # supersteps cover any graph a sane partitioning produces.
            raise RuntimeError(
                "distributed connected components did not converge in 12 "
                "contraction supersteps"
            )
        # compose mappings back-to-front: labels(node) at level i follows
        # root into level i+1's labels; roots absent there are final
        labels = mappings[-1] if mappings else None
        for m in reversed(mappings[:-1]):
            nxt = _ren(labels, {"node": "__j", "root": "__c"})
            j = J.bucket_join(
                _ren(m, {"root": "__j"}), nxt, on="__j", how="left"
            )

            def _resolve(t: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                out = pc.if_else(
                    pc.is_null(t.column("__c")),
                    t.column("__j"),
                    t.column("__c"),
                )
                return pa.table(
                    {"node": t.column("node"), "root": out}
                )

            labels = j.map_batches(
                _resolve, batch_format="pyarrow"
            ).materialize()

        # nodes with no real edges (isolates) label themselves
        all_ids = self.ids()
        if labels is None:
            labels = all_ids.map_batches(
                lambda t: pa.table(
                    {"node": t.column("focal"), "root": t.column("focal")}
                ),
                batch_format="pyarrow",
            )
        else:
            iso = J.bucket_join(
                all_ids.map_batches(
                    lambda t: pa.table({"node": t.column("focal")}),
                    batch_format="pyarrow",
                ),
                labels.select_columns(["node"]),
                on="node",
                how="anti",
            ).map_batches(
                lambda t: pa.table(
                    {"node": t.column("node"), "root": t.column("node")}
                ),
                batch_format="pyarrow",
            )
            labels = labels.union(iso).materialize()

        ncomp = (
            labels.select_columns(["root"])
            .map_batches(
                lambda t: pa.table(
                    {
                        "root": pa.array(
                            np.unique(
                                t.column("root").to_numpy(
                                    zero_copy_only=False
                                )
                            )
                        )
                    }
                ),
                batch_format="pyarrow",
            )
            .groupby("root")
            .count()
            .count()
        )
        out = labels.rename_columns({"node": "focal", "root": "component"})
        return ncomp, out


def _empty_stats(stats) -> pa.Table:
    """``describe``'s per-group output shape with no rows: focal plus one
    float64 column per stat."""
    return pa.table({"focal": pa.array([], pa.int64()),
                     **{s: pa.array([], pa.float64()) for s in stats}})


def _binarize(t: pa.Table) -> pa.Table:
    w = t.column("weight").to_numpy(zero_copy_only=False)
    return t.set_column(
        t.schema.get_field_index("weight"), "weight",
        pa.array((w != 0.0).astype(np.float64)),
    )


def _task_error(msg) -> pa.Table:
    """How a one-task kernel reports a ``ValueError``: a one-row
    ``error`` table, which :func:`_one_task` raises at the call."""
    return pa.table({"error": [str(msg)]})


def _one_task(ds: ray.data.Dataset, kernel, empty: pa.Table):
    """The graph algorithms' small path: ``kernel`` run as ONE task over
    ``ds`` through the small-input switch (``joins._coalesced``),
    materialized here so a kernel's error row raises at the call, as the
    sharded path raises. ``empty`` is the result when ``ds`` has no rows
    (Ray calls no map on an empty block). None when ``ds`` has no size
    bound: the caller runs its sharded path."""
    small = J._coalesced(ds, kernel)
    if small is None:
        return None
    out = small.materialize()
    schema = out.schema()
    if schema is None:
        return ray.data.from_arrow(empty)
    if "error" in schema.names:
        raise ValueError(out.take(1)[0]["error"])
    return out


@ray.remote
def _root_count(t: pa.Table) -> int:
    """A (focal, component) label block's component count: a component's
    label is its own minimum id, so each has one row labelling itself."""
    return int(pc.sum(pc.equal(t.column("focal"), t.column("component")))
               .as_py() or 0)


def _real_positions(t: pa.Table):
    """A full edge table's ids (markers included, so isolates count) and
    its real edges as positions into them: ``(ids, row, col, known,
    nbr)``, ``nbr`` the real neighbor ids and ``known`` the edges whose
    neighbor is an id — the sharded paths join state onto the id
    universe, so an edge to any other neighbor carries nothing."""
    f = t.column("focal").to_numpy(zero_copy_only=False)
    n = t.column("neighbor").to_numpy(zero_copy_only=False)
    w = t.column("weight").to_numpy(zero_copy_only=False)
    ids = np.unique(f).astype(np.int64)
    real = ~((f == n) & (w == 0.0))
    f, n = f[real], n[real]
    col = np.minimum(np.searchsorted(ids, n), len(ids) - 1)
    return ids, np.searchsorted(ids, f), col, ids[col] == n, n


def _max_count(x: np.ndarray) -> int:
    """Largest multiplicity of any value of ``x``, 0 when empty."""
    return int(np.unique(x, return_counts=True)[1].max()) if len(x) else 0


def _max_in_degree(edges: ray.data.Dataset) -> int:
    """Largest number of ``edges`` rows sharing a neighbor."""
    deg = J.grouped_agg(edges, ("neighbor",), (None,), "count")
    return int(deg.max("count()") or 0)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, b) for a, b in zip(lo, hi)])``, vectorized."""
    cnt = hi - lo
    return np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())


def _order_pairs(f: np.ndarray, n: np.ndarray, kmax: int) -> pa.Table:
    """All-pairs BFS to depth ``kmax`` over the pairs (f, n): rows
    (focal, neighbor, path_order) for every pair first reachable in
    exactly k hops. Ids compact through ``np.unique`` so every pair
    packs into one uint64 key; per round a CSR gather
    (searchsorted/repeat), np.unique dedup and a sorted-isin anti-join
    against the seen keys."""
    nodes, inv = np.unique(np.concatenate([f, n]), return_inverse=True)
    sh = np.uint64(32)
    key = np.unique((inv[:len(f)].astype(np.uint64) << sh)
                    | inv[len(f):].astype(np.uint64))
    f = (key >> sh).astype(np.int64)
    n = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
    ptr = np.searchsorted(f, np.arange(len(nodes) + 1))  # f is sorted
    uf = np.unique(f).astype(np.uint64)
    seen = np.union1d(key, (uf << sh) | uf)
    out_f, out_n, out_k = [f], [n], [np.ones(len(f), np.int64)]
    cur_f, cur_n = f, n
    for k in range(2, kmax + 1):
        cnt = ptr[cur_n + 1] - ptr[cur_n]
        cand = np.unique((np.repeat(cur_f, cnt).astype(np.uint64) << sh)
                         | n[_ranges(ptr[cur_n], ptr[cur_n + 1])]
                         .astype(np.uint64))
        new = cand[~np.isin(cand, seen, assume_unique=True, kind="sort")]
        if len(new) == 0:
            break
        seen = np.union1d(seen, new)
        cur_f = (new >> sh).astype(np.int64)
        cur_n = (new & np.uint64(0xFFFFFFFF)).astype(np.int64)
        out_f.append(cur_f)
        out_n.append(cur_n)
        out_k.append(np.full(len(new), k, np.int64))
    return pa.table({
        "focal": pa.array(nodes[np.concatenate(out_f)]),
        "neighbor": pa.array(nodes[np.concatenate(out_n)]),
        "path_order": pa.array(np.concatenate(out_k)),
    })


def _min_labels(t: pa.Table) -> pa.Table:
    """(node, root): every endpoint of the edges (focal, neighbor) with
    the minimum id of its connected component — a vectorized min-label
    fixpoint (``np.minimum.at`` + pointer jumping, no per-edge
    Python)."""
    f = t.column("focal").to_numpy(zero_copy_only=False)
    n = t.column("neighbor").to_numpy(zero_copy_only=False)
    if len(f) == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "root": pa.array([], pa.int64())})
    nodes, inv = np.unique(np.concatenate([f, n]), return_inverse=True)
    fi, ni = inv[: len(f)], inv[len(f):]
    lab = np.arange(len(nodes))
    while True:
        new = lab.copy()
        np.minimum.at(new, fi, lab[ni])
        np.minimum.at(new, ni, lab[fi])
        new = new[new]  # pointer jump — logarithmic convergence
        if (new == lab).all():
            break
        lab = new
    return pa.table({"node": pa.array(nodes), "root": pa.array(nodes[lab])})


_WEDGE_IN = pa.schema([pa.field("focal", pa.int64()),
                       pa.field("mid", pa.int64())])
_WEDGE_OUT = pa.schema([pa.field("mid", pa.int64()),
                        pa.field("neighbor", pa.int64())])


_KTRUSS_SCHEMA = pa.schema([pa.field("focal", pa.int64()),
                            pa.field("neighbor", pa.int64()),
                            pa.field("support", pa.int64())])


_KCORE_SCHEMA = pa.schema([pa.field("node", pa.int64()),
                           pa.field("deg", pa.int64())])


def _truss_empty() -> ray.data.Dataset:
    return ray.data.from_arrow(_KTRUSS_SCHEMA.empty_table())


def _truss_unconverged(max_rounds: int) -> str:
    return (f"ktruss did not converge within max_rounds={max_rounds}; "
            "raise the budget explicitly")


def _ktruss_peel(f: np.ndarray, n: np.ndarray, need: int,
                 max_rounds: int, chunk: int) -> pa.Table:
    """Synchronous k-truss peel of the directed pairs (f, n) in numpy —
    the same rounds as :func:`ktruss`'s sharded path. Ids compact through
    ``np.unique`` (any int64 id packs), the pairs dedup as packed int64
    keys sorted by (focal, neighbor), and each round's support of (f, n)
    counts the paths f→m→n with f ≠ n over that round's edges, wedges
    expanded ``chunk`` at a time and added to their edge by
    ``searchsorted`` + ``bincount``: memory O(edges + chunk) at any hub
    degree."""
    if len(f) == 0:
        return _KTRUSS_SCHEMA.empty_table()
    nodes, inv = np.unique(np.concatenate([f, n]), return_inverse=True)
    nn = np.int64(len(nodes))
    key = np.unique(inv[:len(f)].astype(np.int64) * nn + inv[len(f):])
    for _ in range(max_rounds):
        fi, ni = key // nn, key % nn
        ptr = np.searchsorted(fi, np.arange(nn + 1))  # out-list offsets
        cnt = np.diff(ptr)[ni]  # wedges through each edge (f, m)
        cum = np.cumsum(cnt)
        support = np.zeros(len(key), np.int64)
        for w0 in range(0, int(cum[-1]), chunk):
            w = np.arange(w0, min(w0 + chunk, int(cum[-1])))
            e = np.searchsorted(cum, w, side="right")
            src = fi[e]
            dst = ni[ptr[ni[e]] + w - (cum[e] - cnt[e])]
            pk = (src * nn + dst)[src != dst]
            at = np.minimum(np.searchsorted(key, pk), len(key) - 1)
            support += np.bincount(at[key[at] == pk], minlength=len(key))
        keep = support >= need
        if not keep.any():
            return _KTRUSS_SCHEMA.empty_table()
        if keep.all():
            return pa.Table.from_arrays(
                [pa.array(nodes[fi]), pa.array(nodes[ni]),
                 pa.array(support)], schema=_KTRUSS_SCHEMA,
            )
        key = key[keep]
    return _task_error(_truss_unconverged(max_rounds))


def ktruss(g, k: int, max_rounds: int = 64) -> ray.data.Dataset:
    """k-truss decomposition (fixed k ≥ 3): the maximal subgraph in
    which every edge participates in at least k−2 triangles, by
    synchronous support peeling to the fixpoint. Requires a symmetric
    (undirected) edge set. Output (focal, neighbor, support): both
    directions of every surviving edge with its exact WITHIN-TRUSS
    triangle count. Rounds are data-dependent — ``max_rounds`` raises
    loudly instead of spinning.

    Each round keeps the edges whose support — the number of paths
    f→m→n with f ≠ n through the round's edges (self-loops and
    zero-weight edges included), the w_local_cluster triangle plan —
    is at least k−2. Two paths, chosen by the engine's small-input
    switch (``joins._coalesced``) on the real edges:

    * **Coalesced** (a provable size bound): ONE task runs the whole
      peel in numpy (:func:`_ktruss_peel`) — one Dataset execution in
      all, materialized here so ``max_rounds`` raises at the call.
    * **Sharded** (size unknown or large), the 100 TB shape: the dedup,
      the one id-range check of the packed semi-join (every later
      round's edges are a subset), then per round the bucketed wedge
      expansion (edges⋈edges on the shared midpoint — a marked
      size-expander, materialized) and ONE pair semi-join against the
      edge set, whose kept edges carry ``weight = support``: two
      Dataset executions per round. The wedge sides declare their
      schemas, so no bucket_join schema fetch executes a plan."""
    if k < 3:
        raise ValueError("ktruss needs k >= 3 (k-2 triangle support)")
    cap = J._COALESCED_EMIT_ROWS  # read at plan build, not in the task

    def _peel_task(t: pa.Table) -> pa.Table:
        return _ktruss_peel(
            t.column("focal").to_numpy(zero_copy_only=False).astype(np.int64),
            t.column("neighbor").to_numpy(
                zero_copy_only=False).astype(np.int64),
            k - 2, max_rounds, cap,
        )

    small = _one_task(g._real_edges(), _peel_task,
                      _KTRUSS_SCHEMA.empty_table())
    if small is not None:
        return small
    need = float(k - 2)
    edges = E.dedup(
        g._real_edges().map_batches(_binarize, batch_format="pyarrow")
    ).materialize()
    e_count = int(edges.count())
    if e_count == 0:
        return _truss_empty()
    id_range = J.pair_id_range(edges)
    for _ in range(max_rounds):
        e1 = J.declare_schema(edges.map_batches(
            lambda t: pa.table({
                "focal": t.column("focal").cast(pa.int64()),
                "mid": t.column("neighbor").cast(pa.int64()),
            }),
            batch_format="pyarrow",
        ), _WEDGE_IN)
        e2 = J.declare_schema(edges.map_batches(
            lambda t: pa.table({
                "mid": t.column("focal").cast(pa.int64()),
                "neighbor": t.column("neighbor").cast(pa.int64()),
            }),
            batch_format="pyarrow",
        ), _WEDGE_OUT)
        # Materialized, not fused into the semi-join's execution: the
        # wedge join is a marked size-expander, so a fused plan loses the
        # size switch's proof of smallness and falls back to the
        # 256-bucket shuffle (22.6 s vs 14.5 s at sf0.1 on 4 CPUs).
        paths = J.bucket_join(e1, e2, on="mid").map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("focal"), t.column("neighbor"),
                 pa.array(np.ones(t.num_rows))],
                schema=E.EDGE_SCHEMA,
            ).filter(
                pc.invert(pc.equal(t.column("focal"),
                                   t.column("neighbor")))
            ),
            batch_format="pyarrow",
        ).materialize()
        keys = edges.select_columns(["focal", "neighbor"])
        tri = (J.pair_semi(paths, keys) if id_range is None
               else J.pair_semi_packed(paths, keys, id_range))
        kept = tri.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("weight"), need)),
            batch_format="pyarrow",
        ).materialize()  # (focal, neighbor, weight = support)
        n_kept = int(kept.count())
        if n_kept == 0:
            return _truss_empty()
        if n_kept == e_count:
            break
        # re-block: each round's semi-join hands on more blocks than it got
        edges, e_count = J.unchained(E.compact(kept)), n_kept
    else:
        raise ValueError(_truss_unconverged(max_rounds))
    return kept.map_batches(
        lambda t: pa.table({
            "focal": t.column("focal"),
            "neighbor": t.column("neighbor"),
            "support": pa.array(
                t.column("weight").to_numpy(zero_copy_only=False)
                .astype(np.int64)
            ),
        }),
        batch_format="pyarrow",
    )


def _kcore_peel(f: np.ndarray, n: np.ndarray, k: int,
                max_rounds: int) -> pa.Table:
    """Synchronous k-core peel of the edge set (f, n) in numpy — the
    same rounds as :func:`kcore`'s sharded path: each round an edge
    survives iff both endpoints have degree ≥ k (degree = the node's
    focal rows among the round's edges), and the peel ends when a round
    drops nothing. Not converged within ``max_rounds``: an error row."""
    nodes, inv = np.unique(np.concatenate([f, n]), return_inverse=True)
    fi, ni = inv[:len(f)], inv[len(f):]
    alive = np.ones(len(f), bool)
    for _ in range(max_rounds):
        deg = np.bincount(fi[alive], minlength=len(nodes))
        ok = (deg >= k) & (deg > 0)  # a node with no focal row is absent
        dead = alive & ~(ok[fi] & ok[ni])
        if not dead.any():
            keep = deg > 0
            return pa.table({
                "node": pa.array(nodes[keep]),
                "deg": pa.array(deg[keep].astype(np.int64)),
            })
        alive &= ~dead
        if not alive.any():
            return _KCORE_SCHEMA.empty_table()
    return _task_error(_kcore_unconverged(max_rounds))


def _kcore_unconverged(max_rounds: int) -> str:
    return (f"kcore did not converge within max_rounds={max_rounds}; "
            "raise the budget explicitly")


def kcore(g, k: int, max_rounds: int = 256) -> ray.data.Dataset:
    """k-core decomposition (fixed k): the maximal subgraph in which
    every node keeps degree ≥ k. Requires a symmetric (undirected)
    edge set, like the reference's contiguity/symmetrized graphs.
    Output (node, deg): core members with their within-core degrees,
    exact integers.

    It peels synchronously on the EDGE set — an edge survives a round
    iff BOTH endpoints had surviving degree ≥ k; at the fixpoint the
    survivors are exactly the k-core. Rounds are data-dependent
    (pathological path graphs peel O(n) times) — ``max_rounds`` raises
    loudly instead of spinning. Two paths, chosen by the small-input
    switch (``joins._coalesced``) on the real edges: with a size bound
    ONE task runs the peel in numpy (:func:`_kcore_peel`); without one,
    the 100 TB shape: per round ONE size-switched grouped count + one
    bucket_join per endpoint (the degree table is the small side), the
    edge set re-materialized per round so Ray never replays the
    chain."""

    def _task(t: pa.Table) -> pa.Table:
        return _kcore_peel(
            t.column("focal").to_numpy(zero_copy_only=False),
            t.column("neighbor").to_numpy(zero_copy_only=False),
            k, max_rounds,
        )

    small = _one_task(g._real_edges(), _task, _KCORE_SCHEMA.empty_table())
    if small is not None:
        return small
    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    ).materialize()
    e_count = int(edges.count())

    def _deg(es: ray.data.Dataset) -> ray.data.Dataset:
        return J.grouped_agg(es, ("focal",), (None,), "count").map_batches(
            lambda t: pa.table({
                "focal": t.column("focal"),
                "__d": t.column("count()"),
            }),
            batch_format="pyarrow",
        )

    if e_count == 0:
        return ray.data.from_arrow(_KCORE_SCHEMA.empty_table())
    for _ in range(max_rounds):
        deg = _deg(edges).materialize()
        keepf = J.bucket_join(edges, deg, on="focal").map_batches(
            lambda t: t.filter(
                pc.greater_equal(t.column("__d"), k)
            ).drop_columns(["__d"]),
            batch_format="pyarrow",
        )
        nd = deg.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("focal"), "__dn": t.column("__d"),
            }),
            batch_format="pyarrow",
        )
        kept = J.bucket_join(keepf, nd, on="neighbor").map_batches(
            lambda t: t.filter(
                pc.greater_equal(t.column("__dn"), k)
            ).drop_columns(["__dn"]),
            batch_format="pyarrow",
        ).materialize()
        n_kept = int(kept.count())
        if n_kept == 0:
            return ray.data.from_arrow(_KCORE_SCHEMA.empty_table())
        if n_kept == e_count:
            break
        edges, e_count = J.unchained(kept), n_kept
    else:
        raise ValueError(_kcore_unconverged(max_rounds))
    return _deg(edges).map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "deg": pa.array(
                t.column("__d").to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            ),
        }),
        batch_format="pyarrow",
    )


def rich_club(g, ks: list[int]) -> ray.data.Dataset:
    """Rich-club coefficients (Zhou & Mondragón 2004) at the given
    degree thresholds: for each k,

        phi(k) = E_k / (N_k·(N_k − 1))

    with N_k = #nodes of degree > k and E_k = #directed edges whose
    BOTH endpoints have degree > k (the binary symmetric convention —
    E_k counts both directions, so the denominator is the full ordered
    pair count). Exact integers; rc_den emitted as a decimal string
    (N_k² exceeds int64 at web scale), one pinned float per k. Output
    one row per k: (k, n_k, e_k, rc_den, rc_f); thresholds whose club
    has < 2 members emit rc_f = 0.0 with rc_den = '0'.

    100 TB shape: one cardinalities groupby, ONE ks-bounded per-batch
    count aggregate for the N_k, two bucket_joins to attach endpoint
    degrees + one ks-bounded per-batch count aggregate for the E_k —
    never a per-k pass over the graph."""
    from libpysal_ray.core.joins import bucket_join

    karr = np.asarray(sorted(set(int(k) for k in ks)), dtype=np.int64)
    if len(karr) == 0:
        raise ValueError("rich_club needs at least one threshold")
    deg = g.cardinalities().map_batches(
        lambda t: pa.table({
            "node": t.column("focal"),
            "deg": pc.cast(t.column("cardinality"), pa.int64()),
        }),
        batch_format="pyarrow",
    ).materialize()

    def _nk(t: pa.Table) -> pa.Table:
        d = t.column("deg").to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array(karr),
            "c": pa.array((d[None, :] > karr[:, None]).sum(axis=1)
                          .astype(np.int64)),
        })

    nk_rows = deg.map_batches(_nk, batch_format="pyarrow") \
        .groupby("k").sum("c").take_all()
    n_k = {int(r["k"]): int(r["sum(c)"]) for r in nk_rows}

    edges = g._real_edges().map_batches(
        lambda t: t.select(["focal", "neighbor"]), batch_format="pyarrow"
    )
    ef = bucket_join(
        edges,
        deg.map_batches(
            lambda t: pa.table({
                "focal": t.column("node"), "df": t.column("deg"),
            }),
            batch_format="pyarrow",
        ),
        on="focal",
    )
    en = bucket_join(
        ef,
        deg.map_batches(
            lambda t: pa.table({
                "neighbor": t.column("node"), "dn": t.column("deg"),
            }),
            batch_format="pyarrow",
        ),
        on="neighbor",
    )

    def _ek(t: pa.Table) -> pa.Table:
        df = t.column("df").to_numpy(zero_copy_only=False)
        dn = t.column("dn").to_numpy(zero_copy_only=False)
        both = np.minimum(df, dn)
        return pa.table({
            "k": pa.array(karr),
            "c": pa.array((both[None, :] > karr[:, None]).sum(axis=1)
                          .astype(np.int64)),
        })

    ek_rows = en.map_batches(_ek, batch_format="pyarrow") \
        .groupby("k").sum("c").take_all()
    e_k = {int(r["k"]): int(r["sum(c)"]) for r in ek_rows}

    dens, fs = [], []
    for k in karr:
        nk = n_k.get(int(k), 0)
        den = nk * (nk - 1) if nk >= 2 else 0
        dens.append(str(den))
        fs.append(float(np.float64(e_k.get(int(k), 0))
                        / np.float64(den)) if den > 0 else 0.0)
    return ray.data.from_arrow(pa.table({
        "k": pa.array(karr),
        "n_k": pa.array(np.array(
            [n_k.get(int(k), 0) for k in karr], dtype=np.int64)),
        "e_k": pa.array(np.array(
            [e_k.get(int(k), 0) for k in karr], dtype=np.int64)),
        "rc_den": pa.array(dens),
        "rc_f": pa.array(np.array(fs, dtype=np.float64)),
    }))
