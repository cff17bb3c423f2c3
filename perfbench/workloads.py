"""The four workloads: what one pass runs, how its inputs are made from the
seed, and how each output is checked.

A pass is a list of operations run in order. An operation returns its
result executed inside the timed region; ``check`` then fetches and
compares it outside the timed region. A Dataset is consumed with
``materialize()``, which executes its plan exactly once. ``to_arrow_refs()``
on a lazy Dataset streams the blocks and then calls ``schema()``, which
executes the plan a second time up to its first block; on the flagship that
second run repeats the sort and rewrites checkpoint partitions.
"""

from __future__ import annotations

import json
import os
import shutil
import threading

import pyarrow.parquet as pq

from perfbench import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs.json")

# suite name -> (documents rows, queries). 5,000 rows is sf0.1's documents
# table and 500 rows sf0.01's; the suites read no other table.
SUITES = {
    "weights_build": (5000, (
        "rook_lattice", "transform_r", "higher_order2", "queen_lattice",
        "queen_strict", "rook_strict", "knn4", "distance_band50",
    )),
    "esda_iterative": (500, (
        "ktruss", "kcore", "describe_rook", "local_moran",
    )),
}
SUITE_QUERIES = tuple(q for _, qs in SUITES.values() for q in qs)
QUICK_DOCS = 500
VARIANTS = 4            # suite inputs: documents variant = seed % VARIANTS
FLAGSHIP_PAGES = 200_000
CHECKPOINT_PAGES = 50_000
QUICK_PAGES = 4_000
# FLAGSHIP_SQL builds the url with lpad(doc_id, 8), which truncates ids of
# nine or more digits, so generated ranges stay below 10^8.
MAX_DOC_ID = 10 ** 8


def _consume(res):
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.materialize()
    return res


def _import_engine(batch):
    import libpysal_ray.pipelines.flagship  # noqa: F401
    import libpysal_ray.pipelines.queries  # noqa: F401

    return batch


def warmup(num_cpus: int) -> None:
    """Start the session's workers and import the engine in each, so the
    first timed pass does not pay for it."""
    import ray.data

    ray.data.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        _import_engine, batch_format="pyarrow").to_arrow_refs()


def page_base(seed: int, n: int) -> int:
    """Seed-chosen first doc_id of a generated page range."""
    return (seed * 2654435761 + 12345) % (MAX_DOC_ID - n)


def flagship_reference(base: int, n: int, tmp_dir: str,
                       limit_s: float = 60.0) -> str:
    """Digest of FLAGSHIP_SQL evaluated over doc_id base..base+n-1, with a
    capped DuckDB spill size and a time limit."""
    import duckdb

    from libpysal_ray.pipelines.oracle_ann import FLAGSHIP_SQL

    con = duckdb.connect(config={
        "threads": 1, "memory_limit": "1GB",
        "temp_directory": tmp_dir, "max_temp_directory_size": "1GB",
    })
    timer = threading.Timer(limit_s, con.interrupt)
    timer.start()
    try:
        con.execute(
            "CREATE VIEW documents AS SELECT range AS doc_id "
            f"FROM range({base}, {base + n})")
        return inputs.digest(con.execute(FLAGSHIP_SQL).arrow())
    finally:
        timer.cancel()
        con.close()


class Suite:
    """A list of registry queries over a generated ``documents`` table.
    Every pass starts with an empty shared-build memo."""

    kind = "suite"
    pass_checks = 0

    def __init__(self, name: str, seed: int, scratch: str, quick: bool):
        n_docs, self.names = SUITES[name]
        self.n_docs = QUICK_DOCS if quick else n_docs
        self.variant = seed % VARIANTS
        self.sf_dir = os.path.join(scratch, "docs")
        self.expected: dict[str, str] = {}

    def setup(self) -> None:
        os.makedirs(self.sf_dir, exist_ok=True)
        pq.write_table(inputs.documents(self.n_docs, self.variant),
                       os.path.join(self.sf_dir, "documents.parquet"))
        with open(REFS) as fh:
            refs = json.load(fh)
        self.expected = refs["suites"][str(self.n_docs)][str(self.variant)]

    def ops(self):
        from libpysal_ray.pipelines import queries

        queries._MEMO.clear()
        return [(n, lambda n=n: _consume(queries.QUERIES[n](self.sf_dir)))
                for n in self.names]

    def reference(self) -> None:
        pass

    def check(self, name: str, table) -> str | None:
        got = inputs.digest(table)
        want = self.expected.get(name)
        return None if got == want else f"digest {got} != reference {want}"

    def after_pass(self) -> list[str]:
        return []

    def cleanup(self) -> None:
        shutil.rmtree(self.sf_dir, ignore_errors=True)


class Flagship:
    """``flagship(pages=..., narrow=...)`` with engine defaults over pages
    generated for a seed-chosen doc_id range."""

    kind = "flagship"
    pass_checks = 0

    def __init__(self, name: str, seed: int, scratch: str, quick: bool):
        self.n = QUICK_PAGES if quick else FLAGSHIP_PAGES
        self.base = page_base(seed, self.n)
        self.scratch = scratch
        self.expected = None

    def setup(self) -> None:
        self.pages, self.narrow = inputs.pages_dataset(self.base, self.n)

    def ops(self):
        from libpysal_ray.pipelines.flagship import flagship

        return [("flagship", lambda: _consume(
            flagship(pages=self.pages, narrow=self.narrow)))]

    def reference(self) -> None:
        tmp = os.path.join(self.scratch, "duckdb")
        os.makedirs(tmp, exist_ok=True)
        self.expected = flagship_reference(self.base, self.n, tmp)

    def check(self, name: str, table) -> str | None:
        got = inputs.digest(inputs.flagship_rows(table))
        return None if got == self.expected else (
            f"digest {got} != FLAGSHIP_SQL {self.expected}")

    def after_pass(self) -> list[str]:
        return []

    def cleanup(self) -> None:
        shutil.rmtree(os.path.join(self.scratch, "duckdb"),
                      ignore_errors=True)


class Checkpoint(Flagship):
    """A flagship pass into a fresh ``out_dir``, then a resume pass over the
    same directory, which must skip every partition."""

    kind = "checkpoint"
    pass_checks = 1      # the manifest check after each pass

    def __init__(self, name: str, seed: int, scratch: str, quick: bool):
        super().__init__(name, seed, scratch, quick)
        self.n = QUICK_PAGES if quick else CHECKPOINT_PAGES
        self.base = page_base(seed, self.n)
        self.out_dir = os.path.join(scratch, "ckpt")
        self.files = self.bytes = 0

    def ops(self):
        from libpysal_ray.pipelines.flagship import flagship

        shutil.rmtree(self.out_dir, ignore_errors=True)

        def run():
            return _consume(flagship(pages=self.pages, narrow=self.narrow,
                                     out_dir=self.out_dir))

        return [("write", run), ("resume", run)]

    def check(self, name: str, table) -> str | None:
        if name == "resume":
            return None if table.num_rows == 0 else (
                f"resume pass returned {table.num_rows} rows, expected 0")
        return super().check(name, table)

    def after_pass(self) -> list[str]:
        """Manifest check, then delete the pass's output directory."""
        from libpysal_ray.state import lineage

        errs = []
        keys = [m["key"] for m in lineage.load_manifest(self.out_dir)]
        parts = {f[len("part-"):-len(".parquet")]
                 for f in os.listdir(self.out_dir) if f.startswith("part-")}
        if len(keys) != len(set(keys)) or set(keys) != parts:
            extra = sorted(parts ^ set(keys))[:3]
            errs.append(f"manifest lists {len(keys)} entries "
                        f"({len(set(keys))} distinct) for {len(parts)} "
                        f"partition files; unmatched: {extra}")
        rows = sum(m["rows"] for m in lineage.load_manifest(self.out_dir))
        if rows != self.n:
            errs.append(f"manifest holds {rows} rows for {self.n} pages")
        self.files = self.bytes = 0
        for root, _, fs in os.walk(self.out_dir):
            for f in fs:
                self.files += 1
                self.bytes += os.path.getsize(os.path.join(root, f))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return errs

    def cleanup(self) -> None:
        super().cleanup()
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {
    "flagship_synth": Flagship,
    "weights_build": Suite,
    "esda_iterative": Suite,
    "flagship_checkpoint": Checkpoint,
}


def make(name: str, seed: int, scratch: str, quick: bool = False):
    return WORKLOADS[name](name, seed, scratch, quick)

