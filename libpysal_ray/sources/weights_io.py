"""Legacy weights interchange formats — GAL and GWT.

Reference: /root/reference/libpysal/io/iohandlers/gal.py:13-261 and
gwt.py (graph variants graph/io/_gal.py:4-64, _gwt.py:4-38).

* GAL: header ``n`` (or ``0 n shp key``), then per-observation two lines:
  ``id  k`` and the k neighbor ids. Binary weights.
* GWT: header ``0 n shp key``, then one line per edge:
  ``focal neighbor weight``.

These are small legacy text files (the reference parses them line by line
in-process); the engine reads them driver-side into an Arrow edge table →
Dataset, and writes them by STREAMING ``iter_batches`` over the canonical
edge order — the Dataset is never collected whole.
"""

from __future__ import annotations

import re

import numpy as np

from libpysal_ray.core import edges as E
from libpysal_ray.core.graph import RayGraph


def read_gal(path: str) -> RayGraph:
    with open(path) as f:
        header = f.readline().split()
        # header forms: "n"  or  "0 n shapefile key"
        _n = int(header[0]) if len(header) == 1 else int(header[1])
        focal, neighbor, ids = [], [], []
        while True:
            line = f.readline()
            if not line.strip():
                break
            fid, k = line.split()[:2]
            fid, k = int(fid), int(k)
            ids.append(fid)
            if k > 0:
                nbrs = [int(x) for x in f.readline().split()]
                focal.extend([fid] * len(nbrs))
                neighbor.extend(nbrs)
            else:
                f.readline()  # empty neighbor line
    ds = E.from_arrays(
        np.asarray(focal, np.int64), np.asarray(neighbor, np.int64), 1.0
    )
    return RayGraph(ds, ids=np.asarray(ids, np.int64))


def write_gal(g: RayGraph, path: str) -> None:
    rows: dict[int, list[int]] = {}
    for batch in E.canonical(g.edges).iter_batches(batch_format="pyarrow"):
        f = batch.column("focal").to_numpy(zero_copy_only=False)
        n = batch.column("neighbor").to_numpy(zero_copy_only=False)
        w = batch.column("weight").to_numpy(zero_copy_only=False)
        for i in range(len(f)):
            rows.setdefault(int(f[i]), [])
            if not (f[i] == n[i] and w[i] == 0.0):
                rows[int(f[i])].append(int(n[i]))
    with open(path, "w") as out:
        out.write(f"{len(rows)}\n")
        for fid in sorted(rows):
            nbrs = rows[fid]
            out.write(f"{fid} {len(nbrs)}\n")
            out.write(" ".join(str(x) for x in nbrs) + "\n")


def read_gwt(path: str) -> RayGraph:
    focal, neighbor, weight = [], [], []
    with open(path) as f:
        f.readline()  # header
        for line in f:
            parts = line.split()
            if len(parts) < 3:
                continue
            focal.append(int(parts[0]))
            neighbor.append(int(parts[1]))
            weight.append(float(parts[2]))
    return RayGraph.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )


def write_gwt(g: RayGraph, path: str, shp: str = "unknown",
              key: str = "id") -> None:
    n = g.n()
    with open(path, "w") as out:
        out.write(f"0 {n} {shp} {key}\n")
        for batch in E.canonical(g.edges).iter_batches(batch_format="pyarrow"):
            f = batch.column("focal").to_numpy(zero_copy_only=False)
            nb = batch.column("neighbor").to_numpy(zero_copy_only=False)
            w = batch.column("weight").to_numpy(zero_copy_only=False)
            for i in range(len(f)):
                if f[i] == nb[i] and w[i] == 0.0:
                    continue  # isolate marker — GAL/GWT encode by absence
                out.write(f"{int(f[i])} {int(nb[i])} {w[i]:.10g}\n")


def read_mtx(path: str) -> RayGraph:
    """MatrixMarket coordinate format (io/iohandlers/mtx.py) — COO triplets
    ARE the edge table; 1-based indices per the format spec."""
    focal, neighbor, weight = [], [], []
    n = 0
    with open(path) as f:
        for line in f:
            if line.startswith("%"):
                continue
            n_rows, _n_cols, _nnz = line.split()[:3]
            n = int(n_rows)
            break
        for line in f:
            parts = line.split()
            if len(parts) < 2:
                continue
            focal.append(int(parts[0]) - 1)
            neighbor.append(int(parts[1]) - 1)
            weight.append(float(parts[2]) if len(parts) > 2 else 1.0)
    ds = E.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )
    return RayGraph(ds, ids=np.arange(n, dtype=np.int64))


def write_mtx(g: RayGraph, path: str) -> None:
    n = g.n()
    real = g._real_edges()
    nnz = real.count()
    with open(path, "w") as out:
        out.write("%%MatrixMarket matrix coordinate real general\n")
        out.write(f"{n} {n} {nnz}\n")
        for batch in E.canonical(real).iter_batches(batch_format="pyarrow"):
            f = batch.column("focal").to_numpy(zero_copy_only=False)
            nb = batch.column("neighbor").to_numpy(zero_copy_only=False)
            w = batch.column("weight").to_numpy(zero_copy_only=False)
            for i in range(len(f)):
                out.write(f"{int(f[i]) + 1} {int(nb[i]) + 1} {w[i]:.10g}\n")


def read_arcgis_text(path: str) -> RayGraph:
    """ArcGIS ASCII text weights (io/iohandlers/arcgis_txt.py): line 1 is
    the id-variable header; then (origin, destination, weight) triplets
    with integer ids. Zero-weight SELF-neighbor rows are ignored
    (arcgis_txt.py semantics — ArcGIS treats absent self entries as 0)."""
    focal, neighbor, weight = [], [], []
    with open(path) as f:
        f.readline()  # header: id variable name
        for line in f:
            parts = line.split()
            if len(parts) < 3:
                continue
            o, d, w = int(parts[0]), int(parts[1]), float(parts[2])
            if o == d and w == 0.0:
                continue
            focal.append(o)
            neighbor.append(d)
            weight.append(w)
    return RayGraph.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )


def write_arcgis_text(g: RayGraph, path: str, id_var: str = "ID") -> None:
    with open(path, "w") as out:
        out.write(f"{id_var}\n")
        for batch in E.canonical(g._real_edges()).iter_batches(
            batch_format="pyarrow"
        ):
            f = batch.column("focal").to_numpy(zero_copy_only=False)
            nb = batch.column("neighbor").to_numpy(zero_copy_only=False)
            w = batch.column("weight").to_numpy(zero_copy_only=False)
            for i in range(len(f)):
                out.write(f"{int(f[i])} {int(nb[i])} {w[i]:.10g}\n")


def read_dat(path: str) -> RayGraph:
    """LeSage MatLab ``.dat`` weights (io/iohandlers/dat.py): headerless
    (origin, destination, weight) triplets, record numbers starting at 1
    (ids may be written as floats — ``5.0`` reads as id 5)."""
    focal, neighbor, weight = [], [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 3:
                continue
            focal.append(int(float(parts[0])))
            neighbor.append(int(float(parts[1])))
            weight.append(float(parts[2]))
    return RayGraph.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )


def write_dat(g: RayGraph, path: str) -> None:
    with open(path, "w") as out:
        for batch in E.canonical(g._real_edges()).iter_batches(
            batch_format="pyarrow"
        ):
            f = batch.column("focal").to_numpy(zero_copy_only=False)
            nb = batch.column("neighbor").to_numpy(zero_copy_only=False)
            w = batch.column("weight").to_numpy(zero_copy_only=False)
            for i in range(len(f)):
                out.write(f"{int(f[i])} {int(nb[i])} {w[i]:.10g}\n")


def read_csv_weights(path: str, header: bool = True) -> RayGraph:
    """Adjacency-list CSV (io parity with io/iohandlers/csvWrapper.py's
    weights use): comma-separated (origin, destination[, weight]) rows;
    weight defaults to 1.0 when the column is absent."""
    focal, neighbor, weight = [], [], []
    with open(path) as f:
        if header:
            f.readline()
        for line in f:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 2 or not parts[0]:
                continue
            focal.append(int(float(parts[0])))
            neighbor.append(int(float(parts[1])))
            weight.append(float(parts[2]) if len(parts) > 2 and parts[2]
                          else 1.0)
    return RayGraph.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )


def write_csv_weights(g: RayGraph, path: str) -> None:
    with open(path, "w") as out:
        out.write("focal,neighbor,weight\n")
        for batch in E.canonical(g._real_edges()).iter_batches(
            batch_format="pyarrow"
        ):
            f = batch.column("focal").to_numpy(zero_copy_only=False)
            nb = batch.column("neighbor").to_numpy(zero_copy_only=False)
            w = batch.column("weight").to_numpy(zero_copy_only=False)
            for i in range(len(f)):
                out.write(f"{int(f[i])},{int(nb[i])},{w[i]:.10g}\n")


# ---------------------------------------------- ArcGIS binary formats (r3)
def read_arcgis_dbf(path: str) -> RayGraph:
    """ArcGIS DBF weights table (io/iohandlers/arcgis_dbf.py:36-163):
    columns (ID, NID, WEIGHT) — or 4 columns with a leading RECORD_ID —
    one row per directed edge, integer ids."""
    from libpysal_ray.sources.shapefile import read_dbf

    cols = read_dbf(path)
    names = list(cols)
    if len(names) == 3:
        i_c, j_c, w_c = names
    elif len(names) == 4:
        _rec, i_c, j_c, w_c = names
    else:
        raise ValueError(
            "a weights .dbf requires 3 data columns (or 4 with a leading "
            "record id)"
        )
    focal = np.asarray([int(v) for v in cols[i_c]], np.int64)
    neighbor = np.asarray([int(v) for v in cols[j_c]], np.int64)
    weight = np.asarray([float(v) for v in cols[w_c]], np.float64)
    return RayGraph.from_arrays(focal, neighbor, weight)


def write_arcgis_dbf(g: RayGraph, path: str, id_var: str = "ID") -> None:
    """One DBF row per directed edge, header [id_var, NID, WEIGHT]
    (arcgis_dbf.py:230-243); isolate markers encoded by absence."""
    ids, nids, ws = [], [], []
    for batch in E.canonical(g.edges).iter_batches(batch_format="pyarrow"):
        f = batch.column("focal").to_numpy(zero_copy_only=False)
        nb = batch.column("neighbor").to_numpy(zero_copy_only=False)
        w = batch.column("weight").to_numpy(zero_copy_only=False)
        for i in range(len(f)):
            if f[i] == nb[i] and w[i] == 0.0:
                continue
            ids.append(int(f[i]))
            nids.append(int(nb[i]))
            ws.append(float(w[i]))
    from libpysal_ray.sources.shapefile import write_dbf

    write_dbf(path, {id_var: ids, "NID": nids, "WEIGHT": ws})


def read_swm(path: str) -> RayGraph:
    """ArcGIS .swm binary weights (io/iohandlers/arcgis_swm.py:15-237):
    header line (``id_var;srs`` old style, or ``KEY@VALUE;...`` new style
    with optional FIXEDWEIGHTS), then little-endian records
    (org:int32, m:int32, m*int32 neighbor ids, m*float64 weights —
    or ONE float64 when fixed — and a float64 weight sum, present only
    when m > 0, matching the reference reader)."""
    import struct as _s

    focal, neighbor, weight, all_ids = [], [], [], []
    with open(path, "rb") as f:
        header = f.readline().decode()
        fixed = False
        if "@" in header:
            hd = dict(
                item.split("@", 1)
                for item in header.strip().split(";")
                if "@" in item
            )
            fixed = hd.get("FIXEDWEIGHTS", "").upper().strip() == "TRUE"
        no_obs, _row_std = _s.unpack("<2l", f.read(8))
        for _ in range(no_obs):
            org, m = _s.unpack("<2l", f.read(8))
            all_ids.append(org)
            if m > 0:
                nghs = _s.unpack(f"<{m}l", f.read(4 * m))
                if fixed:
                    (w0,) = _s.unpack("<d", f.read(8))
                    ws = [w0] * m
                else:
                    ws = _s.unpack(f"<{m}d", f.read(8 * m))
                f.read(8)  # W_SUM
                focal.extend([org] * m)
                neighbor.extend(nghs)
                weight.extend(ws)
    ds = E.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )
    return RayGraph(ds, ids=np.asarray(all_ids, np.int64))


def write_swm(
    g: RayGraph, path: str, id_var: str = "Unknown", srs: str = "Unknown",
    row_std: bool = False,
) -> None:
    """Old-style SWM (``id_var;srs`` header — what the reference writer
    emits, arcgis_swm.py:266-276). The per-observation weight sum is
    written only for m > 0, matching the reference READER's layout (its
    writer emits the sum unconditionally, which its own reader cannot
    parse back for isolates — we mirror the reader)."""
    import struct as _s

    rows: dict[int, tuple[list[int], list[float]]] = {}
    for batch in E.canonical(g.edges).iter_batches(batch_format="pyarrow"):
        f = batch.column("focal").to_numpy(zero_copy_only=False)
        nb = batch.column("neighbor").to_numpy(zero_copy_only=False)
        w = batch.column("weight").to_numpy(zero_copy_only=False)
        for i in range(len(f)):
            rows.setdefault(int(f[i]), ([], []))
            if not (f[i] == nb[i] and w[i] == 0.0):
                rows[int(f[i])][0].append(int(nb[i]))
                rows[int(f[i])][1].append(float(w[i]))
    with open(path, "wb") as out:
        out.write(f"{id_var};{srs}\n".encode())
        out.write(_s.pack("<2l", len(rows), int(row_std)))
        for org in sorted(rows):
            nghs, ws = rows[org]
            out.write(_s.pack("<2l", org, len(nghs)))
            if nghs:
                out.write(_s.pack(f"<{len(nghs)}l", *nghs))
                out.write(_s.pack(f"<{len(ws)}d", *ws))
                out.write(_s.pack("<d", sum(ws)))


def _collect_adjacency(g: RayGraph):
    """(canonical-order focal ids, {focal: ([neighbors], [weights])}) —
    isolate markers collapse to empty lists. Streams the edge Dataset;
    driver memory is O(edges of ONE graph being serialized), the same
    boundary cost as every legacy text writer here."""
    ids: list[int] = []
    rows: dict[int, tuple[list[int], list[float]]] = {}
    for batch in E.canonical(g.edges).iter_batches(batch_format="pyarrow"):
        f = batch.column("focal").to_numpy(zero_copy_only=False)
        nb = batch.column("neighbor").to_numpy(zero_copy_only=False)
        w = batch.column("weight").to_numpy(zero_copy_only=False)
        for i in range(len(f)):
            fi = int(f[i])
            if fi not in rows:
                rows[fi] = ([], [])
                ids.append(fi)
            if not (f[i] == nb[i] and w[i] == 0.0):
                rows[fi][0].append(int(nb[i]))
                rows[fi][1].append(float(w[i]))
    return ids, rows


# ------------------------------------------------------------ STATA text
def read_stata_text(path: str) -> RayGraph:
    """STATA ``spmat`` text (stata_txt.py:10-52): header line = n, then
    either neighbor-ID lists (binary weights) or a full n×n matrix whose
    columns map to row ids positionally. Form detection mirrors the
    reference reader exactly (stata_txt.py:149-158): the first data row is
    matrix-form iff it has >1 token and its second token is 0.0."""
    with open(path) as f:
        n = int(f.readline().strip())
        lines = [f.readline().strip() for _ in range(n)]
    first = lines[0].split()
    matrix_form = not (len(first) == 1 or float(first[1]) != 0.0)
    focal, neighbor, weight, id_order = [], [], [], []
    for line in lines:
        parts = line.split()
        id_order.append(int(float(parts[0])))
    for line in lines:
        parts = line.split()
        fid = int(float(parts[0]))
        if matrix_form:
            for c, tok in enumerate(parts[1:]):
                w = float(tok)
                if w > 0:
                    focal.append(fid)
                    neighbor.append(id_order[c])
                    weight.append(w)
        else:
            for tok in parts[1:]:
                focal.append(fid)
                neighbor.append(int(tok))
                weight.append(1.0)
    ds = E.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )
    return RayGraph(ds, ids=np.asarray(id_order, np.int64))


def write_stata_text(g: RayGraph, path: str, matrix_form: bool = False) -> None:
    """STATA ``spmat`` text writer (stata_txt.py:256-278): sparse form
    writes neighbor-ID lists; matrix form writes the full row with weights
    (columns positional in id order)."""
    ids, rows = _collect_adjacency(g)
    pos = {fid: i for i, fid in enumerate(ids)}
    with open(path, "w") as out:
        out.write(f"{len(ids)}\n")
        for fid in ids:
            nghs, ws = rows[fid]
            if matrix_form:
                dense = ["0.0"] * len(ids)
                for ngh, w in zip(nghs, ws):
                    dense[pos[ngh]] = str(w)
                out.write(" ".join([str(fid)] + dense) + "\n")
            else:
                out.write(" ".join([str(fid)] + [str(x) for x in nghs]) + "\n")


# --------------------------------------------------------------- GeoBUGS
def read_geobugs(path: str) -> RayGraph:
    """GeoBUGS / R-spdep ``nb2WB`` text (geobugs_txt.py:11-205):
    ``list(num=c(...), adj=c(...)[, weights=c(...)][, sumNumNeigh=N])``.
    Observation ids are record numbers starting at 1; ``adj`` concatenates
    neighbor lists in ``num`` order; weights default to 1.0."""
    with open(path) as f:
        body = f.read()
    parts: dict[str, list[float]] = {}
    marks = sorted(
        (body.find(k), k)
        for k in ("num", "adj", "weights", "sumNumNeigh")
        if body.find(k) != -1
    )
    marks.append((len(body), "eof"))
    num_re = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
    for (start, key), (end, _) in zip(marks, marks[1:]):
        seg = body[start:end]
        # token-scan the section payload: digit-position slicing would drop
        # a leading minus sign (weights=c(-0.5,...) parsing as 0.5)
        conv = float if key == "weights" else int
        parts[key] = [conv(v) for v in num_re.findall(seg)]
    card = parts["num"]
    adj = parts["adj"]
    raw_w = parts.get("weights", [1.0] * int(sum(card)))
    focal, neighbor, weight = [], [], []
    pos = 0
    for i, k in enumerate(card):
        focal.extend([i + 1] * k)
        neighbor.extend(adj[pos : pos + k])
        weight.extend(raw_w[pos : pos + k])
        pos += k
    ds = E.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )
    ids = np.arange(1, len(card) + 1, dtype=np.int64)
    return RayGraph(ds, ids=ids)


def write_geobugs(g: RayGraph, path: str,
                  include_weights: bool = True) -> None:
    """GeoBUGS writer (geobugs_txt.py:266-280; the reference writer omits
    ``weights`` — binary graphs only — so ``include_weights`` extends it
    while staying readable by the reference parser). Neighbor ids are
    remapped to 1-based record numbers in canonical id order."""
    ids, rows = _collect_adjacency(g)
    recno = {fid: i + 1 for i, fid in enumerate(ids)}
    card, adj, wgt = [], [], []
    for fid in ids:
        nghs, ws = rows[fid]
        card.append(len(nghs))
        adj.extend(recno[n] for n in nghs)
        wgt.extend(ws)
    with open(path, "w") as out:
        out.write("list(")
        out.write("num=c({}),".format(",".join(map(str, card))))
        out.write("adj=c({}),".format(",".join(map(str, adj))))
        if include_weights:
            out.write(
                "weights=c({}),".format(",".join(f"{w:.10g}" for w in wgt))
            )
        out.write(f"sumNumNeigh={sum(card)})")


# ---------------------------------------------------------- MATLAB MAT v4
def read_mat(path: str) -> RayGraph:
    """MATLAB Level-4 MAT full-matrix weights (mat.py:13-35 uses
    scipy.io; this is a dependency-free v4 parser). Layout: 5 little-
    endian int32 header (mopt, mrows, ncols, imagf, namelen), the null-
    terminated variable name, then mrows×ncols float64 column-major.
    Only mopt=0 (LE, double, full) is supported; Level-5 files (text
    magic 'MATLAB 5.0') raise. Ids are positional 0..n-1 (the reference
    ignores MATLAB row/col headers, mat.py:17-18)."""
    import struct as _s

    with open(path, "rb") as f:
        head = f.read(20)
        if head[:6] == b"MATLAB":
            raise ValueError(
                "MAT Level-5 files are unsupported; export Level-4 "
                "(MATLAB: save -v4)"
            )
        mopt, mrows, ncols, imagf, namelen = _s.unpack("<5i", head)
        if mopt != 0 or imagf != 0:
            raise ValueError(f"unsupported MAT v4 type mopt={mopt}")
        f.read(namelen)
        data = np.fromfile(f, dtype="<f8", count=mrows * ncols)
    m = data.reshape((ncols, mrows)).T  # column-major
    if mrows != ncols:
        raise ValueError(f"weights matrix must be square, got {m.shape}")
    focal, neighbor = np.nonzero(m)
    ds = E.from_arrays(
        focal.astype(np.int64), neighbor.astype(np.int64),
        m[focal, neighbor].astype(np.float64),
    )
    return RayGraph(
        ds, ids=np.arange(mrows, dtype=np.int64),
    )


def write_mat(g: RayGraph, path: str, var_name: str = "WEIGHT",
              max_n: int = 10_000) -> None:
    """MAT v4 full-matrix writer (mat.py:95-123 semantics via
    scipy.io.savemat; here hand-packed). Dense n×n — guarded by ``max_n``
    since the format is inherently O(n²); ids map to positions in
    canonical order."""
    import struct as _s

    ids, rows = _collect_adjacency(g)
    n = len(ids)
    if n > max_n:
        raise ValueError(f"dense MAT write of n={n} exceeds max_n={max_n}")
    pos = {fid: i for i, fid in enumerate(ids)}
    m = np.zeros((n, n))
    for fid in ids:
        nghs, ws = rows[fid]
        for ngh, w in zip(nghs, ws):
            m[pos[fid], pos[ngh]] = w
    name = var_name.encode() + b"\x00"
    with open(path, "wb") as out:
        out.write(_s.pack("<5i", 0, n, n, 0, len(name)))
        out.write(name)
        m.T.astype("<f8").tofile(out)  # column-major


# ------------------------------------------------------------- Lotus WK1
def read_wk1(path: str) -> RayGraph:
    """Lotus 1-2-3 WK1 weights (wk1.py:200-256): BOF magic
    (0,0,2,0,6,4), typed records ``<2H`` (type, len); NUMBER (14, double)
    / INTEGER (13, int16) / FORMULA (16) cells carry (format, row, col,
    value); positive values are edges; record type 1 is EOF. n is taken
    from the RANGE record (type 6) so all-zero rows survive as isolates
    (the reference reader drops them, wk1.py:243-255)."""
    import struct as _s

    with open(path, "rb") as f:
        if _s.unpack("<6B", f.read(6)) != (0, 0, 2, 0, 6, 4):
            raise ValueError("not a WK1 file (bad BOF)")
        n = 0
        focal, neighbor, weight = [], [], []
        dtype, dlen = _s.unpack("<2H", f.read(4))
        while dtype != 1:
            if dtype == 6 and dlen == 8:
                _, _, ec, er = _s.unpack("<4H", f.read(8))
                n = max(n, ec, er)
            elif dtype in (13, 14, 16):
                f.read(1)
                row, col = _s.unpack("<2H", f.read(4))
                if dtype == 13:
                    value = float(_s.unpack("<h", f.read(2))[0])
                else:
                    value = _s.unpack("<d", f.read(8))[0]
                if value > 0:
                    focal.append(row)
                    neighbor.append(col)
                    weight.append(value)
                if dtype == 16:
                    f.read(dlen - 13)
            else:
                f.read(dlen)
            dtype, dlen = _s.unpack("<2H", f.read(4))
    ds = E.from_arrays(
        np.asarray(focal, np.int64),
        np.asarray(neighbor, np.int64),
        np.asarray(weight, np.float64),
    )
    ids = np.arange(max(n, (max(focal) + 1) if focal else 0), dtype=np.int64)
    return RayGraph(ds, ids=ids)


def write_wk1(g: RayGraph, path: str) -> None:
    """WK1 writer — byte layout of the reference (wk1.py:320-368): BOF,
    RANGE, the fixed format/window/column records, one NUMBER cell per
    matrix entry (full dense), EOF. The format caps n at 256
    (wk1.py:325-328); ids map to positions in canonical order."""
    import struct as _s

    ids, rows = _collect_adjacency(g)
    n = len(ids)
    if n > 256:
        raise ValueError("WK1 supports at most 256 observations")
    pos = {fid: i for i, fid in enumerate(ids)}
    pack = _s.pack
    with open(path, "wb") as out:
        out.write(pack("<6B", 0, 0, 2, 0, 6, 4))
        out.write(pack("<6H", 6, 8, 0, 0, n, n))
        out.write(pack("<2H6B", 150, 6, 0, 0, 0, 0, 0, 0))
        out.write(pack("<2H1B", 47, 1, 0))
        for t in (2, 3, 4, 5):
            out.write(pack("<2H1b", t, 1, 0))
        out.write(pack("<2H1b", 49, 1, 1))
        out.write(pack("<4H2b13H", 7, 32, 0, 0, 113, 0, 10, n, n,
                       0, 0, 0, 0, 0, 0, 0, 0, 72, 0))
        out.write(pack("<2H32b", 100, 32, *([0] * 32)))
        out.write(pack("<7H", 40, 10, 4, 76, 66, 2, 2))
        out.write(pack("<2H1c", 41, 1, b"'"))
        for fid in ids:
            dense = np.zeros(n)
            nghs, ws = rows[fid]
            for ngh, w in zip(nghs, ws):
                dense[pos[ngh]] = w
            r = pos[fid]
            for c in range(n):
                out.write(pack("<2H1b2H1d", 14, 13, 113, r, c, dense[c]))
        out.write(pack("<2H", 1, 0))
