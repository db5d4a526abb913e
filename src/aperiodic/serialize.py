"""CSV/JSON persistence for point sets, tables and reports."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DuplicatePoint, ParseError
from .pointset import Box, IndexedPointSet


def pointset_to_csv(pset: IndexedPointSet, path):
    """Columns: integer indices (n*), physical coords (x*), star coords (s*)."""
    k = 0 if pset.index is None else pset.index.shape[1]
    m = 0 if pset.star is None else pset.star.shape[1]
    header = ([f"n{i}" for i in range(k)]
              + [f"x{i}" for i in range(pset.dim)]
              + [f"s{i}" for i in range(m)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in range(len(pset)):
            out = []
            if k:
                out.extend(int(v) for v in pset.index[row])
            out.extend(repr(float(v)) for v in pset.physical[row])
            if m:
                out.extend(repr(float(v)) for v in pset.star[row])
            writer.writerow(out)


def pointset_to_json(pset: IndexedPointSet) -> dict:
    out = {
        "count": len(pset),
        "region": pset.region.to_json(),
        "physical": pset.physical.tolist(),
    }
    if pset.index is not None:
        out["index"] = pset.index.tolist()
    if pset.star is not None and pset.star.shape[1]:
        out["star"] = pset.star.tolist()
    return out


def ingest_csv(path, region: Box | None = None):
    """Raw point cloud from CSV; returns (pset, warnings).

    The header is either x[,y[,z]] or the n*,x*,s* layout that
    ``pointset_to_csv`` writes, whose x* columns are read as the physical
    coordinates.
    """
    rows = []
    warnings = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file") from None
        cols = [c.strip().lower() for c in header]
        phys = _physical_columns(cols)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(cols):
                raise ParseError(lineno, f"expected {len(cols)} columns, got {len(row)}")
            try:
                rows.append([float(row[i]) for i in phys])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
    if not rows:
        raise ParseError(2, "no data rows")
    pts = np.asarray(rows)
    uniq = np.unique(pts, axis=0)
    if len(uniq) != len(pts):
        raise DuplicatePoint(f"{len(pts) - len(uniq)} duplicate rows in {path}")
    if region is None:
        region = Box.make(pts.min(axis=0) - 1e-9, pts.max(axis=0) + 1e-9)
        warnings.append("region omitted; using the data bounding box")
    return IndexedPointSet(pts, region), warnings


def _physical_columns(cols) -> list:
    """Positions of the physical coordinates in a CSV header."""
    if cols == ["x", "y", "z"][:len(cols)]:
        return list(range(len(cols)))
    counts = [sum(c.startswith(p) for c in cols) for p in "nxs"]
    layout = [f"{p}{i}" for p, n in zip("nxs", counts) for i in range(n)]
    if cols != layout or counts[1] == 0:
        raise ParseError(1, f"header must be x[,y[,z]] or n*,x*,s* columns, got {cols}")
    return list(range(counts[0], counts[0] + counts[1]))


def ingest_json(path, region: Box | None = None):
    with open(path) as fh:
        obj = json.load(fh)
    pts = np.asarray(obj["physical"], dtype=np.float64)
    if pts.ndim != 2:
        raise ParseError(1, "'physical' must be a list of coordinate rows")
    uniq = np.unique(pts, axis=0)
    if len(uniq) != len(pts):
        raise DuplicatePoint(f"duplicate rows in {path}")
    warnings = []
    if region is None:
        if "region" in obj:
            region = Box.make(obj["region"]["lo"], obj["region"]["hi"])
        else:
            region = Box.make(pts.min(axis=0) - 1e-9, pts.max(axis=0) + 1e-9)
            warnings.append("region omitted; using the data bounding box")
    return IndexedPointSet(pts, region), warnings


def peak_table_to_csv(table, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = len(table.entries[0].k) if table.entries else 1
        writer.writerow([f"k{i}" for i in range(dim)] + ["re", "im", "intensity", "is_control"])
        for entry in table.entries + table.controls:
            amp = entry.amplitudes[-1]
            writer.writerow([repr(float(v)) for v in entry.k]
                            + [repr(float(amp.real)), repr(float(amp.imag)),
                               repr(entry.intensity), int(entry.is_control)])


def almost_periods_to_csv(ap, path):
    rows = ap.to_rows()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = len(rows[0]["delta"]) if rows else 1
        writer.writerow([f"delta{i}" for i in range(dim)] + ["d", "gap_to_next"])
        for i, row in enumerate(rows):
            if dim == 1 and i + 1 < len(rows):
                gap = rows[i + 1]["delta"][0] - row["delta"][0]
            else:
                gap = ""
            writer.writerow([repr(v) for v in row["delta"]]
                            + [repr(row["d"]), repr(gap) if gap != "" else ""])


def json_dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
