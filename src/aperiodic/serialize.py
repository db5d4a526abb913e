"""CSV/JSON persistence for point sets, tables and reports.

Artifacts are written from number text formatted once per value.  Each
numeric column becomes a list of strings -- ``repr`` of the Python int or
float, the text that ``csv`` and ``json`` write for it -- and
``_write_csv`` joins the string columns with ``,`` and ends every line with
``\r\n``, the bytes ``csv.writer``'s default dialect gives for fields that
need no quoting.  Given a ``json_path``, ``pointset_to_csv`` also builds
the ``index``, ``physical`` and ``star`` rows of ``points.json`` from the
same cell strings, with one row template per array, in the layout of
``json.dumps(sort_keys=True, indent=2)``; non-finite values are spelled as
``json`` spells them (``NaN``, ``Infinity``, ``-Infinity``), and ``count``
and ``region`` go through ``json_dumps_stable``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DuplicatePoint, ParseError
from .pointset import Box, IndexedPointSet

# json's spelling of the non-finite floats whose repr is nan, inf, -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _columns(values: np.ndarray) -> list:
    """The ``repr`` text of every entry of a 2D array, one list per column."""
    return [list(map(repr, col)) for col in values.T.tolist()]


def _write_csv(path, header, columns):
    """Write a header and equal-length string columns as CSV lines."""
    lines = [",".join(header), *map(",".join, zip(*columns)), ""]
    Path(path).write_text("\r\n".join(lines), newline="")


def _json_rows(values: np.ndarray, columns) -> str:
    """A 2D array as ``json.dumps(indent=2)`` writes it one level deep."""
    if not len(values):
        return "[]"
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        columns = [[_JSON_NONFINITE.get(c, c) for c in col] for col in columns]
    if columns:
        row = "    [\n      " + ",\n      ".join(["{}"] * len(columns)) + "\n    ]"
        rows = map(row.format, *columns)
    else:
        rows = ["    []"] * len(values)
    return "[\n" + ",\n".join(rows) + "\n  ]"


def pointset_to_csv(pset: IndexedPointSet, path, json_path=None):
    """Columns: integer indices (n*), physical coords (x*), star coords (s*).

    Given ``json_path``, also writes the point set there as the JSON object
    of ``count``, ``region``, ``physical`` and, when present, ``index`` and
    ``star`` (omitted for a star of no columns), from the same cell strings.
    """
    index = [] if pset.index is None else _columns(pset.index)
    physical = _columns(pset.physical)
    star = [] if pset.star is None else _columns(pset.star)
    header = ([f"n{i}" for i in range(len(index))]
              + [f"x{i}" for i in range(len(physical))]
              + [f"s{i}" for i in range(len(star))])
    _write_csv(path, header, index + physical + star)
    if json_path is None:
        return
    fields = {
        "count": json_dumps_stable(len(pset)),
        "region": json_dumps_stable(pset.region.to_json()).replace("\n", "\n  "),
        "physical": _json_rows(pset.physical, physical),
    }
    if pset.index is not None:
        fields["index"] = _json_rows(pset.index, index)
    if star:
        fields["star"] = _json_rows(pset.star, star)
    body = ",\n".join(f'  "{key}": {fields[key]}' for key in sorted(fields))
    Path(json_path).write_text("{\n" + body + "\n}\n")


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
    rows = table.entries + table.controls
    dim = len(table.entries[0].k) if table.entries else 1
    values = [[*map(float, e.k), float(e.amplitudes[-1].real),
               float(e.amplitudes[-1].imag), e.intensity] for e in rows]
    columns = [list(map(repr, col)) for col in zip(*values)]
    columns.append([str(int(e.is_control)) for e in rows])
    _write_csv(path, [f"k{i}" for i in range(dim)] + ["re", "im", "intensity", "is_control"],
               columns)


def almost_periods_to_csv(ap, path):
    rows = ap.to_rows()
    deltas = [row["delta"] for row in rows]
    dim = len(deltas[0]) if rows else 1
    # the gap to the next member, in dimension 1 only; the last row has none
    gaps = [repr(b[0] - a[0]) for a, b in zip(deltas, deltas[1:])] if dim == 1 else []
    columns = [list(map(repr, col)) for col in zip(*deltas)]
    columns.append([repr(row["d"]) for row in rows])
    columns.append(gaps + [""] * (len(rows) - len(gaps)))
    _write_csv(path, [f"delta{i}" for i in range(dim)] + ["d", "gap_to_next"], columns)


def json_dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
