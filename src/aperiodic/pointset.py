"""Finite patches of point sets and their local-order diagnostics.

A patch is stored with the axis-aligned box on which it is exhaustive, so
every statistic can restrict its anchors to a core that avoids edge
artifacts.  Scheme-backed patches additionally carry exact integer lattice
indices and star coordinates.  Patch and translation matching and symmetric
differences test point membership with ``match_index``; difference sets and
FLC clusters come from the strip pair scan of ``kernels.strip_pairs``, which
also feeds the pair histogram behind the eta counts (``autocorr``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kernels
from .errors import (
    DuplicatePoint,
    RegionTooLarge,
    RegionTooSmall,
    UndefinedStatistic,
)

# Two points match when their sup-norm distance is at most MATCH_TOL.  There
# is no grid rounding, so a match does not depend on where the points sit
# relative to the edges of a 1e-7 grid cell.
MATCH_TOL = 1e-7
# QUANT only canonicalizes: it keys the clusters of flc_clusters, dedupes the
# raw difference set and decides the sign of a difference in eta's canonical
# representatives.  It never decides membership.
QUANT = 1e-7


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def make(cls, lo, hi) -> "Box":
        lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError(f"invalid box lo={lo}, hi={hi}")
        return cls(lo, hi)

    @classmethod
    def centered(cls, half_width, dim=1) -> "Box":
        h = float(half_width)
        return cls.make([-h] * dim, [h] * dim)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def span(self) -> np.ndarray:
        return self.hi - self.lo

    def shrink(self, r) -> "Box":
        lo = self.lo + r
        hi = self.hi - r
        if np.any(hi <= lo):
            raise RegionTooSmall(f"box {self} cannot shrink by {r}")
        return Box(lo, hi)

    def contains(self, points, tol=0.0):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((pts >= self.lo - tol) & (pts <= self.hi + tol), axis=1)

    def covers(self, other: "Box", tol=1e-9) -> bool:
        return bool(np.all(self.lo <= other.lo + tol) and np.all(self.hi >= other.hi - tol))

    def to_json(self):
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


class IndexedPointSet:
    """Points sorted lexicographically by physical coordinates.

    ``index`` (integer lattice coordinates) and ``star`` (internal images)
    are present for scheme-generated patches and for their difference sets;
    ingested raw clouds carry physical coordinates only.
    """

    def __init__(self, physical, region: Box, index=None, star=None, scheme=None,
                 _presorted=False):
        phys = np.atleast_2d(np.asarray(physical, dtype=np.float64))
        if phys.size == 0:
            phys = phys.reshape(0, region.dim)
        if phys.shape[1] != region.dim:
            raise ValueError("point dimension does not match region")
        if not _presorted and len(phys) > 1:
            order = np.lexsort(phys.T[::-1])
            phys = phys[order]
            if index is not None:
                index = np.asarray(index, dtype=np.int64)[order]
            if star is not None:
                star = np.asarray(star, dtype=np.float64)[order]
        self.physical = phys
        self.region = region
        self.index = None if index is None else np.asarray(index, dtype=np.int64)
        self.star = None if star is None else np.atleast_2d(np.asarray(star, dtype=np.float64))
        if self.star is not None and len(self.star) != len(phys) and self.star.size == 0:
            # a flat empty star list stands for no internal space
            self.star = self.star.reshape(len(phys), 0)
        self.scheme = scheme
        if len(phys) > 1:
            same = np.all(np.abs(np.diff(phys, axis=0)) <= 1e-12, axis=1)
            if np.any(same):
                raise DuplicatePoint("point set contains coincident points")

    # -- basics -----------------------------------------------------------
    def __len__(self):
        return len(self.physical)

    @property
    def dim(self) -> int:
        return self.region.dim

    @property
    def is_scheme_backed(self) -> bool:
        return self.scheme is not None and self.index is not None

    def positions_1d(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError("positions_1d requires dimension 1")
        return self.physical[:, 0]

    def restrict(self, box: Box) -> "IndexedPointSet":
        mask = self.contains_mask(box)
        return IndexedPointSet(
            self.physical[mask], box,
            None if self.index is None else self.index[mask],
            None if self.star is None else self.star[mask],
            self.scheme, _presorted=True)

    def contains_mask(self, box: Box, tol=MATCH_TOL):
        return box.contains(self.physical, tol=tol)

    def translate(self, v) -> "IndexedPointSet":
        """Shifted copy; lattice indices are dropped (the shift is arbitrary)."""
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        return IndexedPointSet(
            self.physical + v,
            Box(self.region.lo + v, self.region.hi + v),
            None, None, None, _presorted=True)

    def density(self, box: Box | None = None) -> float:
        box = box or self.region
        return float(np.count_nonzero(self.contains_mask(box))) / box.volume()


def match_index(points, queries, tol=MATCH_TOL) -> np.ndarray:
    """Position of the first point within sup-norm distance ``tol`` of each
    query, or -1 where there is none.

    ``points`` is an (n, d) array sorted lexicographically, as every
    ``IndexedPointSet.physical`` and every masked subset of one is;
    ``queries`` is (m, d).  One binary search on the first coordinate finds
    each query's first candidate.  Later candidates are visited in order
    while their first coordinate stays within ``tol`` of the query's, which
    covers columns of points with equal first coordinate.  In dimension 1 the
    first candidate decides.
    """
    qs = np.asarray(queries, dtype=np.float64)
    dim = qs.shape[1]
    # an infinite sentinel row ends every scan without a bounds check
    pts = np.vstack([np.asarray(points, dtype=np.float64).reshape(-1, dim),
                     np.full((1, dim), np.inf)])
    x = pts[:, 0]
    at = np.searchsorted(x, qs[:, 0] - tol)
    out = np.where(_within(pts[at], qs, tol), at, -1)
    if dim == 1:
        return out
    live = np.flatnonzero((out < 0) & (x[at] <= qs[:, 0] + tol))
    at = at[live] + 1
    while len(live):
        q = qs[live]
        hit = _within(pts[at], q, tol)
        out[live[hit]] = at[hit]
        more = ~hit & (x[at] <= q[:, 0] + tol)
        live, at = live[more], at[more] + 1
    return out


def _within(a, b, tol) -> np.ndarray:
    diff = a - b
    np.abs(diff, out=diff)
    return np.all(diff <= tol, axis=1)


def _distinct_matches(a, b, tol) -> int:
    """Number of points of ``b`` that are the first match of some point of ``a``."""
    j = match_index(b, a, tol)
    return int(np.unique(j[j >= 0]).size)


def _translate_hits(points, seg, deltas):
    """Yield (rows, hits) with hits[i, k] true iff seg[k] + deltas[rows][i] is
    one of ``points``, in chunks of at most 4M queries."""
    dim = seg.shape[1]
    chunk = max(1, 4_000_000 // max(1, len(seg) * dim))
    for start in range(0, len(deltas), chunk):
        d = deltas[start:start + chunk]
        queries = (d[:, None, :] + seg[None, :, :]).reshape(-1, dim)
        hits = match_index(points, queries) >= 0
        yield slice(start, start + len(d)), hits.reshape(len(d), len(seg))


def _agrees_on(pset: IndexedPointSet, ts, box: Box) -> np.ndarray:
    """ok[i] tells whether ts[i] + P and P have the same points in ``box``,
    up to MATCH_TOL."""
    ts = np.atleast_2d(ts)
    ref = _rows_in(pset.physical, box)
    ok = np.empty(len(ts), dtype=bool)
    # every point of P in the box is the image of a point of P ...
    for rows, hits in _translate_hits(pset.physical, ref, -ts):
        ok[rows] = hits.all(axis=1)
    # ... and t + P has no other point in it
    for i in np.flatnonzero(ok):
        ok[i] = len(_rows_in(pset.physical, Box(box.lo - ts[i], box.hi - ts[i]))) == len(ref)
    return ok


def _rows_in(points, box: Box) -> np.ndarray:
    """Rows of lexicographically sorted ``points`` in ``box``, up to MATCH_TOL."""
    x = points[:, 0]
    seg = points[np.searchsorted(x, box.lo[0] - MATCH_TOL):
                 np.searchsorted(x, box.hi[0] + MATCH_TOL, side="right")]
    return seg[box.contains(seg, tol=MATCH_TOL)]


def _first_rows(rows: np.ndarray):
    """Positions of the first occurrence of each distinct row, in lexicographic
    row order, and the number of occurrences of each."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    starts = np.flatnonzero(new)
    return order[starts], np.diff(np.append(starts, len(rows)))


def _pairs_within(points, anchors, r):
    """Index pairs (i, j) with i in ``anchors`` and Euclidean |points[j] - points[i]| <= r
    (1e-12 slack on r**2), anchor-major with j ascending."""
    ii, jj = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, j in kernels.strip_pairs(points[:, 0], anchors, -r, r):
        v = points[j] - points[i]
        keep = np.einsum("ij,ij->i", v, v) <= r * r + 1e-12
        ii.append(i[keep])
        jj.append(j[keep])
    return np.concatenate(ii), np.concatenate(jj)


def _lattice_keys(index: np.ndarray):
    """The int64 key ``(index - index.min(0)) @ stride`` of each index row,
    the strides and the column spans (see ``difference_set``)."""
    lo = index.min(axis=0) if len(index) else np.zeros(index.shape[1], dtype=np.int64)
    span = (index.max(axis=0) if len(index) else lo) - lo
    radix = [2 * int(s) + 1 for s in span]
    if math.prod(radix) >= 2**62:
        raise RegionTooLarge(f"index spans {span.tolist()} overflow the int64 difference key")
    stride = np.array([math.prod(radix[c + 1:]) for c in range(len(radix))], dtype=np.int64)
    return (index - lo) @ stride, stride, span


def difference_set(pset: IndexedPointSet, radius: float) -> IndexedPointSet:
    """All pairwise differences with Euclidean norm <= radius.

    Anchors are restricted to the region core at depth ``radius`` so every
    reported difference type is supported by a fully observed neighborhood.
    Scheme-backed input yields a scheme-backed difference patch (index and
    star columns are differenced too) with one row per distinct index
    difference.  Each lattice point gets one int64 key, ``index @ stride``
    shifted by the key of the column minima.  The strides are the mixed
    radix of ``2 * span + 1``, where ``span`` is the patch's range of each
    index column, with the last column varying fastest.  The key is linear,
    so a pair's difference has key ``key[j] - key[i]``; the distinct
    difference keys come from one sort and decode digit by digit back to
    index rows, in lexicographic index order.  A patch whose radix product
    reaches 2**62 raises RegionTooLarge, since its difference keys could
    overflow int64.  Raw input keeps the first difference in pair-scan
    order of each QUANT cell.  Either way the rows are then sorted by
    physical coordinates.
    """
    r = float(radius)
    core = pset.region.shrink(r)  # raises RegionTooSmall
    out_region = Box.centered(r, pset.dim)
    ii, jj = _pairs_within(pset.physical, np.flatnonzero(core.contains(pset.physical)), r)
    if pset.is_scheme_backed:
        key, stride, span = _lattice_keys(pset.index)
        dkey = np.sort(key[jj] - key[ii])
        new = np.ones(len(dkey), dtype=bool)
        new[1:] = dkey[1:] != dkey[:-1]
        didx = (dkey[new, None] + span @ stride) // stride % (2 * span + 1) - span
        phys, star = np.split(didx @ pset.scheme.basis.T, [pset.scheme.d], axis=1)
        return IndexedPointSet(phys, out_region, didx, star, pset.scheme)
    diffs = pset.physical[jj] - pset.physical[ii]
    first, _ = _first_rows(np.round(diffs / QUANT).astype(np.int64))
    return IndexedPointSet(diffs[first], out_region)


def packing_radius(pset: IndexedPointSet) -> float:
    """Half the minimum pairwise distance."""
    if len(pset) < 2:
        raise UndefinedStatistic("packing radius needs at least two points")
    if pset.dim == 1:
        gaps = np.diff(pset.positions_1d())
        return float(gaps.min()) / 2.0
    dist = (lambda v: np.hypot(*v)) if pset.dim == 2 else np.linalg.norm
    return _nearest_distance(pset.physical, dist) / 2.0


def _nearest_distance(points, dist=np.linalg.norm) -> float:
    """Least nonzero ``dist(p - q)`` over two of ``points``; inf if there is none.

    ``dist`` is a Euclidean length of one difference vector.  The least one
    is at most the distance from some point to its lexicographic successor,
    which bounds the pair scan; ``dist`` itself is evaluated only on the
    differences whose vectorized norm is within a relative 1e-9 of the least.
    """
    pts = points[np.lexsort(points.T[::-1])]
    step = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    bound = step[step > 0].min(initial=np.inf)
    if bound == np.inf:
        return np.inf
    ii, jj = _pairs_within(pts, np.arange(len(pts)), bound * (1 + 1e-9))
    diffs = pts[jj] - pts[ii]
    norm = np.linalg.norm(diffs, axis=1)
    keep = (jj > ii) & (norm > 0)
    near = keep & (norm <= norm[keep].min() * (1 + 1e-9))
    return min(float(dist(v)) for v in diffs[near])


@dataclass
class ClusterReport:
    radius: float
    clusters: list            # list of (offsets ndarray, multiplicity)
    anchor_count: int

    @property
    def count(self) -> int:
        return len(self.clusters)


def flc_clusters(pset: IndexedPointSet, radius: float, quant=QUANT) -> ClusterReport:
    """Distinct radius-R neighborhoods up to translation, with multiplicities.

    Two anchors share a cluster when their offset rows, in pair-scan order,
    agree after rounding to ``quant``; the offsets of the first such anchor
    represent the cluster.
    """
    r = float(radius)
    core = pset.region.shrink(r)
    anchors = np.flatnonzero(core.contains(pset.physical))
    ii, jj = _pairs_within(pset.physical, anchors, r)
    offs = pset.physical[jj] - pset.physical[ii]
    ends = np.searchsorted(ii, anchors, side="right")
    sizes = np.diff(ends, prepend=0)
    starts = ends - sizes
    # one key row per anchor: its offset count, then its quantized offsets, zero-padded
    keys = np.zeros((len(anchors), 1 + sizes.max(initial=0) * pset.dim), dtype=np.int64)
    keys[:, 0] = sizes
    owner = np.repeat(np.arange(len(anchors)), sizes)
    col = 1 + (np.arange(len(ii)) - starts[owner]) * pset.dim
    keys[owner[:, None], col[:, None] + np.arange(pset.dim)] = \
        np.round(offs / quant).astype(np.int64)
    first, mult = _first_rows(keys)
    clusters = sorted(((offs[starts[t]:ends[t]], int(m)) for t, m in zip(first, mult)),
                      key=lambda c: (-c[1], c[0].tobytes()))
    return ClusterReport(r, clusters, len(anchors))


@dataclass
class RepetitionReport:
    radius: float
    matches: np.ndarray       # (n, d) translations with exact patch match
    max_gap: float


def repetition_set(pset: IndexedPointSet, radius: float) -> RepetitionReport:
    """Translations t with (-t + P) agreeing with P on the centered radius box."""
    r = float(radius)
    ref_box = Box.centered(r, pset.dim)
    if not pset.region.covers(ref_box):
        raise RegionTooSmall("patch does not contain the reference box")
    ref_mask = pset.contains_mask(ref_box)
    if not np.any(ref_mask):
        raise UndefinedStatistic("reference patch is empty")
    ref_points = pset.physical[ref_mask]
    q0 = ref_points[np.argmin(np.linalg.norm(ref_points, axis=1))]
    # a matching translation must map q0 to another point of the patch
    ts = pset.physical - q0
    valid = Box(pset.region.lo - ref_box.lo, pset.region.hi - ref_box.hi)
    tmask = valid.contains(ts)
    ts = ts[tmask]
    matches = ts[_agrees_on(pset, ts, ref_box)]
    return RepetitionReport(r, matches, _coverage_gap(matches, valid))


def _coverage_gap(matches: np.ndarray, valid: Box) -> float:
    """Largest hole between matches: consecutive gap in 1d, grid covering radius else."""
    if len(matches) == 0:
        return float("inf")
    if valid.dim == 1:
        vals = np.sort(matches[:, 0])
        vals = np.concatenate([[valid.lo[0]], vals, [valid.hi[0]]])
        return float(np.diff(vals).max())
    return _grid_covering_radius(matches, valid, 33)


def _grid_covering_radius(points, box: Box, per_axis: int, norm_ord=None) -> float:
    """Covering radius of ``points`` over the ``per_axis``-per-axis probe grid on ``box``.

    Distances are ``np.linalg.norm(..., ord=norm_ord)``, over chunks of probes.
    """
    probes = np.stack(np.meshgrid(
        *[np.linspace(box.lo[i], box.hi[i], per_axis) for i in range(box.dim)],
        indexing="ij"), axis=-1).reshape(-1, box.dim)
    best = _by_chunks(lambda c: np.linalg.norm(c[:, None, :] - points[None, :, :], ord=norm_ord,
                                               axis=2).min(axis=1, initial=np.inf),
                      probes, len(points))
    return float(best.max())


def _by_chunks(fn, rows, n_points) -> np.ndarray:
    """``fn`` on chunks of ``rows`` that each meet ``n_points`` points in an
    array of about 2**20 entries, concatenated."""
    step = max(1, 2**20 // max(n_points, 1))
    return np.concatenate([np.empty(0, dtype=np.int64)]
                          + [fn(rows[s:s + step]) for s in range(0, len(rows), step)])


@dataclass
class FrequencyReport:
    offsets: np.ndarray
    anchors: np.ndarray
    box_volumes: np.ndarray
    counts: np.ndarray        # (n_anchor, n_box)
    freqs: np.ndarray         # counts / volume
    spread: float             # relative anchor spread at the largest box


def patch_frequency(pset: IndexedPointSet, offsets, boxes: Sequence[Box],
                    anchors) -> FrequencyReport:
    """Occurrence frequency of a finite motif inside anchored counting boxes."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=np.float64))
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    counts = np.zeros((len(anchors), len(boxes)), dtype=np.int64)
    base = pset.physical - offsets[0]
    present = np.ones(len(base), dtype=bool)
    for off in offsets[1:]:
        present &= match_index(pset.physical, base + off) >= 0
    ts = base[present]
    for ia, a in enumerate(anchors):
        for ib, box in enumerate(boxes):
            shifted = Box(box.lo + a, box.hi + a)
            if not pset.region.covers(shifted):
                raise RegionTooSmall(f"patch does not cover anchored box {shifted}")
            inside = np.ones(len(ts), dtype=bool)
            for off in offsets:
                inside &= shifted.contains(ts + off, tol=MATCH_TOL)
            counts[ia, ib] = int(np.count_nonzero(inside))
    vols = np.array([b.volume() for b in boxes])
    freqs = counts / vols
    last = freqs[:, -1]
    spread = 0.0 if last.mean() == 0 else float((last.max() - last.min()) / last.mean())
    return FrequencyReport(offsets, anchors, vols, counts, freqs, spread)


@dataclass
class PeriodReport:
    periods: np.ndarray       # (n, d) exact-match translations, 0 included
    scan_radius: float
    lattice_rank: int         # rank of the period sample (full rank => crystallographic)


def period_candidates(pset: IndexedPointSet, scan_radius=None) -> PeriodReport:
    """Translations that map the patch onto itself on the co-shrunk core."""
    span = pset.region.span().min()
    r = float(scan_radius) if scan_radius is not None else span / 4.0
    diffs = difference_set(pset, r)
    cands = diffs.physical
    found = []
    for t in cands:
        depth = float(np.max(np.abs(t)))
        try:
            core = pset.region.shrink(depth + 1e-9)
        except RegionTooSmall:
            continue
        if _agrees_on(pset, t, core)[0]:
            found.append(t)
    periods = np.array(found) if found else np.zeros((0, pset.dim))
    nonzero = periods[np.linalg.norm(periods, axis=1) > MATCH_TOL] if len(periods) else periods
    rank = 0 if len(nonzero) == 0 else int(np.linalg.matrix_rank(nonzero, tol=1e-6))
    return PeriodReport(periods, r, rank)


def lt_close(pset: IndexedPointSet, other: IndexedPointSet, match_radius: float,
             shift_radius: float):
    """Local-topology closeness: do P and Q agree on the centered match box
    after some shift v with |v| <= shift_radius?

    Returns (matched, v).  ``_shift_search`` minimizes (mismatches at
    tolerance max(step, MATCH_TOL), |v|); ``_snap`` then adds the mean offset
    of the nearest pairs within match_radius/10 in sup norm, unless that
    leaves the shift radius.  The verdict requires an exact match at
    tolerance MATCH_TOL.
    """
    box = Box.centered(match_radius, pset.dim)
    b = other.physical[other.contains_mask(box)]

    def moved(v):
        a = pset.physical + v
        return a[box.contains(a, tol=MATCH_TOL)]

    v = _shift_search(lambda v, step: (_symdiff_count(moved(v), b, max(step, MATCH_TOL)),
                                       np.linalg.norm(v)), pset.dim, shift_radius)
    pair_tol = match_radius / 10.0
    offsets = _nearest_offsets(moved(v), b, pair_tol)
    v = _snap(v, offsets[np.all(np.abs(offsets) <= pair_tol, axis=1)], np.mean, shift_radius)
    return _symdiff_count(moved(v), b, MATCH_TOL) == 0, v


def _symdiff_count(a, b, tol) -> int:
    """Size of the symmetric difference of ``a`` and ``b`` under matching at ``tol``."""
    return len(a) + len(b) - 2 * _distinct_matches(a, b, tol)


def _shift_search(key, dim, shift_radius):
    """Coarse-to-fine minimizer of ``key(v, step)`` over |v|_inf <= shift_radius.

    Three levels of the 21^dim grid of step shift_radius/10, /100 and /1000,
    each centred on the last winner; the centre, then the lexicographically
    first grid point, wins ties.
    """
    cells = np.indices((21,) * dim).reshape(dim, -1).T - 10
    v, step = np.zeros(dim), shift_radius / 10.0
    for _ in range(3):
        cands = v + cells * step
        cands = cands[np.max(np.abs(cands), axis=1) <= shift_radius + 1e-12]
        v = min([v, *cands], key=lambda c: key(c, step))
        step /= 10.0
    return v


def _nearest_offsets(a, b, reach) -> np.ndarray:
    """b[j] - a[i] for each a[i] with partners in the strip |b_x - a_x| <= reach:
    the Euclidean-nearest one, the first on ties.  ``b`` is sorted by x."""
    lo = np.searchsorted(b[:, 0], a[:, 0] - reach, side="left")
    hi = np.searchsorted(b[:, 0], a[:, 0] + reach, side="right")
    i, j = kernels.expand_ranges(lo, hi)
    offsets = b[j] - a[i]
    # a stable sort on (i, distance) puts each i's first nearest partner in front
    order = np.lexsort((np.linalg.norm(offsets, axis=1), i))
    _, first = np.unique(i[order], return_index=True)
    return offsets[order[first]]


def _snap(v, offsets, stat, shift_radius):
    """v + stat(offsets), or v when there are no offsets or that leaves the shift radius."""
    if len(offsets) == 0:
        return v
    snapped = v + stat(offsets, axis=0)
    return snapped if np.max(np.abs(snapped)) <= shift_radius + 1e-12 else v
