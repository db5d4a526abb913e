"""Empirical autocorrelation, the hull pseudo-metric and almost periods.

The coincidence density eta(delta) is estimated per averaging box as

    eta_n(delta) = card{x in P and A_n : x + delta in P} / vol(A_n),

and the pseudo-metric between translates is d(t) = 2*(eta(0) - eta(t)),
which equals the upper density of the symmetric difference of the translated
set with the original.  Upper densities are realized as the maximum over the
last quartile of the box sequence; that finite proxy is the declared stand-in
for a limit superior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EpsilonOutOfRange, NotInL, RegionTooSmall
from .pointset import (
    MATCH_TOL,
    QUANT,
    Box,
    IndexedPointSet,
    _coverage_gap,
    _distinct_matches,
    _pairs_within,
    difference_set,
    match_index,
)
from .scheme import LatticeScheme, lattice_points, resolve_index
from .window import ConvexPolygon, IntervalUnion

DEFAULT_BOX_SIZES = (125, 250, 500, 1000, 2000, 4000)


def default_boxes(sizes=DEFAULT_BOX_SIZES, dim=1, anchored=True):
    """Averaging boxes [0, n]^d (anchored) or [-n, n]^d (centered)."""
    out = []
    for n in sizes:
        if anchored:
            out.append(Box.make([0.0] * dim, [float(n)] * dim))
        else:
            out.append(Box.make([-float(n)] * dim, [float(n)] * dim))
    return out


def _tail_start(n_boxes: int) -> int:
    return n_boxes - max(1, math.ceil(n_boxes / 4))


@dataclass
class AutocorrelationTable:
    deltas: np.ndarray          # (K, d), symmetric, contains 0
    delta_index: np.ndarray | None
    eta: np.ndarray             # (K, n_boxes)
    eta0_by_box: np.ndarray
    boxes: list
    radius: float
    tol: float = MATCH_TOL

    @property
    def eta0(self) -> float:
        return float(self.eta0_by_box[-1])

    @property
    def n_boxes(self) -> int:
        return len(self.boxes)

    def d_values(self) -> np.ndarray:
        """Tail-max estimate of 2*(eta(0) - eta(delta)) per delta."""
        t0 = _tail_start(self.n_boxes)
        diffs = 2.0 * (self.eta0_by_box[None, t0:] - self.eta[:, t0:])
        return diffs.max(axis=1)

    def lookup(self, delta) -> int | None:
        q = np.atleast_1d(np.asarray(delta, dtype=np.float64))
        hits = np.flatnonzero(np.all(np.abs(self.deltas - q) <= self.tol, axis=1))
        return int(hits[0]) if len(hits) else None

    def d_of(self, delta) -> float:
        """Pseudo-metric value for one translation; 2*eta(0) if not a difference."""
        row = self.lookup(delta)
        if row is None:
            return 2.0 * self.eta0
        return float(self.d_values()[row])

    def to_json(self):
        dv = self.d_values()
        return [
            {"delta": self.deltas[i].tolist(),
             "eta_by_box": self.eta[i].tolist(),
             "d": float(dv[i])}
            for i in range(len(self.deltas))
        ]


def eta_table(pset: IndexedPointSet, radius: float, boxes) -> AutocorrelationTable:
    """Coincidence densities for every observed difference within ``radius``.

    The patch must be exhaustive on every box inflated by ``radius``.  The
    table is symmetrized by construction: counts are computed for canonical
    difference representatives and mirrored, so eta(delta) == eta(-delta)
    exactly.
    """
    for box in boxes:
        need = Box(box.lo - radius, box.hi + radius)
        if not pset.region.covers(need):
            raise RegionTooSmall(
                f"patch region {pset.region} does not cover box {box} inflated by {radius}")
    diffs = difference_set(pset, radius)
    return eta_table_for_deltas(pset, diffs.physical, boxes, radius,
                                delta_index=diffs.index, _covered=True)


def eta_table_for_deltas(pset: IndexedPointSet, deltas, boxes,
                         radius: float | None = None, delta_index=None,
                         _covered: bool = False) -> AutocorrelationTable:
    """Coincidence table for an explicit symmetric candidate list.

    For scheme-backed sets the candidates can be generated directly (the
    difference set lives inside the cut of the window difference), which
    avoids the quadratic pair scan for large radii.  Counting uses only
    nonnegative canonical representatives, so in dimension 1 the patch needs
    to cover each box extended by the radius on the positive side only.
    """
    deltas = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    if radius is None:
        radius = float(np.max(np.abs(deltas)))
    if not _covered:
        for box in boxes:
            if pset.dim == 1:
                need = Box(box.lo, box.hi + radius)
            else:
                need = Box(box.lo - radius, box.hi + radius)
            if not pset.region.covers(need):
                raise RegionTooSmall(
                    f"patch region {pset.region} does not cover box {box} "
                    f"extended by {radius}")
    canon, mirror = _canonical_pairs(deltas)
    counts = _eta_counts(pset, deltas[canon], boxes)
    vols = np.array([b.volume() for b in boxes])
    eta = np.empty((len(deltas), len(boxes)))
    eta[canon] = counts / vols
    if len(mirror):
        eta[mirror[:, 0]] = eta[mirror[:, 1]]
    zero_rows = np.flatnonzero(np.all(np.abs(deltas) <= MATCH_TOL, axis=1))
    if len(zero_rows) == 0:
        raise ValueError("candidate list must contain the zero translation")
    return AutocorrelationTable(deltas, delta_index, eta, eta[zero_rows[0]].copy(),
                                list(boxes), float(radius))


def _canonical_pairs(deltas: np.ndarray):
    """Indices of canonical representatives and (row, mirror-row) pairs.

    A row is canonical unless its first coordinate of size at least QUANT/2
    is negative and its negation is another row (within MATCH_TOL); such a
    row is paired with that mirror.
    """
    big = np.abs(deltas) >= QUANT / 2
    lead = deltas[np.arange(len(deltas)), np.argmax(big, axis=1)]
    negative = big.any(axis=1) & (lead < 0)
    rows = np.flatnonzero(negative)
    order = np.lexsort(deltas.T[::-1])
    j = match_index(deltas[order], -deltas[rows])
    partner = np.where(j >= 0, order[j], -1)
    paired = partner >= 0
    paired[paired] = ~negative[partner[paired]]
    negative[rows[~paired]] = False
    return np.flatnonzero(~negative), np.stack([rows[paired], partner[paired]], axis=1)


def _eta_counts(pset, deltas, boxes):
    """counts[i, j] = card{x in P and boxes[j] : x + deltas[i] in P}, from a pair histogram.

    One strip pair scan over the anchors of every box collects the pairs
    (x, y) of P whose difference lies in the bounding box of ``deltas``
    widened by 2*MATCH_TOL.  A binary search and a forward scan on the first
    coordinate of the lexsorted deltas give each pair its candidate rows
    (those within 2*MATCH_TOL of its difference there), and each candidate
    is decided by |y - (x + delta)|_inf <= MATCH_TOL, the test of
    ``match_index``.  A hit credits every box that holds its anchor, through
    one count per pattern of boxes.  Two partners of one (x, delta) lie
    within 2*MATCH_TOL of each other, so only the hits whose partner has such
    a neighbour are deduplicated; every count is exact.
    """
    pts = pset.physical
    cols = np.ascontiguousarray(pts.T)
    x = cols[0]
    n_d = len(deltas)
    in_box = np.array([pset.contains_mask(b) for b in boxes], dtype=bool)
    in_box = in_box.reshape(len(boxes), len(pts)).T
    # anchors in the same boxes share a pattern; hits are counted per (delta, pattern)
    patterns, pattern = np.unique(in_box, axis=0, return_inverse=True)
    pattern = pattern.reshape(-1)
    hist = np.zeros(n_d * len(patterns), dtype=np.int64)
    order = np.lexsort(deltas.T[::-1])
    srt = deltas[order]
    dcols = np.ascontiguousarray(srt.T)
    d0 = np.append(dcols[0], np.inf)  # the sentinel ends every forward scan
    # only a partner with another point within 2*MATCH_TOL can repeat a hit
    ii, jj = _pairs_within(pts, np.arange(len(pts)), 3 * MATCH_TOL * pset.dim)
    crowded = np.bincount(ii[ii != jj], minlength=len(pts)) > 0
    reach = 2 * MATCH_TOL
    lo, hi = srt.min(axis=0, initial=np.inf) - reach, srt.max(axis=0, initial=-np.inf) + reach
    anchors = np.flatnonzero(in_box.any(axis=1))
    for i, j in kernels.strip_pairs(x, anchors, lo[0], hi[0]):
        for c in range(1, pset.dim):
            v = cols[c][j] - cols[c][i]
            near = (v >= lo[c]) & (v <= hi[c])
            i, j = i[near], j[near]
        v0 = x[j] - x[i]
        # candidate rows [first, stop): a binary search, then a forward scan
        first = np.searchsorted(d0, v0 - reach)
        stop = first.copy()
        live = np.flatnonzero(d0[stop] <= v0 + reach)
        while len(live):
            stop[live] += 1
            live = live[d0[stop[live]] <= v0[live] + reach]
        p, k = kernels.expand_ranges(first, stop)
        i, j = i[p], j[p]
        hit = np.ones(len(k), dtype=bool)
        for col, dcol in zip(cols, dcols):
            hit &= np.abs(col[j] - (dcol[k] + col[i])) <= MATCH_TOL
        # drop repeat hits of one (x, delta); they need a crowded partner
        dup = np.flatnonzero(hit & crowded[j])
        if len(dup):
            _, once = np.unique(i[dup] * n_d + k[dup], return_index=True)
            hit[np.delete(dup, once)] = False
        np.add.at(hist, k[hit] * len(patterns) + pattern[i[hit]], 1)
    counts = np.empty((n_d, len(boxes)))
    counts[order] = hist.reshape(n_d, len(patterns)) @ patterns.astype(np.int64)
    return counts


def pairwise_d(table: AutocorrelationTable, t, s=0) -> float:
    """Hull pseudo-metric between the t- and s-translates: 2*(eta(0)-eta(t-s))."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    return table.d_of(t - s)


@dataclass
class SymdiffReport:
    per_box: np.ndarray
    boxes: list

    @property
    def upper(self) -> float:
        return float(self.per_box[_tail_start(len(self.boxes)):].max())


def symdiff_density(pset: IndexedPointSet, other: IndexedPointSet, boxes) -> SymdiffReport:
    """Per-box density of the symmetric difference, with a tail-max upper value."""
    vals = []
    for box in boxes:
        if not (pset.region.covers(box) and other.region.covers(box)):
            raise RegionTooSmall(f"both patches must cover box {box}")
        a = pset.physical[pset.contains_mask(box)]
        b = other.physical[other.contains_mask(box)]
        m = _distinct_matches(a, b, MATCH_TOL)
        vals.append((len(a) + len(b) - 2 * m) / box.volume())
    return SymdiffReport(np.asarray(vals), list(boxes))


@dataclass
class AlmostPeriods:
    eps: float
    members: np.ndarray        # (n, d) translations with d(t) < eps
    d_values: np.ndarray
    max_gap: float
    scan_radius: float

    def to_rows(self):
        order = np.lexsort(self.members.T[::-1])
        return [
            {"delta": self.members[i].tolist(), "d": float(self.d_values[i])}
            for i in order
        ]


def almost_periods(table: AutocorrelationTable, eps: float,
                   scan_radius: float | None = None) -> AlmostPeriods:
    """All observed differences closer than eps in the hull pseudo-metric.

    Valid for 0 < eps < 2*eta(0); beyond that threshold every translation
    qualifies and the notion is vacuous.  The gap diagnostic is the largest
    spacing between consecutive members (dimension 1; scan-range ends act as
    sentinels) or the grid covering radius (dimension 2).
    """
    if not 0.0 < eps < 2.0 * table.eta0:
        raise EpsilonOutOfRange(
            f"eps must lie in (0, {2 * table.eta0:.6g}), got {eps:.6g}")
    r = float(scan_radius) if scan_radius is not None else table.radius
    dv = table.d_values()
    inside = np.max(np.abs(table.deltas), axis=1) <= r + MATCH_TOL
    sel = np.flatnonzero((dv < eps) & inside)
    members = table.deltas[sel]
    half = np.full(table.deltas.shape[1], r)
    gaps = _coverage_gap(members, Box(-half, half))
    return AlmostPeriods(float(eps), members, dv[sel], gaps, r)


def predicted_d(scheme: LatticeScheme, window, t=None, index=None) -> float:
    """Geometric prediction of d(t + set, set) for a lattice translation t.

    Equals lattice density times the measure of (t* + W) symmetric-difference
    W; computed from window geometry alone.  ``t`` is resolved to its lattice
    index (raising NotInL if it is not a projection), or the index may be
    passed directly.
    """
    if index is None:
        if t is None:
            raise ValueError("need t or index")
        wlo, whi = window.bbox()
        span = float(np.max(whi - wlo))
        index = resolve_index(scheme, t,
                              star_lo=wlo - 2 * span, star_hi=whi + 2 * span)
    index = np.asarray(index, dtype=np.int64)
    star = scheme.star_of([index])[0]
    if isinstance(window, IntervalUnion):
        shifted = window.translate(float(star[0]))
        inter = window.intersect(shifted)
        overlap = 0.0 if inter is None else inter.measure()
        sym = 2.0 * (window.measure() - overlap)
    elif isinstance(window, ConvexPolygon):
        overlap = _convex_overlap_area(window.vertices, window.vertices + star)
        sym = 2.0 * (window.measure() - overlap)
    else:
        raise NotInL("predicted_d needs an interval or polygon window")
    return scheme.lattice_density * sym


def _convex_overlap_area(subject: np.ndarray, clip: np.ndarray) -> float:
    """Area of the intersection of two convex polygons (half-plane clipping)."""
    poly = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        a = clip[i]
        b = clip[(i + 1) % n]
        if not poly:
            return 0.0
        nx, ny = a[1] - b[1], b[0] - a[0]   # inward normal for CCW clip edge
        offset = nx * a[0] + ny * a[1]
        new_poly = []
        for j, p in enumerate(poly):
            q = poly[(j + 1) % len(poly)]
            dp = nx * p[0] + ny * p[1] - offset
            dq = nx * q[0] + ny * q[1] - offset
            if dp >= -1e-12:
                new_poly.append(p)
            if (dp < -1e-12 < dq) or (dq < -1e-12 < dp):
                t = dp / (dp - dq)
                new_poly.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = new_poly
    if len(poly) < 3:
        return 0.0
    arr = np.asarray(poly)
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def mact_close(pset: IndexedPointSet, other: IndexedPointSet, shift_radius: float,
               eps: float, boxes, levels: int = 3):
    """Statistical closeness up to a small shift.

    Searches shifts v (coarse-to-fine grid of step shift_radius/10, then a
    snap to the mean offset of paired near-coincident points) minimizing the
    upper symmetric-difference density of (v + P) against Q.  Returns
    (closer_than_eps, v, value).
    """
    dim = pset.dim
    best_v = np.zeros(dim)
    best = _shifted_symdiff(pset, other, best_v, boxes)
    step = shift_radius / 10.0
    cells = lattice_points(np.eye(dim), [-10] * dim, [10] * dim)
    center = best_v.copy()
    for _ in range(levels):
        offsets = cells * step
        for off in offsets:
            v = center + off
            if np.max(np.abs(v)) > shift_radius + 1e-12:
                continue
            val = _shifted_symdiff(pset, other, v, boxes)
            if val < best:
                best, best_v = val, v
        center = best_v.copy()
        step /= 10.0
    snapped = _snap_to_pairs(pset, other, best_v, boxes[-1])
    if snapped is not None and np.max(np.abs(snapped)) <= shift_radius + 1e-12:
        val = _shifted_symdiff(pset, other, snapped, boxes)
        if val < best:
            best, best_v = val, snapped
    return bool(best <= eps), best_v, float(best)


def _shifted_symdiff(pset, other, v, boxes) -> float:
    moved = pset.translate(v)
    usable = [b for b in boxes
              if moved.region.covers(b) and other.region.covers(b)]
    if not usable:
        raise RegionTooSmall("no box fits both patches after the shift")
    return symdiff_density(moved, other, usable).upper


def _snap_to_pairs(pset, other, v, box):
    moved = pset.physical + v
    sel = Box(box.lo, box.hi).contains(moved)
    a = moved[sel]
    b = other.physical[other.contains_mask(box)]
    if len(a) == 0 or len(b) == 0:
        return None
    bx = b[:, 0]
    pair_tol = 0.2
    deltas = []
    for p in a:
        lo = np.searchsorted(bx, p[0] - pair_tol, side="left")
        hi = np.searchsorted(bx, p[0] + pair_tol, side="right")
        if hi > lo:
            cand = b[lo:hi]
            j = np.argmin(np.linalg.norm(cand - p, axis=1))
            deltas.append(cand[j] - p)
    if not deltas:
        return None
    return v + np.median(np.asarray(deltas), axis=0)
