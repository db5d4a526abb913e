"""Compact acceptance windows in internal space.

Two shape classes are supported: unions of intervals (internal dimension 1)
and convex polygons (dimension 2).  Every window is the closure of its
interior and carries an explicit boundary policy: per-endpoint closedness
flags for intervals, a single ``boundary_included`` flag for polygons.

Each class has one membership rule, ``classify_array``: interior, boundary
or exterior.  It decides an (n, m) array of float stars, on the rim within a
tolerance, or one star of exact quadratic-field coordinates on a window with
exact endpoints or vertices, on the rim only when exactly on it.  Cut
enumeration, the singular-fibre scan and the scalar
``classify``/``accepts``/``endpoint_hits`` all use it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import UnsupportedShape
from .exactmath import QuadExact

DEFAULT_TOL = 1e-9


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def _region_of(masks):
    """The Region of the first star of classify_array's (interior, boundary) masks."""
    interior, boundary = masks
    return Region.INTERIOR if interior[0] else (
        Region.BOUNDARY if boundary[0] else Region.EXTERIOR)


def _exact_or_float(value):
    return value if isinstance(value, QuadExact) else None


def _exact_star(stars):
    """The coordinates of one exact star (a QuadExact or a tuple of them), else None."""
    star = stars if isinstance(stars, tuple) else (stars,)
    return star if star and all(isinstance(x, QuadExact) for x in star) else None


@dataclass(frozen=True)
class Interval:
    """One interval component with endpoint closedness flags."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True
    lo_exact: QuadExact | None = None
    hi_exact: QuadExact | None = None

    def length(self):
        return self.hi - self.lo


def make_interval(lo, hi, lo_closed=True, hi_closed=True) -> Interval:
    """Build an interval from floats, Fractions or QuadExact endpoints."""
    lo_exact = _exact_or_float(lo)
    hi_exact = _exact_or_float(hi)
    return Interval(float(lo), float(hi), bool(lo_closed), bool(hi_closed),
                    lo_exact, hi_exact)


class IntervalUnion:
    """Finite union of disjoint intervals, sorted by left endpoint."""

    dim = 1

    def __init__(self, components: Iterable[Interval], tol: float = DEFAULT_TOL):
        comps = sorted(components, key=lambda c: c.lo)
        if not comps:
            raise ValueError("window must be nonempty")
        for c in comps:
            if not c.lo < c.hi:
                raise ValueError(f"degenerate interval [{c.lo}, {c.hi}]")
        for a, b in zip(comps, comps[1:]):
            if b.lo < a.hi - tol:
                raise ValueError("interval components must be disjoint")
        self.components = tuple(comps)
        self.tol = float(tol)

    # -- basic geometry ------------------------------------------------------
    def measure(self) -> float:
        return float(sum(c.length() for c in self.components))

    def bbox(self):
        return (np.array([self.components[0].lo]),
                np.array([self.components[-1].hi]))

    def is_exact(self) -> bool:
        return all(c.lo_exact is not None and c.hi_exact is not None
                   for c in self.components)

    # -- membership ------------------------------------------------------------
    def _rule(self, stars, tol):
        """Per component: masks of the stars near lo, near hi and strictly inside.

        One exact star (a QuadExact or a 1-tuple of one) on an exact window is
        near an endpoint only when equal to it.
        """
        star = _exact_star(stars)
        if star is not None and self.is_exact():
            h, = star
            return [(np.array([h == c.lo_exact]), np.array([h == c.hi_exact]),
                     np.array([c.lo_exact < h < c.hi_exact])) for c in self.components]
        x = np.asarray(stars, dtype=np.float64).reshape(-1)
        t = self.tol if tol is None else tol
        return [(np.abs(x - c.lo) <= t, np.abs(x - c.hi) <= t, (c.lo < x) & (x < c.hi))
                for c in self.components]

    def classify_array(self, stars, tol=None):
        """Masks (interior, boundary) of an (n, 1) star array; a star in neither is exterior.

        The first component that is near or contains a star decides it.
        """
        interior = boundary = False
        for near_lo, near_hi, inside in reversed(self._rule(stars, tol)):
            near = near_lo | near_hi
            free = ~(near | inside)
            boundary = near | (boundary & free)
            interior = (inside & ~near) | (interior & free)
        return interior, boundary

    def boundary_hits(self, stars, tol=None):
        """(row, component, 'lo'|'hi') per star within tol of an endpoint, in that order."""
        rule = self._rule(stars, tol)
        rows, cols = np.nonzero(np.stack([m for lo, hi, _ in rule for m in (lo, hi)], axis=1))
        return [(r, k // 2, ("lo", "hi")[k % 2]) for r, k in zip(rows.tolist(), cols.tolist())]

    def classify(self, h, tol=None) -> Region:
        """Interior / boundary / exterior, ignoring closedness flags."""
        return _region_of(self.classify_array(h, tol))

    def accepts(self, h, tol=None) -> bool:
        """Membership honoring the per-endpoint closedness flags.

        A component claims the star when it is strictly inside and near
        neither end, or near a closed end; the star is a member when any does.
        """
        return any(bool((inside & ~(near_lo | near_hi) | (near_lo & c.lo_closed)
                         | (near_hi & c.hi_closed))[0])
                   for c, (near_lo, near_hi, inside) in zip(self.components, self._rule(h, tol)))

    def endpoint_hits(self, h, tol=None):
        """All (component index, 'lo'|'hi') endpoints near h."""
        return [(c, side) for _, c, side in self.boundary_hits(h, tol)]

    def boundary_distance(self, h) -> float:
        """Signed distance to the boundary; negative strictly inside."""
        x = float(h)
        d_edge = min(abs(x - e) for c in self.components for e in (c.lo, c.hi))
        return d_edge if _region_of(self.classify_array(x, 0.0)) is Region.EXTERIOR else -d_edge

    # -- set operations --------------------------------------------------------
    def translate(self, t):
        t_exact = _exact_or_float(t)
        tf = float(t)
        comps = []
        for c in self.components:
            lo_e = c.lo_exact + t_exact if (c.lo_exact is not None and t_exact is not None) else None
            hi_e = c.hi_exact + t_exact if (c.hi_exact is not None and t_exact is not None) else None
            comps.append(Interval(c.lo + tf, c.hi + tf, c.lo_closed, c.hi_closed,
                                  lo_e, hi_e))
        return IntervalUnion(comps, self.tol)

    def reflect(self):
        comps = []
        for c in self.components:
            comps.append(Interval(-c.hi, -c.lo, c.hi_closed, c.lo_closed,
                                  -c.hi_exact if c.hi_exact is not None else None,
                                  -c.lo_exact if c.lo_exact is not None else None))
        return IntervalUnion(comps, self.tol)

    def intersect(self, other: "IntervalUnion"):
        """Intersection as an IntervalUnion, or None when empty."""
        comps = []
        for a in self.components:
            for b in other.components:
                lo, lo_closed = max((a.lo, a.lo_closed), (b.lo, b.lo_closed),
                                    key=lambda p: (p[0], not p[1]))
                hi, hi_closed = min((a.hi, a.hi_closed), (b.hi, b.hi_closed),
                                    key=lambda p: (p[0], p[1]))
                if lo < hi - self.tol:
                    comps.append(Interval(lo, hi, lo_closed, hi_closed))
        if not comps:
            return None
        return IntervalUnion(comps, self.tol)

    def minkowski_difference(self):
        """The difference set W - W with exact endpoint bookkeeping."""
        raw = []
        for a in self.components:
            for b in self.components:
                lo = a.lo - b.hi
                hi = a.hi - b.lo
                lo_e = (a.lo_exact - b.hi_exact
                        if a.lo_exact is not None and b.hi_exact is not None else None)
                hi_e = (a.hi_exact - b.lo_exact
                        if a.hi_exact is not None and b.lo_exact is not None else None)
                raw.append(Interval(lo, hi, a.lo_closed and b.hi_closed,
                                    a.hi_closed and b.lo_closed, lo_e, hi_e))
        raw.sort(key=lambda c: (c.lo, c.hi))
        merged = [raw[0]]
        for c in raw[1:]:
            last = merged[-1]
            touching = c.lo < last.hi - self.tol or (
                abs(c.lo - last.hi) <= self.tol and (c.lo_closed or last.hi_closed))
            if touching:
                if c.hi > last.hi:
                    merged[-1] = Interval(last.lo, c.hi, last.lo_closed, c.hi_closed,
                                          last.lo_exact, c.hi_exact)
                elif abs(c.hi - last.hi) <= self.tol and c.hi_closed and not last.hi_closed:
                    merged[-1] = Interval(last.lo, last.hi, last.lo_closed, True,
                                          last.lo_exact, last.hi_exact)
            else:
                merged.append(c)
        return IntervalUnion(merged, self.tol)

    # -- serialization ----------------------------------------------------------
    def to_json(self):
        return {
            "type": "intervals",
            "components": [
                {"lo": c.lo, "hi": c.hi,
                 "lo_closed": c.lo_closed, "hi_closed": c.hi_closed}
                for c in self.components
            ],
        }

    def __repr__(self):
        parts = []
        for c in self.components:
            parts.append(f"{'[' if c.lo_closed else '('}{c.lo:g}, {c.hi:g}"
                         f"{']' if c.hi_closed else ')'}")
        return "IntervalUnion(" + " u ".join(parts) + ")"


class ConvexPolygon:
    """Convex polygon window with a single boundary-inclusion flag."""

    dim = 2

    def __init__(self, vertices: Sequence[Sequence[float]],
                 boundary_included: bool = True, tol: float = DEFAULT_TOL,
                 exact_vertices=None):
        verts = np.asarray([[float(x) for x in v] for v in vertices], dtype=np.float64)
        if verts.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices")
        area2 = _signed_area2(verts)
        if area2 < 0:
            verts = verts[::-1]
            if exact_vertices is not None:
                exact_vertices = tuple(reversed(tuple(exact_vertices)))
            area2 = -area2
        if area2 <= tol:
            raise ValueError("polygon is degenerate (zero area)")
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross < -tol:
                raise UnsupportedShape("non-convex polygon windows are not supported")
        self.vertices = verts
        # counter-clockwise edge vectors, their lengths and outward unit normals
        self.edges = np.roll(verts, -1, axis=0) - verts
        self.edge_lengths = np.hypot(self.edges[:, 0], self.edges[:, 1])
        self.normals = (np.stack([self.edges[:, 1], -self.edges[:, 0]], axis=1)
                        / self.edge_lengths[:, None])
        self.exact_vertices = tuple(exact_vertices) if exact_vertices is not None else None
        self.boundary_included = bool(boundary_included)
        self.tol = float(tol)

    def measure(self) -> float:
        return 0.5 * _signed_area2(self.vertices)

    def bbox(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def is_exact(self) -> bool:
        return self.exact_vertices is not None

    def classify_array(self, stars, tol=None):
        """Masks (interior, boundary) of an (n, 2) star array; a star in neither is exterior.

        They compare the least signed distance to the edge lines with tol.
        One exact star (a 2-tuple of QuadExact) on an exact polygon is
        decided by the least exact edge cross product: > 0 interior, == 0
        boundary.
        """
        star = _exact_star(stars)
        if star is not None and self.is_exact():
            hx, hy = star
            ring = zip(self.exact_vertices, self.exact_vertices[1:] + self.exact_vertices[:1])
            least = min((bx - ax) * (hy - ay) - (by - ay) * (hx - ax)
                        for (ax, ay), (bx, by) in ring)
            return np.array([least > 0]), np.array([least == 0])
        stars = np.asarray(stars, dtype=np.float64).reshape(-1, 2)
        t = self.tol if tol is None else tol
        margin = np.full(len(stars), np.inf)
        for (ax, ay), (ex, ey), elen in zip(self.vertices, self.edges, self.edge_lengths):
            np.minimum(margin, (ex * (stars[:, 1] - ay) - ey * (stars[:, 0] - ax)) / elen,
                       out=margin)
        return margin > t, np.abs(margin) <= t

    def boundary_hits(self, stars, tol=None):
        """(row, 0, 'edge') for every star within tol of the rim, by row."""
        _, boundary = self.classify_array(stars, tol)
        return [(r, 0, "edge") for r in np.flatnonzero(boundary).tolist()]

    def classify(self, h, tol=None) -> Region:
        return _region_of(self.classify_array(h, tol))

    def accepts(self, h, tol=None) -> bool:
        interior, boundary = self.classify_array(h, tol)
        return bool(interior[0] or (boundary[0] and self.boundary_included))

    def boundary_distance(self, h) -> float:
        p = np.asarray([float(x) for x in h], dtype=np.float64)
        d_edge = min(_point_segment_distance(p, a, b) for a, b
                     in zip(self.vertices, np.roll(self.vertices, -1, axis=0)))
        return d_edge if _region_of(self.classify_array(p, 0.0)) is Region.EXTERIOR else -d_edge

    def translate(self, t):
        t = np.asarray(t, dtype=np.float64)
        return ConvexPolygon(self.vertices + t, self.boundary_included, self.tol)

    def reflect(self):
        return ConvexPolygon(-self.vertices, self.boundary_included, self.tol)

    def minkowski_difference(self):
        """Central symmetrization W + (-W) as a convex polygon."""
        summed = _convex_minkowski_sum(self.vertices, -self.vertices)
        return ConvexPolygon(summed, self.boundary_included, self.tol)

    def to_json(self):
        return {
            "type": "polygon",
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
            "closed": self.boundary_included,
        }

    def __repr__(self):
        return f"ConvexPolygon({len(self.vertices)} vertices, area={self.measure():.6g})"


def _signed_area2(verts) -> float:
    x = verts[:, 0]
    y = verts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    proj = a + t * ab
    return float(math.hypot(*(p - proj)))


def _convex_minkowski_sum(pv, qv):
    """Vertices of P + Q for convex P, Q (edge-vector merge)."""
    def ccw_order(verts):
        verts = np.asarray(verts, dtype=np.float64)
        if _signed_area2(verts) < 0:
            verts = verts[::-1]
        start = np.lexsort((verts[:, 0], verts[:, 1]))[0]
        return np.roll(verts, -start, axis=0)

    p = ccw_order(pv)
    q = ccw_order(qv)
    np_, nq = len(p), len(q)
    result = []
    i = j = 0
    cur = p[0] + q[0]
    result.append(cur.copy())
    while i < np_ or j < nq:
        ep = p[(i + 1) % np_] - p[i % np_]
        eq = q[(j + 1) % nq] - q[j % nq]
        if j >= nq:
            step = ep; i += 1
        elif i >= np_:
            step = eq; j += 1
        else:
            cross = ep[0] * eq[1] - ep[1] * eq[0]
            if cross > 0:
                step = ep; i += 1
            elif cross < 0:
                step = eq; j += 1
            else:
                step = ep + eq; i += 1; j += 1
        cur = cur + step
        result.append(cur.copy())
    verts = np.array(result[:-1])
    # drop collinear repeats
    keep = []
    n = len(verts)
    for t in range(n):
        a, b, c = verts[t - 1], verts[t], verts[(t + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(cross) > 1e-12 or np.any(np.abs(b - a) > 1e-12):
            keep.append(t)
    return verts[keep]


def stabilizer_check(window, candidates, tol=None, wrap_period=None):
    """Translations t among the candidates with t + W = W.

    For a compact window in Euclidean internal space the only possible
    stabilizer is 0; a nonzero entry in the result flags an invalid window.
    ``wrap_period`` (1d only) compares modulo a period, which models an
    idealized periodic shape for diagnostic fixtures.
    """
    tol = (window.tol if tol is None else tol)
    found = []
    cands = list(candidates)
    if not any(_is_zero_shift(c) for c in cands):
        cands.insert(0, 0.0 if window.dim == 1 else (0.0, 0.0))
    for t in cands:
        if _translate_equal(window, t, tol, wrap_period):
            found.append(t)
    return found


def _is_zero_shift(t):
    if isinstance(t, (int, float)):
        return float(t) == 0.0
    return all(float(x) == 0.0 for x in t)


def _translate_equal(window, t, tol, wrap_period):
    if window.dim == 1:
        shifted = window.translate(float(t))
        if wrap_period is not None:
            a = _wrap_components(shifted, wrap_period, tol)
            b = _wrap_components(window, wrap_period, tol)
        else:
            a = [(c.lo, c.hi) for c in shifted.components]
            b = [(c.lo, c.hi) for c in window.components]
        if len(a) != len(b):
            return False
        return all(abs(x0 - y0) <= tol and abs(x1 - y1) <= tol
                   for (x0, x1), (y0, y1) in zip(a, b))
    shifted = window.translate(np.asarray(t, dtype=np.float64))
    va = np.array(sorted(map(tuple, shifted.vertices)))
    vb = np.array(sorted(map(tuple, window.vertices)))
    return va.shape == vb.shape and bool(np.all(np.abs(va - vb) <= tol))


def _wrap_components(union, period, tol):
    """Interval list wrapped into [0, period), split at the seam and merged."""
    p = float(period)
    pieces = []
    for c in union.components:
        lo = c.lo % p
        hi = lo + c.length()
        if hi <= p + tol:
            pieces.append((lo, min(hi, p)))
        else:
            pieces.append((lo, p))
            pieces.append((0.0, hi - p))
    pieces.sort()
    merged = [list(pieces[0])]
    for lo, hi in pieces[1:]:
        if lo <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # merge across the seam 0 == period
    if len(merged) > 1 and merged[0][0] <= tol and merged[-1][1] >= p - tol:
        merged[0][0] = merged[-1][0] - p
        merged.pop()
    return [tuple(m) for m in merged]


def window_from_json(obj, tol: float = DEFAULT_TOL):
    """Parse the window wire format; returns None for a trivial (m=0) window."""
    if obj is None:
        return None
    kind = obj.get("type")
    if kind == "intervals":
        comps = [
            Interval(float(c["lo"]), float(c["hi"]),
                     bool(c.get("lo_closed", True)), bool(c.get("hi_closed", True)))
            for c in obj["components"]
        ]
        return IntervalUnion(comps, tol)
    if kind == "polygon":
        return ConvexPolygon(obj["vertices"], bool(obj.get("closed", True)), tol)
    if kind == "full":
        return None
    raise ValueError(f"unknown window type {kind!r}")
