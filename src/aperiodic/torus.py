"""The compact parameter torus of a scheme and its fiber analysis.

A torus point is stored as fractional coordinates with respect to the
lattice basis, canonically reduced to [0, 1).  The internal offset of a
torus point determines the translated window; lattice stars landing exactly
on its boundary make the fiber singular, and in internal dimension 1 the
fiber then consists of the two one-sided window limits, which differ exactly
in the boundary-hit points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .autocorr import AutocorrelationTable
from .errors import (
    InsufficientData,
    NotSchemeBacked,
    UnsupportedDimension,
)
from .exactmath import QuadExact
from .pointset import MATCH_TOL, Box, IndexedPointSet, _agrees_on
from .scheme import LatticeScheme, enumerate_cut
from .window import ConvexPolygon, Interval, IntervalUnion, Region


@dataclass(frozen=True)
class TorusPoint:
    """Element of the quotient torus, as fractional lattice coordinates in [0,1)."""

    frac: np.ndarray
    scheme: LatticeScheme
    exact_frac: tuple | None = None   # Fractions, when exactness is wanted

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        if other.scheme is not self.scheme:
            raise ValueError("torus points belong to different schemes")
        if self.exact_frac is not None and other.exact_frac is not None:
            ex = tuple((a + b) % 1 for a, b in zip(self.exact_frac, other.exact_frac))
            return torus_point_from_frac(self.scheme, ex)
        return torus_point_from_frac(self.scheme, (self.frac + other.frac) % 1.0)

    def representative(self) -> np.ndarray:
        """The point basis . frac in the fundamental cell."""
        return self.scheme.basis @ self.frac

    def physical_offset(self) -> np.ndarray:
        return self.representative()[: self.scheme.d]

    def internal_offset(self) -> np.ndarray:
        return self.representative()[self.scheme.d:]

    def internal_exact(self):
        """Exact internal offset, or None when not available."""
        if self.exact_frac is None or not self.scheme.is_exact:
            return None
        out = []
        for i in range(self.scheme.d, self.scheme.k):
            acc = QuadExact(0, 0, self.scheme.radicand)
            for j, f in enumerate(self.exact_frac):
                acc = acc + self.scheme.basis_exact[i][j] * QuadExact(f, 0, self.scheme.radicand)
            out.append(acc)
        return tuple(out)

    def to_json(self):
        return {"frac": self.frac.tolist()}


def torus_point_from_frac(scheme: LatticeScheme, frac) -> TorusPoint:
    vals = list(frac)
    if all(isinstance(v, (int, Fraction)) for v in vals):
        ex = tuple(Fraction(v) % 1 for v in vals)
        return TorusPoint(np.array([float(v) for v in ex]), scheme, ex)
    arr = np.asarray([float(v) for v in vals], dtype=np.float64) % 1.0
    return TorusPoint(arr, scheme, None)


def embed_translation(scheme: LatticeScheme, t) -> TorusPoint:
    """Image of a physical translation t on the torus: solve basis.c = (t, 0)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    target = np.concatenate([t, np.zeros(scheme.m)])
    return torus_point_from_frac(scheme, scheme.basis_inverse @ target)


def beta_of_cut(scheme: LatticeScheme, x, h) -> TorusPoint:
    """Torus parameter of the cut at physical offset x and window offset h.

    Every point set squeezed between the open- and closed-window cuts at
    (x, h) maps to this same torus point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    h = np.atleast_1d(np.asarray(h, dtype=np.float64)) if scheme.m else np.zeros(0)
    return torus_point_from_frac(scheme, scheme.basis_inverse @ np.concatenate([x, h]))


def torus_distance(a: TorusPoint, b: TorusPoint) -> float:
    """Distance on the torus via the nearest of the adjacent lattice representatives."""
    scheme = a.scheme
    diff = a.frac - b.frac
    shifts = np.stack(np.meshgrid(*[(-1.0, 0.0, 1.0)] * scheme.k, indexing="ij"),
                      axis=-1).reshape(-1, scheme.k)
    vecs = (diff[None, :] + shifts) @ scheme.basis.T
    return float(np.min(np.linalg.norm(vecs, axis=1)))


@dataclass(frozen=True)
class BoundaryHit:
    index: tuple
    component: int
    side: str        # 'lo' | 'hi' for intervals, 'edge' for polygons
    star: np.ndarray


def singularity_test(scheme: LatticeScheme, window, torus_point: TorusPoint,
                     radius: float, band: float | None = None):
    """Lattice points near the origin whose star lies on the shifted window rim.

    Scans physical radius ``radius``; returns one BoundaryHit per offending
    lattice index (empty list == the fiber over this torus point is a
    singleton).  In quadratic mode with exact window data, candidate hits
    found by a float prefilter are confirmed by exact arithmetic; otherwise
    membership within ``band`` (default: the scheme tolerance) decides.
    """
    if scheme.m == 0:
        return []
    h = torus_point.internal_offset()
    h_exact = torus_point.internal_exact()
    exact_confirm = band is None and h_exact is not None and window.is_exact()
    if band is not None:
        prefilter = float(band)       # widened rim: the fat-boundary fixture
    elif exact_confirm:
        prefilter = 1e-6              # float prefilter before exact resolution
    else:
        prefilter = scheme.tol
    if scheme.d == 1 and scheme.m == 1 and isinstance(window, IntervalUnion):
        hits = _strip_hits_1d(scheme, window, float(h[0]), radius, prefilter)
    else:
        hits = _generic_hits(scheme, window, h, radius, prefilter)
    if not exact_confirm:
        return hits
    confirmed = []
    for hit in hits:
        star_ex = scheme.star_exact(hit.index)
        if window.dim == 1:
            target = star_ex[0] + h_exact[0]
            comp = window.components[hit.component]
            edge = comp.lo_exact if hit.side == "lo" else comp.hi_exact
            if target == edge:
                confirmed.append(hit)
        else:
            shifted = tuple(s + hh for s, hh in zip(star_ex, h_exact))
            if window.classify(shifted) is Region.BOUNDARY:
                confirmed.append(hit)
    return confirmed


def _strip_hits_1d(scheme, window, h, radius, band):
    """Solve star(n) ~ endpoint - h along thin strips instead of scanning a box."""
    p1, p2 = scheme.basis[0]
    s1, s2 = scheme.basis[1]
    hits = []
    seen = set()
    for ci, comp in enumerate(window.components):
        for side, edge in (("lo", comp.lo), ("hi", comp.hi)):
            e = edge - h
            ends = []
            for xr in (-radius, radius):
                ends.append(scheme.basis_inverse @ np.array([xr, e]))
            ends = np.array(ends)
            axis = int(np.argmax(np.abs(ends[1] - ends[0])))
            other = 1 - axis
            coeff = (s1, s2)
            if abs(coeff[other]) < 1e-14:
                continue
            lo_ax = int(np.floor(ends[:, axis].min())) - 1
            hi_ax = int(np.ceil(ends[:, axis].max())) + 1
            vals = np.arange(lo_ax, hi_ax + 1)
            others = np.round((e - coeff[axis] * vals) / coeff[other]).astype(np.int64)
            n = np.empty((len(vals), 2), dtype=np.int64)
            n[:, axis] = vals
            n[:, other] = others
            stars = n[:, 0] * s1 + n[:, 1] * s2
            phys = n[:, 0] * p1 + n[:, 1] * p2
            ok = (np.abs(stars - e) <= band) & (np.abs(phys) <= radius + 1e-9)
            for row in n[ok]:
                key = (int(row[0]), int(row[1]), ci, side)
                if key not in seen:
                    seen.add(key)
                    hits.append(BoundaryHit((int(row[0]), int(row[1])), ci, side,
                                            np.array([row[0] * s1 + row[1] * s2])))
    return hits


def _generic_hits(scheme, window, h, radius, band):
    region = Box.centered(radius, scheme.d)
    shifted = window.translate(-float(h[0]) if window.dim == 1 else -np.asarray(h))
    widened = _inflate_window(shifted, band)
    patch = enumerate_cut(scheme, widened, region)
    hits = []
    for i in range(len(patch)):
        star = patch.star[i]
        if window.dim == 1:
            marks = shifted.endpoint_hits(star[0], tol=band)
            for ci, side in marks:
                hits.append(BoundaryHit(tuple(patch.index[i]), ci, side, star))
        else:
            if shifted.classify(star, tol=band) is Region.BOUNDARY:
                hits.append(BoundaryHit(tuple(patch.index[i]), 0, "edge", star))
    return hits


def _inflate_window(window, pad):
    if window.dim == 1:
        comps = [Interval(c.lo - pad, c.hi + pad, True, True)
                 for c in window.components]
        return IntervalUnion(comps, window.tol)
    center = window.vertices.mean(axis=0)
    shifted = window.vertices - center
    scale = 1.0 + pad / max(1e-9, np.min(np.linalg.norm(shifted, axis=1)))
    return ConvexPolygon(center + shifted * scale, True, window.tol)


@dataclass
class FiberReport:
    members: list                 # IndexedPointSet, 1 or 2 entries
    hits: list                    # BoundaryHit records
    multiple_orbits: bool         # more than one distinct boundary point was hit
    torus_point: TorusPoint

    @property
    def singular(self) -> bool:
        return len(self.members) > 1

    def to_json(self):
        return {
            "torus_point": self.torus_point.to_json(),
            "singular": self.singular,
            "multiple_orbits": self.multiple_orbits,
            "hit_indices": [list(h.index) for h in self.hits],
            "member_sizes": [len(m) for m in self.members],
            "symmetric_difference": [list(h.index) for h in self.hits],
        }


def fiber_enumerate(scheme: LatticeScheme, window, torus_point: TorusPoint,
                    radius: float) -> FiberReport:
    """The distinct point sets over one torus point, on a centered patch.

    Non-singular points give exactly the closed cut.  When stars hit the
    shifted window boundary, the two one-sided internal limits are realized
    by toggling the endpoint policy: the upper limit keeps hits on upper
    endpoints, the lower limit keeps hits on lower endpoints, and their
    symmetric difference is exactly the hit set.
    """
    if scheme.m == 0:
        region = Box.centered(radius, scheme.d)
        member = enumerate_cut(scheme, None, region)
        x = torus_point.physical_offset()
        shifted = IndexedPointSet(member.physical + x, Box(region.lo + x, region.hi + x),
                                  member.index, member.star, scheme)
        return FiberReport([shifted], [], False, torus_point)
    if scheme.m != 1:
        raise UnsupportedDimension("fiber enumeration is implemented for internal dimension 1")
    hits = singularity_test(scheme, window, torus_point, radius)
    x = float(torus_point.physical_offset()[0]) if scheme.d == 1 else \
        torus_point.physical_offset()
    h = float(torus_point.internal_offset()[0])
    shifted_window = window.translate(-h)
    closed = IntervalUnion(
        [Interval(c.lo, c.hi, True, True, c.lo_exact, c.hi_exact)
         for c in shifted_window.components], shifted_window.tol)
    region = Box.make(np.atleast_1d(-radius) - np.atleast_1d(x),
                      np.atleast_1d(radius) - np.atleast_1d(x))
    patch = enumerate_cut(scheme, closed, region)
    out_region = Box.centered(radius, scheme.d)

    def as_member(keep_mask):
        return IndexedPointSet(patch.physical[keep_mask] + x, out_region,
                               patch.index[keep_mask], patch.star[keep_mask], scheme)

    if not hits:
        return FiberReport([as_member(np.ones(len(patch), dtype=bool))],
                           [], False, torus_point)
    hit_ids = {h_.index: h_.side for h_ in hits}
    sides = np.array([hit_ids.get(tuple(row), "") for row in patch.index])
    keep_upper = (sides == "") | (sides == "hi")
    keep_lower = (sides == "") | (sides == "lo")
    distinct_stars = {tuple(np.round(h_.star, 9)) for h_ in hits}
    return FiberReport([as_member(keep_upper), as_member(keep_lower)],
                       hits, len(distinct_stars) > 1, torus_point)


@dataclass
class ReconstructionReport:
    estimate: object
    n_points: int
    split_threshold: float | None
    contains_origin: bool
    hausdorff: float | None


def reconstruct_window(pset: IndexedPointSet, split_threshold: float | None = None,
                       truth=None) -> ReconstructionReport:
    """Window estimate from observed star images: the closure of the star set.

    Internal dimension 1 gives an interval union (components split where the
    consecutive star gap exceeds the threshold, default 5x the largest
    nearest-neighbor gap); dimension 2 gives the convex hull, which assumes a
    convex true window.
    """
    if not pset.is_scheme_backed or pset.star is None:
        raise NotSchemeBacked("window reconstruction needs star coordinates")
    m = pset.star.shape[1]
    origin = bool(np.any(np.all(np.abs(pset.physical) <= MATCH_TOL, axis=1)))
    if m == 1:
        if len(pset) < 2:
            raise InsufficientData("need at least two star images")
        stars = np.sort(pset.star[:, 0])
        gaps = np.diff(stars)
        nn = np.minimum(gaps[1:], gaps[:-1])
        nn = np.concatenate([[gaps[0]], nn, [gaps[-1]]])
        thr = split_threshold if split_threshold is not None else 5.0 * float(nn.max())
        cut_at = np.flatnonzero(gaps > thr)
        comps = []
        start = 0
        for c in cut_at:
            comps.append(Interval(float(stars[start]), float(stars[c]), True, True))
            start = c + 1
        comps.append(Interval(float(stars[start]), float(stars[-1]), True, True))
        est = IntervalUnion(comps)
        hd = interval_union_hausdorff(est, truth) if truth is not None else None
        return ReconstructionReport(est, len(pset), thr, origin, hd)
    if m == 2:
        if len(pset) < 3:
            raise InsufficientData("need at least three star images")
        hull = _convex_hull(pset.star)
        est = ConvexPolygon(hull)
        hd = _polygon_hausdorff(est, truth) if truth is not None else None
        return ReconstructionReport(est, len(pset), None, origin, hd)
    raise UnsupportedDimension("window reconstruction supports internal dimension 1 or 2")


def interval_union_hausdorff(a: IntervalUnion, b: IntervalUnion) -> float:
    """Exact Hausdorff distance between two closed interval unions."""
    return max(_directed_interval_hausdorff(a, b),
               _directed_interval_hausdorff(b, a))


def _directed_interval_hausdorff(a: IntervalUnion, b: IntervalUnion) -> float:
    def dist_to_b(x):
        best = np.inf
        for c in b.components:
            if c.lo <= x <= c.hi:
                return 0.0
            best = min(best, abs(x - c.lo), abs(x - c.hi))
        return best

    candidates = []
    for c in a.components:
        candidates.extend((c.lo, c.hi))
    for u, v in zip(b.components, b.components[1:]):
        mid = 0.5 * (u.hi + v.lo)
        if any(c.lo <= mid <= c.hi for c in a.components):
            candidates.append(mid)
    return max(dist_to_b(x) for x in candidates)


def _polygon_hausdorff(a: ConvexPolygon, b: ConvexPolygon, samples=256) -> float:
    """Hausdorff distance between two convex polygons via boundary sampling.

    For convex sets the Hausdorff distance is attained on the boundaries, so
    sampled rim points with the exact point-to-polygon distance give a tight
    estimate (exact up to the sampling step along edges).
    """
    def boundary_points(poly):
        verts = poly.vertices
        pts = []
        n = len(verts)
        per_edge = max(2, samples // n)
        for i in range(n):
            p, q = verts[i], verts[(i + 1) % n]
            for t in np.linspace(0.0, 1.0, per_edge, endpoint=False):
                pts.append(p + t * (q - p))
        return np.asarray(pts)

    def directed(pts, poly):
        # distance from a point to the closed polygon: 0 inside, rim distance outside
        return max(max(poly.boundary_distance(p), 0.0) for p in pts)

    pa, pb = boundary_points(a), boundary_points(b)
    return max(directed(pa, b), directed(pb, a))


def _convex_hull(points: np.ndarray) -> np.ndarray:
    pts = np.unique(points, axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if len(pts) <= 2:
        return pts

    def half(iterable):
        out = []
        for p in iterable:
            while len(out) >= 2:
                o, a_ = out[-2], out[-1]
                if (a_[0] - o[0]) * (p[1] - o[1]) - (a_[1] - o[1]) * (p[0] - o[0]) <= 1e-14:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


@dataclass
class ContinuityReport:
    patch_radius: float
    eps: float
    witness_count: int
    checked: int
    min_failing_d: float | None


def continuity_epsilon(pset: IndexedPointSet, table: AutocorrelationTable,
                       patch_radii, cap_ratio: float = 0.999) -> dict:
    """Largest pseudo-metric threshold whose almost periods are exact patch periods.

    For each patch radius M, every observed difference t with d(t) below the
    returned eps satisfies (t + P) == P on the centered box of radius M, and
    at least one nonzero such t exists (without a witness the threshold is
    reported as 0, which is the diagnostic for sets with no almost periods).
    Sets where every translation matches return the cap just below 2*eta(0).
    """
    results = {}
    cap = cap_ratio * 2.0 * table.eta0
    dv = table.d_values()
    for M in patch_radii:
        t_max = float(min(np.min(pset.region.hi) - M, -np.max(pset.region.lo) - M))
        if t_max <= 0:
            raise InsufficientData(f"patch too small for radius {M}")
        norms = np.max(np.abs(table.deltas), axis=1)
        usable = np.flatnonzero((norms > MATCH_TOL) & (norms <= t_max))
        ok = _agrees_on(pset, table.deltas[usable], Box.centered(M, pset.dim))
        fail_d = dv[usable[~ok]]
        min_fail = float(fail_d.min()) if len(fail_d) else None
        threshold = cap if min_fail is None else min(min_fail, cap)
        witnesses = int(np.count_nonzero(ok & (dv[usable] < threshold)))
        eps = threshold if witnesses > 0 else 0.0
        results[M] = ContinuityReport(float(M), float(eps), witnesses,
                                      len(usable), min_fail)
    return results
