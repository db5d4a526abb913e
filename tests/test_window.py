import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aperiodic.errors import UnsupportedShape
from aperiodic.exactmath import QuadExact
from aperiodic.window import (
    ConvexPolygon,
    Interval,
    IntervalUnion,
    Region,
    make_interval,
    stabilizer_check,
    window_from_json,
)


def unit():
    return IntervalUnion([Interval(0.0, 1.0)])


def two_piece():
    return IntervalUnion([Interval(0.0, 1.0, True, False),
                          Interval(2.0, 2.5, True, True)])


def square():
    return ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestMeasure:
    def test_unit_interval(self):
        assert unit().measure() == 1.0

    def test_unit_square(self):
        assert square().measure() == pytest.approx(1.0)

    def test_union_additive(self):
        u = IntervalUnion([Interval(0.0, 1.0, True, False), Interval(2.0, 2.5)])
        assert u.measure() == pytest.approx(1.5)

    def test_translation_invariance(self):
        u = two_piece()
        assert u.translate(3.7).measure() == pytest.approx(u.measure())


class TestClassify:
    def test_midpoint_interior(self):
        assert unit().classify(0.5) is Region.INTERIOR

    def test_endpoint_boundary(self):
        assert unit().classify(0.0) is Region.BOUNDARY
        assert unit().classify(1.0) is Region.BOUNDARY

    def test_outside(self):
        assert unit().classify(7.0) is Region.EXTERIOR

    def test_accepts_respects_flags(self):
        u = IntervalUnion([Interval(0.0, 1.0, False, True)])
        assert not u.accepts(0.0)
        assert u.accepts(1.0)
        assert u.accepts(0.5)

    def test_exact_membership(self):
        lo = QuadExact(0, 0, 5)
        hi = QuadExact(Fraction(1, 2), Fraction(1, 2), 5)
        u = IntervalUnion([Interval(float(lo), float(hi), False, True, lo, hi)])
        assert u.classify(hi) is Region.BOUNDARY
        assert u.accepts(hi)
        assert not u.accepts(lo)
        inside = QuadExact(1, 0, 5)
        assert u.classify(inside) is Region.INTERIOR

    def test_polygon_classify(self):
        sq = square()
        assert sq.classify((0.5, 0.5)) is Region.INTERIOR
        assert sq.classify((0.0, 0.5)) is Region.BOUNDARY
        assert sq.classify((2.0, 0.5)) is Region.EXTERIOR

    def test_polygon_exact_classify(self):
        from aperiodic.schemes import ammann_beenker_window
        w = ammann_beenker_window()
        z = QuadExact(0, 0, 2)
        assert w.classify((z, z)) is Region.INTERIOR
        vx = w.exact_vertices[0]
        assert w.classify(vx) is Region.BOUNDARY
        far = (QuadExact(5, 0, 2), z)
        assert w.classify(far) is Region.EXTERIOR


class TestBoundaryDistance:
    def test_center(self):
        u = IntervalUnion([Interval(0.0, 2.0)])
        assert u.boundary_distance(1.0) == pytest.approx(-1.0)

    def test_outside(self):
        u = IntervalUnion([Interval(0.0, 2.0)])
        assert u.boundary_distance(3.0) == pytest.approx(1.0)

    def test_on_edge(self):
        u = IntervalUnion([Interval(0.0, 2.0)])
        assert u.boundary_distance(0.0) == pytest.approx(0.0)

    def test_polygon(self):
        sq = square()
        assert sq.boundary_distance((0.5, 0.5)) == pytest.approx(-0.5)
        assert sq.boundary_distance((2.0, 0.5)) == pytest.approx(1.0)

    @given(st.floats(min_value=-3, max_value=4, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_consistency_with_classify(self, h):
        u = two_piece()
        region = u.classify(h)
        d = u.boundary_distance(h)
        if region is Region.INTERIOR:
            assert d < -u.tol
        elif region is Region.EXTERIOR:
            assert d > u.tol


class TestMinkowskiDifference:
    def test_unit_interval(self):
        diff = unit().minkowski_difference()
        assert len(diff.components) == 1
        c = diff.components[0]
        assert (c.lo, c.hi) == (-1.0, 1.0)

    def test_sample_oracle(self):
        w = two_piece()
        diff = w.minkowski_difference()
        rng = np.random.Generator(np.random.PCG64(3))
        # every sampled difference of members must be accepted
        for _ in range(300):
            a, b = rng.uniform(0, 2.5, 2)
            if w.accepts(a) and w.accepts(b):
                assert diff.accepts(a - b)
        # and accepted points must be approximated by member differences
        grid = np.linspace(diff.components[0].lo, diff.components[-1].hi, 200)
        members = np.array([x for x in np.linspace(-0.5, 3.0, 4000) if w.accepts(x)])
        diffs = np.sort((members[None, :] - members[:, None]).ravel())
        for g in grid:
            if diff.classify(g) is Region.INTERIOR:
                # the nearest member difference is a neighbour of g in sorted order
                j = np.searchsorted(diffs, g)
                near = diffs[[max(j - 1, 0), min(j, len(diffs) - 1)]]
                assert np.min(np.abs(near - g)) < 5e-3

    def test_symmetric_and_contains_zero(self):
        diff = two_piece().minkowski_difference()
        assert diff.classify(0.0) is Region.INTERIOR
        for c in diff.components:
            assert any(abs(-c.hi - c2.lo) < 1e-12 and abs(-c.lo - c2.hi) < 1e-12
                       for c2 in diff.components)

    def test_measure_dominates(self):
        w = two_piece()
        assert w.minkowski_difference().measure() >= w.measure()

    def test_open_touch_points_not_merged(self):
        w = IntervalUnion([Interval(0.0, 1.0, True, False),
                           Interval(2.0, 3.0, True, False)])
        diff = w.minkowski_difference()
        # differences cannot produce exactly +-1 here, so three pieces remain
        assert len(diff.components) == 3
        assert not diff.accepts(1.0)
        assert not diff.accepts(-1.0)

    def test_polygon_symmetrization(self):
        sq = square()
        diff = sq.minkowski_difference()
        assert diff.measure() == pytest.approx(4.0)
        assert diff.classify((0.0, 0.0)) is Region.INTERIOR

    def test_nonconvex_rejected(self):
        with pytest.raises(UnsupportedShape):
            ConvexPolygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])


class TestStabilizer:
    def test_interval_trivial(self):
        u = unit()
        out = stabilizer_check(u, [0.0, 0.3])
        assert [t for t in out] == [0.0]

    def test_zero_implicitly_added(self):
        assert stabilizer_check(unit(), []) == [0.0]

    def test_wrap_period_fixture_flags_translation(self):
        # idealized periodic shape: [0, .4] u [1, 1.4] repeated with period 2
        w = IntervalUnion([Interval(0.0, 0.4), Interval(1.0, 1.4)])
        out = stabilizer_check(w, [1.0, 0.5], wrap_period=2.0)
        assert 1.0 in out and 0.5 not in out

    def test_polygon_trivial(self):
        out = stabilizer_check(square(), [(0.0, 0.0), (0.5, 0.5)])
        assert len(out) == 1


class TestIntersectAndJson:
    def test_intersect(self):
        a = IntervalUnion([Interval(0.0, 2.0)])
        b = IntervalUnion([Interval(1.0, 3.0)])
        inter = a.intersect(b)
        assert inter.measure() == pytest.approx(1.0)
        assert a.intersect(IntervalUnion([Interval(5.0, 6.0)])) is None

    def test_json_roundtrip_intervals(self):
        w = two_piece()
        w2 = window_from_json(w.to_json())
        assert [c.lo for c in w2.components] == [c.lo for c in w.components]
        assert [c.hi_closed for c in w2.components] == [c.hi_closed for c in w.components]

    def test_json_roundtrip_polygon(self):
        w = square()
        w2 = window_from_json(w.to_json())
        assert w2.measure() == pytest.approx(w.measure())

    def test_json_full_window(self):
        assert window_from_json({"type": "full"}) is None
        assert window_from_json(None) is None


class TestValidation:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion([Interval(1.0, 1.0)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion([Interval(0.0, 2.0), Interval(1.0, 3.0)])

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (1, 1), (2, 2)])

    def test_make_interval_exact(self):
        lo = QuadExact(0, 0, 5)
        hi = QuadExact(1, 0, 5)
        iv = make_interval(lo, hi, False, True)
        assert iv.lo_exact is lo and iv.hi == 1.0


# -- the float rule against the per-point loops it replaced ---------------------
# Copies of the scalar float loops of IntervalUnion.classify/accepts/
# endpoint_hits/boundary_distance and ConvexPolygon.classify/boundary_distance,
# and of the vectorized polygon loop of scheme._window_accept, as they were
# before the array rule.

def old_interval_classify(w, x, t):
    for c in w.components:
        if abs(x - c.lo) <= t or abs(x - c.hi) <= t:
            return Region.BOUNDARY
        if c.lo < x < c.hi:
            return Region.INTERIOR
    return Region.EXTERIOR


def old_interval_accepts(w, x, t):
    for c in w.components:
        if abs(x - c.lo) <= t:
            return c.lo_closed
        if abs(x - c.hi) <= t:
            return c.hi_closed
        if c.lo < x < c.hi:
            return True
    return False


def any_component_accepts(w, x, t):
    """Membership as the rule states it: some component claims the star, by
    holding it strictly inside and away from both ends, or near a closed end."""
    return any(abs(x - c.lo) <= t and c.lo_closed or abs(x - c.hi) <= t and c.hi_closed
               or c.lo < x < c.hi and abs(x - c.lo) > t and abs(x - c.hi) > t
               for c in w.components)


def separated(w, t):
    """Components longer than 2 tol and more than 2 tol apart: no star is near two
    endpoints, and there the first component that claims a star is the only one."""
    margin = 2 * t + 1e-12
    return (all(c.hi - c.lo > margin for c in w.components)
            and all(b.lo - a.hi > margin for a, b in zip(w.components, w.components[1:])))


def old_endpoint_hits(w, x, t):
    hits = []
    for i, c in enumerate(w.components):
        if abs(x - c.lo) <= t:
            hits.append((i, "lo"))
        if abs(x - c.hi) <= t:
            hits.append((i, "hi"))
    return hits


def old_interval_boundary_distance(w, x):
    endpoints = [e for c in w.components for e in (c.lo, c.hi)]
    d_edge = min(abs(x - e) for e in endpoints)
    inside = any(c.lo <= x <= c.hi for c in w.components)
    return -d_edge if inside else d_edge


def old_polygon_classify(poly, p, t):
    verts = poly.vertices
    n = len(verts)
    min_signed = math.inf
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        e = b - a
        elen = math.hypot(e[0], e[1])
        signed = (e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])) / elen
        min_signed = min(min_signed, signed)
    if min_signed > t:
        return Region.INTERIOR
    if min_signed < -t:
        return Region.EXTERIOR
    return Region.BOUNDARY


def old_polygon_margin(poly, star):
    verts = poly.vertices
    n = len(verts)
    min_signed = np.full(len(star), np.inf)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        e = b - a
        elen = np.hypot(*e)
        signed = (e[0] * (star[:, 1] - a[1]) - e[1] * (star[:, 0] - a[0])) / elen
        min_signed = np.minimum(min_signed, signed)
    return min_signed


def old_polygon_boundary_distance(poly, p):
    from aperiodic.window import _point_segment_distance
    verts = poly.vertices
    n = len(verts)
    d_edge = math.inf
    inside = True
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        d_edge = min(d_edge, _point_segment_distance(p, a, b))
        e = b - a
        if e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0]) < 0:
            inside = False
    return -d_edge if inside else d_edge


CODE = {Region.INTERIOR: 1, Region.BOUNDARY: 0, Region.EXTERIOR: -1}
TOLS = [0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.3]


@st.composite
def interval_unions(draw):
    """1-4 components, some touching (gap 0), with random closedness flags."""
    lo = draw(st.floats(-3, 3))
    comps = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.floats(1e-3, 2))
        flags = draw(st.tuples(st.booleans(), st.booleans()))
        comps.append(Interval(lo, lo + length, *flags))
        lo = lo + length + draw(st.sampled_from([0.0, 1e-9, 0.01]) | st.floats(0, 1))
    return IntervalUnion(comps)


def rim_stars(edges, t, draw):
    """Points at, exactly tol off, and one ulp around tol off the given edges."""
    out = []
    for e in edges:
        for x in (e, e - t, e + t):
            out += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    return out + draw(st.lists(st.floats(-5, 10), max_size=10))


class TestArrayRuleIntervals:
    @given(interval_unions(), st.sampled_from(TOLS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_loops(self, w, t, data):
        edges = [e for c in w.components for e in (c.lo, c.hi)]
        stars = rim_stars(edges, t, data.draw)
        interior, boundary = w.classify_array(np.array(stars)[:, None], t)
        assert not (interior & boundary).any()
        codes = np.where(boundary, 0, np.where(interior, 1, -1))
        expected_hits = []
        for r, x in enumerate(stars):
            region = old_interval_classify(w, x, t)
            assert codes[r] == CODE[region]
            assert w.classify(x, t) is region
            assert w.accepts(x, t) == any_component_accepts(w, x, t)
            if separated(w, t):
                assert w.accepts(x, t) == old_interval_accepts(w, x, t)
            assert w.endpoint_hits(x, t) == old_endpoint_hits(w, x, t)
            assert w.boundary_distance(x) == old_interval_boundary_distance(w, x)
            expected_hits += [(r, c, side) for c, side in old_endpoint_hits(w, x, t)]
        assert w.boundary_hits(np.array(stars)[:, None], t) == expected_hits

    def test_overlap_within_tol_first_component_decides(self):
        # components may overlap by less than the construction tolerance; the
        # first component that claims a star decides its region, as the loops
        # did, and it is a member when any component claims it
        w = IntervalUnion([Interval(0.0, 1.0, True, False),
                           Interval(1.0 - 5e-10, 2.0, False, True)])
        for x in (1.0 - 5e-10, 1.0 - 2e-10, 1.0):
            assert w.accepts(x, 1e-11) == any_component_accepts(w, x, 1e-11)
            assert w.classify(x, 1e-11) is old_interval_classify(w, x, 1e-11)


@st.composite
def convex_polygons(draw):
    """3-8 points on a circle, mapped by a random orientation-preserving affine map."""
    n = draw(st.integers(3, 8))
    angles = sorted(draw(st.lists(st.floats(0, 2 * np.pi, exclude_max=True),
                                  min_size=n, max_size=n, unique=True)))
    gaps = np.diff(angles + [angles[0] + 2 * np.pi])
    if gaps.min() < 0.05 or gaps.max() > np.pi - 0.05:
        angles = list(np.linspace(0, 2 * np.pi, n, endpoint=False) + angles[0])
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    sx, sy = draw(st.floats(0.2, 3)), draw(st.floats(0.2, 3))
    shear = draw(st.floats(-1, 1))
    shift = np.array([draw(st.floats(-2, 2)), draw(st.floats(-2, 2))])
    verts = circle @ np.array([[sx, 0.0], [shear, sy]]) + shift
    return ConvexPolygon(verts, draw(st.booleans()))


class TestArrayRulePolygons:
    @given(convex_polygons(), st.sampled_from(TOLS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_window_accept_and_scalar_loops(self, poly, t, data):
        verts = poly.vertices
        mids = (verts + np.roll(verts, -1, axis=0)) / 2
        stars = [v for v in verts] + [v + s * t * nrm for v, nrm in zip(mids, poly.normals)
                                      for s in (-1.0, 0.0, 1.0)]
        lo, hi = poly.bbox()
        stars += [lo - 0.5 + (hi - lo + 1.0) * np.array(data.draw(st.tuples(
            st.floats(0, 1), st.floats(0, 1)))) for _ in range(8)]
        stars = np.array(stars)
        margin = old_polygon_margin(poly, stars)
        expected = np.where(margin > t, 1, np.where(margin < -t, -1, 0))
        interior, boundary = poly.classify_array(stars, t)
        codes = np.where(boundary, 0, np.where(interior, 1, -1))
        assert np.array_equal(codes, expected)
        assert poly.boundary_hits(stars, t) == [(r, 0, "edge")
                                                for r in np.flatnonzero(expected == 0)]
        # the scalar loop used math.hypot, which differs from np.hypot in the
        # last bit on some edges; where they agree the results must too
        edges = np.roll(verts, -1, axis=0) - verts
        same_hypot = all(math.hypot(*e) == np.hypot(*e) for e in edges)
        for r, p in enumerate(stars):
            region = poly.classify(p, t)
            assert CODE[region] == codes[r]
            assert poly.accepts(p, t) == (region is Region.INTERIOR or (
                region is Region.BOUNDARY and poly.boundary_included))
            assert poly.boundary_distance(p) == old_polygon_boundary_distance(poly, p)
            if same_hypot:
                assert region is old_polygon_classify(poly, p, t)

    def test_vertices_are_boundary(self):
        sq = square()
        assert sq.classify_array(sq.vertices, 0.0)[1].all()
        assert sq.classify_array([(1e-9, 0.5), (-1e-9, 0.5)], 1e-9)[1].all()


def test_traced_methods_live_on_their_classes():
    # perfbench/tracer.py replaces these by class (vars(cls)[name]); a shared
    # base class holding accepts would make every traced run raise KeyError
    from aperiodic.scheme import LatticeScheme
    assert "accepts" in vars(IntervalUnion)
    assert "accepts" in vars(ConvexPolygon)
    assert "star_exact" in vars(LatticeScheme)


# -- the exact rule against the loops it replaced ------------------------------
# Copies of the exact branches of IntervalUnion.classify/accepts/endpoint_hits,
# of ConvexPolygon._classify_exact, of LatticeScheme.lift_exact and of
# TorusPoint.internal_exact, as they were before the one rule per class.

def old_exact_classify(w, h):
    for c in w.components:
        if h == c.lo_exact or h == c.hi_exact:
            return Region.BOUNDARY
        if c.lo_exact < h < c.hi_exact:
            return Region.INTERIOR
    return Region.EXTERIOR


def old_exact_accepts(w, h):
    for c in w.components:
        if c.lo_exact < h < c.hi_exact:
            return True
        if h == c.lo_exact and c.lo_closed:
            return True
        if h == c.hi_exact and c.hi_closed:
            return True
    return False


def old_exact_endpoint_hits(w, h):
    hits = []
    for i, c in enumerate(w.components):
        if h == c.lo_exact:
            hits.append((i, "lo"))
        if h == c.hi_exact:
            hits.append((i, "hi"))
    return hits


def old_classify_exact(poly, h):
    hx, hy = h
    n = len(poly.exact_vertices)
    on_edge = False
    for i in range(n):
        ax, ay = poly.exact_vertices[i]
        bx, by = poly.exact_vertices[(i + 1) % n]
        cross = (bx - ax) * (hy - ay) - (by - ay) * (hx - ax)
        s = cross.sign()
        if s < 0:
            return Region.EXTERIOR
        if s == 0:
            on_edge = True
    return Region.BOUNDARY if on_edge else Region.INTERIOR


def old_lift_exact(scheme, index):
    out = []
    for row in scheme.basis_exact:
        acc = QuadExact(0, 0, scheme.radicand)
        for entry, n in zip(row, index):
            acc = acc + entry * int(n)
        out.append(acc)
    return tuple(out)


def old_internal_exact(scheme, exact_frac):
    out = []
    for i in range(scheme.d, scheme.k):
        acc = QuadExact(0, 0, scheme.radicand)
        for j, f in enumerate(exact_frac):
            acc = acc + scheme.basis_exact[i][j] * QuadExact(f, 0, scheme.radicand)
        out.append(acc)
    return tuple(out)


def exact_bits(values):
    """Rational parts, radicand and the integer types behind them."""
    return [(q.a, q.b, q.D, type(q.a.numerator), type(q.b.numerator)) for q in values]


RATIONALS = st.fractions(-3, 3, max_denominator=6)


def quads(D):
    return st.builds(QuadExact, RATIONALS, RATIONALS, st.just(D))


def steps(draw, D):
    """One rational step, sometimes times sqrt(D)."""
    q = Fraction(1, draw(st.integers(1, 10**6)))
    return draw(st.sampled_from([QuadExact(q, 0, D), QuadExact(0, q, D)]))


@st.composite
def exact_interval_unions(draw):
    """Q(sqrt 5) or Q(sqrt 2) endpoints, some components touching, random flags."""
    D = draw(st.sampled_from([2, 5]))
    values = []
    for v in sorted(draw(st.lists(quads(D), min_size=2, max_size=8)), key=float):
        if not values or float(v) - float(values[-1]) > 1e-6:
            values.append(v)
    assume(len(values) >= 2)
    comps, i = [], 0
    while i + 1 < len(values):
        comps.append(make_interval(values[i], values[i + 1], draw(st.booleans()),
                                   draw(st.booleans())))
        i += draw(st.sampled_from([1, 2]))
    return IntervalUnion(comps), D


@st.composite
def exact_polygons(draw):
    """The float convex hull of 3-6 random Q(sqrt D)^2 points, with exact vertices."""
    D = draw(st.sampled_from([2, 5]))
    pts = draw(st.lists(st.tuples(quads(D), quads(D)), min_size=3, max_size=6))
    pts.sort(key=lambda p: (float(p[0]), float(p[1])))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = [(float(x), float(y)) for x, y in out[-2:]]
                if (ax - ox) * (float(p[1]) - oy) - (ay - oy) * (float(p[0]) - ox) > 1e-6:
                    break
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    assume(len(hull) >= 3)
    verts = [(float(x), float(y)) for x, y in hull]
    return ConvexPolygon(verts, draw(st.booleans()), exact_vertices=hull), D


class TestExactRule:
    @given(exact_interval_unions(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_intervals_match_exact_loops(self, case, data):
        w, D = case
        stars = []
        for c in w.components:
            for e in (c.lo_exact, c.hi_exact):
                step = steps(data.draw, D)
                stars += [e, e + step, e - step]
        stars += data.draw(st.lists(quads(D), max_size=5))
        for h in stars:
            region = old_exact_classify(w, h)
            for star in (h, (h,)):
                assert w.classify(star) is region
                assert w.accepts(star) == old_exact_accepts(w, h)
                assert w.endpoint_hits(star) == old_exact_endpoint_hits(w, h)
                assert w.boundary_hits(star, 0.0) == [
                    (0, c, side) for c, side in old_exact_endpoint_hits(w, h)]

    @given(exact_polygons(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_polygons_match_exact_loop(self, case, data):
        poly, D = case
        ring = list(zip(poly.exact_vertices,
                        poly.exact_vertices[1:] + poly.exact_vertices[:1]))
        half = Fraction(1, 2)
        stars = []
        for (ax, ay), (bx, by) in ring:
            for x, y in ((ax, ay), ((ax + bx) * half, (ay + by) * half)):
                step = steps(data.draw, D)
                stars += [(x, y), (x + step, y), (x, y - step)]
        stars += data.draw(st.lists(st.tuples(quads(D), quads(D)), max_size=3))
        for h in stars:
            region = old_classify_exact(poly, h)
            assert poly.classify(h) is region
            assert poly.accepts(h) == (region is Region.INTERIOR or (
                region is Region.BOUNDARY and poly.boundary_included))
            assert poly.boundary_hits(h, 0.0) == ([(0, 0, "edge")]
                                                  if region is Region.BOUNDARY else [])

    @pytest.mark.parametrize("name", ["fibonacci", "silver", "ammann_beenker"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_star_exact_matches_lift_and_internal_exact(self, name, data):
        from aperiodic.schemes import named_scheme
        from aperiodic.torus import torus_point_from_frac
        scheme, _ = named_scheme(name)
        index = np.array(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=scheme.k,
                                            max_size=scheme.k)), dtype=np.int64)
        assert exact_bits(scheme.star_exact(index)) == exact_bits(
            old_lift_exact(scheme, index)[scheme.d:])
        frac = tuple(data.draw(st.lists(st.fractions(0, 1, max_denominator=10**6),
                                        min_size=scheme.k, max_size=scheme.k)))
        tp = torus_point_from_frac(scheme, frac)
        expected = exact_bits(old_internal_exact(scheme, tp.exact_frac))
        assert exact_bits(scheme.star_exact(tp.exact_frac)) == expected
        assert exact_bits(tp.internal_exact()) == expected
