import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
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
