import math

import numpy as np
import pytest
from fractions import Fraction

import aperiodic as ap
from aperiodic.errors import (
    InsufficientData,
    NotSchemeBacked,
    UnsupportedDimension,
)
from aperiodic.exactmath import QuadExact
from aperiodic.window import Interval, IntervalUnion

TAU = (1 + math.sqrt(5)) / 2


def singular_torus_point(scheme, window, index=(3, 2), side="hi"):
    """Torus point whose window shift puts the star of ``index`` on an endpoint."""
    star = scheme.star_exact(index)[0]
    comp = window.components[0]
    target = comp.hi_exact if side == "hi" else comp.lo_exact
    h = target - star
    det = QuadExact(0, -1, 5)
    tau = QuadExact(Fraction(1, 2), Fraction(1, 2), 5)
    c1 = (QuadExact(0, 0, 5) - tau * h) / det
    c2 = h / det
    return ap.torus_point_from_frac(scheme, [float(c1) % 1.0, float(c2) % 1.0])


class TestTorusPoints:
    def test_embed_zero(self, fib):
        scheme, _ = fib
        assert np.allclose(ap.embed_translation(scheme, [0.0]).frac, 0.0)

    def test_full_lattice_vector_in_kernel(self, fib):
        scheme, _ = fib
        lat = scheme.lift([(2, 3)])[0]
        frac = ap.beta_of_cut(scheme, lat[:1], lat[1:]).frac
        dist = np.minimum(frac, 1.0 - frac)
        assert np.all(dist < 1e-9)
        # the physical part alone is NOT in the kernel: the embedding of the
        # ambient space into the torus is injective for this scheme
        frac2 = ap.embed_translation(scheme, lat[:1]).frac
        assert np.any(np.minimum(frac2, 1 - frac2) > 1e-3)

    def test_crystal_integer_kernel(self):
        scheme = ap.integer_crystal(1)
        frac = ap.embed_translation(scheme, [7.0]).frac
        assert np.all(np.minimum(frac, 1 - frac) < 1e-9)

    def test_embed_additivity(self, fib, rng):
        scheme, _ = fib
        for _ in range(20):
            t1, t2 = rng.uniform(-50, 50, 2)
            a = ap.embed_translation(scheme, [t1])
            b = ap.embed_translation(scheme, [t2])
            ab = ap.embed_translation(scheme, [t1 + t2])
            assert np.allclose((a.frac + b.frac) % 1.0, ab.frac, atol=1e-9)

    def test_beta_matches_embed(self, fib):
        scheme, _ = fib
        t = 3.77
        assert np.allclose(ap.beta_of_cut(scheme, [t], [0.0]).frac,
                           ap.embed_translation(scheme, [t]).frac)

    def test_beta_quotient_invariance(self, fib):
        scheme, _ = fib
        x, h = 1.25, -0.4
        lat = scheme.lift([(5, -2)])[0]
        a = ap.beta_of_cut(scheme, [x], [h])
        b = ap.beta_of_cut(scheme, [x + lat[0]], [h + lat[1]])
        assert np.allclose(a.frac, b.frac, atol=1e-9)

    def test_beta_covariance(self, fib, rng):
        scheme, _ = fib
        for _ in range(10):
            x, h, t = rng.uniform(-20, 20, 3)
            lhs = ap.beta_of_cut(scheme, [x + t], [h]).frac
            rhs = (ap.embed_translation(scheme, [t]).frac
                   + ap.beta_of_cut(scheme, [x], [h]).frac) % 1.0
            assert np.allclose(lhs % 1.0, rhs, atol=1e-9)

    def test_exact_group_law(self, fib):
        scheme, _ = fib
        a = ap.torus_point_from_frac(scheme, [Fraction(2, 3), Fraction(3, 4)])
        b = ap.torus_point_from_frac(scheme, [Fraction(2, 3), Fraction(1, 2)])
        c = a + b
        assert c.exact_frac == (Fraction(1, 3), Fraction(1, 4))

    def test_torus_distance(self, fib):
        scheme, _ = fib
        a = ap.torus_point_from_frac(scheme, [0.999999, 0.0])
        b = ap.torus_point_from_frac(scheme, [0.000001, 0.0])
        from aperiodic.torus import torus_distance
        assert torus_distance(a, b) < 1e-4


class TestSingularity:
    def test_generic_exact_empty(self, fib):
        scheme, window = fib
        tp = ap.torus_point_from_frac(scheme, [Fraction(1, 7), Fraction(2, 11)])
        assert ap.singularity_test(scheme, window, tp, 1000.0) == []

    def test_constructed_hit_reported(self, fib):
        scheme, window = fib
        tp = singular_torus_point(scheme, window)
        hits = ap.singularity_test(scheme, window, tp, 1000.0, band=1e-9)
        assert len(hits) >= 1
        sides = {h.side for h in hits}
        assert "hi" in sides or "lo" in sides

    def test_exact_star_only_for_float_hits(self, fib, monkeypatch):
        # the exact shifted star is computed only to confirm a float-prefilter hit
        scheme, window = fib
        calls = []
        internal_exact = ap.TorusPoint.internal_exact
        monkeypatch.setattr(ap.TorusPoint, "internal_exact",
                            lambda tp: calls.append(tp) or internal_exact(tp))
        tp = ap.torus_point_from_frac(scheme, [Fraction(1, 7), Fraction(2, 11)])
        assert ap.singularity_test(scheme, window, tp, 1000.0) == []
        assert calls == []
        # internal offset 1/3 puts the stars of (-1, 0) and (0, -1) on the two ends
        tp = ap.torus_point_from_frac(scheme, [Fraction(1, 3), Fraction(0)])
        hits = ap.singularity_test(scheme, window, tp, 10.0)
        assert [(h.index, h.side) for h in hits] == [((-1, 0), "lo"), ((0, -1), "hi")]
        assert calls == [tp]

    def test_crystal_never_singular(self):
        scheme = ap.integer_crystal(1)
        tp = ap.torus_point_from_frac(scheme, [0.37])
        assert ap.singularity_test(scheme, None, tp, 100.0) == []

    def test_polygon_band_reaches_full_width(self):
        # a star 0.95 band outside an octagon edge lies inside the band
        scheme, window = ap.ammann_beenker_scheme(), ap.ammann_beenker_window()
        band = 0.01
        a, b = window.vertices[0], window.vertices[1]
        outward = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        star = scheme.star_of([[1, 0, 0, 0]])[0]
        tp = ap.beta_of_cut(scheme, [0.0, 0.0], (a + b) / 2 + 0.95 * band * outward - star)
        hits = ap.singularity_test(scheme, window, tp, 10.0, band=band)
        shifted = window.translate(-tp.internal_offset())
        assert any(abs(shifted.boundary_distance(hit.star) - 0.95 * band) < 1e-9
                   for hit in hits)

    def test_generic_strip_matches_generic_scan(self, fib):
        scheme, window = fib
        from aperiodic.torus import _generic_hits, _strip_hits_1d
        tp = singular_torus_point(scheme, window)
        h = float(tp.internal_offset()[0])
        strip = {x.index for x in _strip_hits_1d(scheme, window.translate(0.0), h, 60.0, 1e-9)}
        generic = {x.index for x in _generic_hits(scheme, window, np.array([h]), 60.0, 1e-9)}
        assert strip == generic


def _old_polygon_on_rim(poly, p, t):
    """The scalar float loop of ConvexPolygon.classify before the array rule."""
    verts = poly.vertices
    min_signed = math.inf
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        e = b - a
        signed = (e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])) / math.hypot(e[0], e[1])
        min_signed = min(min_signed, signed)
    return -t <= min_signed <= t


def _old_generic_hits(scheme, window, h, radius, band):
    """The per-star loop that _generic_hits replaced, over the same candidates."""
    from aperiodic.torus import _inflate_window
    shifted = window.translate(-float(h[0]) if window.dim == 1 else -np.asarray(h))
    patch = ap.enumerate_cut(scheme, _inflate_window(shifted, band),
                             ap.Box.centered(radius, scheme.d))
    hits = []
    for i in range(len(patch)):
        star = patch.star[i]
        if window.dim == 1:
            for ci, c in enumerate(shifted.components):
                if abs(star[0] - c.lo) <= band:
                    hits.append((tuple(patch.index[i]), ci, "lo", star))
                if abs(star[0] - c.hi) <= band:
                    hits.append((tuple(patch.index[i]), ci, "hi", star))
        elif _old_polygon_on_rim(shifted, star, band):
            hits.append((tuple(patch.index[i]), 0, "edge", star))
    return hits


TWO_PIECE_2D = ([[1, 0, 1.618], [0, 1, 0.7071], [1, 1.4142, -0.618]],
                [Interval(0.0, 0.5, False, True), Interval(0.52, 1.0, True, False)])


class TestGenericHits:
    @pytest.mark.parametrize("case", ["ammann_beenker", "fibonacci", "silver", "two_piece_2d"])
    @pytest.mark.parametrize("band", [1e-9, 1e-6, 1e-3, 0.05, 0.1])
    def test_matches_per_star_loop(self, case, band):
        from aperiodic.torus import _generic_hits
        if case == "two_piece_2d":
            basis, comps = TWO_PIECE_2D
            scheme, window, radius = ap.make_scheme(2, 1, basis), IntervalUnion(comps), 8.0
        else:
            scheme, window = ap.named_scheme(case)
            radius = 10.0 if case == "ammann_beenker" else 300.0
        rng = np.random.default_rng(11)
        for _ in range(6):
            h = ap.torus_point_from_frac(scheme, rng.uniform(0, 1, scheme.k)).internal_offset()
            got = _generic_hits(scheme, window, h, radius, band)
            want = _old_generic_hits(scheme, window, h, radius, band)
            assert [(x.index, x.component, x.side) for x in got] == [w[:3] for w in want]
            assert all(np.array_equal(x.star, w[3]) for x, w in zip(got, want))
            assert all(type(v) is int for x in got for v in x.index)


class TestFiber:
    def test_nonsingular_singleton(self, fib):
        scheme, window = fib
        tp = ap.torus_point_from_frac(scheme, [Fraction(1, 7), Fraction(2, 11)])
        rep = ap.fiber_enumerate(scheme, window, tp, 100.0)
        assert len(rep.members) == 1
        assert not rep.singular

    def test_singular_two_members_differ_in_hits(self, fib):
        scheme, window = fib
        tp = singular_torus_point(scheme, window)
        rep = ap.fiber_enumerate(scheme, window, tp, 1000.0)
        assert len(rep.members) == 2
        a, b = rep.members
        ka = {tuple(r) for r in a.index}
        kb = {tuple(r) for r in b.index}
        hit_ids = {h.index for h in rep.hits}
        assert ka ^ kb == hit_ids
        assert len(hit_ids) > 0

    def test_double_hit_sides_coherent(self, fib):
        # window length tau is itself a star value, so one endpoint hit
        # always pairs with a hit on the other endpoint
        scheme, window = fib
        tp = singular_torus_point(scheme, window)
        rep = ap.fiber_enumerate(scheme, window, tp, 1000.0)
        sides = {h.side for h in rep.hits}
        assert sides == {"lo", "hi"}
        upper, lower = rep.members
        upper_ids = {tuple(r) for r in upper.index}
        lower_ids = {tuple(r) for r in lower.index}
        for h in rep.hits:
            if h.side == "hi":
                assert h.index in upper_ids and h.index not in lower_ids
            else:
                assert h.index in lower_ids and h.index not in upper_ids

    def test_single_endpoint_hit_window(self, fib):
        # a window whose length is not a star value isolates single hits
        scheme, _ = fib
        lo = QuadExact(Fraction(-1, 3), 0, 5)
        hi = QuadExact(Fraction(7, 6), 0, 5)
        window = IntervalUnion([Interval(float(lo), float(hi), False, True, lo, hi)])
        star = scheme.star_exact((2, 1))[0]
        h = hi - star
        det = QuadExact(0, -1, 5)
        tau = QuadExact(Fraction(1, 2), Fraction(1, 2), 5)
        c1 = (QuadExact(0, 0, 5) - tau * h) / det
        c2 = h / det
        tp = ap.torus_point_from_frac(scheme, [float(c1) % 1.0, float(c2) % 1.0])
        rep = ap.fiber_enumerate(scheme, window, tp, 500.0)
        assert len(rep.members) == 2
        assert {h_.side for h_ in rep.hits} == {"hi"}
        assert not rep.multiple_orbits

    def test_sandwiched_between_open_and_closed_cut(self, fib):
        scheme, window = fib
        tp = singular_torus_point(scheme, window)
        rep = ap.fiber_enumerate(scheme, window, tp, 300.0)
        h = float(tp.internal_offset()[0])
        x = float(tp.physical_offset()[0])
        shifted = window.translate(-h)
        closed = IntervalUnion([Interval(c.lo, c.hi, True, True)
                                for c in shifted.components])
        opened = IntervalUnion([Interval(c.lo, c.hi, False, False)
                                for c in shifted.components])
        region = ap.Box.make([-300 - x], [300 - x])
        closed_ids = {tuple(r) for r in ap.enumerate_cut(scheme, closed, region).index}
        open_ids = {tuple(r) for r in ap.enumerate_cut(scheme, opened, region).index}
        for member in rep.members:
            ids = {tuple(r) for r in member.index}
            assert open_ids <= ids <= closed_ids

    def test_crystal_fiber_singleton(self):
        scheme = ap.integer_crystal(1)
        tp = ap.torus_point_from_frac(scheme, [0.42])
        rep = ap.fiber_enumerate(scheme, None, tp, 50.0)
        assert len(rep.members) == 1

    def test_internal_dim2_unsupported(self, ab):
        scheme, window = ab
        tp = ap.torus_point_from_frac(scheme, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(UnsupportedDimension):
            ap.fiber_enumerate(scheme, window, tp, 10.0)


class TestReconstruction:
    def test_fibonacci_window_recovered(self, fib, fib_patch_centered):
        scheme, window = fib
        rep = ap.reconstruct_window(fib_patch_centered, truth=window)
        assert rep.hausdorff <= 0.01
        bigger = ap.enumerate_cut(scheme, window, ap.Box.make([-4000], [4000]))
        rep2 = ap.reconstruct_window(bigger, truth=window)
        assert rep2.hausdorff < rep.hausdorff

    def test_monotone_in_region(self, fib, fib_patch_centered):
        scheme, window = fib
        small = ap.enumerate_cut(scheme, window, ap.Box.make([-300], [300]))
        est_small = ap.reconstruct_window(small).estimate
        est_big = ap.reconstruct_window(fib_patch_centered).estimate
        assert est_big.components[0].lo <= est_small.components[0].lo + 1e-12
        assert est_big.components[-1].hi >= est_small.components[-1].hi - 1e-12

    def test_two_component_window_split(self, fib):
        scheme, _ = fib
        w = IntervalUnion([Interval(0.0, 0.5, False, True),
                           Interval(0.7, 1.2, False, True)])
        patch = ap.enumerate_cut(scheme, w, ap.Box.make([-2000], [2000]))
        rep = ap.reconstruct_window(patch, split_threshold=0.1, truth=w)
        assert len(rep.estimate.components) == 2
        assert rep.hausdorff < 0.02

    def test_insufficient_data(self, fib):
        scheme, window = fib
        single = ap.IndexedPointSet(np.array([[0.0]]), ap.Box.make([-1], [1]),
                                    index=np.array([[0, 0]]),
                                    star=np.array([[0.0]]), scheme=scheme)
        with pytest.raises(InsufficientData):
            ap.reconstruct_window(single)

    def test_isolated_star_is_insufficient_data(self, fib):
        scheme, window = fib
        patch = ap.enumerate_cut(scheme, window, ap.Box.make([0], [60]))
        lone = float(np.sort(patch.star[:, 0])[0])
        with pytest.raises(InsufficientData, match=f"isolates the star {lone!r}"):
            ap.reconstruct_window(patch, split_threshold=0.01)

    def test_raw_set_rejected(self, random_patch):
        with pytest.raises(NotSchemeBacked):
            ap.reconstruct_window(random_patch)

    def test_convex_hull_2d(self, ab, ab_patch):
        scheme, window = ab
        rep = ap.reconstruct_window(ab_patch, truth=window)
        assert rep.hausdorff < 0.2
        assert rep.estimate.measure() <= window.measure() + 1e-9


class TestHausdorff:
    def test_exact_interval_distance(self):
        a = IntervalUnion([Interval(0.0, 1.0)])
        b = IntervalUnion([Interval(0.1, 1.0)])
        assert ap.interval_union_hausdorff(a, b) == pytest.approx(0.1)

    def test_gap_midpoint_case(self):
        a = IntervalUnion([Interval(0.0, 1.0)])
        b = IntervalUnion([Interval(0.0, 0.4), Interval(0.6, 1.0)])
        assert ap.interval_union_hausdorff(a, b) == pytest.approx(0.1)

    def test_matches_dense_sampling(self, rng):
        for _ in range(20):
            pts = np.sort(rng.uniform(0, 10, 8))
            a = IntervalUnion([Interval(pts[0], pts[1]), Interval(pts[2], pts[3])])
            b = IntervalUnion([Interval(pts[4], pts[5]), Interval(pts[6], pts[7])])
            exact = ap.interval_union_hausdorff(a, b)
            xs = np.linspace(0, 10, 20001)

            def dist(x, u):
                return min(abs(x - c.lo) if x < c.lo else
                           (abs(x - c.hi) if x > c.hi else 0.0)
                           for c in u.components)

            in_a = [x for x in xs if any(c.lo <= x <= c.hi for c in a.components)]
            in_b = [x for x in xs if any(c.lo <= x <= c.hi for c in b.components)]
            approx = max(max(dist(x, b) for x in in_a),
                         max(dist(x, a) for x in in_b))
            assert abs(exact - approx) < 2e-3


    def test_matches_old_endpoint_loop(self, rng):
        def old_directed(a, b):
            def dist_to_b(x):
                best = np.inf
                for c in b.components:
                    if c.lo <= x <= c.hi:
                        return 0.0
                    best = min(best, abs(x - c.lo), abs(x - c.hi))
                return best

            candidates = [e for c in a.components for e in (c.lo, c.hi)]
            for u, v in zip(b.components, b.components[1:]):
                mid = 0.5 * (u.hi + v.lo)
                if any(c.lo <= mid <= c.hi for c in a.components):
                    candidates.append(mid)
            return max(dist_to_b(x) for x in candidates)

        for _ in range(200):
            pts = np.sort(rng.integers(0, 12, 8)) / 4.0 + np.arange(8) * 1e-3 * rng.integers(0, 2)
            a = IntervalUnion([Interval(pts[0], pts[1] + 0.1), Interval(pts[2] + 0.2, pts[3] + 0.3)])
            b = IntervalUnion([Interval(pts[4], pts[5] + 0.1), Interval(pts[6] + 0.2, pts[7] + 0.3)])
            want = max(old_directed(a, b), old_directed(b, a))
            assert ap.interval_union_hausdorff(a, b) == want


class TestContinuity:
    def test_crystal_saturates(self, z_patch, z_table):
        out = ap.continuity_epsilon(z_patch, z_table, [5, 10])
        cap = 0.999 * 2 * z_table.eta0
        for rep in out.values():
            assert rep.eps == pytest.approx(cap)

    def test_fibonacci_positive_nonincreasing(self, fib_patch_centered, fib_table400):
        out = ap.continuity_epsilon(fib_patch_centered, fib_table400, [5, 10, 20, 40])
        eps = [out[m].eps for m in (5, 10, 20, 40)]
        assert all(e > 0 for e in eps)
        assert all(a >= b - 1e-12 for a, b in zip(eps, eps[1:]))

    def test_members_below_eps_match_exactly(self, fib_patch_centered, fib_table400):
        out = ap.continuity_epsilon(fib_patch_centered, fib_table400, [10])
        rep = out[10]
        dv = fib_table400.d_values()
        pos = fib_patch_centered.positions_1d()
        ref = pos[np.abs(pos) <= 10.0 + 1e-7]
        for i, t in enumerate(fib_table400.deltas[:, 0]):
            if 1e-7 < abs(t) <= 1000 and dv[i] < rep.eps:
                moved = pos[np.abs(pos + t) <= 10.0 + 1e-7] + t
                assert len(moved) == len(ref)
                assert np.all(np.abs(moved - ref) <= 1e-7)

    def test_random_collapses_to_zero(self, random_patch):
        boxes = ap.default_boxes((125, 250, 500, 1000), dim=1, anchored=True)
        table = ap.eta_table(random_patch, 50.0, boxes)
        out = ap.continuity_epsilon(random_patch, table, [5])
        assert out[5].eps == 0.0
