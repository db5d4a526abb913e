import math

import numpy as np
import pytest

import aperiodic as ap
from aperiodic.errors import EpsilonOutOfRange, NotInL, RegionTooSmall
from aperiodic.scheme import lattice_points

TAU = (1 + math.sqrt(5)) / 2


class TestEtaTable:
    def test_crystal_full_coincidence(self, z_table):
        row = z_table.lookup([3.0])
        assert row is not None
        assert np.allclose(z_table.eta[row], z_table.eta0_by_box)
        assert z_table.d_of([3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_absent_difference_costs_full_density(self, z_table):
        assert z_table.lookup([0.5]) is None
        assert z_table.d_of([0.5]) == pytest.approx(2 * z_table.eta0)

    def test_eta0_matches_density(self, fib_table50):
        assert fib_table50.eta0 == pytest.approx(TAU / math.sqrt(5), rel=0.01)

    def test_symmetry_exact(self, fib_table50):
        t = fib_table50
        for i in range(len(t.deltas)):
            j = t.lookup(-t.deltas[i])
            assert j is not None
            assert np.array_equal(t.eta[i], t.eta[j])

    def test_bounds(self, fib_table50):
        t = fib_table50
        assert np.all(t.eta >= 0)
        assert np.all(t.eta <= t.eta0_by_box[None, :] + 1e-12)

    def test_region_guard(self, fib_patch_small):
        boxes = ap.default_boxes((500,), dim=1)
        with pytest.raises(RegionTooSmall):
            ap.eta_table(fib_patch_small, 10.0, boxes)

    def test_for_deltas_matches_difference_path(self, fib, fib_patch_2k, boxes_2k):
        scheme, window = fib
        table = ap.eta_table(fib_patch_2k, 30.0, boxes_2k)
        cand = ap.enumerate_cut(scheme, window.minkowski_difference(),
                                ap.Box.make([-30], [30]))
        table2 = ap.eta_table_for_deltas(fib_patch_2k, cand.physical, boxes_2k,
                                         30.0, delta_index=cand.index)
        for i in range(len(table.deltas)):
            j = table2.lookup(table.deltas[i])
            assert j is not None
            assert np.allclose(table.eta[i], table2.eta[j])


class TestPairwiseD:
    def test_equal_translates(self, fib_table50):
        assert ap.pairwise_d(fib_table50, [3.0], [3.0]) == 0.0

    def test_non_difference(self, fib_table50):
        assert ap.pairwise_d(fib_table50, [0.123]) == pytest.approx(
            2 * fib_table50.eta0)

    def test_matches_symmetric_difference(self, fib_table50, fib_patch_2k, boxes_2k):
        t = fib_table50
        rng = np.random.Generator(np.random.PCG64(11))
        rows = rng.choice(len(t.deltas), size=8, replace=False)
        for i in rows:
            delta = t.deltas[i]
            moved = fib_patch_2k.translate(delta)
            usable = [b for b in boxes_2k
                      if moved.region.covers(b) and fib_patch_2k.region.covers(b)]
            sd = ap.symdiff_density(moved, fib_patch_2k, usable)
            d_eta = float(t.d_values()[i])
            if d_eta > 0.05:
                assert abs(sd.upper - d_eta) / d_eta < 0.02
            else:
                assert abs(sd.upper - d_eta) < 0.01


class TestSymdiff:
    def test_identical(self, fib_patch_2k, boxes_2k):
        sd = ap.symdiff_density(fib_patch_2k, fib_patch_2k, boxes_2k)
        assert sd.upper == 0.0

    def test_disjoint_sets_add(self, boxes_2k):
        a = ap.enumerate_cut(ap.integer_crystal(1), None, ap.Box.make([-10], [2100]))
        b = a.translate([0.5])
        usable = [bx for bx in boxes_2k if b.region.covers(bx)]
        sd = ap.symdiff_density(a, b, usable)
        assert sd.upper == pytest.approx(2.0, rel=0.02)

    def test_triangle_inequality(self, fib_patch_2k, boxes_2k):
        base = fib_patch_2k
        t1, t2 = [1.0], [TAU]
        a = base.translate(t1)
        b = base.translate(t2)
        usable = [bx for bx in boxes_2k
                  if a.region.covers(bx) and b.region.covers(bx)
                  and base.region.covers(bx)]
        dab = ap.symdiff_density(a, b, usable).upper
        dac = ap.symdiff_density(a, base, usable).upper
        dbc = ap.symdiff_density(base, b, usable).upper
        assert dab <= dac + dbc + 1e-9

    def test_translation_invariance_lattice_shift(self, z_patch, boxes_2k):
        # shifting both sets by a lattice period leaves every count unchanged
        a = z_patch
        b = z_patch.translate([0.5])
        usable = [bx for bx in boxes_2k if b.region.covers(bx)]
        base = ap.symdiff_density(a, b, usable).per_box
        a2 = a.translate([5.0])
        b2 = b.translate([5.0])
        usable2 = [bx for bx in usable if a2.region.covers(bx) and b2.region.covers(bx)]
        again = ap.symdiff_density(a2, b2, usable2).per_box
        assert np.allclose(base[:len(usable2)], again)


class TestAlmostPeriods:
    def test_crystal_all_integers(self, z_table):
        periods = ap.almost_periods(z_table, 0.5, scan_radius=20.0)
        vals = sorted(periods.members[:, 0].tolist())
        assert vals == list(range(-20, 21))
        assert periods.max_gap == pytest.approx(1.0)

    def test_monotone_in_eps(self, fib_table50):
        small = ap.almost_periods(fib_table50, 0.1 * 2 * fib_table50.eta0)
        large = ap.almost_periods(fib_table50, 0.4 * 2 * fib_table50.eta0)
        s = {tuple(m) for m in np.round(small.members, 7)}
        l = {tuple(m) for m in np.round(large.members, 7)}
        assert s <= l

    def test_symmetric_and_contains_zero(self, fib_table50):
        periods = ap.almost_periods(fib_table50, 0.2 * 2 * fib_table50.eta0)
        vals = set(np.round(periods.members[:, 0], 7).tolist())
        assert 0.0 in vals
        assert vals == {-v for v in vals}

    def test_two_scale_gap_stability(self, fib_table50):
        eps = 0.2 * 2 * fib_table50.eta0
        g1 = ap.almost_periods(fib_table50, eps, scan_radius=25.0).max_gap
        g2 = ap.almost_periods(fib_table50, eps, scan_radius=50.0).max_gap
        assert g2 <= g1 * 1.1

    def test_eps_range_guard(self, fib_table50):
        with pytest.raises(EpsilonOutOfRange):
            ap.almost_periods(fib_table50, 2 * fib_table50.eta0 + 0.1)
        with pytest.raises(EpsilonOutOfRange):
            ap.almost_periods(fib_table50, 0.0)

    def test_random_fixture_no_nontrivial_members(self, random_patch):
        boxes = ap.default_boxes((125, 250, 500, 1000), dim=1, anchored=True)
        table = ap.eta_table(random_patch, 50.0, boxes)
        periods = ap.almost_periods(table, 0.4 * 2 * table.eta0)
        nontrivial = [m for m in periods.members[:, 0] if abs(m) > 1e-7]
        assert len(nontrivial) == 0
        assert periods.max_gap == pytest.approx(table.radius)


class TestPredictedD:
    def test_zero_translation(self, fib):
        scheme, window = fib
        assert ap.predicted_d(scheme, window, index=(0, 0)) == 0.0

    def test_disjoint_translate_saturates(self, fib):
        scheme, window = fib
        # star of (4, -4) is 4 - 4*tau' = 4(tau) - ... far beyond the window span
        d = ap.predicted_d(scheme, window, index=(8, -8))
        assert d == pytest.approx(2 * ap.model_density(scheme, window))

    def test_matches_empirical(self, fib, fib_table50_10k):
        scheme, window = fib
        t = fib_table50_10k
        rng = np.random.Generator(np.random.PCG64(99))
        rows = rng.choice(len(t.deltas), size=10, replace=False)
        for i in rows:
            pred = ap.predicted_d(scheme, window, index=t.delta_index[i])
            emp = float(t.d_values()[i])
            if pred > 0.05:
                assert abs(emp - pred) / pred < 0.02
            else:
                assert abs(emp - pred) < 0.005

    def test_not_in_lattice(self, fib):
        scheme, window = fib
        with pytest.raises(NotInL):
            ap.predicted_d(scheme, window, t=[0.1234])

    def test_polygon_window(self, ab):
        scheme, window = ab
        assert ap.predicted_d(scheme, window, index=(0, 0, 0, 0)) == 0.0
        d = ap.predicted_d(scheme, window, index=(1, 0, 0, 0))
        assert 0 < d <= 2 * ap.model_density(scheme, window) + 1e-9


class TestMactClose:
    def test_identical(self, fib_patch_2k, boxes_2k):
        ok, v, val = ap.mact_close(fib_patch_2k, fib_patch_2k, 0.5, 0.01, boxes_2k)
        assert ok and val == 0.0

    def test_almost_period_translate(self, fib_patch_2k, fib_table50, boxes_2k):
        eps = 0.3 * 2 * fib_table50.eta0
        periods = ap.almost_periods(fib_table50, eps)
        vals = periods.members[:, 0]
        t = vals[np.argmin(np.abs(np.abs(vals) - 20))]
        moved = fib_patch_2k.translate([t])
        usable = [b for b in boxes_2k if moved.region.covers(b)]
        ok, v, val = ap.mact_close(moved, fib_patch_2k, 0.5, eps, usable)
        assert ok

    def test_reflected_far(self, fib, boxes_2k):
        scheme, window = fib
        patch = ap.enumerate_cut(scheme, window, ap.Box.make([-2060], [2060]))
        reflected = ap.IndexedPointSet(-patch.physical, patch.region)
        usable = ap.default_boxes((125, 250, 500), dim=1, anchored=True)
        ok, v, val = ap.mact_close(reflected, patch, 0.5, 0.1, usable)
        assert not ok
        # the reflected set is a cut through the reflected window; its distance
        # is the lattice density times the measure of W triangle -W
        overlap = window.intersect(window.reflect())
        expected = 2 * scheme.lattice_density * (window.measure() - overlap.measure())
        assert val == pytest.approx(expected, rel=0.10)


def _old_mact_close(pset, other, shift_radius, eps, boxes):
    """autocorr.mact_close with its own lattice_points search and per-point
    snap, before the shared shift search."""
    dim = pset.dim
    best_v = np.zeros(dim)
    best = _shifted_symdiff(pset, other, best_v, boxes)
    step = shift_radius / 10.0
    cells = lattice_points(np.eye(dim), [-10] * dim, [10] * dim)
    center = best_v.copy()
    for _ in range(3):
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
    snapped = _old_snap_to_pairs(pset, other, best_v, boxes[-1])
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
    return ap.symdiff_density(moved, other, usable).upper


def _old_snap_to_pairs(pset, other, v, box):
    moved = pset.physical + v
    sel = ap.Box(box.lo, box.hi).contains(moved)
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


@pytest.fixture(scope="module")
def fib_patch_1k(fib):
    scheme, window = fib
    return ap.enumerate_cut(scheme, window, ap.Box.make([-60], [1060]))


@pytest.fixture(scope="module")
def ab_patch_12(ab):
    scheme, window = ab
    return ap.enumerate_cut(scheme, window, ap.Box.make([-2, -2], [12, 12]))


class TestMactCloseOracle:
    """mact_close equals the pre-refactor search bit for bit."""

    def check(self, pset, shift, shift_radius, boxes):
        moved = pset.translate(shift)
        usable = [b for b in boxes if moved.region.covers(b)]
        got = ap.mact_close(moved, pset, shift_radius, 0.01, usable)
        want = _old_mact_close(moved, pset, shift_radius, 0.01, usable)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].tobytes() == want[1].tobytes()

    # grid hits (-0.3, 13.0 outside the radius), median snaps (0.0123 at
    # radius 0.1, 0.1234 at 0.2) and plateaus the search cannot leave
    @pytest.mark.parametrize("shift,shift_radius", [
        (0.0, 0.5), (-0.3, 0.5), (13.0, 0.5), (0.0123, 0.1), (0.1234, 0.2), (0.0123, 0.5),
        (0.1234, 0.1)])
    def test_fibonacci(self, fib_patch_1k, shift, shift_radius):
        self.check(fib_patch_1k, [shift], shift_radius,
                   ap.default_boxes((125, 250, 500), dim=1, anchored=True))

    def test_ammann_beenker(self, ab_patch_12):
        # the grid cannot reach this shift; the snap does
        self.check(ab_patch_12, (0.0123, -0.0071), 0.1,
                   ap.default_boxes((5, 10), dim=2, anchored=True))
