import itertools
import math
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aperiodic as ap
from aperiodic import scheme as sc
from aperiodic.errors import (
    InjectivityViolation,
    NotInL,
    RegionTooLarge,
    SingularBasis,
)
from aperiodic.exactmath import QuadExact
from aperiodic.window import Interval, IntervalUnion, make_interval

TAU = (1 + math.sqrt(5)) / 2


class TestValidate:
    def test_fibonacci_exact(self, fib):
        scheme, _ = fib
        report = ap.validate_scheme(scheme)
        assert report.covolume == pytest.approx(math.sqrt(5))
        assert report.injectivity == "exact"
        # star-image gaps shrink with sample size (denseness diagnostic)
        gaps = [g for _, g in report.denseness]
        assert gaps[-1] < gaps[0]

    def test_identity_basis_violates_injectivity(self):
        scheme = ap.make_scheme(1, 1, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InjectivityViolation) as err:
            ap.validate_scheme(scheme)
        witness = np.asarray(err.value.witness)
        assert np.any(witness != 0)
        assert abs(scheme.physical_of([witness])[0][0]) < 1e-9

    def test_identity_basis_exact_mode(self):
        scheme = ap.make_scheme(1, 1, [[1, 0], [0, 1]], mode="quadratic", radicand=5)
        with pytest.raises(InjectivityViolation):
            ap.validate_scheme(scheme)

    def test_duplicate_columns_singular(self):
        with pytest.raises(SingularBasis):
            ap.make_scheme(1, 1, [[1.0, 1.0], [2.0, 2.0]])
        one = 1
        with pytest.raises(SingularBasis):
            ap.make_scheme(1, 1, [[one, one], [one, one]],
                           mode="quadratic", radicand=5)

    def test_lattice_density(self, fib):
        scheme, _ = fib
        assert scheme.lattice_density == pytest.approx(1 / math.sqrt(5))


class TestStarMap:
    def test_zero(self, fib):
        scheme, _ = fib
        assert scheme.star_of([(0, 0)])[0][0] == 0.0

    def test_basis_columns(self, fib):
        scheme, _ = fib
        assert scheme.star_of([(1, 0)])[0][0] == pytest.approx(1.0)
        assert scheme.star_of([(0, 1)])[0][0] == pytest.approx(1 - TAU)
        exact = scheme.star_exact((0, 1))[0]
        assert exact == QuadExact(Fraction(1, 2), Fraction(-1, 2), 5)

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_additivity(self, a, b, c, d):
        scheme = ap.fibonacci_scheme()
        lhs = scheme.star_of([(a + c, b + d)])[0][0]
        rhs = scheme.star_of([(a, b)])[0][0] + scheme.star_of([(c, d)])[0][0]
        assert abs(lhs - rhs) < 1e-9
        ex_l = scheme.star_exact((a + c, b + d))[0]
        ex_r = scheme.star_exact((a, b))[0] + scheme.star_exact((c, d))[0]
        assert ex_l == ex_r

    def test_lattice_point_equality(self, fib):
        scheme, _ = fib
        p = scheme.point((2, -3))
        q = scheme.point((2, -3))
        r = scheme.point((1, 0))
        assert p == q and p != r and hash(p) == hash(q)


class TestEnumerate:
    def test_brute_force_oracle(self, fib):
        scheme, window = fib
        region = ap.Box.make([0], [100])
        got = {tuple(row) for row in
               ap.enumerate_cut(scheme, window, region).index}
        expected = set()
        for n1 in range(-200, 200):
            for n2 in range(-100, 100):
                phys = n1 + n2 * TAU
                star = n1 + n2 * (1 - TAU)
                if 0 <= phys <= 100 and window.accepts(star):
                    expected.add((n1, n2))
        assert got == expected

    def test_count_tracks_density(self, fib):
        scheme, window = fib
        n = 2000
        count = len(ap.enumerate_cut(scheme, window, ap.Box.make([0], [n])))
        expected = n * ap.model_density(scheme, window)
        assert abs(count - expected) / expected < 0.01

    def test_empty_region_cut(self):
        crystal = ap.integer_crystal(1)
        out = ap.enumerate_cut(crystal, None, ap.Box.make([0.2], [0.8]))
        assert len(out) == 0

    def test_uniform_discreteness_stable(self, fib):
        scheme, window = fib
        gaps = []
        for n in (200, 400):
            patch = ap.enumerate_cut(scheme, window, ap.Box.make([0], [n]))
            gaps.append(2 * ap.packing_radius(patch))
        assert gaps[0] > 0
        assert gaps[0] == pytest.approx(gaps[1])
        assert gaps[0] == pytest.approx(1.0)  # short tile of the golden chain

    def test_monotone_in_window(self, fib):
        scheme, window = fib
        smaller = IntervalUnion([Interval(window.components[0].lo + 0.3,
                                          window.components[0].hi - 0.3,
                                          False, True)])
        region = ap.Box.make([0], [300])
        big = {tuple(r) for r in ap.enumerate_cut(scheme, window, region).index}
        small = {tuple(r) for r in ap.enumerate_cut(scheme, smaller, region).index}
        assert small <= big
        assert len(small) < len(big)

    def test_disjoint_region_union(self, fib):
        scheme, window = fib
        a = ap.enumerate_cut(scheme, window, ap.Box.make([0], [50]))
        b = ap.enumerate_cut(scheme, window, ap.Box.make([60], [110]))
        both = ap.enumerate_cut(scheme, window, ap.Box.make([0], [110]))
        union = {tuple(r) for r in a.index} | {tuple(r) for r in b.index}
        in_parts = (both.physical[:, 0] <= 50 + 1e-9) | (both.physical[:, 0] >= 60 - 1e-9)
        expected = {tuple(r) for r in both.index[in_parts]}
        assert union == expected

    def test_budget_guard(self, fib):
        scheme, window = fib
        with pytest.raises(RegionTooLarge):
            ap.enumerate_cut(scheme, window, ap.Box.make([0], [1e9]))

    def test_large_region_within_budget(self, fib):
        scheme, window = fib
        patch = ap.enumerate_cut(scheme, window, ap.Box.make([0], [30000]))
        assert len(patch) / 30000 == pytest.approx(ap.model_density(scheme, window), rel=0.01)

    @pytest.mark.parametrize("name, region, budget", [
        ("fibonacci", ([0], [1e6]), 100_000),               # prefix rows alone exceed it
        ("crystal_z2", ([0, 0], [2000, 2000]), 1_000_000),  # 4M candidate rows
    ])
    def test_budget_checked_before_allocating(self, name, region, budget):
        scheme, window = ap.named_scheme(name)
        tracemalloc.start()
        try:
            with pytest.raises(RegionTooLarge):
                ap.enumerate_cut(scheme, window, ap.Box.make(*region), budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("name, region", [
        ("fibonacci", ([-1], [20000])),
        ("ammann_beenker", ([-40, -40], [40, 40])),
    ])
    def test_candidate_rows_track_points(self, name, region, monkeypatch):
        built, lattice_points = [], sc.lattice_points

        def spy(*args, **kwargs):
            rows = lattice_points(*args, **kwargs)
            built.append(len(rows))
            return rows

        monkeypatch.setattr(sc, "lattice_points", spy)
        scheme, window = ap.named_scheme(name)
        patch = ap.enumerate_cut(scheme, window, ap.Box.make(*region))
        assert built[0] <= 4 * len(patch)

    def test_float_mode_dense_star_cut(self):
        # float-mode scheme with irrational star direction; output must stay
        # uniformly discrete under a bounded window
        scheme = ap.make_scheme(1, 1, [[1.0, 1.0 + math.sqrt(2)],
                                       [1.0, 1.0 - math.sqrt(2)]])
        window = IntervalUnion([Interval(-0.5, 0.5)])
        for n in (200, 400):
            patch = ap.enumerate_cut(scheme, window, ap.Box.make([0], [n]))
            assert ap.packing_radius(patch) > 0.1

    def test_exact_boundary_policy(self, fib):
        scheme, window = fib
        # the window is half-open; flipping closedness at the boundary hit
        # changes membership of exactly the rim points
        closed = IntervalUnion([Interval(c.lo, c.hi, True, True, c.lo_exact, c.hi_exact)
                                for c in window.components])
        open_ = IntervalUnion([Interval(c.lo, c.hi, False, False, c.lo_exact, c.hi_exact)
                               for c in window.components])
        region = ap.Box.make([-500], [500])
        n_closed = len(ap.enumerate_cut(scheme, closed, region))
        n_open = len(ap.enumerate_cut(scheme, open_, region))
        n_half = len(ap.enumerate_cut(scheme, window, region))
        assert n_open <= n_half <= n_closed


@st.composite
def lattice_boxes(draw):
    """A well-conditioned k x k matrix (integer or irrational entries) and a box."""
    k = draw(st.integers(1, 4))
    ints = np.array(draw(st.lists(st.integers(-3, 3), min_size=2 * k * k,
                                  max_size=2 * k * k)), dtype=np.float64)
    matrix = ints[:k * k].reshape(k, k)
    if draw(st.booleans()):
        matrix = matrix + math.sqrt(2) / 3 * ints[k * k:].reshape(k, k)
    assume(abs(np.linalg.det(matrix)) > 0.5 and np.linalg.cond(matrix) < 30)
    quarters = st.integers(-40, 40).map(lambda q: q / 4)
    lo = np.array(draw(st.lists(quarters, min_size=k, max_size=k)))
    width = np.array(draw(st.lists(st.integers(0, 24).map(lambda q: q / 4),
                                   min_size=k, max_size=k)))
    return matrix, lo, lo + width


class TestWindowAccept:
    def test_star_just_past_the_band_is_accepted(self):
        # x = lo + BOUNDARY_BAND rounds to a float with x - lo > BOUNDARY_BAND,
        # so x is neither near the rim nor, by x > lo + BOUNDARY_BAND, inside it;
        # the window's own rule calls it interior and enumeration must keep it
        lo = 0.20791468550554815
        x = lo + sc.BOUNDARY_BAND
        assert x - lo > sc.BOUNDARY_BAND
        window = IntervalUnion([Interval(lo, lo + 0.5)])
        scheme = ap.make_scheme(1, 1, [[1.0, 1.618], [1.0, -0.618]])
        accept = sc._window_accept(scheme, window, np.zeros((1, 2), dtype=np.int64),
                                   np.array([[x]]), np.array([True]))
        assert window.classify(x) is ap.Region.INTERIOR and accept.tolist() == [True]

    def test_float_and_exact_twins_agree_on_touching_components(self):
        # stars are the integers n1; the star 1 is the open end of (0, 1) and the
        # closed end of [1, 2), so it lies in the window under either arithmetic
        q = [QuadExact(v, 0, 2) for v in range(3)]
        window = IntervalUnion([make_interval(q[0], q[1], False, False),
                                make_interval(q[1], q[2], True, False)])
        twin = ap.make_scheme(1, 1, [[(1, 0), (0, 1)], [0, 1]], mode="quadratic", radicand=2)
        float_ = ap.make_scheme(1, 1, [[1.0, math.sqrt(2)], [0.0, 1.0]])
        region = ap.Box.make([0], [10])
        exact = ap.enumerate_cut(twin, window, region)
        floats = ap.enumerate_cut(float_, window, region)
        assert len(exact) == 10 and set(exact.star[:, 0]) == {1.0}
        assert np.array_equal(floats.index, exact.index)


class TestLatticePoints:
    @settings(max_examples=150, deadline=None)
    @given(lattice_boxes())
    def test_superset_of_brute_force(self, case):
        matrix, lo, hi = case
        k = len(lo)
        corners = np.array(list(itertools.product(*zip(lo, hi)))) @ np.linalg.inv(matrix).T
        nlo = np.floor(corners.min(axis=0)) - 2
        nhi = np.ceil(corners.max(axis=0)) + 2
        assume(np.prod(nhi - nlo + 1) <= 200_000)
        grid = np.stack(np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(nlo, nhi)],
                                    indexing="ij"), axis=-1).reshape(-1, k)
        image = grid @ matrix.T
        inside = np.all((image >= lo) & (image <= hi), axis=1)
        rows = sc.lattice_points(matrix, lo, hi)
        assert {tuple(r) for r in grid[inside]} <= {tuple(r) for r in rows}
        # lexicographic order, no duplicates, nothing beyond the float margin
        assert np.all(np.lexsort(rows.T[::-1]) == np.arange(len(rows)))
        assert len({tuple(r) for r in rows}) == len(rows)
        slack = 2 * sc.INDEX_MARGIN * np.abs(matrix).sum(axis=1)
        image = rows @ matrix.T
        assert np.all((image >= lo - slack) & (image <= hi + slack))


class TestModelDensity:
    def test_fibonacci_value(self, fib):
        scheme, window = fib
        assert ap.model_density(scheme, window) == pytest.approx(TAU / math.sqrt(5))

    def test_doubling_window(self, fib):
        scheme, window = fib
        c = window.components[0]
        double = IntervalUnion([Interval(c.lo, c.lo + 2 * (c.hi - c.lo))])
        assert ap.model_density(scheme, double) == pytest.approx(
            2 * ap.model_density(scheme, window))

    def test_crystal(self):
        assert ap.model_density(ap.integer_crystal(2), None) == 1.0


class TestDualCandidates:
    def test_small_radius_only_zero(self, fib):
        scheme, _ = fib
        cands = ap.dual_candidates(scheme, 0.05)
        assert len(cands.k) == 1
        assert np.allclose(cands.k[0], 0.0)

    def test_crystal_self_dual(self):
        crystal = ap.integer_crystal(1)
        cands = ap.dual_candidates(crystal, 3.5)
        assert sorted(cands.k[:, 0].tolist()) == [-3, -2, -1, 0, 1, 2, 3]

    def test_brute_force_oracle(self, fib):
        scheme, _ = fib
        got = {tuple(z) for z in ap.dual_candidates(scheme, 5.0, 5.0).z}
        dual = np.linalg.inv(scheme.basis)
        expected = set()
        for z1 in range(-30, 31):
            for z2 in range(-30, 31):
                y = np.array([z1, z2]) @ dual
                if abs(y[0]) <= 5.0 and abs(y[1]) <= 5.0:
                    expected.add((z1, z2))
        assert got == expected

    def test_sorted_by_norm(self, fib):
        scheme, _ = fib
        cands = ap.dual_candidates(scheme, 3.0)
        norms = np.linalg.norm(cands.k, axis=1)
        assert np.all(np.diff(norms) >= -1e-12)


class TestResolveIndex:
    def test_roundtrip(self, fib):
        scheme, _ = fib
        idx = ap.resolve_index(scheme, [TAU])
        assert tuple(idx) == (0, 1)

    def test_not_in_lattice(self, fib):
        scheme, _ = fib
        with pytest.raises(NotInL):
            ap.resolve_index(scheme, [0.123456])

    def test_crystal(self):
        crystal = ap.integer_crystal(2)
        assert tuple(ap.resolve_index(crystal, [3.0, -2.0])) == (3, -2)


class TestSerialization:
    def test_scheme_json_roundtrip(self, fib):
        scheme, _ = fib
        from aperiodic.config import build_scheme_window
        cfg = {"scheme": scheme.to_json()}
        rebuilt, _ = build_scheme_window(cfg)
        assert rebuilt.covolume == pytest.approx(scheme.covolume)
        assert rebuilt.is_exact
        assert np.allclose(rebuilt.basis, scheme.basis)
