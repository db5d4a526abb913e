import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aperiodic as ap
from aperiodic.errors import (
    DuplicatePoint,
    RegionTooLarge,
    RegionTooSmall,
    UndefinedStatistic,
)
from aperiodic.pointset import (
    MATCH_TOL,
    QUANT,
    Box,
    IndexedPointSet,
    _distinct_matches,
    _nearest_offsets,
    match_index,
)

TAU = (1 + math.sqrt(5)) / 2


def integer_patch(lo=-110, hi=110):
    pts = np.arange(lo, hi + 1, dtype=np.float64)[:, None]
    return IndexedPointSet(pts, Box.make([lo], [hi]))


class TestBasics:
    def test_sorted_and_deduped(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        ps = IndexedPointSet(pts, Box.make([0], [5]))
        assert ps.positions_1d().tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(DuplicatePoint):
            IndexedPointSet(np.array([[1.0], [1.0]]), Box.make([0], [5]))

    def test_restrict_and_density(self):
        ps = integer_patch(0, 100)
        sub = ps.restrict(Box.make([10], [20]))
        assert len(sub) == 11
        assert ps.density(Box.make([0], [100])) == pytest.approx(1.01)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box.make([1.0], [1.0])
        with pytest.raises(RegionTooSmall):
            Box.make([0], [4]).shrink(3)


def _difference_oracle(pset, r):
    """``difference_set`` by a double loop over all pairs, deduplicated with np.unique."""
    core = pset.region.shrink(r)
    pts = pset.physical.tolist()
    pairs = []
    for i, x in enumerate(pts):
        if not core.contains(x)[0]:
            continue
        for j, y in enumerate(pts):
            # the pair scan's strip on the first coordinate, then the norm test
            if x[0] - r <= y[0] <= x[0] + r and \
                    sum((b - a) ** 2 for a, b in zip(x, y)) <= r * r + 1e-12:
                pairs.append((i, j))
    ii, jj = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    out_region = Box.centered(r, pset.dim)
    if pset.is_scheme_backed:
        didx = np.unique(pset.index[jj] - pset.index[ii], axis=0)
        full = didx @ pset.scheme.basis.T
        d = pset.scheme.d
        return IndexedPointSet(full[:, :d], out_region, didx, full[:, d:], pset.scheme)
    diffs = pset.physical[jj] - pset.physical[ii]
    _, first = np.unique(np.round(diffs / QUANT).astype(np.int64), axis=0, return_index=True)
    return IndexedPointSet(diffs[np.sort(first)], out_region)


def _assert_same_differences(got, want):
    assert np.array_equal(got.physical, want.physical)
    for a, b in ((got.index, want.index), (got.star, want.star)):
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b)


@st.composite
def _patch_case(draw):
    """A random sub-region of a shipped scheme's physical space (Fibonacci, silver
    mean, Ammann-Beenker, Z or Z^2) and a radius."""
    name = draw(st.sampled_from(["fibonacci", "silver", "ammann_beenker", "crystal_z",
                                 "crystal_z2"]))
    dim = 2 if name in ("ammann_beenker", "crystal_z2") else 1
    side = draw(st.floats(1.0, 40.0 if dim == 1 else 12.0))
    lo = [draw(st.floats(-100.0, 100.0)) for _ in range(dim)]
    radius = draw(st.floats(0.3, side / 2 - 0.1))
    return name, Box.make(lo, [v + side for v in lo]), radius


@st.composite
def _grid_cloud(draw):
    """A raw cloud on a 0.1 grid: many differences repeat exactly or up to rounding."""
    dim = draw(st.integers(1, 2))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 40)] * dim),
                          min_size=1, max_size=60, unique=True))
    pset = IndexedPointSet(np.array(cells, dtype=np.float64) * 0.1,
                           Box.make([0.0] * dim, [4.0] * dim))
    return pset, draw(st.floats(0.05, 1.9))


class TestDifferenceSet:
    def test_single_point(self):
        ps = IndexedPointSet(np.array([[0.0]]), Box.make([-10], [10]))
        diffs = ap.difference_set(ps, 5.0)
        assert diffs.physical.tolist() == [[0.0]]

    def test_integers(self):
        diffs = ap.difference_set(integer_patch(0, 100), 5.0)
        assert sorted(diffs.positions_1d().tolist()) == list(range(-5, 6))

    def test_symmetry(self, fib_patch_small):
        diffs = ap.difference_set(fib_patch_small, 20.0)
        vals = set(np.round(diffs.positions_1d(), 7).tolist())
        assert vals == {-v for v in vals}

    def test_matches_window_difference_cut(self, fib):
        scheme, window = fib
        patch = ap.enumerate_cut(scheme, window, ap.Box.make([-60], [60]))
        diffs = ap.difference_set(patch, 10.0)
        cut = ap.enumerate_cut(scheme, window.minkowski_difference(),
                               ap.Box.make([-10], [10]))
        observed = {tuple(r) for r in diffs.index}
        allowed = {tuple(r) for r in cut.index}
        assert observed <= allowed
        # at this scale every short difference type is realized
        short = {t for t in allowed
                 if abs(scheme.physical_of([t])[0][0]) <= 5.0}
        assert short <= observed

    def test_region_too_small(self):
        ps = integer_patch(0, 10)
        with pytest.raises(RegionTooSmall):
            ap.difference_set(ps, 20.0)

    def test_empty_keeps_column_counts(self, fib):
        # no point of the patch lies in the core [1.45, 1.55]
        patch = ap.enumerate_cut(*fib, Box.make([0.0], [3.0]))
        diffs = ap.difference_set(patch, 1.45)
        assert diffs.physical.shape == (0, 1)
        assert diffs.index.shape == (0, 2)
        assert diffs.star.shape == (0, 1)

    def test_scheme_backed_indices(self, fib_patch_small, fib):
        scheme, _ = fib
        diffs = ap.difference_set(fib_patch_small, 10.0)
        assert diffs.index is not None
        recon = scheme.physical_of(diffs.index)[:, 0]
        assert np.allclose(np.sort(recon), diffs.positions_1d())

    def test_index_span_too_large_for_the_key(self):
        # radix product (2 * (2**31 - 1) + 1)**2 > 2**62
        pts = IndexedPointSet(np.array([[0.0], [1.0], [2.0]]), Box.make([-10], [10]),
                              index=[[0, 0], [2**31 - 1, 0], [0, 2**31 - 1]],
                              star=np.zeros((3, 1)), scheme=ap.fibonacci_scheme())
        with pytest.raises(RegionTooLarge):
            ap.difference_set(pts, 5.0)

    def test_index_span_just_below_the_guard_decodes(self):
        # radix product (2**31 - 1)**2 = 2**62 - 2**32 + 1
        big = 2**30 - 1
        pts = IndexedPointSet(np.array([[0.0], [1.0], [2.0]]), Box.make([-10], [10]),
                              index=[[0, 0], [big, 0], [0, big]],
                              star=np.zeros((3, 1)), scheme=ap.fibonacci_scheme())
        _assert_same_differences(ap.difference_set(pts, 5.0), _difference_oracle(pts, 5.0))
        assert {tuple(r) for r in ap.difference_set(pts, 5.0).index} >= {(big, -big), (-big, big)}

    @settings(max_examples=60, deadline=None)
    @given(case=_patch_case())
    def test_oracle_scheme_patches(self, case):
        name, region, radius = case
        scheme, window = ap.named_scheme(name)
        patch = ap.enumerate_cut(scheme, window, region)
        _assert_same_differences(ap.difference_set(patch, radius),
                                 _difference_oracle(patch, radius))

    @settings(max_examples=60, deadline=None)
    @given(case=_grid_cloud())
    def test_oracle_raw_clouds(self, case):
        pset, radius = case
        _assert_same_differences(ap.difference_set(pset, radius),
                                 _difference_oracle(pset, radius))


class TestPackingRadius:
    def test_integers(self):
        assert ap.packing_radius(integer_patch()) == pytest.approx(0.5)

    def test_fibonacci(self, fib_patch_small):
        assert ap.packing_radius(fib_patch_small) == pytest.approx(0.5)

    def test_single_point_undefined(self):
        ps = IndexedPointSet(np.array([[0.0]]), Box.make([-1], [1]))
        with pytest.raises(UndefinedStatistic):
            ap.packing_radius(ps)

    def test_2d(self, ab_patch):
        assert ap.packing_radius(ab_patch) > 0.2


class TestFlcClusters:
    def test_integers_single_cluster(self):
        rep = ap.flc_clusters(integer_patch(), 3.0)
        assert rep.count == 1

    def test_fibonacci_finite_and_stable(self, fib, fib_patch_small):
        scheme, window = fib
        rep1 = ap.flc_clusters(fib_patch_small, 1.2)
        big = ap.enumerate_cut(scheme, window, ap.Box.make([-240], [240]))
        rep2 = ap.flc_clusters(big, 1.2)
        assert 1 <= rep1.count <= 4
        assert rep1.count == rep2.count

    def test_random_cloud_grows(self):
        small = ap.random_fixture(ap.Box.make([-100], [100]), 1.0, seed=5)
        big = ap.random_fixture(ap.Box.make([-400], [400]), 1.0, seed=5)
        r_small = ap.flc_clusters(small, 1.2)
        r_big = ap.flc_clusters(big, 1.2)
        assert r_big.count > r_small.count


def _flc_reference(pset, radius, quant=QUANT):
    """``flc_clusters`` as a per-anchor loop keyed by tuples of rounded offsets."""
    r = float(radius)
    core = pset.region.shrink(r)
    pos = pset.physical
    anchor_ids = np.flatnonzero(core.contains(pos))
    x = pos[:, 0]
    seen = {}
    for i in anchor_ids:
        lo = np.searchsorted(x, pos[i, 0] - r, side="left")
        hi = np.searchsorted(x, pos[i, 0] + r, side="right")
        cand = np.arange(lo, hi)
        offs = pos[cand] - pos[i]
        d2 = np.sum(offs ** 2, axis=1)
        offs = offs[d2 <= r * r + 1e-12]
        key = tuple(map(tuple, np.round(offs / quant).astype(np.int64)))
        if key in seen:
            seen[key][1] += 1
        else:
            seen[key] = [offs, 1]
    clusters = sorted(((v[0], v[1]) for v in seen.values()),
                      key=lambda c: (-c[1], c[0].tobytes()))
    return clusters, len(anchor_ids)


def _assert_same_clusters(pset, radius):
    rep = ap.flc_clusters(pset, radius)
    clusters, anchors = _flc_reference(pset, radius)
    assert rep.anchor_count == anchors
    assert [m for _, m in rep.clusters] == [m for _, m in clusters]
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(rep.clusters, clusters))


class TestFlcOracle:
    @settings(max_examples=40, deadline=None)
    @given(case=_patch_case())
    def test_scheme_patches(self, case):
        name, region, radius = case
        scheme, window = ap.named_scheme(name)
        _assert_same_clusters(ap.enumerate_cut(scheme, window, region), radius)

    @settings(max_examples=60, deadline=None)
    @given(case=_grid_cloud())
    def test_raw_clouds(self, case):
        _assert_same_clusters(*case)

    def test_random_control(self, random_patch):
        _assert_same_clusters(random_patch, 10.0)

    def test_near_coincident_points(self):
        # the neighbourhoods of 1 and 6 both round to [-1, 0] followed by
        # zeros; only their sizes (3 and 2 points) tell them apart
        pts = np.array([0.0, 1.0, 1.0 + 3e-8, 5.0, 6.0])[:, None]
        pset = IndexedPointSet(pts, Box.make([-2.0], [8.0]))
        _assert_same_clusters(pset, 1.5)
        assert sorted(m for _, m in ap.flc_clusters(pset, 1.5).clusters) == [1, 1, 1, 2]

    def test_square_lattice(self):
        patch = ap.enumerate_cut(ap.integer_crystal(2), None, Box.make([-6, -6], [6, 6]))
        _assert_same_clusters(patch, 2.5)


class TestRepetition:
    def test_integers(self):
        rep = ap.repetition_set(integer_patch(), 3.0)
        assert rep.max_gap == pytest.approx(1.0)

    def test_fibonacci_two_scale(self, fib, fib_patch_small):
        scheme, window = fib
        rep1 = ap.repetition_set(fib_patch_small, 5.0)
        big = ap.enumerate_cut(scheme, window, ap.Box.make([-240], [240]))
        rep2 = ap.repetition_set(big, 5.0)
        assert len(rep1.matches) > 0
        assert rep1.max_gap < 40
        assert rep2.max_gap <= rep1.max_gap * 1.5

    def test_defect_breaks_matches_nearby(self, fib_patch_small):
        pts = fib_patch_small.physical.copy()
        spurious = np.vstack([pts, [[17.17]]])
        broken = IndexedPointSet(spurious, fib_patch_small.region)
        rep = ap.repetition_set(broken, 5.0)
        good = ap.repetition_set(fib_patch_small, 5.0)
        # translations moving the reference patch onto the defect zone fail
        assert len(rep.matches) < len(good.matches)


def _old_covering_half_width(pset):
    """meyer.covering_half_width's loop for dim >= 2 before the shared helper."""
    probes = np.stack(np.meshgrid(
        *[np.linspace(pset.region.lo[i], pset.region.hi[i], 41)
          for i in range(pset.dim)], indexing="ij"), axis=-1).reshape(-1, pset.dim)
    best = np.full(len(probes), np.inf)
    for p in pset.physical:
        best = np.minimum(best, np.max(np.abs(probes - p), axis=1))
    return float(best.max())


def _old_coverage_gap(matches, valid):
    """pointset._coverage_gap's loop for dim >= 2 before the shared helper."""
    probes = np.stack(np.meshgrid(
        *[np.linspace(valid.lo[i], valid.hi[i], 33) for i in range(valid.dim)],
        indexing="ij"), axis=-1).reshape(-1, valid.dim)
    best = np.full(len(probes), np.inf)
    for t in matches:
        best = np.minimum(best, np.linalg.norm(probes - t, axis=1))
    return float(best.max())


class TestGridCoveringRadius:
    @pytest.mark.parametrize("dim,n", [(2, 1), (2, 700), (2, 3000), (3, 40)])
    def test_matches_old_loops_bitwise(self, dim, n):
        from aperiodic.meyer import covering_half_width
        from aperiodic.pointset import _coverage_gap
        rng = np.random.default_rng(n)
        box = Box.make(rng.uniform(-9, -1, dim), rng.uniform(1, 9, dim))
        pts = rng.uniform(box.lo - 1, box.hi + 1, (n, dim))
        pset = IndexedPointSet(pts, box)
        assert covering_half_width(pset) == _old_covering_half_width(pset)
        assert _coverage_gap(pts, box) == _old_coverage_gap(pts, box)

    def test_points_on_every_probe_cover_exactly(self):
        # each probe is covered only by its own copy, so a point skipped in any
        # chunk leaves a probe uncovered
        from aperiodic.pointset import _grid_covering_radius
        box = Box.make([-3.0, -2.0], [5.0, 4.0])
        probes = np.stack(np.meshgrid(np.linspace(-3.0, 5.0, 41), np.linspace(-2.0, 4.0, 41),
                                      indexing="ij"), axis=-1).reshape(-1, 2)
        pts = probes[np.random.default_rng(0).permutation(len(probes))]
        assert _grid_covering_radius(pts, box, 41, np.inf) == 0.0
        assert _grid_covering_radius(pts, box, 41) == 0.0

    def test_ammann_beenker_patch(self, ab):
        from aperiodic.meyer import covering_half_width
        from aperiodic.pointset import _coverage_gap
        scheme, window = ab
        patch = ap.enumerate_cut(scheme, window, Box.make([-12, -9], [10, 11]))
        assert covering_half_width(patch) == _old_covering_half_width(patch)
        assert _coverage_gap(patch.physical, patch.region) == _old_coverage_gap(
            patch.physical, patch.region)


# per-coordinate query offsets: exact, inside and just outside +-MATCH_TOL,
# well outside it, and off the point grid
OFFSETS = [0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 3.0, -3.0]


def _match_brute(points, queries, tol):
    out = []
    for q in queries:
        hits = np.flatnonzero(np.all(np.abs(points - q) <= tol, axis=1))
        out.append(int(hits[0]) if len(hits) else -1)
    return out


@st.composite
def _match_case(draw, dim):
    # few distinct first coordinates on a coarse grid, so in 2D many points
    # share a column of equal x, as in Ammann-Beenker patches
    cells = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * dim),
                          min_size=1, max_size=30, unique=True))
    points = np.array(cells, dtype=np.float64) * 0.37
    points = points[np.lexsort(points.T[::-1])]
    queries = []
    for _ in range(draw(st.integers(1, 20))):
        if draw(st.booleans()):
            base = points[draw(st.integers(0, len(points) - 1))]
            off = [draw(st.sampled_from(OFFSETS)) * MATCH_TOL for _ in range(dim)]
            queries.append(base + off)
        else:  # anywhere, including beyond either end of the data
            queries.append([draw(st.integers(-40, 40)) * 0.125 for _ in range(dim)])
    return points, np.array(queries)


class TestMatchIndex:
    @settings(max_examples=150, deadline=None)
    @given(_match_case(1))
    def test_oracle_1d(self, case):
        points, queries = case
        assert match_index(points, queries).tolist() == \
            _match_brute(points, queries, MATCH_TOL)

    @settings(max_examples=150, deadline=None)
    @given(_match_case(2))
    def test_oracle_2d(self, case):
        points, queries = case
        assert match_index(points, queries).tolist() == \
            _match_brute(points, queries, MATCH_TOL)

    def test_coarse_tolerance_steps_through_equal_x_column(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.05, 2.0]])
        queries = np.array([[0.02, 2.0], [0.02, 1.5], [-1.0, 0.0]])
        assert match_index(points, queries, tol=0.1).tolist() == [2, -1, -1]

    def test_empty_inputs(self):
        assert match_index(np.zeros((0, 2)), np.ones((3, 2))).tolist() == [-1] * 3
        assert match_index(np.ones((3, 2)), np.zeros((0, 2))).tolist() == []


class TestCellEdge:
    """Coordinates 2e-13 apart that straddle a 1e-7 grid cell edge still match."""

    X = 1 + 1.5e-7 + 1e-13       # a point just above the cell edge
    D = 1 + 1.5e-7 - 1e-13       # a translation landing just below it

    def patch(self):
        pts = np.array([[0.0, 0.0], [self.X, 0.0]])
        return IndexedPointSet(pts, Box.make([-3.0, -3.0], [4.0, 3.0]))

    def test_eta_table_for_deltas(self):
        deltas = [[0.0, 0.0], [self.D, 0.0], [-self.D, 0.0]]
        box = Box.make([-0.5, -0.5], [0.5, 0.5])
        table = ap.eta_table_for_deltas(self.patch(), deltas, [box])
        assert table.eta[:, 0].tolist() == [1.0, 1.0, 1.0]

    def test_patch_frequency(self):
        box = Box.make([-0.5, -0.5], [1.5, 0.5])
        rep = ap.patch_frequency(self.patch(), [[0.0, 0.0], [self.D, 0.0]],
                                 [box], [[0.0, 0.0]])
        assert rep.counts.tolist() == [[1]]


class TestPatchFrequency:
    def test_single_point_motif_gives_density(self, fib_patch_2k, fib, boxes_2k):
        scheme, window = fib
        rep = ap.patch_frequency(fib_patch_2k, [[0.0]], boxes_2k, [[0.0]])
        assert rep.freqs[0, -1] == pytest.approx(
            ap.model_density(scheme, window), rel=0.01)

    def test_pair_motif_matches_intersected_window(self, fib_patch_2k, fib, boxes_2k):
        scheme, window = fib
        # motif {0, 1}: the second point forces the star into W and W - 1*
        rep = ap.patch_frequency(fib_patch_2k, [[0.0], [1.0]], boxes_2k, [[0.0]])
        shifted = window.translate(-scheme.star_of([(1, 0)])[0][0])
        sub = window.intersect(shifted)
        expected = ap.model_density(scheme, sub)
        assert rep.freqs[0, -1] == pytest.approx(expected, rel=0.02)

    def test_anchor_spread_small(self, fib_patch_2k, fib, boxes_2k):
        boxes = boxes_2k[:4]  # anchors shift the boxes, keep them in range
        rep = ap.patch_frequency(fib_patch_2k, [[0.0], [1.0]], boxes,
                                 [[0.0], [1000.0]])
        assert rep.spread < 0.02


class TestPeriods:
    def test_integers(self):
        rep = ap.period_candidates(integer_patch(), scan_radius=10.0)
        vals = sorted(rep.periods[:, 0].tolist())
        assert vals == list(range(-10, 11))
        assert rep.lattice_rank == 1

    def test_fibonacci_aperiodic(self, fib_patch_small):
        rep = ap.period_candidates(fib_patch_small, scan_radius=30.0)
        assert rep.periods.tolist() == [[0.0]]
        assert rep.lattice_rank == 0

    def test_square_crystal(self):
        scheme = ap.integer_crystal(2)
        patch = ap.enumerate_cut(scheme, None, ap.Box.make([-20, -20], [20, 20]))
        rep = ap.period_candidates(patch, scan_radius=5.0)
        assert rep.lattice_rank == 2
        assert any(tuple(p) == (1.0, 0.0) for p in rep.periods)
        assert any(tuple(p) == (0.0, 1.0) for p in rep.periods)


class TestLtClose:
    def test_identical(self, fib_patch_small):
        ok, v = ap.lt_close(fib_patch_small, fib_patch_small, 10.0, 0.5)
        assert ok and abs(v[0]) < 1e-9

    def test_shifted_recovered(self, fib_patch_small):
        v0 = 0.037
        shifted = fib_patch_small.translate([v0])
        ok, v = ap.lt_close(shifted, fib_patch_small, 10.0, 0.5)
        assert ok
        assert v[0] == pytest.approx(-v0, abs=1e-6)

    def test_difference_translate_snaps_exact(self, fib, fib_patch_small):
        # for sets with uniformly discrete differences, a near-match on a big
        # box by a difference translation is an exact match with zero shift
        scheme, window = fib
        diffs = ap.difference_set(fib_patch_small, 30.0)
        x = diffs.positions_1d()[np.argmin(np.abs(np.abs(diffs.positions_1d()) - 20))]
        big = ap.enumerate_cut(scheme, window, ap.Box.make([-400], [400]))
        shifted = big.translate([-x])
        ok, v = ap.lt_close(shifted, big, 10.0, 0.12)
        if ok:
            assert abs(v[0]) < 1e-7

    def test_snap_stays_within_shift_radius(self, fib_patch_small):
        # the mean pair offset points at the true shift -0.55, outside the
        # radius, so the grid shift is kept and the patches do not match
        ok, v = ap.lt_close(fib_patch_small.translate([0.55]), fib_patch_small, 10.0, 0.5)
        assert not ok
        assert abs(v[0]) <= 0.5


def _old_lt_close(pset, other, match_radius, shift_radius):
    """pointset.lt_close with its own meshgrid search and per-point snap,
    before the shared shift search."""
    box = Box.centered(match_radius, pset.dim)
    v = np.zeros(pset.dim)
    step = shift_radius / 10.0
    grid = np.arange(-10, 11, dtype=np.float64)
    for _ in range(3):
        best_v, best_score = v, _old_lt_mismatch(pset, other, box, v, max(step, MATCH_TOL))
        offsets = (np.stack(np.meshgrid(*[grid] * pset.dim, indexing="ij"), axis=-1)
                   .reshape(-1, pset.dim) * step)
        for off in offsets:
            cand = v + off
            if np.max(np.abs(cand)) > shift_radius + 1e-12:
                continue
            score = _old_lt_mismatch(pset, other, box, cand, max(step, MATCH_TOL))
            if score < best_score or (score == best_score and
                                      np.linalg.norm(cand) < np.linalg.norm(best_v)):
                best_v, best_score = cand, score
        v = best_v
        step /= 10.0
    v = _old_snap_shift(pset, other, box, v, match_radius / 10.0)
    matched = _old_lt_mismatch(pset, other, box, v, MATCH_TOL) == 0
    return matched, v


def _old_lt_mismatch(pset, other, box, v, tol) -> int:
    a = pset.physical + v
    amask = box.contains(a, tol=MATCH_TOL)
    b = other.physical[other.contains_mask(box)]
    a = a[amask]
    return len(a) + len(b) - 2 * _distinct_matches(a, b, tol)


def _old_snap_shift(pset, other, box, v, pair_tol):
    a = pset.physical + v
    amask = box.contains(a, tol=MATCH_TOL)
    a = a[amask]
    b = other.physical[other.contains_mask(box)]
    if len(a) == 0 or len(b) == 0:
        return v
    deltas = []
    bx = b[:, 0]
    for p in a:
        lo = np.searchsorted(bx, p[0] - pair_tol, side="left")
        hi = np.searchsorted(bx, p[0] + pair_tol, side="right")
        if hi > lo:
            cand = b[lo:hi]
            j = np.argmin(np.linalg.norm(cand - p, axis=1))
            if np.all(np.abs(cand[j] - p) <= pair_tol):
                deltas.append(cand[j] - p)
    if not deltas:
        return v
    return v + np.mean(deltas, axis=0)


@pytest.fixture(scope="module")
def ab_patch_small(ab):
    scheme, window = ab
    return ap.enumerate_cut(scheme, window, Box.make([-8, -8], [8, 8]))


# (shift, match radius, shift radius, snapped past the shift radius before)
LT_CASES_1D = [(0.0, 10.0, 0.5, False), (0.037, 10.0, 0.5, False), (-0.21, 10.0, 0.5, False),
               (0.49, 10.0, 0.5, False), (0.0123, 10.0, 0.5, False), (0.55, 10.0, 1.0, False),
               (1.0, 10.0, 0.5, False), (0.1, 5.0, 0.2, False),
               (0.55, 10.0, 0.5, True), (0.2, 10.0, 0.12, True)]
LT_CASES_2D = [((0.03, -0.02), 4.0, 0.5, False),
               ((0.0123, -0.0071), 4.0, 0.5, False), ((0.45, -0.45), 4.0, 0.5, False),
               ((0.52, 0.0), 4.0, 0.5, True)]


class TestLtCloseOracle:
    """lt_close equals the pre-refactor search bit for bit, except that a
    snap past the shift radius now keeps the grid shift."""

    def check(self, pset, shift, match_radius, shift_radius, fixed):
        moved = pset.translate(shift)
        ok, v = ap.lt_close(moved, pset, match_radius, shift_radius)
        old_ok, old_v = _old_lt_close(moved, pset, match_radius, shift_radius)
        if fixed:
            assert np.max(np.abs(old_v)) > shift_radius
            assert np.max(np.abs(v)) <= shift_radius
        else:
            assert ok == old_ok
            assert v.tobytes() == old_v.tobytes()

    @pytest.mark.parametrize("shift,match_radius,shift_radius,fixed", LT_CASES_1D)
    def test_fibonacci(self, fib_patch_small, shift, match_radius, shift_radius, fixed):
        self.check(fib_patch_small, [shift], match_radius, shift_radius, fixed)

    @pytest.mark.parametrize("shift,match_radius,shift_radius,fixed", LT_CASES_2D)
    def test_ammann_beenker(self, ab_patch_small, shift, match_radius, shift_radius, fixed):
        self.check(ab_patch_small, shift, match_radius, shift_radius, fixed)


def _nearest_brute(a, b, reach):
    rows = []
    for p in a:
        cand = [q for q in b if abs(q[0] - p[0]) <= reach]
        if cand:
            dist = [math.sqrt(sum((qc - pc) ** 2 for qc, pc in zip(q, p))) for q in cand]
            rows.append(cand[dist.index(min(dist))] - p)
    return np.array(rows).reshape(-1, a.shape[1])


class TestNearestOffsets:
    @pytest.mark.parametrize("dim,seed", [(1, 0), (1, 1), (2, 2), (2, 3)])
    def test_matches_brute_force(self, dim, seed):
        rng = np.random.default_rng(seed)
        b = IndexedPointSet(rng.uniform(0, 20, (60, dim)), Box.make([0] * dim, [20] * dim))
        a = rng.uniform(-2, 22, (80, dim))
        got = _nearest_offsets(a, b.physical, 0.4)
        assert 0 < len(got) < len(a)
        assert got.tobytes() == _nearest_brute(a, b.physical, 0.4).tobytes()

    def test_exact_tie_takes_the_first_partner(self):
        b = np.array([[0.0], [1.0]])
        assert _nearest_offsets(np.array([[0.5], [0.75]]), b, 1.0).tolist() == [[-0.5], [0.25]]
        b = np.array([[0.0, -1.0], [0.0, 1.0]])
        assert _nearest_offsets(np.array([[0.0, 0.0]]), b, 1.0).tolist() == [[0.0, -1.0]]

    def test_empty_strip(self):
        b = np.array([[0.0], [1.0]])
        got = _nearest_offsets(np.array([[0.25], [5.0], [0.75]]), b, 0.5)
        assert got.tolist() == [[-0.25], [0.25]]
        assert _nearest_offsets(np.array([[5.0]]), b, 0.5).shape == (0, 1)
        assert _nearest_offsets(np.zeros((0, 2)), np.zeros((0, 2)), 0.5).shape == (0, 2)
