"""Oracle checks for the numpy kernels and the point-matching helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aperiodic as ap
from aperiodic import kernels
from aperiodic.autocorr import _eta_counts
from aperiodic.pointset import (
    Box,
    IndexedPointSet,
    _agrees_on,
    _distinct_matches,
    _nearest_distance,
    _pairs_within,
    _translate_hits,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.Generator(np.random.PCG64(42))
    pos = np.sort(rng.uniform(0, 100, size=400))
    deltas = np.concatenate([[0.0], pos[:40] - pos[10]])
    return pos, deltas


def _eta_brute(pos, deltas, blo, bhi, tol):
    out = np.zeros((len(deltas), len(blo)), dtype=np.int64)
    for j in range(len(blo)):
        for i, d in enumerate(deltas):
            c = 0
            for x in pos:
                if blo[j] - tol <= x <= bhi[j] + tol and \
                        np.any(np.abs(pos - (x + d)) <= tol):
                    c += 1
            out[i, j] = c
    return out


def test_eta_counts_oracle(data):
    pos, deltas = data
    blo = np.array([0.0, 10.0])
    bhi = np.array([50.0, 90.0])
    expected = _eta_brute(pos, deltas[:12], blo, bhi, 1e-7)
    pset = IndexedPointSet(pos[:, None], Box.make([0.0], [100.0]))
    boxes = [Box.make([lo], [hi]) for lo, hi in zip(blo, bhi)]
    got = _eta_counts(pset, deltas[:12, None], boxes)
    assert np.array_equal(got, expected)


def _eta_oracle(pset, deltas, boxes):
    """eta counts by one ``match_index`` query per (anchor, delta)."""
    counts = np.zeros((len(deltas), len(boxes)))
    for b, box in enumerate(boxes):
        seg = pset.physical[pset.contains_mask(box)]
        for rows, hits in _translate_hits(pset.physical, seg, deltas):
            counts[rows, b] = hits.sum(axis=1)
    return counts


def _random_boxes(rng, region):
    """Two boxes inside ``region`` and one beside it, which holds no anchor."""
    span = region.span()
    boxes = []
    for _ in range(2):
        lo = region.lo + rng.uniform(0, 0.6, region.dim) * span
        boxes.append(Box.make(lo, lo + rng.uniform(0.05, 0.4, region.dim) * span))
    boxes.append(Box.make(region.hi + 1.0, region.hi + 2.0))
    return boxes


SCHEMES = {
    "fib": (ap.fibonacci_scheme, ap.fibonacci_window),
    "silver": (ap.silver_scheme, ap.silver_window),
    "ab": (ap.ammann_beenker_scheme, ap.ammann_beenker_window),
    "z": (lambda: ap.integer_crystal(1), lambda: None),
    "z2": (lambda: ap.integer_crystal(2), lambda: None),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SCHEMES)), seed=st.integers(0, 2**32 - 1),
       side=st.floats(2.0, 30.0), lo=st.floats(-50.0, 50.0))
def test_eta_counts_scheme_oracle(name, seed, side, lo):
    scheme, window = (make() for make in SCHEMES[name])
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = scheme.d
    side = side if dim == 1 else side / 4
    pset = ap.enumerate_cut(scheme, window, Box.make([lo] * dim, [lo + side] * dim))
    # lattice differences of patch points (and their negatives), repeated rows,
    # and small lattice vectors, most of which are no difference of the patch
    idx = rng.integers(-3, 4, (12, scheme.k))
    if len(pset):
        a, b = rng.integers(0, len(pset), (2, 25))
        idx = np.vstack([idx, pset.index[b] - pset.index[a], [np.zeros(scheme.k, int)]])
        idx = np.vstack([idx, idx[:4]])
    deltas = (idx @ scheme.basis.T)[:, :dim]
    boxes = _random_boxes(rng, pset.region)
    want = _eta_oracle(pset, deltas, boxes)
    assert np.array_equal(_eta_counts(pset, deltas, boxes), want)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       cells=st.integers(1, 50), twins=st.integers(0, 12))
def test_eta_counts_raw_oracle(dim, seed, cells, twins):
    rng = np.random.Generator(np.random.PCG64(seed))
    base = np.unique(rng.integers(0, 25, (cells, dim)), axis=0) * 0.1
    # crowded points: twins 4e-8..1.6e-7 away, so one x + delta can match two
    # points; every offset is a multiple of 4e-8, which keeps all residuals
    # 2e-8 clear of MATCH_TOL
    step = 4e-8
    pick = rng.choice(len(base), min(twins, len(base)), replace=False)
    twin = base[pick] + step * rng.integers(1, 5, (len(pick), dim))
    pts = np.vstack([base, twin])
    pset = IndexedPointSet(pts, Box.make([0.0] * dim, [2.5] * dim))
    a, b = rng.integers(0, len(pts), (2, 30))
    deltas = pts[b] - pts[a]
    deltas = np.vstack([
        deltas,
        deltas[:8] + step * rng.integers(-3, 4, (min(8, len(deltas)), dim)),  # near-duplicates
        rng.integers(-10, 10, (6, dim)) * 0.1 + 0.05,                        # no difference
        np.zeros((1, dim)),
    ])
    boxes = _random_boxes(rng, pset.region)
    assert np.array_equal(_eta_counts(pset, deltas, boxes), _eta_oracle(pset, deltas, boxes))


def test_eta_counts_anchorless_box(data):
    pos, deltas = data
    pset = IndexedPointSet(pos[:, None], Box.make([0.0], [100.0]))
    boxes = [Box.make([10.0], [20.0]), Box.make([200.0], [300.0])]
    counts = _eta_counts(pset, deltas[:, None], boxes)
    assert np.array_equal(counts, _eta_oracle(pset, deltas[:, None], boxes))
    assert counts[:, 0].any() and not counts[:, 1].any()


def test_eta_counts_no_deltas(data):
    pos, _ = data
    pset = IndexedPointSet(pos[:, None], Box.make([0.0], [100.0]))
    counts = _eta_counts(pset, np.zeros((0, 1)), [Box.make([10.0], [20.0])])
    assert counts.shape == (0, 1)


def test_eta_counts_empty_patch(data):
    _, deltas = data
    empty = IndexedPointSet(np.zeros((0, 1)), Box.make([0.0], [100.0]))
    counts = _eta_counts(empty, deltas[:, None], [Box.make([10.0], [20.0])])
    assert np.array_equal(counts, np.zeros((len(deltas), 1)))


def test_count_matches_oracle():
    a = np.array([0.0, 1.0, 2.0, 3.5])[:, None]
    b = np.array([1.0 + 5e-8, 2.0, 2.9, 5.0])[:, None]
    assert _distinct_matches(a, b, 1e-7) == 2


def test_weyl_sums_agree(data):
    pos, _ = data
    ks = np.array([0.0, 0.3, 1.7])
    lo = np.array([0, 100], dtype=np.int64)
    hi = np.array([200, 400], dtype=np.int64)
    got = kernels.weyl_sums_1d(pos, ks, lo, hi)
    direct = np.array([
        [np.exp(-2j * np.pi * k * pos[l:h]).sum() for l, h in zip(lo, hi)]
        for k in ks
    ])
    assert np.allclose(got, direct, atol=1e-9)


def _pairs_brute(points, anchors, r):
    return [(i, j) for i in anchors for j in range(len(points))
            if points[i, 0] - r <= points[j, 0] <= points[i, 0] + r
            and np.sum((points[j] - points[i]) ** 2) <= r * r + 1e-12]


def test_pairs_within_oracle(monkeypatch):
    for dim in (1, 2, 3):
        for budget in (1, 7, 200, kernels.PAIR_BUDGET):
            monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
            _check_pairs_within(dim, budget)


def _check_pairs_within(dim, budget):
    rng = np.random.Generator(np.random.PCG64(42 + dim))
    # a coarse first coordinate puts several points in one column
    pts = np.column_stack([rng.integers(0, 12, 150) * 0.5, rng.uniform(0, 6, (150, dim - 1))])
    pts = np.unique(pts, axis=0)
    x = pts[:, 0]
    for anchors in (np.flatnonzero((x >= 1.0) & (x <= 4.0)), np.arange(0),
                    np.array([0, len(pts) - 1])):
        # strip ends on the 0.5 grid: pairs at both ends are included
        chunks = list(kernels.strip_pairs(x, anchors, -1.5, 1.0))
        ii = np.concatenate([i for i, _ in chunks] or [np.zeros(0, np.int64)])
        jj = np.concatenate([j for _, j in chunks] or [np.zeros(0, np.int64)])
        assert all(i.dtype == j.dtype == np.int64 for i, j in chunks)
        # anchor-major with j ascending, and no anchor split across chunks
        assert list(zip(ii.tolist(), jj.tolist())) == [
            (i, j) for i in anchors for j in range(len(x)) if x[i] - 1.5 <= x[j] <= x[i] + 1.0]
        owners = [set(i.tolist()) for i, _ in chunks]
        assert all(not a & b for a, b in zip(owners, owners[1:]))
        assert all(len(i) <= budget or len(a) == 1 for (i, _), a in zip(chunks, owners))
        ii, jj = _pairs_within(pts, anchors, 1.0)
        assert ii.dtype == jj.dtype == np.int64
        assert list(zip(ii.tolist(), jj.tolist())) == _pairs_brute(pts, anchors, 1.0)


def _min_distance_loop(points, skip_zero):
    """The per-point double loop over a first-coordinate window, as a reference."""
    pts = points[np.lexsort(points.T[::-1])]
    x = pts[:, 0]
    best = np.inf
    for i in range(len(pts)):
        hi = np.searchsorted(x, x[i] + best, side="right")
        for j in range(i + 1, hi):
            v = pts[j] - pts[i]
            dist = float(np.hypot(*v)) if len(v) == 2 and not skip_zero else \
                float(np.linalg.norm(v))
            if dist < best and (dist > 0 or not skip_zero):
                best = dist
                hi = np.searchsorted(x, x[i] + best, side="right")
    return best


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 3), cells=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       coarse=st.booleans())
def test_nearest_neighbour_oracle(dim, cells, seed, coarse):
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.uniform(0, 5, (cells, dim))
    if coarse:  # columns of equal first coordinate, points on a grid
        pts = np.round(pts * 2) / 2
    pts = np.unique(pts, axis=0)
    if len(pts) >= 2:
        pset = IndexedPointSet(pts, Box.make([0.0] * dim, [5.0] * dim))
        assert ap.packing_radius(pset) == _min_distance_loop(pts, False) / 2.0
    # the star-gap scan skips coincident points
    doubled = np.vstack([pts, pts[:3]])
    assert _nearest_distance(doubled) == _min_distance_loop(doubled, True)


def test_translate_match_oracle():
    # integer segment plus one off-lattice point outside the match box
    pos = np.concatenate([np.arange(-3.0, 7.0), [7.4]])
    pset = IndexedPointSet(pos[:, None], Box.make([-3.0], [7.5]))
    ts = np.array([1.0, 2.0, 0.5, 3.0])
    # the patch covers [0,3] shifted by any t <= 3, so integer shifts match
    box = Box.make([0.0], [3.0])
    got = [_agrees_on(pset, np.array([t]), box) for t in ts]
    assert got == [True, True, False, True]
