import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aperiodic as ap
from aperiodic.errors import ChainFailure, NotInL, RegionTooSmall
from aperiodic.meyer import MeyerCertificate, _count_in_boxes, covering_half_width
from aperiodic.pointset import MATCH_TOL, Box, IndexedPointSet


def integer_patch(lo=-110, hi=110):
    pts = np.arange(lo, hi + 1, dtype=np.float64)[:, None]
    idx = np.arange(lo, hi + 1, dtype=np.int64)[:, None]
    return IndexedPointSet(pts, Box.make([lo], [hi]), index=idx,
                           star=np.zeros((hi - lo + 1, 0)),
                           scheme=ap.integer_crystal(1))


class TestGeneratorNorm:
    def test_zero(self, fib):
        scheme, _ = fib
        assert ap.generator_norm(scheme, (0, 0)) == 0

    def test_basis_vector(self, fib):
        scheme, _ = fib
        assert ap.generator_norm(scheme, (1, 0)) == 1

    def test_example(self, fib):
        scheme, _ = fib
        assert ap.generator_norm(scheme, (2, -3)) == 5

    def test_wrong_shape(self, fib):
        scheme, _ = fib
        with pytest.raises(NotInL):
            ap.generator_norm(scheme, (1, 2, 3))

    def test_triangle_inequality(self, fib, rng):
        scheme, _ = fib
        a = rng.integers(-50, 50, size=(1000, 2))
        b = rng.integers(-50, 50, size=(1000, 2))
        for x, y in zip(a, b):
            assert ap.generator_norm(scheme, x + y) <= \
                ap.generator_norm(scheme, x) + ap.generator_norm(scheme, y)


class TestM1Cover:
    def test_integers_single_translator(self):
        rep = ap.m1_cover(integer_patch(), 20.0)
        assert rep.card_small == rep.card_large == 1
        assert np.allclose(rep.translators, 0.0)

    def test_fibonacci_two_scale_stable(self, fib):
        scheme, window = fib
        patch = ap.enumerate_cut(scheme, window, ap.Box.make([-250], [250]))
        rep = ap.m1_cover(patch, 50.0)
        assert rep.stable
        assert 1 <= rep.card_small <= 20

    def test_random_fixture_grows(self):
        cloud = ap.random_fixture(ap.Box.make([-300], [300]), 0.7, seed=13)
        rep = ap.m1_cover(cloud, 60.0)
        assert rep.card_large > rep.card_small


class TestWeakUD:
    def test_integer_diff_count(self):
        diffs = ap.difference_set(integer_patch(), 30.0)
        rep = ap.weak_ud_bound(diffs, 2.0, [[0.0], [7.3], [-11.6]])
        assert rep.bound == 5

    def test_fibonacci_anchor_independent(self, fib_patch_small, rng):
        diffs = ap.difference_set(fib_patch_small, 40.0)
        anchors = rng.uniform(-30, 30, size=(100, 1))
        rep = ap.weak_ud_bound(diffs, 2.0, anchors)
        assert rep.counts.max() - rep.counts.min() <= rep.counts.max() // 2 + 1
        assert rep.bound_doubled <= 4 * rep.bound

    def test_random_fixture_spread(self):
        cloud = ap.random_fixture(ap.Box.make([-300], [300]), 2.0, seed=23)
        diffs = ap.difference_set(cloud, 60.0)
        rng = np.random.Generator(np.random.PCG64(2))
        anchors = rng.uniform(-40, 40, size=(60, 1))
        rep = ap.weak_ud_bound(diffs, 2.0, anchors)
        assert rep.counts.max() > rep.counts.min()


@pytest.fixture(scope="module")
def cert_patch(fib):
    scheme, window = fib
    return ap.enumerate_cut(scheme, window, ap.Box.make([-650], [650]))


class TestSteppingCertificate:
    def test_equal_pair_trivial(self, fib, cert_patch):
        scheme, _ = fib
        idx = cert_patch.index[np.argmin(np.abs(cert_patch.physical[:, 0] - 40))]
        cert = ap.stepping_certificate(cert_patch, scheme, idx, idx)
        assert cert.valid
        assert cert.f_norm == 0 or cert.f_norm <= cert.bound

    def test_seeded_pairs_validate(self, fib, cert_patch):
        scheme, _ = fib
        rng = np.random.Generator(np.random.PCG64(555))
        pool = np.flatnonzero((cert_patch.physical[:, 0] >= 0)
                              & (cert_patch.physical[:, 0] <= 500))
        diffs = ap.difference_set(cert_patch, 520.0)
        for _ in range(25):
            i, j = rng.choice(pool, size=2, replace=True)
            cert = ap.stepping_certificate(cert_patch, scheme,
                                           cert_patch.index[i], cert_patch.index[j],
                                           shared_diffs=diffs)
            assert cert.valid
            assert cert.f_norm <= cert.bound
            assert len({tuple(s["q"]) for s in cert.steps}) <= len(cert.steps)

    def test_chain_membership_checks_exact(self, fib, cert_patch):
        scheme, _ = fib
        idx_x = cert_patch.index[np.argmin(np.abs(cert_patch.physical[:, 0] - 100))]
        idx_y = cert_patch.index[np.argmin(np.abs(cert_patch.physical[:, 0] - 333))]
        cert = ap.stepping_certificate(cert_patch, scheme, idx_x, idx_y)
        assert cert.checks["rung_in_2k"]
        assert cert.checks["p_step_norm"] and cert.checks["q_step_norm"]
        assert cert.checks["v_card_le_M"]
        # the decomposition y - x = q_last + f holds exactly on indices
        v = np.asarray(cert.y_index) - np.asarray(cert.x_index)
        q_last = np.asarray(cert.steps[-1]["q"])
        assert np.array_equal(v - q_last, np.asarray(cert.f_index))

    def test_pair_near_edge_fails(self, fib):
        scheme, window = fib
        patch = ap.enumerate_cut(scheme, window, ap.Box.make([-20], [20]))
        pos = patch.physical[:, 0]
        idx_x = patch.index[np.argmax(pos)]
        idx_y = patch.index[np.argmin(pos)]
        with pytest.raises(ChainFailure):
            ap.stepping_certificate(patch, scheme, idx_x, idx_y)

    def test_origin_required(self, fib):
        scheme, window = fib
        patch = ap.enumerate_cut(scheme, window, ap.Box.make([5], [120]))
        with pytest.raises(ChainFailure):
            ap.stepping_certificate(patch, scheme, patch.index[0], patch.index[1])


class TestM1ImpliesM2:
    @pytest.mark.parametrize("name", ["fibonacci", "silver"])
    def test_cover_stable_implies_difference_packing(self, name):
        scheme, window = ap.named_scheme(name)
        patch = ap.enumerate_cut(scheme, window, ap.Box.make([-250], [250]))
        cover = ap.m1_cover(patch, 40.0)
        assert cover.stable
        diffs = ap.difference_set(patch, 40.0)
        assert ap.packing_radius(diffs) > 0


# -- the per-difference, per-anchor and per-rung loops the array paths replaced ----------

def _old_nearest_point(pset, sorted_pos, target):
    if pset.dim == 1:
        t = float(target[0])
        j = int(np.searchsorted(sorted_pos, t))
        best, best_d = None, np.inf
        for cand in (j - 1, j, j + 1):
            if 0 <= cand < len(sorted_pos):
                d = abs(sorted_pos[cand] - t)
                if d < best_d - 1e-12:
                    best, best_d = cand, d
        return best
    d2 = np.sum((pset.physical - target) ** 2, axis=1)
    return int(np.argmin(d2))



def _old_select_near(pset, sorted_pos, target, k_half, step):
    j = _old_nearest_point(pset, sorted_pos, np.atleast_1d(target))
    if j is None or np.max(np.abs(pset.physical[j] - target)) > k_half + MATCH_TOL:
        raise ChainFailure(step, f"no patch point within {k_half} of {target}")
    return pset.index[j]


def _old_stepping_certificate(pset, scheme, x_index, y_index, n_anchors=200,
                              seed=20240901, k_half=None, shared_diffs=None):
    """``stepping_certificate`` as the per-rung loop computed it."""
    x_index = np.asarray(x_index, dtype=np.int64)
    y_index = np.asarray(y_index, dtype=np.int64)
    if not (pset.index == 0).all(axis=1).any():
        raise ChainFailure(-1, "the patch must contain the origin")
    if k_half is None:
        k_half = 1.1 * covering_half_width(pset)
    x = scheme.physical_of([x_index])[0]
    y = scheme.physical_of([y_index])[0]
    v = y - x
    v_index = y_index - x_index
    ell = max(1, int(np.ceil(np.max(np.abs(x)) / k_half)))
    step_vec = x / ell
    r_norm = float(np.max(np.abs(v))) + 2.0 * k_half
    diff_radius = max(3.0 * k_half, r_norm) * (np.sqrt(pset.dim))
    diffs = shared_diffs
    if diffs is not None and float(np.min(diffs.region.hi)) < diff_radius:
        diffs = None
    if diffs is None:
        try:
            diffs = ap.difference_set(pset, diff_radius)
        except RegionTooSmall as exc:
            raise ChainFailure(-1, f"patch too small for difference radius: {exc}") from exc
    norms_l1 = np.abs(diffs.index).sum(axis=1)
    in_3k = np.all(np.abs(diffs.physical) <= 3.0 * k_half + MATCH_TOL, axis=1)
    m = int(norms_l1[in_3k].max())
    rng = np.random.Generator(np.random.PCG64(seed))
    usable = max(float(np.max(np.abs(diffs.physical))) - 2.0 * k_half, k_half)
    anchors = rng.uniform(-usable, usable, size=(n_anchors, pset.dim))
    anchors = np.vstack([v[None, :], anchors])
    big_m = int(_count_in_boxes(diffs, anchors, 2.0 * k_half).max())
    bound = 2 * m * big_m

    pos = pset.positions_1d() if pset.dim == 1 else None
    steps = []
    p_prev = q_prev = None
    all_checks = {"rung_in_2k": True, "p_step_norm": True, "q_step_norm": True}
    v_set_indices = set()
    for i in range(ell + 1):
        x_i = x - i * step_vec
        y_i = x_i + v
        if i == 0:
            p_idx, q_idx = x_index, y_index
        elif i == ell:
            p_idx = np.zeros(scheme.k, dtype=np.int64)
            q_idx = _old_select_near(pset, pos, y_i, k_half, i)
        else:
            p_idx = _old_select_near(pset, pos, x_i, k_half, i)
            q_idx = _old_select_near(pset, pos, y_i, k_half, i)
        p_phys = scheme.physical_of([p_idx])[0]
        q_phys = scheme.physical_of([q_idx])[0]
        if np.max(np.abs(p_phys - x_i)) > k_half + MATCH_TOL:
            raise ChainFailure(i, f"no point within K of rung {i}")
        if np.max(np.abs(q_phys - y_i)) > k_half + MATCH_TOL:
            raise ChainFailure(i, f"no point within K of parallel rung {i}")
        if np.max(np.abs(q_phys - p_phys - v)) > 2.0 * k_half + MATCH_TOL:
            all_checks["rung_in_2k"] = False
        if p_prev is not None:
            if int(np.abs(p_idx - p_prev).sum()) > m:
                all_checks["p_step_norm"] = False
            if int(np.abs(q_idx - q_prev).sum()) > m:
                all_checks["q_step_norm"] = False
        v_set_indices.add(tuple(q_idx - p_idx))
        steps.append({
            "k": (step_vec if i > 0 else np.zeros_like(step_vec)).tolist(),
            "p": [int(t) for t in p_idx],
            "q": [int(t) for t in q_idx],
        })
        p_prev, q_prev = p_idx, q_idx

    q_last = np.asarray(steps[-1]["q"], dtype=np.int64)
    f_index = v_index - q_last
    f_norm = int(np.abs(f_index).sum())
    all_checks["v_card_le_M"] = len(v_set_indices) <= big_m
    all_checks["f_norm_le_bound"] = f_norm <= bound
    valid = all(all_checks.values())
    return MeyerCertificate(tuple(int(t) for t in x_index),
                            tuple(int(t) for t in y_index),
                            float(k_half), steps, m, big_m, bound,
                            tuple(int(t) for t in f_index), f_norm,
                            all_checks, valid)


def _outcome(certify, pset, scheme, x_index, y_index, **kw):
    """The certificate's JSON text, or the failing step and message."""
    try:
        return json.dumps(certify(pset, scheme, x_index, y_index, **kw).to_json())
    except ChainFailure as exc:
        return exc.step, str(exc)

def _old_m1_cover(pset, radius):
    diffs = ap.difference_set(pset, 2.0 * radius)
    pos = pset.positions_1d() if pset.dim == 1 else None
    small_keys, large_keys = set(), set()
    translators = {}
    for i in range(len(diffs)):
        delta = diffs.physical[i]
        j = _old_nearest_point(pset, pos, delta)
        f_phys = delta - pset.physical[j]
        if diffs.index is not None and pset.index is not None:
            key = tuple(diffs.index[i] - pset.index[j])
        else:
            key = tuple(np.round(f_phys / MATCH_TOL).astype(np.int64))
        large_keys.add(key)
        if float(np.max(np.abs(delta))) <= radius + MATCH_TOL:
            small_keys.add(key)
        if key not in translators:
            translators[key] = f_phys
    keys = sorted(translators)
    f_arr = np.array([translators[k] for k in keys])
    idx_arr = (np.array(keys, dtype=np.int64)
               if diffs.index is not None and pset.index is not None else None)
    return f_arr, idx_arr, len(small_keys), len(large_keys)


def _old_count_in_box(diffs, center, half):
    center = np.asarray(center, dtype=np.float64)
    if diffs.dim == 1:
        pos = diffs.positions_1d()
        lo = np.searchsorted(pos, center[0] - half - MATCH_TOL)
        hi = np.searchsorted(pos, center[0] + half + MATCH_TOL, side="right")
        return int(hi - lo)
    box = Box(center - half, center + half)
    return int(np.count_nonzero(diffs.contains_mask(box)))


def _old_big_m(pset, scheme, x_index, y_index, n_anchors=200, seed=20240901):
    """The M of ``stepping_certificate`` as the anchor loop computed it."""
    k_half = 1.1 * covering_half_width(pset)
    v = (scheme.physical_of([y_index]) - scheme.physical_of([x_index]))[0]
    r_norm = float(np.max(np.abs(v))) + 2.0 * k_half
    diffs = ap.difference_set(pset, max(3.0 * k_half, r_norm) * (np.sqrt(pset.dim)))
    rng = np.random.Generator(np.random.PCG64(seed))
    usable = max(float(np.max(np.abs(diffs.physical))) - 2.0 * k_half, k_half)
    anchors = rng.uniform(-usable, usable, size=(n_anchors, pset.dim))
    anchors = np.vstack([v[None, :], anchors])
    return int(max(_old_count_in_box(diffs, a, 2.0 * k_half) for a in anchors))



def _certify_both(pset, scheme, pairs, **kw):
    """Outcomes of the array pass, each checked against the per-rung loop."""
    outcomes = []
    for i, j in pairs:
        args = (pset, scheme, pset.index[i], pset.index[j])
        new = _outcome(ap.stepping_certificate, *args, **kw)
        assert new == _outcome(_old_stepping_certificate, *args, **kw)
        outcomes.append(new)
    return outcomes


def _failed_steps(outcomes):
    return [o[0] for o in outcomes if isinstance(o, tuple)]


class TestSteppingCertificateMatchesRungLoop:
    def test_fibonacci_shared_diffs(self, fib, cert_patch):
        diffs = ap.difference_set(cert_patch, 520.0)
        rng = np.random.Generator(np.random.PCG64(808))
        pool = np.flatnonzero((cert_patch.physical[:, 0] >= 0)
                              & (cert_patch.physical[:, 0] <= 500))
        outcomes = _certify_both(cert_patch, fib[0], rng.choice(pool, size=(30, 2)),
                                 shared_diffs=diffs)
        assert not _failed_steps(outcomes)

    @pytest.mark.parametrize("name,half", [("silver", 300.0), ("ammann_beenker", 12.0)])
    def test_other_schemes(self, name, half):
        scheme, window = ap.named_scheme(name)
        patch = ap.enumerate_cut(scheme, window, Box.centered(half, scheme.d))
        pool = np.flatnonzero(np.all(np.abs(patch.physical) <= half / 4 - 0.5, axis=1))
        rng = np.random.Generator(np.random.PCG64(31))
        pairs = rng.choice(pool, size=(10 if scheme.d == 1 else 2, 2))
        assert not _failed_steps(_certify_both(patch, scheme, pairs))

    def test_patch_too_small(self, fib):
        patch = ap.enumerate_cut(*fib, Box.make([-20], [20]))
        rng = np.random.Generator(np.random.PCG64(3))
        steps = _failed_steps(_certify_both(patch, fib[0], rng.choice(len(patch), size=(31, 2))))
        assert steps and set(steps) == {-1}

    def test_rung_failures(self, fib):
        # a covering box narrower than the patch's gaps breaks chains at their rungs
        patch = ap.enumerate_cut(*fib, Box.make([-300], [300]))
        pool = np.flatnonzero(np.abs(patch.physical[:, 0]) <= 60)
        rng = np.random.Generator(np.random.PCG64(1))
        steps = []
        for k_half in np.linspace(0.2, 0.85, 14):
            steps += _failed_steps(_certify_both(patch, fib[0], rng.choice(pool, size=(4, 2)),
                                                 k_half=float(k_half)))
        assert len(set(steps)) > 3 and min(steps) >= 1

    def test_point_exactly_on_the_box_edge(self):
        # the last parallel rung sits at 11 and its nearest point 12 is exactly
        # k_half + MATCH_TOL away, which still counts as within the box
        pts = np.array([[0.0], [1.0], [12.0]])
        patch = IndexedPointSet(pts, Box.make([-60], [60]), index=pts.astype(np.int64),
                                star=np.zeros((3, 0)), scheme=ap.integer_crystal(1))
        k_half = 1.0 - MATCH_TOL
        assert k_half + MATCH_TOL == 1.0
        outcomes = _certify_both(patch, patch.scheme, [(1, 2)], k_half=k_half)
        assert json.loads(outcomes[0])["steps"][-1]["q"] == [12]

def _z_subset(cells, dim):
    """A scheme-backed subset of Z^dim: its differences often sit at exact
    midpoints between two of its points."""
    idx = np.array(sorted(set(cells)), dtype=np.int64).reshape(-1, dim)
    return IndexedPointSet(idx.astype(np.float64), Box.make([-0.5] * dim, [40.5] * dim),
                           index=idx, star=np.zeros((len(idx), 0)),
                           scheme=ap.integer_crystal(dim))


@st.composite
def _cover_case(draw):
    """A patch and a cover radius: a Fibonacci, silver or Ammann-Beenker patch,
    a scheme-backed subset of Z or Z^2, or a raw cloud on a 0.1 grid or off it."""
    kind = draw(st.sampled_from(["fibonacci", "silver", "ammann_beenker", "z", "z2", "grid",
                                 "cloud"]))
    if kind in ("fibonacci", "silver", "ammann_beenker"):
        scheme, window = ap.named_scheme(kind)
        dim = scheme.d
        side = draw(st.floats(20.0, 120.0) if dim == 1 else st.floats(6.0, 14.0))
        lo = [draw(st.floats(-100.0, 100.0)) for _ in range(dim)]
        pset = ap.enumerate_cut(scheme, window, Box.make(lo, [v + side for v in lo]))
    elif kind in ("z", "z2"):
        dim = 1 if kind == "z" else 2
        side = 40.0
        cell = st.tuples(*[st.integers(0, 40)] * dim)
        # sparse subsets keep a translator that only a tie produces
        pset = _z_subset(draw(st.lists(cell, min_size=1, max_size=draw(st.sampled_from(
            [4, 12, 60] if dim == 1 else [8, 150])))), dim)
    else:
        # on a 0.1 grid a difference halfway between two points is a tie only
        # up to rounding, which the 1e-12 margin decides
        side = 40.0
        cells = draw(st.lists(st.integers(0, 400), min_size=1, unique=True,
                              max_size=draw(st.sampled_from([4, 12, 60]))))
        pts = np.array(cells, dtype=np.float64) * 0.1
        if kind == "cloud":
            pts = pts + draw(st.lists(st.floats(0.0, 0.09), min_size=len(pts), max_size=len(pts)))
        pset = IndexedPointSet(pts[:, None], Box.make([0.0], [41.0]))
    assume(len(pset) > 0)
    return pset, draw(st.floats(0.2, side / 4 - 0.05))


class TestArrayPathsMatchOldLoops:
    @settings(max_examples=60, deadline=None)
    @given(case=_cover_case())
    def test_m1_cover(self, case):
        pset, radius = case
        rep = ap.m1_cover(pset, radius)
        f_arr, idx_arr, small, large = _old_m1_cover(pset, radius)
        assert (rep.card_small, rep.card_large) == (small, large)
        assert np.array_equal(rep.translators.ravel(), f_arr.ravel())
        assert len(rep.translators) == len(f_arr)
        assert (rep.translator_index is None) == (idx_arr is None)
        if idx_arr is not None:
            assert np.array_equal(rep.translator_index.ravel(), idx_arr.ravel())

    @pytest.mark.parametrize("pset,radius", [
        # 14 - 12 = (1 + 3) / 2 exactly: the tie goes to the smaller point 1
        (_z_subset([(1,), (3,), (12,), (14,)], 1), 1.2),
        # 0.9 - 0.3 rounds to 0.6000000000000001, nearer to 0.9 by 1e-16:
        # inside the 1e-12 margin, so 0.3 keeps it
        (IndexedPointSet(np.array([[0.3], [0.9]]), Box.make([-1.0], [2.0])), 0.31)])
    def test_m1_cover_tie_rules(self, pset, radius):
        rep = ap.m1_cover(pset, radius)
        f_arr, _, small, large = _old_m1_cover(pset, radius)
        assert (rep.card_small, rep.card_large) == (small, large) == (small, 3)
        assert np.array_equal(rep.translators, f_arr)

    @settings(max_examples=60, deadline=None)
    @given(case=_cover_case(), data=st.data())
    def test_weak_ud_bound(self, case, data):
        pset, radius = case
        diffs = ap.difference_set(pset, 2.0 * radius)
        assume(len(diffs) > 0)
        half = data.draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, radius))
        # anchors on difference points and on box edges meet the MATCH_TOL widening
        picks = data.draw(st.lists(st.integers(0, len(diffs) - 1), min_size=1, max_size=30))
        edges = [half, -half, 2 * half, half + 5e-8, -half - 5e-8, 2 * half + 5e-8, half + 2e-7]
        shifts = data.draw(st.lists(st.sampled_from([0.0, 0.3, *edges]),
                                    min_size=len(picks), max_size=len(picks)))
        anchors = diffs.physical[picks] + np.array(shifts)[:, None]
        rep = ap.weak_ud_bound(diffs, half, anchors)
        counts = [_old_count_in_box(diffs, a, half) for a in anchors]
        counts2 = [_old_count_in_box(diffs, a, 2.0 * half) for a in anchors]
        assert rep.counts.tolist() == counts
        assert (rep.bound, rep.bound_doubled) == (max(counts), max(counts2))

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(["fibonacci", "silver", "ammann_beenker"]), data=st.data())
    def test_big_m(self, name, data):
        scheme, window = ap.named_scheme(name)
        half = 150.0 if scheme.d == 1 else 12.0
        patch = ap.enumerate_cut(scheme, window, Box.centered(half, scheme.d))
        near = np.flatnonzero(np.all(np.abs(patch.physical) <= (10.0 if scheme.d == 1 else 2.5),
                                     axis=1))
        i, j = data.draw(st.lists(st.sampled_from(near.tolist()), min_size=2, max_size=2))
        cert = ap.stepping_certificate(patch, scheme, patch.index[i], patch.index[j],
                                       n_anchors=50)
        assert cert.big_m == _old_big_m(patch, scheme, patch.index[i], patch.index[j], 50)
