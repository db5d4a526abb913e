"""Acceptance gate: the quantitative exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Tolerances are fixed here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import aperiodic as ap
from aperiodic.exactmath import QuadExact

TAU = (1 + math.sqrt(5)) / 2


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- 1: density law ----------------------------------------------------------

def test_c01_density_law(fib):
    scheme, window = fib
    start = time.perf_counter()
    patch = ap.enumerate_cut(scheme, window, ap.Box.make([0], [10_000]))
    elapsed = time.perf_counter() - start
    target = window.measure() / math.sqrt(5)
    rel_err = abs(len(patch) / 10_000 - target) / target
    assert rel_err < 0.01
    assert elapsed < 5.0
    _report(1, f"count={len(patch)}, rel_err={rel_err:.2e}, {elapsed:.2f}s")


# -- 2: metric identity ------------------------------------------------------

def test_c02_metric_identity(fib, fib_patch_10k, fib_table50_10k, boxes_10k):
    scheme, window = fib
    start = time.perf_counter()
    table = fib_table50_10k
    rng = np.random.Generator(np.random.PCG64(2024))
    rows = rng.choice(len(table.deltas), size=20, replace=False)
    worst_eta, worst_pred = 0.0, 0.0
    for i in rows:
        delta = table.deltas[i]
        d_eta = float(table.d_values()[i])
        moved = fib_patch_10k.translate(delta)
        usable = [b for b in boxes_10k
                  if moved.region.covers(b) and fib_patch_10k.region.covers(b)]
        d_emp = ap.symdiff_density(moved, fib_patch_10k, usable).upper
        d_pred = ap.predicted_d(scheme, window, index=table.delta_index[i])
        worst_eta = max(worst_eta, abs(d_emp - d_eta) / d_pred)
        worst_pred = max(worst_pred, abs(d_emp - d_pred) / d_pred,
                         abs(d_eta - d_pred) / d_pred)
    elapsed = time.perf_counter() - start
    assert worst_eta < 0.02
    assert worst_pred < 0.02
    assert elapsed < 30.0
    _report(2, f"20 translations, worst rel dev {max(worst_eta, worst_pred):.2%}, "
               f"{elapsed:.1f}s")


# -- 3: almost periods -------------------------------------------------------

@pytest.fixture(scope="module")
def fib_table_10k_radius(fib):
    scheme, window = fib
    patch = ap.enumerate_cut(scheme, window, ap.Box.make([-1], [20_000]))
    cand = ap.enumerate_cut(scheme, window.minkowski_difference(),
                            ap.Box.make([-10_000], [10_000]))
    boxes = ap.default_boxes((1250, 2500, 5000, 10_000), dim=1, anchored=True)
    return ap.eta_table_for_deltas(patch, cand.physical, boxes, 10_000.0,
                                   delta_index=cand.index)


def test_c03_almost_periods_relatively_dense(fib_table_10k_radius):
    table = fib_table_10k_radius
    for frac in (0.1, 0.2, 0.4):
        eps = frac * 2 * table.eta0
        half = ap.almost_periods(table, eps, scan_radius=5000.0)
        full = ap.almost_periods(table, eps, scan_radius=10_000.0)
        nontrivial = np.abs(full.members[:, 0]) > 1e-7
        assert np.count_nonzero(nontrivial) > 0
        assert full.members[:, 0].max() > 0
        assert full.max_gap <= 1.10 * half.max_gap
    _report(3, "eps in {0.1,0.2,0.4}*2eta0 nonempty, gap stable within 10%")


def test_c03_random_fixture_fails_stability(random_patch):
    # scale-free control: the random cloud has no nontrivial almost periods,
    # so its gap equals the scan radius and doubles as the radius doubles
    boxes = ap.default_boxes((125, 250, 500, 1000), dim=1, anchored=True)
    table = ap.eta_table(random_patch, 50.0, boxes)
    eps = 0.4 * 2 * table.eta0
    half = ap.almost_periods(table, eps, scan_radius=25.0)
    full = ap.almost_periods(table, eps, scan_radius=50.0)
    nontrivial_half = np.count_nonzero(np.abs(half.members[:, 0]) > 1e-7)
    nontrivial_full = np.count_nonzero(np.abs(full.members[:, 0]) > 1e-7)
    stable = (nontrivial_half > 0 and nontrivial_full > 0
              and full.max_gap <= 1.10 * half.max_gap)
    assert not stable
    assert full.max_gap >= 2.0 * half.max_gap or nontrivial_full == 0
    _report(3, f"random control: gap {half.max_gap:.0f} -> {full.max_gap:.0f}, "
               f"nontrivial members {nontrivial_full}")


# -- 4: window reconstruction ------------------------------------------------

def test_c04_window_reconstruction(fib, fib_patch_centered):
    scheme, window = fib
    rep1 = ap.reconstruct_window(fib_patch_centered, truth=window)
    assert rep1.hausdorff <= 0.01
    big = ap.enumerate_cut(scheme, window, ap.Box.make([-4000], [4000]))
    rep2 = ap.reconstruct_window(big, truth=window)
    assert rep2.hausdorff < rep1.hausdorff
    _report(4, f"hausdorff {rep1.hausdorff:.2e} at 1e3, "
               f"{rep2.hausdorff:.2e} at 4e3")


# -- 5: pure-point diagnostic -------------------------------------------------

def test_c05_pure_point_fibonacci(fib, fib_patch_4k, boxes_4k):
    scheme, _ = fib
    table = ap.diffraction_table(fib_patch_4k, scheme, 2.5, 10, seed=12345,
                                 boxes=boxes_4k, k_internal_max=1.0)
    i1k = next(i for i, b in enumerate(boxes_4k) if b.hi[0] == 1000)
    checked = 0
    for entry in table.entries:
        early = abs(entry.amplitudes[i1k]) ** 2
        late = entry.intensity
        if late >= 1e-4:      # peaks at window-transform zeros carry no signal
            assert abs(early - late) / late < 0.05
            checked += 1
    assert checked >= 10
    bar = 0.05 * table.density
    assert len(table.controls) == 10
    assert table.purity < bar
    _report(5, f"{checked} stable peaks, purity {table.purity:.3f} < {bar:.3f}")


def test_c05_crystal_peaks_at_integers(z_patch, boxes_2k):
    table = ap.diffraction_table(z_patch, ap.integer_crystal(1), 3.2, 10,
                                 seed=77, boxes=boxes_2k)
    for entry in table.entries:
        assert abs(entry.k[0] - round(entry.k[0])) < 1e-9
        assert entry.intensity == pytest.approx(1.0, rel=0.02)
    assert table.purity < 0.05 * table.density
    _report(5, f"crystal: {len(table.entries)} integer peaks, "
               f"purity {table.purity:.3f}")


# -- 6: fiber dichotomy ------------------------------------------------------

def test_c06_exact_singularity_scan(fib):
    scheme, window = fib
    rep = ap.separation_fraction(scheme, window, 1000, seed=606,
                                 patch_radius=1000.0)
    assert rep.fraction == 0.0
    _report(6, "1000 exact-mode generic samples, 0 singular")


def test_c06_constructed_singular_fiber(fib):
    scheme, window = fib
    star = scheme.star_exact((3, 2))[0]
    h = window.components[0].hi_exact - star
    det = QuadExact(0, -1, 5)
    tau = QuadExact(Fraction(1, 2), Fraction(1, 2), 5)
    c1 = (QuadExact(0, 0, 5) - tau * h) / det
    c2 = h / det
    tp = ap.torus_point_from_frac(scheme, [float(c1) % 1.0, float(c2) % 1.0])
    rep = ap.fiber_enumerate(scheme, window, tp, 1000.0)
    assert len(rep.members) == 2
    a, b = rep.members
    sym = {tuple(r) for r in a.index} ^ {tuple(r) for r in b.index}
    assert sym == {hit.index for hit in rep.hits}
    assert len(sym) >= 1
    _report(6, f"singular fiber: 2 members, symmetric difference = "
               f"{len(sym)} hit points")


# -- 7: local-matching continuity -------------------------------------------

def test_c07_continuity_thresholds(fib_patch_centered, fib_table400):
    out = ap.continuity_epsilon(fib_patch_centered, fib_table400, [5, 10, 20, 40])
    eps = [out[m].eps for m in (5, 10, 20, 40)]
    assert all(e > 0 for e in eps)
    assert all(a >= b - 1e-12 for a, b in zip(eps, eps[1:]))
    dv = fib_table400.d_values()
    pos = fib_patch_centered.positions_1d()
    for M in (5, 10, 20, 40):
        t_max = 1100 - M
        ref = pos[np.abs(pos) <= M + 1e-7]
        for i, t in enumerate(fib_table400.deltas[:, 0]):
            if 1e-7 < abs(t) <= t_max and dv[i] < out[M].eps:
                moved = pos[np.abs(pos + t) <= M + 1e-7] + t
                assert len(moved) == len(ref)
                assert np.all(np.abs(moved - ref) <= 1e-7)
    _report(7, "eps(M) = " + ", ".join(f"{out[m].eps:.4f}" for m in (5, 10, 20, 40)))


# -- 8: stepping-stone certificates ------------------------------------------

def test_c08_meyer_certificates(fib):
    scheme, window = fib
    patch = ap.enumerate_cut(scheme, window, ap.Box.make([-650], [650]))
    diffs = ap.difference_set(patch, 520.0)
    rng = np.random.Generator(np.random.PCG64(808))
    pool = np.flatnonzero((patch.physical[:, 0] >= 0)
                          & (patch.physical[:, 0] <= 500))
    bounds = []
    for _ in range(100):
        i, j = rng.choice(pool, size=2, replace=True)
        cert = ap.stepping_certificate(patch, scheme, patch.index[i],
                                       patch.index[j], shared_diffs=diffs)
        assert cert.valid
        assert cert.f_norm <= cert.bound
        assert all(cert.checks.values())
        bounds.append(cert.bound)
    cover = ap.m1_cover(patch, 50.0)
    assert cover.card_small == cover.card_large
    _report(8, f"100 certificates valid, bound 2mM = {max(bounds)}, "
               f"cover card {cover.card_small} stable 50 -> 100")


# -- 9: crystallographic case -------------------------------------------------

def test_c09_crystal_versus_aperiodic(z_patch, z_table, fib_patch_small):
    rep = ap.period_candidates(z_patch, scan_radius=20.0)
    vals = {v[0] for v in rep.periods}
    assert 1.0 in vals and rep.lattice_rank == 1
    for eps in (0.2, 0.7, 1.5):
        periods = ap.almost_periods(z_table, eps, scan_radius=30.0)
        assert sorted(periods.members[:, 0]) == list(range(-30, 31))
    scheme = ap.integer_crystal(1)
    rng = np.random.Generator(np.random.PCG64(909))
    for _ in range(50):
        tp = ap.torus_point_from_frac(scheme, rng.uniform(0, 1, size=1))
        fiber = ap.fiber_enumerate(scheme, None, tp, 50.0)
        assert len(fiber.members) == 1
    fib_rep = ap.period_candidates(fib_patch_small, scan_radius=30.0)
    assert fib_rep.periods.tolist() == [[0.0]]
    _report(9, "crystal: generator 1, P_eps = Z, singleton fibers; "
               "golden chain: trivial periods")


# -- 10: invariant suites -----------------------------------------------------

def test_c10_invariant_suites_cover_shipped_schemes():
    import test_invariants

    assert set(test_invariants.SCHEME_NAMES) == {
        "fibonacci", "silver", "ammann_beenker", "crystal_z"}
    # the random control runs against the same diagnostics
    import aperiodic.schemes as schemes

    assert callable(schemes.random_fixture)
    _report(10, "invariant battery parametrized over fibonacci, silver, "
                "ammann_beenker, crystal_z + random control")
