"""Oracle checks for the numpy kernels and the point-matching helpers."""

import numpy as np
import pytest

from aperiodic import kernels
from aperiodic.autocorr import _eta_counts
from aperiodic.pointset import Box, IndexedPointSet, _agrees_on, _distinct_matches


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


def test_pairs_within_oracle(data):
    pos, _ = data
    # the last two anchor ranges hold no point
    for lo, hi in [(20.0, 80.0), (pos[7] + 1e-9, pos[8] - 1e-9), (80.0, 20.0)]:
        expected = [(i, j) for i, x in enumerate(pos) if lo <= x <= hi
                    for j, y in enumerate(pos) if abs(y - x) <= 5.0]
        ii, jj = kernels.pairs_within_1d(pos, lo, hi, 5.0)
        assert ii.dtype == jj.dtype == np.int64
        # anchor-major, j ascending: the raw difference set keeps the first pair per cell
        assert list(zip(ii.tolist(), jj.tolist())) == expected


def test_translate_match_oracle():
    # integer segment plus one off-lattice point outside the match box
    pos = np.concatenate([np.arange(-3.0, 7.0), [7.4]])
    pset = IndexedPointSet(pos[:, None], Box.make([-3.0], [7.5]))
    ts = np.array([1.0, 2.0, 0.5, 3.0])
    # the patch covers [0,3] shifted by any t <= 3, so integer shifts match
    box = Box.make([0.0], [3.0])
    got = [_agrees_on(pset, np.array([t]), box) for t in ts]
    assert got == [True, True, False, True]
