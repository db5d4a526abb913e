"""Numpy kernels: the strip pair scan and the Weyl sums.

All are deterministic, so their results are bit-reproducible run to run.
The strip pair scan, in any dimension, finds the point pairs behind
difference sets, FLC clusters, eta counts and nearest-neighbour distances;
the callers filter its pairs on the remaining coordinates.
"""

from __future__ import annotations

import numpy as np

# Pair rows per chunk of strip_pairs.  This bounds the strip chunk only: the
# eta scan expands each pair to its candidate deltas, and the pair lists of
# difference sets and FLC clusters are concatenated whole.
PAIR_BUDGET = 1 << 12


def weyl_sums_1d(pos, ks, slice_lo, slice_hi):
    """Complex sums out[i, j] = sum_{x in pos[lo_j:hi_j]} exp(-2*pi*i*k_i*x)."""
    pos = np.asarray(pos, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.float64)
    nb = len(slice_lo)
    out = np.zeros((len(ks), nb), dtype=np.complex128)
    for i, k in enumerate(ks):
        phases = np.exp(-2j * np.pi * k * pos)
        csum = np.concatenate([[0.0 + 0.0j], np.cumsum(phases)])
        for j in range(nb):
            out[i, j] = csum[slice_hi[j]] - csum[slice_lo[j]]
    return out


def expand_ranges(start, stop):
    """(t, p) for every p in every range [start[t], stop[t]), t-major with p ascending."""
    counts = np.maximum(np.asarray(stop) - start, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    # p of range t lies in the block ending at e = cumsum(counts)[t]: p = position - e + stop[t]
    return owner, np.arange(int(counts.sum())) + np.repeat(stop - np.cumsum(counts), counts)


def strip_pairs(x, anchors, lo, hi):
    """Chunks (i, j) of the index pairs with i in ``anchors`` and lo <= x[j] - x[i] <= hi.

    ``x`` is sorted ascending (the first coordinate of lexicographically
    sorted points) and ``anchors`` ascending.  Pairs come anchor-major with j
    ascending, as int64.  A chunk holds the pairs of whole anchors, at most
    PAIR_BUDGET of them unless a single anchor has more.
    """
    x = np.asarray(x, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.int64)
    start = np.searchsorted(x, x[anchors] + lo, side="left")
    stop = np.searchsorted(x, x[anchors] + hi, side="right")
    ends = np.cumsum(np.maximum(stop - start, 0))
    a = 0
    while a < len(anchors):
        done = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, done + PAIR_BUDGET, side="right")))
        t, j = expand_ranges(start[a:b], stop[a:b])
        yield anchors[a:b][t], j
        a = b
