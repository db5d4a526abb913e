"""Vectorized numpy kernels for the 1D pair scan and the Weyl sums.

Both run sequentially, so their results are bit-reproducible run to run.
Point membership (eta counts, patch and translation matching) lives in
``pointset.match_index``.
"""

from __future__ import annotations

import numpy as np


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


def pairs_within_1d(pos, anchor_lo, anchor_hi, radius):
    """Index pairs (i, j) with pos[i] in [anchor_lo, anchor_hi], |pos[j]-pos[i]| <= radius."""
    pos = np.asarray(pos, dtype=np.float64)
    a0 = np.searchsorted(pos, anchor_lo, side="left")
    a1 = np.searchsorted(pos, anchor_hi, side="right")
    lo = np.searchsorted(pos, pos[a0:a1] - radius, side="left")
    hi = np.searchsorted(pos, pos[a0:a1] + radius, side="right")
    counts = hi - lo
    total = int(counts.sum())
    out_i = np.empty(total, dtype=np.int64)
    out_j = np.empty(total, dtype=np.int64)
    at = 0
    for t in range(a1 - a0):
        c = counts[t]
        out_i[at:at + c] = a0 + t
        out_j[at:at + c] = np.arange(lo[t], hi[t])
        at += c
    return out_i, out_j
