"""Numpy kernels for the 1D pair scan and the Weyl sums.

Both are deterministic, so their results are bit-reproducible run to run.
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
    """Index pairs (i, j) with pos[i] in [anchor_lo, anchor_hi], |pos[j]-pos[i]| <= radius,
    anchor-major with j ascending."""
    pos = np.asarray(pos, dtype=np.float64)
    a0 = np.searchsorted(pos, anchor_lo, side="left")
    a1 = np.searchsorted(pos, anchor_hi, side="right")
    lo = np.searchsorted(pos, pos[a0:a1] - radius, side="left")
    hi = np.searchsorted(pos, pos[a0:a1] + radius, side="right")
    counts = hi - lo
    out_i = np.repeat(np.arange(a0, a1), counts)
    # pair p lies in the block of anchor t ending at e = cumsum(counts)[t]; j = p + hi[t] - e
    out_j = np.arange(int(counts.sum())) + np.repeat(hi - np.cumsum(counts), counts)
    return out_i, out_j
