"""Constructive Meyer-set certificates.

The certificate machinery works with the word norm on the projected lattice:
the generators are the physical projections of the scheme basis columns, so
by injectivity every lattice translation has a unique integer coordinate
vector and its norm is simply the l1 norm of that vector.

A stepping-stone certificate walks a pair (x, y) back to the origin in steps
from a compact covering box K, picks lattice points near every rung, and
bounds the leftover translation by 2*m*M, where m is the largest word norm
of a short difference and M the largest number of differences in any 2K box.
A validated certificate exhibits y - x inside (lattice point) + F(2mM) with
every membership checked on integer indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainFailure, NotInL, NotSchemeBacked, RegionTooSmall
from .pointset import (
    MATCH_TOL,
    IndexedPointSet,
    _first_rows,
    _grid_covering_radius,
    difference_set,
)
from .scheme import LatticeScheme


def generator_norm(scheme: LatticeScheme, index) -> int:
    """Word norm of a lattice translation: l1 norm of its integer coordinates."""
    index = np.asarray(index)
    if index.shape != (scheme.k,):
        raise NotInL(f"index must have {scheme.k} integer entries")
    return int(np.abs(index.astype(np.int64)).sum())


@dataclass
class CoverReport:
    radius: float
    translators: np.ndarray       # physical vectors f with delta in Lambda + f
    translator_index: np.ndarray | None
    card_small: int               # card(F) observed from differences within radius
    card_large: int               # same at twice the radius

    @property
    def stable(self) -> bool:
        return self.card_small == self.card_large


def m1_cover(pset: IndexedPointSet, radius: float) -> CoverReport:
    """Greedy finite cover: each difference is written as point + translator.

    For every observed difference delta (up to twice ``radius``), the nearest
    patch point lambda gives the translator f = delta - lambda; a Meyer set
    shows a translator list that stops growing with the radius.  Translators
    are keyed by their index rows when both sets carry indices, else by their
    MATCH_TOL grid cell, and listed in key order with the first difference's
    physical vector for each key.
    """
    diffs = difference_set(pset, 2.0 * radius)
    nearest = _nearest_points(pset, diffs.physical)
    f_phys = diffs.physical - pset.physical[nearest]
    indexed = diffs.index is not None and pset.index is not None
    keys = (diffs.index - pset.index[nearest] if indexed
            else np.round(f_phys / MATCH_TOL).astype(np.int64))
    first, _ = _first_rows(keys)
    small = np.max(np.abs(diffs.physical), axis=1) <= radius + MATCH_TOL
    return CoverReport(radius, f_phys[first], keys[first] if indexed else None,
                       len(_first_rows(keys[small])[0]), len(first))


def _nearest_points(pset, targets) -> np.ndarray:
    """Index of the patch point nearest to each target.

    In 1D the candidates are the sorted neighbours j - 1, j, j + 1 of the
    insertion point j, in that order, and a later one wins only when it is
    nearer by more than 1e-12.  In higher dimensions the first point of
    least squared distance wins.
    """
    if pset.dim == 1:
        pos, t = pset.positions_1d(), targets[:, 0]
        j = np.searchsorted(pos, t)
        best = j - 1
        best_d = np.where(best >= 0, np.abs(pos[np.maximum(best, 0)] - t), np.inf)
        for cand in (j, j + 1):
            ok = cand < len(pos)
            d = np.where(ok, np.abs(pos[np.minimum(cand, len(pos) - 1)] - t), np.inf)
            better = ok & (d < best_d - 1e-12)
            best = np.where(better, cand, best)
            best_d = np.where(better, d, best_d)
        return best
    return _by_chunks(lambda t: np.argmin(np.sum((pset.physical - t[:, None]) ** 2, axis=2),
                                          axis=1), targets, len(pset))


def _by_chunks(fn, rows, n_points) -> np.ndarray:
    """``fn`` on chunks of ``rows`` that each meet ``n_points`` points in an
    array of about 2**20 entries, concatenated."""
    step = max(1, 2**20 // max(n_points, 1))
    return np.concatenate([np.empty(0, dtype=np.int64)]
                          + [fn(rows[s:s + step]) for s in range(0, len(rows), step)])


def _nearest_point(pset, sorted_pos, target):
    """Index of the patch point nearest to target; ties go to the smaller point."""
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


@dataclass
class WeakUDReport:
    k_half: float
    bound: int                   # max count over anchors for the K box
    bound_doubled: int           # same for the 2K box
    counts: np.ndarray


def weak_ud_bound(diffs: IndexedPointSet, k_half: float, anchors) -> WeakUDReport:
    """Largest number of difference points in any sampled anchored K box."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    counts = _count_in_boxes(diffs, anchors, k_half)
    counts2 = _count_in_boxes(diffs, anchors, 2.0 * k_half)
    return WeakUDReport(float(k_half), int(counts.max()), int(counts2.max()), counts)


def _count_in_boxes(diffs: IndexedPointSet, centers, half: float) -> np.ndarray:
    """Number of difference points in the box of half-width ``half`` (widened
    by MATCH_TOL) around each of the (n, d) ``centers``."""
    if diffs.dim == 1:
        pos, c = diffs.positions_1d(), centers[:, 0]
        return (np.searchsorted(pos, c + half + MATCH_TOL, side="right")
                - np.searchsorted(pos, c - half - MATCH_TOL))
    pts = diffs.physical
    return _by_chunks(lambda c: np.count_nonzero(np.all(
        (pts >= c[:, None] - half - MATCH_TOL) & (pts <= c[:, None] + half + MATCH_TOL),
        axis=2), axis=1), centers, len(diffs))


@dataclass
class MeyerCertificate:
    x_index: tuple
    y_index: tuple
    k_half: float                 # covering box half-width
    steps: list                   # per-rung dicts: k_i, p_i, q_i indices
    m: int
    big_m: int
    bound: int                    # 2 m M
    f_index: tuple                # leftover translation v - q_last as an index
    f_norm: int
    checks: dict
    valid: bool

    def to_json(self):
        return {
            "pair": {"x": list(self.x_index), "y": list(self.y_index)},
            "k_half": self.k_half,
            "chain_length": len(self.steps),
            "steps": self.steps,
            "m": self.m,
            "M": self.big_m,
            "bound": self.bound,
            "f_index": list(self.f_index),
            "f_norm": self.f_norm,
            "checks": self.checks,
            "valid": self.valid,
        }


def covering_half_width(pset: IndexedPointSet) -> float:
    """Empirical covering radius of the patch, as a box half-width."""
    if pset.dim == 1:
        gaps = np.diff(pset.positions_1d())
        return float(gaps.max()) / 2.0
    return _grid_covering_radius(pset.physical, pset.region, 41, np.inf)


def stepping_certificate(pset: IndexedPointSet, scheme: LatticeScheme,
                         x_index, y_index, n_anchors: int = 200,
                         seed: int = 20240901,
                         k_half: float | None = None,
                         shared_diffs: IndexedPointSet | None = None) -> MeyerCertificate:
    """Certificate that y - x lies in (lattice point of the set) + F(2mM).

    Requires a scheme-backed patch containing the origin.  Raises
    ChainFailure when a rung has no patch point within the covering box,
    which indicates the patch region is too small for the pair.  When
    verifying many pairs over one patch, pass a precomputed difference patch
    as ``shared_diffs`` (it must reach max|y-x| plus two box widths).
    """
    if not pset.is_scheme_backed:
        raise NotSchemeBacked("certificates need lattice indices")
    x_index = np.asarray(x_index, dtype=np.int64)
    y_index = np.asarray(y_index, dtype=np.int64)
    if x_index.shape != (scheme.k,) or y_index.shape != (scheme.k,):
        raise NotInL("x and y must be points of the patch")
    rows = np.stack([x_index, y_index, np.zeros(scheme.k, dtype=np.int64)])
    x_in, y_in, has_origin = (pset.index[:, None, :] == rows).all(axis=2).any(axis=0)
    if not (x_in and y_in):
        raise NotInL("x and y must be points of the patch")
    if not has_origin:
        raise ChainFailure(-1, "the patch must contain the origin")
    if k_half is None:
        k_half = 1.1 * covering_half_width(pset)
    x = scheme.physical_of([x_index])[0]
    y = scheme.physical_of([y_index])[0]
    v = y - x
    v_index = y_index - x_index
    ell = max(1, int(np.ceil(np.max(np.abs(x)) / k_half)))
    step_vec = x / ell

    # differences within the 3K box give m; a wide difference patch covers
    # the anchored 2K boxes around v for M
    r_norm = float(np.max(np.abs(v))) + 2.0 * k_half
    diff_radius = max(3.0 * k_half, r_norm) * (np.sqrt(pset.dim))
    diffs = shared_diffs
    if diffs is not None and float(np.min(diffs.region.hi)) < diff_radius:
        diffs = None
    if diffs is None:
        try:
            diffs = difference_set(pset, diff_radius)
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
            q_idx = _select_near(pset, pos, y_i, k_half, i)
        else:
            p_idx = _select_near(pset, pos, x_i, k_half, i)
            q_idx = _select_near(pset, pos, y_i, k_half, i)
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


def _select_near(pset, sorted_pos, target, k_half, step):
    """Nearest patch point to the rung; must land inside the covering box."""
    j = _nearest_point(pset, sorted_pos, np.atleast_1d(target))
    if j is None or np.max(np.abs(pset.physical[j] - target)) > k_half + MATCH_TOL:
        raise ChainFailure(step, f"no patch point within {k_half} of {target}")
    return pset.index[j]
