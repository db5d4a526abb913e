"""Constructive Meyer-set certificates.

The certificate machinery works with the word norm on the projected lattice:
the generators are the physical projections of the scheme basis columns, so
by injectivity every lattice translation has a unique integer coordinate
vector and its norm is simply the l1 norm of that vector.

A stepping-stone certificate walks a pair (x, y) back to the origin in steps
from a compact covering box K, picks lattice points near every rung, and
bounds the leftover translation by 2*m*M, where m is the largest word norm
of a short difference and M the largest number of differences in any 2K box.
The rung points are chosen by ``_nearest_points`` in one pass over all rungs,
the same nearest-point rule ``m1_cover`` uses.
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
    _by_chunks,
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

    # rung i sits at x - i * step_vec and its parallel rung at that plus v; rung 0
    # keeps (x, y), the last rung's p is the origin, every other p and q is the
    # nearest patch point
    rungs = np.arange(ell + 1)
    xs = x - rungs[:, None] * step_vec
    ys = xs + v
    targets = np.concatenate([xs[1:ell], ys[1:]])
    near = _nearest_points(pset, targets)
    p = np.concatenate([x_index[None], pset.index[near[:ell - 1]],
                        np.zeros((1, scheme.k), dtype=np.int64)])
    q = np.concatenate([y_index[None], pset.index[near[ell - 1:]]])
    p_phys, q_phys = scheme.physical_of(p), scheme.physical_of(q)

    # per rung, in the order a walk along the chain meets them: p selected,
    # q selected, p checked, q checked; the first miss fails the chain
    lim = k_half + MATCH_TOL
    selected_far = np.max(np.abs(pset.physical[near] - targets), axis=1) > lim
    far = np.zeros((ell + 1, 4), dtype=bool)
    far[1:ell, 0], far[1:, 1] = selected_far[:ell - 1], selected_far[ell - 1:]
    far[:, 2] = np.max(np.abs(p_phys - xs), axis=1) > lim
    far[:, 3] = np.max(np.abs(q_phys - ys), axis=1) > lim
    if far.any():
        i, miss = divmod(int(np.argmax(far)), 4)
        raise ChainFailure(i, (f"no patch point within {k_half} of {xs[i]}",
                               f"no patch point within {k_half} of {ys[i]}",
                               f"no point within K of rung {i}",
                               f"no point within K of parallel rung {i}")[miss])

    steps = [{"k": k, "p": a, "q": b} for k, a, b in
             zip(np.where(rungs[:, None] > 0, step_vec, 0.0).tolist(), p.tolist(), q.tolist())]
    f_index = v_index - q[-1]
    f_norm = int(np.abs(f_index).sum())
    all_checks = {
        "rung_in_2k": not np.any(np.max(np.abs(q_phys - p_phys - v), axis=1)
                                 > 2.0 * k_half + MATCH_TOL),
        "p_step_norm": not np.any(np.abs(np.diff(p, axis=0)).sum(axis=1) > m),
        "q_step_norm": not np.any(np.abs(np.diff(q, axis=0)).sum(axis=1) > m),
        "v_card_le_M": len(_first_rows(q - p)[0]) <= big_m,
        "f_norm_le_bound": f_norm <= bound,
    }
    valid = all(all_checks.values())
    return MeyerCertificate(tuple(int(t) for t in x_index),
                            tuple(int(t) for t in y_index),
                            float(k_half), steps, m, big_m, bound,
                            tuple(int(t) for t in f_index), f_norm,
                            all_checks, valid)

