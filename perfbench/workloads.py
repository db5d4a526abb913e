"""Seeded inputs for the three CLI workloads.

Each workload is one ``suite`` config whose sub-runs exercise a different mix
of layers (see README.md for why each one was chosen).  Everything random in
a config -- the ``seed`` fields of the sampling operations and the raw point
cloud -- is derived from the workload seed, so the same seed gives the same
inputs.  ``scale`` shrinks region extents and averaging boxes; the traced
run uses ``scale=0.5`` on the scaling sub-runs to fit exponents.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("fib-1d", "ab-2d", "raw-cloud")

# operations whose cost is dominated by enumeration, difference sets or eta;
# only these are repeated at half size for the scaling exponents
SCALING_OPERATIONS = ("generate", "autocorr", "almost_periods")

FIB = {"name": "fibonacci"}
AB = {"name": "ammann_beenker"}

# the random control of the acceptance fixtures: uniform, density 0.72
CLOUD_LO, CLOUD_HI, CLOUD_DENSITY = -550.0, 1050.0, 0.72
CLOUD_BOXES = (125.0, 250.0, 500.0)


def _seeds(seed: int, n: int) -> list:
    """Independent 31-bit seeds for the sampling sub-runs and the cloud."""
    states = np.random.SeedSequence(seed).generate_state(n)
    return [int(s) & 0x7FFFFFFF for s in states]


def _region(lo, hi) -> dict:
    return {"lo": [float(v) for v in lo], "hi": [float(v) for v in hi]}


def _box_run(op, scheme, radius, sizes, dim, extra=None, scale=1.0):
    """Sub-run over anchored boxes [0, s]^dim, on a region covering them +- radius."""
    sizes = [scale * s for s in sizes]
    lo = [-(radius + 1.0)] * dim
    hi = [sizes[-1] + radius + 1.0] * dim
    cfg = {"operation": op, "scheme": scheme, "region": _region(lo, hi),
           "boxes": {"sizes": sizes, "anchored": True}}
    cfg.update(extra or {})
    return cfg


def fib_runs(seed: int, scale: float = 1.0) -> list:
    s_diff, s_torus, s_meyer = _seeds(seed, 3)
    gen_hi = 3000.0 * scale
    return [
        {"operation": "generate", "scheme": FIB, "region": _region([-1], [gen_hi]),
         "require": [{"key": "count", **_pin("fib-1d", "generate", scale)}]},
        _box_run("almost_periods", FIB, 80.0, [200, 400, 800, 1600], 1, {
            "params": {"radius": 80.0, "eps_fracs": [0.1, 0.2, 0.4]},
            "require": [{"key": f"levels.{i}.count", **_pin("fib-1d", f"level{i}", scale)}
                        for i in range(3)]}, scale),
        {"operation": "diffract", "scheme": FIB, "region": _region([0], [1000]),
         "boxes": {"sizes": [125, 250, 500, 1000]}, "seed": s_diff,
         "params": {"k_max": 2.5, "k_internal_max": 1.0},
         # control amplitudes stay far below the zero-frequency peak (the density)
         "require": [{"key": "n_candidates", **_pin("fib-1d", "peaks", 1.0)},
                     {"key": "purity", "max": 0.25}]},
        {"operation": "torus", "scheme": FIB, "seed": s_torus,
         "params": {"op": "separation", "samples": 100},
         "require": [{"key": "n_singular", "equals": 0}]},
        {"operation": "fiber", "scheme": FIB,
         "params": {"frac": [0.142857, 0.181818], "radius": 100.0},
         "require": [{"key": "singular", "equals": False}]},
        {"operation": "meyer_cert", "scheme": FIB, "region": _region([-450], [450]),
         "seed": s_meyer, "params": {"n_pairs": 6, "pair_range": [0.0, 10.0]},
         "require": [{"key": "all_valid", "equals": True},
                     {"key": "cover_stable", "equals": True}]},
        {"operation": "reconstruct", "scheme": FIB, "region": _region([-1000], [1000]),
         "require": [{"key": "hausdorff", "max": 0.05},
                     {"key": "contains_origin", "equals": True}]},
    ]


def ab_runs(seed: int, scale: float = 1.0) -> list:
    s_diff, s_torus = _seeds(seed, 2)
    half = 20.0 * scale
    return [
        {"operation": "generate", "scheme": AB, "region": _region([-half] * 2, [half] * 2),
         "require": [{"key": "count", **_pin("ab-2d", "generate", scale)}]},
        _box_run("autocorr", AB, 4.0, [5, 10], 2, {
            "params": {"radius": 4.0},
            "require": [{"key": "delta_count", **_pin("ab-2d", "deltas", scale)}]}, scale),
        {"operation": "diffract", "scheme": AB, "region": _region([0, 0], [20, 20]),
         "boxes": {"sizes": [10, 20]}, "seed": s_diff, "params": {"k_max": 1.0},
         "require": [{"key": "n_candidates", **_pin("ab-2d", "peaks", 1.0)},
                     {"key": "purity", "max": 0.6}]},
        {"operation": "torus", "scheme": AB, "seed": s_torus,
         "params": {"op": "separation", "samples": 1, "radius": 10.0},
         "require": [{"key": "n_singular", "equals": 0}]},
        {"operation": "analyze", "scheme": AB, "region": _region([-8, -8], [8, 8]),
         "params": {"op": "flc_clusters", "radius": 2.0},
         "require": [{"key": "cluster_count", **_pin("ab-2d", "clusters", 1.0)}]},
    ]


def cloud(seed: int, scale: float = 1.0) -> np.ndarray:
    """Sorted uniform cloud on the (scaled) control region, distinct to 1e-12.

    Each stretch between consecutive box ends gets its expected number of
    points, so the work of the eta boxes does not vary from seed to seed.
    """
    edges = sorted({CLOUD_LO, 0.0, *CLOUD_BOXES, CLOUD_HI})
    rng = np.random.Generator(np.random.PCG64(_seeds(seed, 1)[0]))
    parts = [rng.uniform(a * scale, b * scale, size=int(round(CLOUD_DENSITY * (b - a) * scale)))
             for a, b in zip(edges[:-1], edges[1:])]
    return np.unique(np.round(np.concatenate(parts), 12))


def cloud_runs(points_path: str, pts: np.ndarray, scale: float = 1.0) -> list:
    region = _region([CLOUD_LO * scale], [CLOUD_HI * scale])
    points = {"path": points_path, "format": "csv"}
    packing = float(np.diff(pts).min()) / 2.0
    return [
        # a random cloud has no nontrivial almost period: only delta = 0 survives
        {"operation": "almost_periods", "points": points, "region": region,
         "boxes": {"sizes": [scale * s for s in CLOUD_BOXES], "anchored": True},
         "params": {"radius": 10.0, "eps_fracs": [0.2]},
         "require": [{"key": "levels.0.count", "equals": 1}]},
        # ... and no repeated neighbourhood
        {"operation": "analyze", "points": points, "region": region,
         "params": {"op": "flc_clusters", "radius": 10.0},
         "require": [{"key": "multiplicities.0", "equals": 1}]},
        {"operation": "analyze", "points": points, "region": region,
         "params": {"op": "packing_radius"},
         "require": [{"key": "packing_radius", "min": math.nextafter(packing, 0.0),
                      "max": math.nextafter(packing, math.inf)}]},
    ]


# seed-independent outputs pinned at the timed size; other sizes only need
# a nonempty result
PINNED = {
    ("fib-1d", "generate"): 2171,
    ("fib-1d", "level0"): 23,
    ("fib-1d", "level1"): 45,
    ("fib-1d", "level2"): 93,
    ("fib-1d", "peaks"): 23,
    ("ab-2d", "generate"): 1981,
    ("ab-2d", "deltas"): 225,
    ("ab-2d", "peaks"): 57,
    ("ab-2d", "clusters"): 155,
}


def _pin(workload: str, key: str, scale: float) -> dict:
    if scale == 1.0:
        return {"equals": PINNED[(workload, key)]}
    return {"min": 1}


def suite(workload: str, seed: int, points_path: str | None = None,
          pts: np.ndarray | None = None, scale: float = 1.0,
          scaling_only: bool = False) -> dict:
    """The suite config for one workload; raw-cloud needs its CSV path and points."""
    if workload == "fib-1d":
        runs = fib_runs(seed, scale)
    elif workload == "ab-2d":
        runs = ab_runs(seed, scale)
    elif workload == "raw-cloud":
        runs = cloud_runs(points_path, pts, scale)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if scaling_only:
        runs = [r for r in runs if r["operation"] in SCALING_OPERATIONS]
    return {"operation": "suite", "runs": runs}
