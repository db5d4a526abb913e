"""Command-line surface: config-driven analysis runs with file artifacts.

Exit codes: 0 success, 2 config error, 3 numeric-diagnostic failure,
4 I/O error.  Every run writes ``report.json`` (config echo, version,
results, warnings, timing) into the output directory; the ``results``
payload is byte-reproducible for a fixed config and library version.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import autocorr as ac
from . import meyer as my
from . import plots
from . import pointset as ps
from . import serialize as io
from . import spectral as sp
from . import torus as tr
from .config import (
    build_boxes,
    build_region,
    build_scheme_window,
    load_config,
    validate_config,
)
from .errors import AperiodicError, ConfigError, ParseError
from .pointset import Box
from .scheme import dual_candidates, enumerate_cut, model_density, validate_scheme


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg["operation"] != args.command.replace("-", "_"):
            raise ConfigError(
                f"config operation {cfg['operation']!r} does not match verb {args.command!r}")
        if args.seed_override is not None:
            cfg["seed"] = args.seed_override
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report, ok = execute(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except AperiodicError as exc:
        print(f"diagnostic failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out / 'report.json'}")
    return 0 if ok else 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="aperiodic",
        description="cut-and-project model sets and aperiodic-order diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("generate", "analyze", "autocorr", "almost-periods", "diffract",
                 "torus", "fiber", "reconstruct", "meyer-cert", "suite"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed-override", type=int, default=None)
    return parser


def execute(cfg: dict, out: Path):
    """Run one validated config; returns (report dict, all requirements met)."""
    start = time.perf_counter()
    op = cfg["operation"]
    handler = _HANDLERS[op]
    warnings: list = []
    results = handler(cfg, out, warnings)
    report = {
        "version": __version__,
        "operation": op,
        "config": cfg,
        "results": results,
        "warnings": warnings,
        "timing_s": round(time.perf_counter() - start, 6),
    }
    ok = _check_requirements(cfg, results, warnings)
    if op == "suite":
        ok = ok and bool(results.get("all_ok", True))
    report["requirements_met"] = ok
    (out / "report.json").write_text(io.json_dumps_stable(report) + "\n")
    return report, ok


def _check_requirements(cfg, results, warnings) -> bool:
    ok = True
    for req in cfg.get("require", []):
        value = results
        try:
            for part in req["key"].split("."):
                value = value[int(part)] if isinstance(value, list) else value[part]
        except (KeyError, IndexError, TypeError, ValueError):
            raise ConfigError(f"require key {req['key']!r} is not in the results") from None
        if "equals" in req and value != req["equals"]:
            warnings.append(f"requirement failed: {req['key']} == {req['equals']} (got {value})")
            ok = False
        if "min" in req and not value >= req["min"]:
            warnings.append(f"requirement failed: {req['key']} >= {req['min']} (got {value})")
            ok = False
        if "max" in req and not value <= req["max"]:
            warnings.append(f"requirement failed: {req['key']} <= {req['max']} (got {value})")
            ok = False
    return ok


def _inputs(cfg, need_points=True, need_window=True):
    scheme, window = build_scheme_window(cfg)
    region = build_region(cfg)
    if scheme is not None and region is not None and region.dim != scheme.d:
        raise ConfigError(f"region has dimension {region.dim}, "
                          f"but the scheme's physical space has dimension {scheme.d}")
    if need_points and "points" in cfg:
        fmt = cfg["points"].get("format", "csv")
        reader = io.ingest_csv if fmt == "csv" else io.ingest_json
        pset, warns = reader(cfg["points"]["path"], region)
        return scheme, window, pset, warns
    if scheme is None or (need_points and region is None):
        wanted = "'points', or a scheme and a region" if need_points else "a scheme"
        raise ConfigError(f"{cfg['operation']} needs {wanted}")
    # enumeration and the window-reading operations need the window of a scheme
    # with internal space; points read from a file do not
    if scheme.m and window is None and (need_points or need_window):
        raise ConfigError(f"{cfg['operation']} needs a window for a scheme with internal space")
    return scheme, window, enumerate_cut(scheme, window, region) if need_points else None, []


def _param(params, key):
    """``params[key]`` for a parameter without a default; absence is a config error."""
    try:
        return params[key]
    except KeyError:
        raise ConfigError(f"missing required params.{key}") from None


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


_POSITIVE = ((int, float), lambda x: 0 < x < math.inf, "a finite number > 0")
_COUNT = ((int,), lambda x: x >= 1, "an integer >= 1")
_NUMBERS = ((list,), lambda x: all(map(_finite, x)), "a list of finite numbers")
# what _checked accepts for each key: types, test, and the words for it
_RULES = {
    "radius": _POSITIVE,
    "cover_radius": _POSITIVE,
    "k_half": _POSITIVE,
    "k_max": _POSITIVE,
    "k_internal_max": _POSITIVE,
    "scan_radius": _POSITIVE,
    "band": ((int, float), lambda x: 0 <= x < math.inf, "a finite number >= 0"),
    "samples": _COUNT,
    "n_controls": ((int,), lambda x: x >= 0, "an integer >= 0"),
    "split_threshold": _POSITIVE,
    "n_pairs": _COUNT,
    "n_anchors": _COUNT,
    "eps": _NUMBERS,
    "eps_fracs": _NUMBERS,
    "pair_range": ((list, tuple), lambda x: len(x) == 2 and all(map(_finite, x)) and x[0] <= x[1],
                   "two finite numbers lo <= hi"),
}
_REQUIRED = object()


def _checked(params, key, default=_REQUIRED):
    """``params.get(key, default)``, a config error unless it passes
    ``_RULES[key]`` or is the default None; bools are rejected.  Without a
    default the key is required."""
    value = _param(params, key) if default is _REQUIRED else params.get(key, default)
    if value is None and default is None:
        return None
    types, ok, what = _RULES[key]
    if isinstance(value, bool) or not isinstance(value, types) or not ok(value):
        raise ConfigError(f"params.{key} must be {what}, got {value!r}")
    return value


def _vector(params, key, size, rows=False, default=_REQUIRED):
    """``params.get(key, default)`` as a list of ``size`` finite numbers (a bare
    number counts as a list of one) or, with ``rows``, as a list of such lists
    (a single list counts as one row); else a config error.  Without a default
    the key is required."""
    value = _param(params, key) if default is _REQUIRED else params.get(key, default)
    one_row = not (rows and isinstance(value, list) and value
                   and all(isinstance(r, list) for r in value))
    out = [r if isinstance(r, list) else [r] for r in ([value] if one_row else value)]
    if not all(len(r) == size and all(map(_finite, r)) for r in out):
        raise ConfigError(f"params.{key} must be {'rows' if rows else 'a list'} of {size} "
                          f"finite numbers, got {value!r}")
    return out if rows else out[0]


# -- handlers ---------------------------------------------------------------

def _h_generate(cfg, out, warnings):
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    io.pointset_to_csv(pset, out / "points.csv", out / "points.json")
    results = {"count": len(pset), "empirical_density": pset.density()}
    if scheme is not None:
        results["model_density"] = model_density(scheme, window)
    return results


def _h_analyze(cfg, out, warnings):
    params = cfg.get("params", {})
    sub = params.get("op")
    if sub is None:
        raise ConfigError("analyze needs params.op")
    scheme, window, pset, warns = _inputs(
        cfg, need_points=sub not in ("validate", "model_density", "dual_candidates"),
        need_window=sub not in ("validate", "dual_candidates"))
    warnings.extend(warns)
    if sub == "validate":
        rep = validate_scheme(scheme)
        warnings.extend(rep.warnings)
        return {"covolume": rep.covolume, "lattice_density": rep.lattice_density,
                "injectivity": rep.injectivity,
                "denseness": [[int(n), g] for n, g in rep.denseness]}
    if sub == "model_density":
        return {"model_density": model_density(scheme, window)}
    if sub == "dual_candidates":
        cands = dual_candidates(scheme, _checked(params, "k_max"),
                                _checked(params, "k_internal_max", None))
        return {"count": len(cands.k), "k": cands.k.tolist(),
                "k_internal": cands.k_internal.tolist()}
    if sub == "difference_set":
        diffs = ps.difference_set(pset, _checked(params, "radius"))
        io.pointset_to_csv(diffs, out / "differences.csv")
        return {"count": len(diffs)}
    if sub == "packing_radius":
        return {"packing_radius": ps.packing_radius(pset)}
    if sub == "flc_clusters":
        rep = ps.flc_clusters(pset, _checked(params, "radius"))
        return {"cluster_count": rep.count,
                "multiplicities": [c[1] for c in rep.clusters]}
    if sub == "repetition_set":
        rep = ps.repetition_set(pset, _checked(params, "radius"))
        return {"match_count": len(rep.matches), "max_gap": rep.max_gap}
    if sub == "patch_frequency":
        boxes = build_boxes(cfg, pset.dim)
        rep = ps.patch_frequency(pset, _vector(params, "offsets", pset.dim, rows=True), boxes,
                                 _vector(params, "anchors", pset.dim, rows=True))
        return {"freqs": rep.freqs.tolist(), "spread": rep.spread}
    if sub == "period_candidates":
        rep = ps.period_candidates(pset, _checked(params, "scan_radius", None))
        return {"periods": rep.periods.tolist(), "rank": rep.lattice_rank}
    if sub == "m1_cover":
        rep = my.m1_cover(pset, _checked(params, "radius"))
        return {"card_small": rep.card_small, "card_large": rep.card_large,
                "stable": rep.stable}
    if sub == "weak_ud":
        radius, half = _checked(params, "radius"), _checked(params, "k_half")
        if not half < radius / 2:
            raise ConfigError(f"params.k_half must be below params.radius / 2, got {half!r}")
        n_anchors = _checked(params, "n_anchors", 100)
        diffs = ps.difference_set(pset, radius)
        rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
        usable = radius - 2 * half
        anchors = rng.uniform(-usable, usable, size=(n_anchors, pset.dim))
        rep = my.weak_ud_bound(diffs, half, anchors)
        return {"bound": rep.bound, "bound_doubled": rep.bound_doubled}
    raise ConfigError(f"unknown analyze op {sub!r}")


def _h_autocorr(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    boxes = build_boxes(cfg, pset.dim)
    table = ac.eta_table(pset, _checked(params, "radius"), boxes)
    payload = table.to_json()
    (out / "autocorrelation.json").write_text(io.json_dumps_stable(payload) + "\n")
    return {"eta0": table.eta0, "delta_count": len(table.deltas)}


def _h_almost_periods(cfg, out, warnings):
    params = cfg.get("params", {})
    eps_list, fracs = _checked(params, "eps", []), _checked(params, "eps_fracs", [])
    scan_radius = _checked(params, "scan_radius", None)
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    boxes = build_boxes(cfg, pset.dim)
    table = ac.eta_table(pset, _checked(params, "radius"), boxes)
    eps_list = eps_list + [f * 2.0 * table.eta0 for f in fracs]
    results = {"eta0": table.eta0, "levels": []}
    for i, eps in enumerate(eps_list):
        periods = ac.almost_periods(table, eps, scan_radius)
        io.almost_periods_to_csv(periods, out / f"almost_periods_{i}.csv")
        plots.gap_chart(periods.members[:, 0] if pset.dim == 1 else
                        np.linalg.norm(periods.members, axis=1),
                        periods.d_values, periods.scan_radius,
                        out / f"almost_periods_{i}.svg")
        results["levels"].append({"eps": float(eps), "count": len(periods.members),
                                  "max_gap": periods.max_gap})
    return results


def _h_diffract(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    boxes = build_boxes(cfg, pset.dim)
    table = sp.diffraction_table(pset, scheme, _checked(params, "k_max"),
                                 _checked(params, "n_controls", 10), cfg["seed"], boxes,
                                 _checked(params, "k_internal_max", None))
    io.peak_table_to_csv(table, out / "peaks.csv")
    (out / "peaks.json").write_text(io.json_dumps_stable(table.to_json()) + "\n")
    plots.stem_plot(
        [(float(np.linalg.norm(e.k)), e.intensity, e.is_control)
         for e in table.entries + table.controls],
        out / "peaks.svg")
    return {"n_candidates": len(table.entries), "purity": table.purity,
            "density": table.density}


def _h_torus(cfg, out, warnings):
    params = cfg.get("params", {})
    sub = params.get("op")
    scheme, window, _, _ = _inputs(cfg, need_points=False,
                                   need_window=sub in ("singularity", "separation"))
    if sub == "embed":
        tp = tr.embed_translation(scheme, _vector(params, "t", scheme.d))
        return {"frac": tp.frac.tolist()}
    if sub == "beta":
        tp = tr.beta_of_cut(scheme, _vector(params, "x", scheme.d),
                            _vector(params, "h", scheme.m, default=[]))
        return {"frac": tp.frac.tolist()}
    if sub == "singularity":
        tp = tr.torus_point_from_frac(scheme, _vector(params, "frac", scheme.k))
        hits = tr.singularity_test(scheme, window, tp, _checked(params, "radius", 1000.0),
                                   _checked(params, "band", None))
        return {"singular": bool(hits), "hits": [list(h.index) for h in hits]}
    if sub == "separation":
        rep = sp.separation_fraction(scheme, window, _checked(params, "samples", 100),
                                     cfg["seed"], _checked(params, "radius", 1000.0),
                                     _checked(params, "band", None))
        return {"fraction": rep.fraction, "n_singular": rep.n_singular}
    raise ConfigError(f"unknown torus op {sub!r}")


def _h_fiber(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, _, _ = _inputs(cfg, need_points=False)
    tp = tr.torus_point_from_frac(scheme, _vector(params, "frac", scheme.k))
    rep = tr.fiber_enumerate(scheme, window, tp, _checked(params, "radius", 100.0))
    if rep.multiple_orbits:
        warnings.append("more than one boundary orbit is hit; the two reported "
                        "one-sided limits need not exhaust the fiber")
    (out / "fiber.json").write_text(io.json_dumps_stable(rep.to_json()) + "\n")
    return rep.to_json()


def _h_reconstruct(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    rep = tr.reconstruct_window(pset, _checked(params, "split_threshold", None), truth=window)
    if pset.star is not None and pset.star.shape[1] == 1:
        plots.interval_overlay(rep.estimate, window, out / "window.svg")
    results = {"n_points": rep.n_points, "contains_origin": rep.contains_origin,
               "estimate": rep.estimate.to_json()}
    if rep.hausdorff is not None:
        results["hausdorff"] = rep.hausdorff
    return results


def _h_meyer_cert(cfg, out, warnings):
    params = cfg.get("params", {})
    cover_radius = _checked(params, "cover_radius", 50.0)
    lo, hi = _checked(params, "pair_range", [0.0, 100.0])
    n_pairs = _checked(params, "n_pairs", 10)
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    mask = (pset.physical[:, 0] >= lo) & (pset.physical[:, 0] <= hi) if pset.dim == 1 \
        else pset.contains_mask(Box(np.full(pset.dim, float(lo)), np.full(pset.dim, float(hi))))
    pool = np.flatnonzero(mask)
    if len(pool) == 0:
        raise ConfigError(f"no patch point falls in params.pair_range {[lo, hi]}")
    cover = my.m1_cover(pset, cover_radius)
    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    certs = []
    for _ in range(n_pairs):
        i, j = rng.choice(pool, size=2, replace=True)
        cert = my.stepping_certificate(pset, scheme, pset.index[i], pset.index[j],
                                       seed=cfg["seed"])
        certs.append(cert.to_json())
    (out / "certificates.json").write_text(io.json_dumps_stable(certs) + "\n")
    return {"n_pairs": n_pairs,
            "all_valid": all(c["valid"] for c in certs),
            "cover_card_small": cover.card_small,
            "cover_card_large": cover.card_large,
            "cover_stable": cover.stable}


def _h_suite(cfg, out, warnings):
    results = []
    all_ok = True
    for i, sub_cfg in enumerate(cfg["runs"]):
        sub_out = out / f"run_{i:03d}"
        sub_out.mkdir(parents=True, exist_ok=True)
        report, ok = execute(sub_cfg, sub_out)
        all_ok &= ok
        results.append({"operation": sub_cfg["operation"], "ok": ok,
                        "results": report["results"]})
    if not all_ok:
        warnings.append("one or more suite runs failed their requirements")
    return {"runs": results, "all_ok": all_ok}


_HANDLERS = {
    "generate": _h_generate,
    "analyze": _h_analyze,
    "autocorr": _h_autocorr,
    "almost_periods": _h_almost_periods,
    "diffract": _h_diffract,
    "torus": _h_torus,
    "fiber": _h_fiber,
    "reconstruct": _h_reconstruct,
    "meyer_cert": _h_meyer_cert,
    "suite": _h_suite,
}


if __name__ == "__main__":
    sys.exit(main())
