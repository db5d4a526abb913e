"""Command-line surface: config-driven analysis runs with file artifacts.

Exit codes: 0 success, 2 config error, 3 numeric-diagnostic failure,
4 I/O error.  Every run writes ``report.json`` (config echo, version,
results, warnings, timing) into the output directory; the ``results``
payload is byte-reproducible for a fixed config and library version.
"""

from __future__ import annotations

import argparse
import json
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
        cands = dual_candidates(scheme, _param(params, "k_max"), params.get("k_internal_max"))
        return {"count": len(cands.k), "k": cands.k.tolist(),
                "k_internal": cands.k_internal.tolist()}
    if sub == "difference_set":
        diffs = ps.difference_set(pset, _param(params, "radius"))
        io.pointset_to_csv(diffs, out / "differences.csv")
        return {"count": len(diffs)}
    if sub == "packing_radius":
        return {"packing_radius": ps.packing_radius(pset)}
    if sub == "flc_clusters":
        rep = ps.flc_clusters(pset, _param(params, "radius"))
        return {"cluster_count": rep.count,
                "multiplicities": [c[1] for c in rep.clusters]}
    if sub == "repetition_set":
        rep = ps.repetition_set(pset, _param(params, "radius"))
        return {"match_count": len(rep.matches), "max_gap": rep.max_gap}
    if sub == "patch_frequency":
        boxes = build_boxes(cfg, pset.dim)
        rep = ps.patch_frequency(pset, _param(params, "offsets"), boxes,
                                 _param(params, "anchors"))
        return {"freqs": rep.freqs.tolist(), "spread": rep.spread}
    if sub == "period_candidates":
        rep = ps.period_candidates(pset, params.get("scan_radius"))
        return {"periods": rep.periods.tolist(), "rank": rep.lattice_rank}
    if sub == "m1_cover":
        rep = my.m1_cover(pset, _param(params, "radius"))
        return {"card_small": rep.card_small, "card_large": rep.card_large,
                "stable": rep.stable}
    if sub == "weak_ud":
        radius = _param(params, "radius")
        diffs = ps.difference_set(pset, radius)
        rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
        half = _param(params, "k_half")
        usable = radius - 2 * half
        anchors = rng.uniform(-usable, usable,
                              size=(params.get("n_anchors", 100), pset.dim))
        rep = my.weak_ud_bound(diffs, half, anchors)
        return {"bound": rep.bound, "bound_doubled": rep.bound_doubled}
    raise ConfigError(f"unknown analyze op {sub!r}")


def _h_autocorr(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    boxes = build_boxes(cfg, pset.dim)
    table = ac.eta_table(pset, _param(params, "radius"), boxes)
    payload = table.to_json()
    (out / "autocorrelation.json").write_text(io.json_dumps_stable(payload) + "\n")
    return {"eta0": table.eta0, "delta_count": len(table.deltas)}


def _h_almost_periods(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    boxes = build_boxes(cfg, pset.dim)
    table = ac.eta_table(pset, _param(params, "radius"), boxes)
    eps_list = params.get("eps", [])
    eps_list = eps_list + [f * 2.0 * table.eta0 for f in params.get("eps_fracs", [])]
    results = {"eta0": table.eta0, "levels": []}
    for i, eps in enumerate(eps_list):
        periods = ac.almost_periods(table, eps, params.get("scan_radius"))
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
    table = sp.diffraction_table(pset, scheme, _param(params, "k_max"),
                                 params.get("n_controls", 10), cfg["seed"], boxes,
                                 params.get("k_internal_max"))
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
        tp = tr.embed_translation(scheme, _param(params, "t"))
        return {"frac": tp.frac.tolist()}
    if sub == "beta":
        tp = tr.beta_of_cut(scheme, _param(params, "x"), params.get("h", []))
        return {"frac": tp.frac.tolist()}
    if sub == "singularity":
        tp = tr.torus_point_from_frac(scheme, _param(params, "frac"))
        hits = tr.singularity_test(scheme, window, tp, params.get("radius", 1000.0),
                                   params.get("band"))
        return {"singular": bool(hits), "hits": [list(h.index) for h in hits]}
    if sub == "separation":
        rep = sp.separation_fraction(scheme, window, params.get("samples", 100),
                                     cfg["seed"], params.get("radius", 1000.0),
                                     params.get("band"))
        return {"fraction": rep.fraction, "n_singular": rep.n_singular}
    raise ConfigError(f"unknown torus op {sub!r}")


def _h_fiber(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, _, _ = _inputs(cfg, need_points=False)
    tp = tr.torus_point_from_frac(scheme, _param(params, "frac"))
    rep = tr.fiber_enumerate(scheme, window, tp, params.get("radius", 100.0))
    if rep.multiple_orbits:
        warnings.append("more than one boundary orbit is hit; the two reported "
                        "one-sided limits need not exhaust the fiber")
    (out / "fiber.json").write_text(io.json_dumps_stable(rep.to_json()) + "\n")
    return rep.to_json()


def _h_reconstruct(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    rep = tr.reconstruct_window(pset, params.get("split_threshold"), truth=window)
    if pset.star is not None and pset.star.shape[1] == 1:
        plots.interval_overlay(rep.estimate, window, out / "window.svg")
    results = {"n_points": rep.n_points, "contains_origin": rep.contains_origin,
               "estimate": rep.estimate.to_json()}
    if rep.hausdorff is not None:
        results["hausdorff"] = rep.hausdorff
    return results


def _h_meyer_cert(cfg, out, warnings):
    params = cfg.get("params", {})
    scheme, window, pset, warns = _inputs(cfg)
    warnings.extend(warns)
    cover = my.m1_cover(pset, params.get("cover_radius", 50.0))
    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    lo, hi = params.get("pair_range", [0.0, 100.0])
    mask = (pset.physical[:, 0] >= lo) & (pset.physical[:, 0] <= hi) \
        if pset.dim == 1 else pset.contains_mask(Box.make([lo] * pset.dim, [hi] * pset.dim))
    pool = np.flatnonzero(mask)
    n_pairs = params.get("n_pairs", 10)
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
