"""Command-line surface: config-driven analysis runs with file artifacts.

Exit codes: 0 success, 2 config error, 3 numeric-diagnostic failure,
4 I/O error.  Every run writes ``report.json`` (config echo, version,
results, warnings, timing) into the output directory; the ``results``
payload is byte-reproducible for a fixed config and library version.
``config.PARAMS`` lists the parameters each operation (and ``params.op``)
takes, with their rules and defaults.
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
    checked_params,
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
            validate_config(cfg)
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


def _inputs(cfg, warnings, need_points=True, need_window=True):
    """Scheme, window, point set (None unless ``need_points``) and the checked
    params of a config; the reader's warnings go to ``warnings``."""
    scheme, window = build_scheme_window(cfg)
    region = build_region(cfg)
    if scheme is not None and region is not None and region.dim != scheme.d:
        raise ConfigError(f"region has dimension {region.dim}, "
                          f"but the scheme's physical space has dimension {scheme.d}")
    pset = None
    if need_points and "points" in cfg:
        fmt = cfg["points"].get("format", "csv")
        reader = io.ingest_csv if fmt == "csv" else io.ingest_json
        pset, warns = reader(cfg["points"]["path"], region)
        warnings.extend(warns)
    elif scheme is None or (need_points and region is None):
        wanted = "'points', or a scheme and a region" if need_points else "a scheme"
        raise ConfigError(f"{cfg['operation']} needs {wanted}")
    # enumeration and the window-reading operations need the window of a scheme
    # with internal space; points read from a file do not
    elif scheme.m and window is None and (need_points or need_window):
        raise ConfigError(f"{cfg['operation']} needs a window for a scheme with internal space")
    elif need_points:
        pset = enumerate_cut(scheme, window, region)
    m, k = (scheme.m, scheme.k) if scheme is not None else (None, None)
    return scheme, window, pset, checked_params(
        cfg, pset.dim if pset is not None else scheme.d, m, k)


# -- handlers ---------------------------------------------------------------

def _h_generate(cfg, out, warnings):
    scheme, window, pset, _ = _inputs(cfg, warnings)
    io.pointset_to_csv(pset, out / "points.csv", out / "points.json")
    results = {"count": len(pset), "empirical_density": pset.density()}
    if scheme is not None:
        results["model_density"] = model_density(scheme, window)
    return results


def _h_analyze(cfg, out, warnings):
    sub = cfg.get("params", {}).get("op")
    scheme, window, pset, p = _inputs(
        cfg, warnings, need_points=sub not in ("validate", "model_density", "dual_candidates"),
        need_window=sub not in ("validate", "dual_candidates"))
    if sub == "validate":
        rep = validate_scheme(scheme)
        warnings.extend(rep.warnings)
        return {"covolume": rep.covolume, "lattice_density": rep.lattice_density,
                "injectivity": rep.injectivity,
                "denseness": [[int(n), g] for n, g in rep.denseness]}
    if sub == "model_density":
        return {"model_density": model_density(scheme, window)}
    if sub == "dual_candidates":
        cands = dual_candidates(scheme, p["k_max"], p["k_internal_max"])
        return {"count": len(cands.k), "k": cands.k.tolist(),
                "k_internal": cands.k_internal.tolist()}
    if sub == "difference_set":
        diffs = ps.difference_set(pset, p["radius"])
        io.pointset_to_csv(diffs, out / "differences.csv")
        return {"count": len(diffs)}
    if sub == "packing_radius":
        return {"packing_radius": ps.packing_radius(pset)}
    if sub == "flc_clusters":
        rep = ps.flc_clusters(pset, p["radius"])
        return {"cluster_count": rep.count,
                "multiplicities": [c[1] for c in rep.clusters]}
    if sub == "repetition_set":
        rep = ps.repetition_set(pset, p["radius"])
        return {"match_count": len(rep.matches), "max_gap": rep.max_gap}
    if sub == "patch_frequency":
        rep = ps.patch_frequency(pset, p["offsets"], build_boxes(cfg, pset.dim), p["anchors"])
        return {"freqs": rep.freqs.tolist(), "spread": rep.spread}
    if sub == "period_candidates":
        rep = ps.period_candidates(pset, p["scan_radius"])
        return {"periods": rep.periods.tolist(), "rank": rep.lattice_rank}
    if sub == "m1_cover":
        rep = my.m1_cover(pset, p["radius"])
        return {"card_small": rep.card_small, "card_large": rep.card_large,
                "stable": rep.stable}
    # weak_ud: checked_params lets no other op through
    radius, half = p["radius"], p["k_half"]
    if not half < radius / 2:
        raise ConfigError(f"params.k_half must be below params.radius / 2, got {half!r}")
    diffs = ps.difference_set(pset, radius)
    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    usable = radius - 2 * half
    anchors = rng.uniform(-usable, usable, size=(p["n_anchors"], pset.dim))
    rep = my.weak_ud_bound(diffs, half, anchors)
    return {"bound": rep.bound, "bound_doubled": rep.bound_doubled}


def _h_autocorr(cfg, out, warnings):
    scheme, window, pset, p = _inputs(cfg, warnings)
    table = ac.eta_table(pset, p["radius"], build_boxes(cfg, pset.dim))
    payload = table.to_json()
    (out / "autocorrelation.json").write_text(io.json_dumps_stable(payload) + "\n")
    return {"eta0": table.eta0, "delta_count": len(table.deltas)}


def _h_almost_periods(cfg, out, warnings):
    scheme, window, pset, p = _inputs(cfg, warnings)
    table = ac.eta_table(pset, p["radius"], build_boxes(cfg, pset.dim))
    eps_list = p["eps"] + [f * 2.0 * table.eta0 for f in p["eps_fracs"]]
    results = {"eta0": table.eta0, "levels": []}
    for i, eps in enumerate(eps_list):
        periods = ac.almost_periods(table, eps, p["scan_radius"])
        io.almost_periods_to_csv(periods, out / f"almost_periods_{i}.csv")
        plots.gap_chart(periods.members[:, 0] if pset.dim == 1 else
                        np.linalg.norm(periods.members, axis=1),
                        periods.d_values, periods.scan_radius,
                        out / f"almost_periods_{i}.svg")
        results["levels"].append({"eps": float(eps), "count": len(periods.members),
                                  "max_gap": periods.max_gap})
    return results


def _h_diffract(cfg, out, warnings):
    scheme, window, pset, p = _inputs(cfg, warnings)
    table = sp.diffraction_table(pset, scheme, p["k_max"], p["n_controls"], cfg["seed"],
                                 build_boxes(cfg, pset.dim), p["k_internal_max"])
    io.peak_table_to_csv(table, out / "peaks.csv")
    (out / "peaks.json").write_text(io.json_dumps_stable(table.to_json()) + "\n")
    plots.stem_plot(
        [(float(np.linalg.norm(e.k)), e.intensity, e.is_control)
         for e in table.entries + table.controls],
        out / "peaks.svg")
    return {"n_candidates": len(table.entries), "purity": table.purity,
            "density": table.density}


def _h_torus(cfg, out, warnings):
    sub = cfg.get("params", {}).get("op")
    scheme, window, _, p = _inputs(cfg, warnings, need_points=False,
                                   need_window=sub in ("singularity", "separation"))
    if sub == "embed":
        return {"frac": tr.embed_translation(scheme, p["t"]).frac.tolist()}
    if sub == "beta":
        return {"frac": tr.beta_of_cut(scheme, p["x"], p["h"]).frac.tolist()}
    if sub == "singularity":
        tp = tr.torus_point_from_frac(scheme, p["frac"])
        hits = tr.singularity_test(scheme, window, tp, p["radius"], p["band"])
        return {"singular": bool(hits), "hits": [list(h.index) for h in hits]}
    # separation: checked_params lets no other op through
    rep = sp.separation_fraction(scheme, window, p["samples"], cfg["seed"], p["radius"],
                                 p["band"])
    return {"fraction": rep.fraction, "n_singular": rep.n_singular}


def _h_fiber(cfg, out, warnings):
    scheme, window, _, p = _inputs(cfg, warnings, need_points=False)
    tp = tr.torus_point_from_frac(scheme, p["frac"])
    rep = tr.fiber_enumerate(scheme, window, tp, p["radius"])
    if rep.multiple_orbits:
        warnings.append("more than one boundary orbit is hit; the two reported "
                        "one-sided limits need not exhaust the fiber")
    (out / "fiber.json").write_text(io.json_dumps_stable(rep.to_json()) + "\n")
    return rep.to_json()


def _h_reconstruct(cfg, out, warnings):
    scheme, window, pset, p = _inputs(cfg, warnings)
    rep = tr.reconstruct_window(pset, p["split_threshold"], truth=window)
    if pset.star is not None and pset.star.shape[1] == 1:
        plots.interval_overlay(rep.estimate, window, out / "window.svg")
    results = {"n_points": rep.n_points, "contains_origin": rep.contains_origin,
               "estimate": rep.estimate.to_json()}
    if rep.hausdorff is not None:
        results["hausdorff"] = rep.hausdorff
    return results


def _h_meyer_cert(cfg, out, warnings):
    scheme, window, pset, p = _inputs(cfg, warnings)
    lo, hi = p["pair_range"]
    mask = (pset.physical[:, 0] >= lo) & (pset.physical[:, 0] <= hi) if pset.dim == 1 \
        else pset.contains_mask(Box(np.full(pset.dim, float(lo)), np.full(pset.dim, float(hi))))
    pool = np.flatnonzero(mask)
    if len(pool) == 0:
        raise ConfigError(f"no patch point falls in params.pair_range {[lo, hi]}")
    cover = my.m1_cover(pset, p["cover_radius"])
    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    certs = []
    for _ in range(p["n_pairs"]):
        i, j = rng.choice(pool, size=2, replace=True)
        cert = my.stepping_certificate(pset, scheme, pset.index[i], pset.index[j],
                                       seed=cfg["seed"])
        certs.append(cert.to_json())
    (out / "certificates.json").write_text(io.json_dumps_stable(certs) + "\n")
    return {"n_pairs": p["n_pairs"],
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
