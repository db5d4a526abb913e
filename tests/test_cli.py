import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aperiodic as ap
from aperiodic import cli
from aperiodic.config import PARAMS, checked_params, load_config, validate_config
from aperiodic.errors import ConfigError, DuplicatePoint, ParseError
from aperiodic.serialize import ingest_csv
from aperiodic.window import Interval, IntervalUnion


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# a Fibonacci-like scheme with internal space but no window
WINDOWLESS_SCHEME = {"d": 1, "m": 1, "basis": [[1.0, 1.618], [1.0, -0.618]]}


def fib_generate_cfg(lo=0, hi=200):
    return {
        "operation": "generate",
        "scheme": {"name": "fibonacci"},
        "region": {"lo": [lo], "hi": [hi]},
    }


class TestConfig:
    def test_schema_accepts_generate(self):
        validate_config(fib_generate_cfg())

    def test_unknown_operation_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"operation": "frobnicate"})

    def test_sampling_without_seed_rejected(self):
        cfg = {
            "operation": "diffract",
            "scheme": {"name": "fibonacci"},
            "region": {"lo": [0], "hi": [500]},
            "params": {"k_max": 2.0},
        }
        with pytest.raises(ConfigError):
            validate_config(cfg)
        cfg["seed"] = 42
        validate_config(cfg)

    def test_inline_quadratic_scheme(self, tmp_path):
        cfg = {
            "operation": "generate",
            "scheme": {
                "d": 1, "m": 1,
                "basis": [[1, ["1/2", "1/2"]], [1, ["1/2", "-1/2"]]],
                "arithmetic": {"mode": "quadratic", "D": 5},
            },
            "window": {"type": "intervals",
                       "components": [{"lo": -0.6666666666666666,
                                       "hi": 0.9513673301470164,
                                       "lo_closed": False, "hi_closed": True}]},
            "region": {"lo": [0], "hi": [100]},
        }
        out = tmp_path / "out"
        out.mkdir()
        report, ok = cli.execute(cfg, out)
        assert ok
        assert report["results"]["count"] == 73

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_params_defaults_filled_without_touching_the_config(self):
        cfg = {"operation": "torus", "scheme": {"name": "fibonacci"}, "seed": 1,
               "params": {"op": "separation", "samples": 5}}
        before = copy.deepcopy(cfg)
        assert checked_params(cfg, 1, 1, 2) == {"samples": 5, "radius": 1000.0, "band": None}
        assert cfg == before

    def test_params_vectors_checked_against_the_dimensions_given(self):
        cfg = {"operation": "fiber", "params": {"frac": [0.1, 0.2]}}
        assert checked_params(cfg)["frac"] == [0.1, 0.2]
        assert checked_params(cfg, k=2)["frac"] == [0.1, 0.2]
        with pytest.raises(ConfigError, match="params.frac must be a list of 3 finite"):
            checked_params(cfg, k=3)
        cfg = {"operation": "analyze", "params": {"op": "patch_frequency", "offsets": [0.5],
                                                  "anchors": [[0], [10]]}}
        assert checked_params(cfg, d=1) == {"offsets": [[0.5]], "anchors": [[0], [10]]}

    def test_execute_without_validation_fills_defaults(self, tmp_path):
        cfg = {"operation": "torus", "scheme": {"name": "fibonacci"}, "seed": 4,
               "params": {"op": "separation", "radius": 50.0}}
        explicit = copy.deepcopy(cfg)
        explicit["params"]["samples"] = 100
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        report, _ = cli.execute(cfg, tmp_path / "a")
        assert report["results"] == cli.execute(explicit, tmp_path / "b")[0]["results"]
        assert json.loads((tmp_path / "a" / "report.json").read_text())["config"] == {
            "operation": "torus", "scheme": {"name": "fibonacci"}, "seed": 4,
            "params": {"op": "separation", "radius": 50.0}}

    def test_cli_import_leaves_jsonschema_unloaded(self):
        code = "import sys, aperiodic.cli; sys.exit('jsonschema' in sys.modules)"
        src = str(Path(cli.__file__).resolve().parents[1])
        assert subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}).returncode == 0


class TestRuns:
    def test_generate_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        report, ok = cli.execute(fib_generate_cfg(), out)
        assert ok
        assert (out / "points.csv").exists()
        assert (out / "points.json").exists()
        data = json.loads((out / "report.json").read_text())
        assert data["operation"] == "generate"
        assert data["results"]["count"] == report["results"]["count"]

    def test_determinism_byte_identical_results(self, tmp_path):
        cfg = {
            "operation": "diffract",
            "scheme": {"name": "fibonacci"},
            "region": {"lo": [0], "hi": [500]},
            "boxes": {"sizes": [125, 250, 500], "anchored": True},
            "params": {"k_max": 2.0, "n_controls": 5},
            "seed": 99,
        }
        payloads = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            report, _ = cli.execute(dict(cfg), out)
            payloads.append(json.dumps(report["results"], sort_keys=True))
            peaks = (out / "peaks.csv").read_bytes()
            payloads.append(peaks)
        assert payloads[0] == payloads[2]
        assert payloads[1] == payloads[3]

    def test_main_exit_codes(self, tmp_path):
        cfg_path = write_cfg(tmp_path, fib_generate_cfg())
        code = cli.main(["generate", "--config", cfg_path,
                         "--out", str(tmp_path / "o1")])
        assert code == 0
        bad = write_cfg(tmp_path, {"operation": "nope"}, "bad.json")
        assert cli.main(["generate", "--config", bad,
                         "--out", str(tmp_path / "o2")]) == 2
        missing_seed = write_cfg(tmp_path, {
            "operation": "diffract",
            "scheme": {"name": "fibonacci"},
            "region": {"lo": [0], "hi": [100]},
            "params": {"k_max": 1.0},
        }, "noseed.json")
        assert cli.main(["diffract", "--config", missing_seed,
                         "--out", str(tmp_path / "o3")]) == 2

    def test_verb_must_match_operation(self, tmp_path):
        cfg_path = write_cfg(tmp_path, fib_generate_cfg())
        assert cli.main(["diffract", "--config", cfg_path,
                         "--out", str(tmp_path / "o")]) == 2

    def test_requirements_gate_exit_code(self, tmp_path):
        cfg = fib_generate_cfg()
        cfg["require"] = [{"key": "count", "min": 10 ** 9}]
        cfg_path = write_cfg(tmp_path, cfg)
        assert cli.main(["generate", "--config", cfg_path,
                         "--out", str(tmp_path / "o")]) == 3

    def test_suite_aggregates(self, tmp_path):
        good = fib_generate_cfg()
        good["require"] = [{"key": "count", "min": 1}]
        cfg = {"operation": "suite", "runs": [good]}
        out = tmp_path / "suite"
        out.mkdir()
        report, ok = cli.execute(cfg, out)
        assert ok and report["results"]["all_ok"]
        bad = fib_generate_cfg()
        bad["require"] = [{"key": "count", "max": 0}]
        cfg_bad = {"operation": "suite", "runs": [good, bad]}
        out2 = tmp_path / "suite2"
        out2.mkdir()
        report, ok = cli.execute(cfg_bad, out2)
        assert not ok

    def test_reconstruct_run(self, tmp_path):
        cfg = {
            "operation": "reconstruct",
            "scheme": {"name": "fibonacci"},
            "region": {"lo": [-500], "hi": [500]},
        }
        out = tmp_path / "rec"
        out.mkdir()
        report, ok = cli.execute(cfg, out)
        assert ok
        assert report["results"]["hausdorff"] < 0.05
        assert (out / "window.svg").exists()

    def test_reconstruct_isolated_star_exits_3(self, tmp_path, capsys):
        cfg = {"operation": "reconstruct", "scheme": {"name": "fibonacci"},
               "region": {"lo": [0], "hi": [60]}, "params": {"split_threshold": 0.01}}
        assert cli.main(["reconstruct", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert "isolates the star" in capsys.readouterr().err

    def test_torus_and_fiber_runs(self, tmp_path):
        cfg = {
            "operation": "torus",
            "scheme": {"name": "fibonacci"},
            "params": {"op": "singularity", "frac": [0.142857, 0.181818],
                       "radius": 200.0},
        }
        out = tmp_path / "t"
        out.mkdir()
        report, ok = cli.execute(cfg, out)
        assert ok and report["results"]["singular"] is False
        cfg2 = {
            "operation": "fiber",
            "scheme": {"name": "fibonacci"},
            "params": {"frac": [0.142857, 0.181818], "radius": 50.0},
        }
        out2 = tmp_path / "f"
        out2.mkdir()
        report, ok = cli.execute(cfg2, out2)
        assert ok and report["results"]["singular"] is False

    def test_singularity_band_wider_than_half_a_component_gap(self, tmp_path):
        # m = 1, d = 2 takes the generic scan; a band of 0.05 pads the two
        # components across their 0.02 gap, so the padded pieces must merge
        basis = [[1, 0, 1.618], [0, 1, 0.7071], [1, 1.4142, -0.618]]
        comps = [{"lo": 0, "hi": 0.5}, {"lo": 0.52, "hi": 1}]
        frac, radius, band = [0.1, 0.2, 0.3], 5.0, 0.05
        cfg = {"operation": "torus", "seed": 1,
               "scheme": {"d": 2, "m": 1, "basis": basis},
               "window": {"type": "intervals", "components": comps},
               "params": {"op": "singularity", "frac": frac, "radius": radius, "band": band}}
        out = tmp_path / "o"
        assert cli.main(["torus", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        hits = json.loads((out / "report.json").read_text())["results"]["hits"]
        # the old per-star rule, on candidates from one interval over the padded hull
        scheme = ap.make_scheme(2, 1, basis)
        h = ap.torus_point_from_frac(scheme, frac).internal_offset()[0]
        cand = ap.enumerate_cut(scheme, IntervalUnion([Interval(-band - h, 1 + band - h)]),
                                ap.Box.centered(radius, 2))
        want = [[int(v) for v in n] for n, s in zip(cand.index, cand.star[:, 0])
                for c in comps for e in (c["lo"], c["hi"]) if abs(s - (e - h)) <= band]
        assert want and hits == want

    def test_operations_that_read_no_window_run_without_one(self, tmp_path):
        for operation, params in [("analyze", {"op": "dual_candidates", "k_max": 1.0}),
                                  ("analyze", {"op": "validate"}),
                                  ("torus", {"op": "embed", "t": [0.5]})]:
            cfg = {"operation": operation, "scheme": WINDOWLESS_SCHEME, "params": params}
            assert cli.main([operation, "--config", write_cfg(tmp_path, cfg),
                             "--out", str(tmp_path / "o")]) == 0

    def test_almost_periods_run(self, tmp_path):
        cfg = {
            "operation": "almost_periods",
            "scheme": {"name": "fibonacci"},
            "region": {"lo": [-60], "hi": [1060]},
            "boxes": {"sizes": [125, 250, 500, 1000], "anchored": True},
            "params": {"radius": 40.0, "eps_fracs": [0.2]},
        }
        out = tmp_path / "ap"
        out.mkdir()
        report, ok = cli.execute(cfg, out)
        assert ok
        assert report["results"]["levels"][0]["count"] > 0
        assert (out / "almost_periods_0.csv").exists()
        assert (out / "almost_periods_0.svg").exists()


class TestIngest:
    def test_three_line_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x\n0.0\n1.5\n3.0\n")
        pset, warnings = ingest_csv(path)
        assert len(pset) == 3
        assert warnings  # region inferred

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n1.0,2.0\n1.0,2.0\n")
        with pytest.raises(DuplicatePoint):
            ingest_csv(path)

    def test_parse_error_lineno(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n0.0\nnot-a-number\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert err.value.line == 1

    def test_analyze_ingested_points(self, tmp_path):
        path = tmp_path / "pts.csv"
        rows = "\n".join(str(float(i)) for i in range(0, 40))
        path.write_text("x\n" + rows + "\n")
        cfg = {
            "operation": "analyze",
            "points": {"path": str(path), "format": "csv"},
            "params": {"op": "packing_radius"},
        }
        out = tmp_path / "an"
        out.mkdir()
        report, ok = cli.execute(cfg, out)
        assert ok
        assert report["results"]["packing_radius"] == pytest.approx(0.5)

    def test_generate_output_round_trip(self, tmp_path):
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", write_cfg(tmp_path, fib_generate_cfg()),
                         "--out", str(gen)]) == 0
        assert (gen / "points.csv").read_text().startswith("n0,n1,x0,s0\n")
        cfg = {
            "operation": "analyze",
            "points": {"path": str(gen / "points.csv"), "format": "csv"},
            "params": {"op": "packing_radius"},
        }
        out = tmp_path / "an"
        assert cli.main(["analyze", "--config", write_cfg(tmp_path, cfg, "an.json"),
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # the short Fibonacci tile has length 1
        assert report["results"]["packing_radius"] == pytest.approx(0.5)

    def test_writer_header_reads_physical_columns(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("n0,n1,x0,x1,s0\n1,2,0.5,1.5,9.0\n3,4,2.5,0.5,8.0\n")
        pset, _ = ingest_csv(path)
        assert pset.physical.tolist() == [[0.5, 1.5], [2.5, 0.5]]


class TestConfigErrors:
    """Malformed configs exit 2 with a 'config error:' message, not a traceback."""

    def run(self, tmp_path, capsys, cfg):
        code = cli.main([cfg["operation"].replace("_", "-"), "--config",
                         write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        return err

    def test_autocorr_without_region(self, tmp_path, capsys):
        self.run(tmp_path, capsys, {"operation": "autocorr",
                                    "scheme": {"name": "fibonacci"},
                                    "params": {"radius": 5.0}})

    def test_require_key_missing_from_results(self, tmp_path, capsys):
        cfg = fib_generate_cfg()
        cfg["require"] = [{"key": "no_such_result", "min": 1}]
        self.run(tmp_path, capsys, cfg)

    def test_region_dimension_differs_from_scheme(self, tmp_path, capsys):
        cfg = fib_generate_cfg()
        cfg["region"] = {"lo": [0, 0], "hi": [50, 50]}
        self.run(tmp_path, capsys, cfg)

    def test_region_lo_not_below_hi(self, tmp_path, capsys):
        self.run(tmp_path, capsys, fib_generate_cfg(lo=5, hi=0))

    def test_missing_required_param(self, tmp_path, capsys):
        cfg = fib_generate_cfg()
        cfg.update(operation="analyze", params={"op": "difference_set"})
        assert "params.radius" in self.run(tmp_path, capsys, cfg)

    def test_window_dimension_differs_from_scheme(self, tmp_path, capsys):
        cfg = fib_generate_cfg()
        cfg["window"] = {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}
        self.run(tmp_path, capsys, cfg)

    def test_inline_scheme_without_window(self, tmp_path, capsys):
        cfg = fib_generate_cfg()
        cfg["scheme"] = WINDOWLESS_SCHEME
        self.run(tmp_path, capsys, cfg)

    def windowless(self, tmp_path, capsys, operation, params):
        cfg = {"operation": operation, "scheme": WINDOWLESS_SCHEME, "params": params, "seed": 1}
        assert "needs a window" in self.run(tmp_path, capsys, cfg)

    def test_fiber_without_window(self, tmp_path, capsys):
        self.windowless(tmp_path, capsys, "fiber", {"frac": [0.1, 0.2]})

    def test_torus_singularity_without_window(self, tmp_path, capsys):
        self.windowless(tmp_path, capsys, "torus", {"op": "singularity", "frac": [0.1, 0.2]})

    def test_torus_separation_without_window(self, tmp_path, capsys):
        self.windowless(tmp_path, capsys, "torus", {"op": "separation", "samples": 3})

    def test_model_density_without_window(self, tmp_path, capsys):
        self.windowless(tmp_path, capsys, "analyze", {"op": "model_density"})

    @pytest.mark.parametrize("scheme,band", [("fibonacci", "x"), ("ammann_beenker", -0.5)])
    def test_torus_band_not_a_finite_nonnegative_number(self, tmp_path, capsys, scheme, band):
        cfg = {"operation": "torus", "scheme": {"name": scheme}, "seed": 1,
               "params": {"op": "singularity", "frac": [0.1] * (2 if scheme == "fibonacci" else 4),
                          "radius": 10.0, "band": band}}
        assert "params.band" in self.run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("operation,params,bad", [
        (op, params, (key, value))
        for op, params, keys in [
            ("torus", {"op": "singularity", "frac": [0.1, 0.2]}, ("radius", "band")),
            ("torus", {"op": "separation"}, ("radius", "band", "samples")),
            ("fiber", {"frac": [0.1, 0.2]}, ("radius",))]
        for key, value in [
            ("radius", "x"), ("radius", -5), ("radius", 0), ("radius", float("inf")),
            ("radius", float("nan")), ("radius", True), ("radius", None),
            ("band", True), ("band", float("inf")), ("samples", "x"), ("samples", -3),
            ("samples", 0), ("samples", 2.0), ("samples", True)]
        if key in keys])
    def test_torus_and_fiber_param_checks(self, tmp_path, capsys, operation, params, bad):
        key, value = bad
        cfg = {"operation": operation, "scheme": {"name": "fibonacci"}, "seed": 1,
               "params": {**params, key: value}}
        assert f"config error: params.{key} must be" in self.run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("params,bad", [
        (params, bad)
        for params in [{"op": "difference_set", "radius": 5.0}, {"op": "m1_cover", "radius": 5.0},
                       {"op": "flc_clusters", "radius": 5.0},
                       {"op": "repetition_set", "radius": 5.0},
                       {"op": "weak_ud", "radius": 10.0, "k_half": 2.0}]
        for bad in [("radius", "x"), ("radius", -1), ("radius", 0), ("radius", float("nan")),
                    ("k_half", "x"), ("k_half", 0), ("k_half", float("inf")),
                    ("n_anchors", 0), ("n_anchors", "x"), ("n_anchors", 2.5)]
        if bad[0] == "radius" or params["op"] == "weak_ud"])
    def test_analyze_param_checks(self, tmp_path, capsys, params, bad):
        key, value = bad
        cfg = {"operation": "analyze", "scheme": {"name": "fibonacci"}, "seed": 1,
               "region": {"lo": [0], "hi": [60]}, "params": {**params, key: value}}
        assert f"config error: params.{key} must be" in self.run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("operation", ["autocorr", "almost_periods"])
    @pytest.mark.parametrize("radius", ["x", -5, 0])
    def test_eta_radius_checks(self, tmp_path, capsys, operation, radius):
        cfg = {"operation": operation, "scheme": {"name": "fibonacci"},
               "region": {"lo": [-10], "hi": [300]},
               "boxes": {"sizes": [100, 200], "anchored": True}, "params": {"radius": radius}}
        assert "config error: params.radius must be" in self.run(tmp_path, capsys, cfg)

    def test_weak_ud_k_half_below_half_the_radius(self, tmp_path, capsys):
        cfg = {"operation": "analyze", "scheme": {"name": "fibonacci"}, "seed": 1,
               "region": {"lo": [0], "hi": [60]},
               "params": {"op": "weak_ud", "radius": 10, "k_half": 5}}
        assert "params.k_half must be below params.radius / 2" in self.run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("key,value", [
        ("n_pairs", "x"), ("n_pairs", -2), ("n_pairs", 0), ("n_pairs", True),
        ("cover_radius", "x"), ("cover_radius", -1), ("cover_radius", float("inf")),
        ("pair_range", [5, 1]), ("pair_range", "ab"), ("pair_range", [0]),
        ("pair_range", [0, float("nan")]), ("pair_range", [True, 2])])
    def test_meyer_cert_param_checks(self, tmp_path, capsys, key, value):
        cfg = {"operation": "meyer_cert", "scheme": {"name": "fibonacci"}, "seed": 1,
               "region": {"lo": [-450], "hi": [450]},
               "params": {"n_pairs": 1, "pair_range": [0.0, 10.0], key: value}}
        assert f"config error: params.{key} must be" in self.run(tmp_path, capsys, cfg)

    def test_params_op_not_a_string(self, tmp_path, capsys):
        cfg = {"operation": "analyze", "scheme": {"name": "fibonacci"},
               "region": {"lo": [0], "hi": [60]}, "params": {"op": [5, 1]}}
        assert "params.op must be a string" in self.run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("operation,params,key,value", [
        ("analyze", {"op": "dual_candidates", "k_max": 1.0}, "k_max", "x"),
        ("analyze", {"op": "dual_candidates", "k_max": 1.0}, "k_max", None),
        ("analyze", {"op": "dual_candidates", "k_max": 1.0}, "k_internal_max", -1),
        ("diffract", {"k_max": 1.0}, "k_max", -1),
        ("diffract", {"k_max": 1.0}, "k_max", float("inf")),
        ("diffract", {"k_max": 1.0}, "k_internal_max", "y"),
        ("analyze", {"op": "period_candidates"}, "scan_radius", "z"),
        ("analyze", {"op": "period_candidates"}, "scan_radius", 0),
        ("almost_periods", {"radius": 10.0}, "scan_radius", "z"),
        ("almost_periods", {"radius": 10.0}, "eps_fracs", "ab"),
        ("almost_periods", {"radius": 10.0}, "eps_fracs", [0.2, float("nan")]),
        ("almost_periods", {"radius": 10.0}, "eps", [True]),
        ("almost_periods", {"radius": 10.0}, "eps", None),
        ("diffract", {"k_max": 1.0}, "n_controls", "x"),
        ("diffract", {"k_max": 1.0}, "n_controls", -1),
        ("reconstruct", {}, "split_threshold", "x"),
        ("torus", {"op": "embed"}, "t", "x"),
        ("torus", {"op": "embed"}, "t", [1, 2]),
        ("torus", {"op": "beta", "x": [0.5]}, "h", "y"),
        ("torus", {"op": "beta", "h": [0.1]}, "x", [float("nan")]),
        ("torus", {"op": "singularity"}, "frac", [0.1]),
        ("fiber", {}, "frac", "ab"),
        ("fiber", {}, "frac", [0.1, 0.2, 0.3]),
        ("analyze", {"op": "patch_frequency", "anchors": [0]}, "offsets", "x"),
        ("analyze", {"op": "patch_frequency", "offsets": [[0]]}, "anchors", [[0], [1, 2]])])
    def test_numeric_param_checks(self, tmp_path, capsys, operation, params, key, value):
        cfg = {"operation": operation, "scheme": {"name": "fibonacci"}, "seed": 1,
               "region": {"lo": [-10], "hi": [60]}, "boxes": {"sizes": [20, 40]},
               "params": {**params, key: value}}
        assert f"config error: params.{key} must be" in self.run(tmp_path, capsys, cfg)

    def test_meyer_cert_pair_range_without_points(self, tmp_path, capsys):
        cfg = {"operation": "meyer_cert", "scheme": {"name": "fibonacci"}, "seed": 1,
               "region": {"lo": [-450], "hi": [450]},
               "params": {"n_pairs": 1, "pair_range": [1000, 2000]}}
        assert "no patch point falls in params.pair_range" in self.run(tmp_path, capsys, cfg)

    def test_points_region_rejected(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("x\n0.0\n1.5\n3.0\n")
        cfg = {"operation": "generate", "points": {"path": str(path)},
               "region": {"lo": [0], "hi": [10]}}
        assert cli.main(["generate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path / "top")]) == 0
        report = json.loads((tmp_path / "top" / "report.json").read_text())
        assert report["results"]["empirical_density"] == pytest.approx(0.3)
        cfg["points"]["region"] = cfg.pop("region")
        assert "top-level 'region'" in self.run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("seed", [2.0, -1, True])
    def test_seed_not_a_nonnegative_integer(self, tmp_path, capsys, seed):
        cfg = {"operation": "torus", "scheme": {"name": "fibonacci"}, "seed": seed,
               "params": {"op": "separation", "samples": 3}}
        assert "seed must be an integer >= 0" in self.run(tmp_path, capsys, cfg)

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = {"operation": "torus", "scheme": {"name": "fibonacci"}, "seed": 1,
               "params": {"op": "separation", "samples": 3}}
        assert cli.main(["torus", "--config", write_cfg(tmp_path, cfg), "--out",
                         str(tmp_path / "o"), "--seed-override", "-1"]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [[-5], [20, 0]])
    def test_box_sizes_not_positive(self, tmp_path, capsys, sizes):
        cfg = {"operation": "autocorr", "scheme": {"name": "fibonacci"},
               "region": {"lo": [-10], "hi": [100]}, "boxes": {"sizes": sizes},
               "params": {"radius": 5.0}}
        assert "boxes.sizes must be" in self.run(tmp_path, capsys, cfg)

    def test_quadratic_scheme_without_radicand(self, tmp_path, capsys):
        cfg = fib_generate_cfg()
        cfg["scheme"] = {**WINDOWLESS_SCHEME, "basis": [[1, ["1/2", "1/2"]], [1, ["1/2", "-1/2"]]],
                         "arithmetic": {"mode": "quadratic"}}
        cfg["window"] = {"type": "intervals", "components": [{"lo": -0.6, "hi": 0.9}]}
        assert "radicand D" in self.run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("operation,sub", list(PARAMS))
    def test_unknown_param_key(self, tmp_path, capsys, operation, sub):
        cfg = {"operation": operation, "scheme": {"name": "fibonacci"}, "seed": 1,
               "runs": [fib_generate_cfg()],
               "params": {**({"op": sub} if sub else {}), "no_such_key": 1}}
        assert "unknown key params.no_such_key" in self.run(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("part,value", [
        ("region", {"lo": [0], "hi": [60], "no_such_key": 1}),
        ("boxes", {"sizes": [20], "no_such_key": 1}),
        ("points", {"path": "pts.csv", "no_such_key": 1}),
        ("require", [{"key": "count", "min": 1, "no_such_key": 1}])])
    def test_unknown_key_in_a_part(self, tmp_path, capsys, part, value):
        cfg = {**fib_generate_cfg(), part: value}
        assert "no_such_key" in self.run(tmp_path, capsys, cfg)


FUZZ_BASES = [
    fib_generate_cfg(0, 30),
    {"operation": "generate", "scheme": {"name": "ammann_beenker"},
     "region": {"lo": [-3, -3], "hi": [3, 3]}},
    {"operation": "analyze", "scheme": {"name": "fibonacci"},
     "region": {"lo": [0], "hi": [40]}, "params": {"op": "difference_set", "radius": 5.0}},
    {"operation": "analyze", "scheme": {"name": "silver"},
     "params": {"op": "dual_candidates", "k_max": 1.0}},
    {"operation": "analyze", "scheme": {"name": "fibonacci"}, "seed": 3,
     "region": {"lo": [0], "hi": [60]},
     "params": {"op": "weak_ud", "radius": 10.0, "k_half": 2.0, "n_anchors": 5}},
    {"operation": "analyze", "scheme": {"name": "fibonacci"},
     "region": {"lo": [0], "hi": [60]}, "params": {"op": "m1_cover", "radius": 5.0}},
    {"operation": "meyer_cert", "scheme": {"name": "fibonacci"}, "seed": 3,
     "region": {"lo": [-120], "hi": [120]},
     "params": {"n_pairs": 1, "cover_radius": 10.0, "pair_range": [0.0, 5.0]}},
    {"operation": "diffract", "scheme": {"name": "fibonacci"}, "seed": 3,
     "region": {"lo": [-10], "hi": [60]}, "boxes": {"sizes": [20, 40]},
     "params": {"k_max": 1.0, "n_controls": 2}},
    {"operation": "torus", "scheme": {"name": "fibonacci"}, "params": {"op": "embed", "t": [0.5]}},
    {"operation": "torus", "scheme": {"name": "silver"},
     "params": {"op": "beta", "x": [0.5], "h": [0.1]}},
    {"operation": "torus", "scheme": {"name": "fibonacci"},
     "params": {"op": "singularity", "frac": [0.1, 0.2], "radius": 50.0}},
    {"operation": "fiber", "scheme": {"name": "fibonacci"},
     "params": {"frac": [0, 0], "radius": 20.0}},
    {"operation": "reconstruct", "scheme": {"name": "fibonacci"},
     "region": {"lo": [0], "hi": [60]}, "params": {"split_threshold": 2.0}},
    {"operation": "analyze", "scheme": {"name": "fibonacci"},
     "region": {"lo": [-20], "hi": [80]}, "boxes": {"sizes": [10, 20]},
     "params": {"op": "patch_frequency", "offsets": [[0], [1.618034]], "anchors": [[0], [10]]}},
]

# the params a "param" mutation may set (every key of the table; half the time
# one of the config's own keys), the values it gives them, and the seeds of a
# "seed" mutation
FUZZ_PARAM_KEYS = tuple(sorted({key for _, spec in PARAMS.values() for key in spec}))
FUZZ_PARAM_VALUES = ["x", -1, 0, 0.01, 2.5, 8, float("nan"), True, None, [5, 1], [1000, 2000],
                     [0], [[0], [1.5]]]
FUZZ_SEEDS = [2.0, -1, "x", True]

FUZZ_WINDOWS = [
    None,
    {"type": "full"},
    {"type": "intervals", "components": [{"lo": -0.5, "hi": 0.7}]},
    {"type": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
    {"type": "polygon", "components": [{"lo": -0.5, "hi": 0.7}]},
    {"type": "intervals", "vertices": [[0, 0], [1, 0], [0, 1]]},
]


def _key_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A small valid config with 1-3 mutations, and the verb it was written for."""
    cfg = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    verb = cfg["operation"].replace("_", "-")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "swap", "dims", "window", "param", "seed"]))
        region = cfg.get("region")
        if kind == "drop":
            path = draw(st.sampled_from(list(_key_paths(cfg))))
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        elif kind == "swap" and region is not None and {"lo", "hi"} <= region.keys():
            region["lo"], region["hi"] = region["hi"], region["lo"]
        elif kind == "dims":
            cfg["region"] = {"lo": [-2.0] * draw(st.integers(1, 3)),
                             "hi": [2.0] * draw(st.integers(1, 3))}
        elif kind == "window":
            cfg["window"] = copy.deepcopy(draw(st.sampled_from(FUZZ_WINDOWS)))
        elif kind == "param" and "params" in cfg:
            _, own = PARAMS.get((cfg.get("operation"), cfg["params"].get("op")), (False, {}))
            keys = sorted(own) if own and draw(st.booleans()) else FUZZ_PARAM_KEYS
            cfg["params"][draw(st.sampled_from(keys))] = draw(st.sampled_from(FUZZ_PARAM_VALUES))
        elif kind == "seed":
            cfg["seed"] = draw(st.sampled_from(FUZZ_SEEDS))
    return verb, cfg


@settings(max_examples=100, deadline=None)
@given(mutated_configs())
def test_config_fuzz_exits_cleanly(case):
    verb, cfg = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([verb, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
