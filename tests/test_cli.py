import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperiodic import cli
from aperiodic.config import CONFIG_SCHEMA, load_config, validate_config
from aperiodic.errors import ConfigError, DuplicatePoint, ParseError
from aperiodic.serialize import ingest_csv


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


FUZZ_BASES = [
    fib_generate_cfg(0, 30),
    {"operation": "generate", "scheme": {"name": "ammann_beenker"},
     "region": {"lo": [-3, -3], "hi": [3, 3]}},
    {"operation": "analyze", "scheme": {"name": "fibonacci"},
     "region": {"lo": [0], "hi": [40]}, "params": {"op": "difference_set", "radius": 5.0}},
    {"operation": "analyze", "scheme": {"name": "silver"},
     "params": {"op": "dual_candidates", "k_max": 1.0}},
]

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
    verb = cfg["operation"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "swap", "dims", "window"]))
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
    return verb, cfg


@settings(max_examples=50, deadline=None)
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


def test_schema_is_valid_jsonschema():
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
