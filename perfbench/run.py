"""End-to-end and per-layer benchmark of the aperiodic CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload fib-1d --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the suite config of the workload is run through
``cli.execute`` again and again for ``--seconds`` (and at least
MIN_SAMPLES times), untraced, and the end-to-end metrics are reported:
``setup_s`` and ``run_s_norm`` (fresh-interpreter launch times and run
times, each divided by the time of a fixed calibration task run just before
and after it, medians scaled to CALIB_REF_S) and ``peak_rss_mb``.  The raw
sample counts, medians and 80th percentile of the run times (at least ten
samples beyond it) are printed above the result line.

With ``--trace 1`` the same suite runs alternately untraced and traced, then
its scaling sub-runs run traced at full and half size, and the per-layer
metrics are reported.

Every sub-run of every sample is checked: it must not raise, its ``require``
entries must hold, and for the default seed the sha256 of its ``results``
block must equal the digest pinned in ``digests.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted`` (sub-runs),
``failed`` and ``metrics``.  All files go to ``.perfbench_out/`` in the
repository root.
"""

from __future__ import annotations

import os

# the workloads are single-threaded: keep numpy's BLAS from starting worker
# threads, which contend with each other on a small shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 1
SETUP_LAUNCHES = 11       # fresh interpreters timed for setup_s, spread over the run
MIN_SAMPLES = 50          # so that the 80th percentile has ten samples beyond it
TAIL_PERCENT = 80
# The machine switches between a fast state and one about 1.4x slower, and
# the share of slow time drifts over minutes.  Each timed sample is therefore
# divided by the time of a fixed calibration task run just before and after
# it, and the reported times are these ratios scaled by the calibration time
# of the baseline machine in its fast state.
CALIB_REF_S = 0.018
TRACE_GAP = 0.001         # allowed share of a traced run outside the layer self times
MAX_SECONDS = 120         # stop sampling here even if MIN_SAMPLES is not reached
MIN_TRACE_PAIRS = 3       # untraced/traced sample pairs in the traced run
SCALING_REPS = 3          # traced repetitions per size of the scaling sub-runs
HALF = 0.5

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="pin this run's results digests for the default seed")
    return parser.parse_args(argv)


def import_cli():
    """Import aperiodic from the source tree of this checkout, never from elsewhere."""
    if not (SRC / "aperiodic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC / 'aperiodic'}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import aperiodic
    from aperiodic import cli
    from aperiodic.config import load_config

    if Path(aperiodic.__file__).resolve().parent != (SRC / "aperiodic").resolve():
        raise SystemExit(f"perfbench: imported aperiodic from {aperiodic.__file__}")
    return aperiodic, cli, load_config


def write_inputs(work: Path, workload: str, seed: int, scale: float = 1.0,
                 scaling_only: bool = False) -> Path:
    """Write the suite config (and, for raw-cloud, its CSV) and return the config path."""
    tag = "" if scale == 1.0 else f"_x{scale:g}"
    tag += "_scaling" if scaling_only else ""
    points_path = pts = None
    if workload == "raw-cloud":
        pts = workloads.cloud(seed, scale)
        csv_path = work / f"cloud{tag}.csv"
        csv_path.write_text("x\n" + "".join(f"{v!r}\n" for v in pts.tolist()))
        points_path = str(csv_path)
    cfg = workloads.suite(workload, seed, points_path, pts, scale, scaling_only)
    cfg_path = work / f"suite{tag}.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    return cfg_path


def measure_setup(cfg_path: Path) -> float:
    """Seconds from launching a fresh interpreter until it has imported and validated."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                           str(cfg_path)], cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed


def digest(results) -> str:
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Checker:
    """Counts sub-runs attempted and failed over every sample of one suite."""

    def __init__(self, n_runs: int, pinned: list | None):
        self.n_runs = n_runs
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def _fail(self, msg):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(msg)

    def check(self, report, error, out: Path) -> list:
        """Check one sample; returns the per-sub-run results digests."""
        if report is not None:
            subs = [(r["ok"], r["results"]) for r in report["results"]["runs"]]
        else:
            # the suite raised: sub-runs before the failing one left a report
            subs = []
            for i in range(self.n_runs):
                path = out / f"run_{i:03d}" / "report.json"
                if not path.exists():
                    break
                sub = json.loads(path.read_text())
                subs.append((sub["requirements_met"], sub["results"]))
        digests = []
        for i, (ok, results) in enumerate(subs):
            self.attempted += 1
            digests.append(digest(results))
            if not ok:
                self._fail(f"run {i}: requirements not met")
            elif self.pinned is not None and digests[-1] != self.pinned[i]:
                self._fail(f"run {i}: results digest {digests[-1][:12]} != pinned "
                           f"{self.pinned[i][:12]}")
        if error is not None:
            self.attempted += 1
            self._fail(f"run {len(subs)}: raised {type(error).__name__}: {error}")
        return digests


def run_sample(cli, cfg: dict, out: Path, checker: Checker):
    """One timed call of cli.execute on the suite; returns (seconds, digests)."""
    for i in range(checker.n_runs):
        (out / f"run_{i:03d}" / "report.json").unlink(missing_ok=True)
    report = error = None
    start = time.perf_counter()
    try:
        report, _ = cli.execute(cfg, out)
    except Exception as exc:  # noqa: BLE001 - a failing sub-run is counted, not fatal
        error = exc
    elapsed = time.perf_counter() - start
    return elapsed, checker.check(report, error, out)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python and numpy task that uses no aperiodic code."""
    import numpy as np

    data = np.random.default_rng(0).random(20000)
    start = time.perf_counter()
    acc, counts = 0, {}
    for i in range(20000):
        acc += (i * i) % 7
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for _ in range(5):
        ordered = np.sort(data)
        np.unique(np.round(data, 3))
        np.searchsorted(ordered, data)
    return time.perf_counter() - start


def calibrated(measure):
    """(seconds, seconds relative to the calibration task) of one call of ``measure``."""
    before = calibrate()
    elapsed = measure()
    return elapsed, 2.0 * elapsed / (before + calibrate())


def nearest_rank(values, percent):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percent / 100.0 * len(ordered))) - 1]


def timed_run(cli, cfg, out, checker, seconds, cfg_path):
    run_sample(cli, cfg, out, checker)  # warm-up, checked but not timed
    setup, times = [], []         # (seconds, relative to the calibration task)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(times) >= MIN_SAMPLES):
            break
        # interleave the set-up launches evenly with the samples, so both
        # see the same share of any slow phase of the machine
        if len(setup) < SETUP_LAUNCHES and len(setup) * seconds <= SETUP_LAUNCHES * elapsed:
            setup.append(calibrated(lambda: measure_setup(cfg_path)))
        times.append(calibrated(lambda: run_sample(cli, cfg, out, checker)[0]))
    while len(setup) < SETUP_LAUNCHES:
        setup.append(calibrated(lambda: measure_setup(cfg_path)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "samples.json").write_text(json.dumps({"setup": setup, "run": times}) + "\n")
    raw = [t for t, _ in times]
    print(f"  run_s over {len(raw)} timed samples: median {statistics.median(raw):.6g} s, "
          f"p{TAIL_PERCENT} {nearest_rank(raw, TAIL_PERCENT):.6g} s")
    print(f"  setup_s over {len(setup)} launches: median "
          f"{statistics.median(t for t, _ in setup):.6g} s")
    return {
        "setup_s": (CALIB_REF_S * statistics.median(r for _, r in setup), "s"),
        "run_s_norm": (CALIB_REF_S * statistics.median(r for _, r in times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced_run(aperiodic, cli, cfg, out, checker, seconds, scaling):
    import tracer as tr

    tracer = tr.Tracer(aperiodic)
    run_sample(cli, cfg, out, checker)  # warm-up
    base, traced, summaries, kept = [], [], [], []
    start = time.perf_counter()
    while len(base) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        base.append(run_sample(cli, cfg, out, checker)[0])
        tracer.install()
        try:
            traced.append(run_sample(cli, cfg, out, checker)[0])
        finally:
            tracer.uninstall()
        spans = tracer.take()
        kept.append(spans)
        summaries.append(tr.summarize(spans))
    sizes = {}
    for scale, (scfg, sout, schecker) in scaling.items():
        runs = []
        for _ in range(SCALING_REPS):
            tracer.install()
            try:
                run_sample(cli, scfg, sout, schecker)
            finally:
                tracer.uninstall()
            runs.append(tr.summarize(tracer.take()))
        sizes[scale] = runs
    (out / "spans.json").write_text(json.dumps(kept) + "\n")
    return layer_metrics(summaries, base, traced, sizes)


LAYERS = ("cli", "config", "schemes", "scheme", "window", "exactmath", "pointset",
          "kernels", "autocorr", "spectral", "torus", "meyer", "serialize", "plots")
VERBS = ("generate", "analyze", "autocorr", "almost_periods", "diffract", "torus",
         "fiber", "reconstruct", "meyer_cert", "suite")
# span name -> reported keys: times (s, self_s) and work counts (see tracer.COUNTERS)
FUNC_METRICS = {
    "scheme.enumerate_cut": ("s", "calls", "points"),
    "scheme.dual_candidates": ("s", "count"),
    "window.accepts": ("calls",),
    "exactmath.star_exact": ("calls",),
    "pointset.difference_set": ("s", "calls", "deltas"),
    "pointset.flc_clusters": ("s",),
    "pointset.packing_radius": ("s",),
    "kernels.eta_counts_1d": ("s", "lookups"),
    "kernels.pairs_within_1d": ("s", "pairs"),
    "kernels.weyl_sums_1d": ("s", "terms"),
    "autocorr.almost_periods": ("s",),
    "spectral.diffraction_table": ("self_s", "frequencies"),
    "spectral.separation_fraction": ("self_s", "samples"),
    "torus.singularity_test": ("s", "calls", "hits"),
    "torus.fiber_enumerate": ("s",),
    "torus.reconstruct_window": ("s",),
    "meyer.stepping_certificate": ("self_s", "calls"),
    "meyer.m1_cover": ("self_s",),
}
# (function span, count used as problem size) for the scaling exponents
EXPONENTS = {
    "scheme.enumerate_cut": "points",
    "pointset.difference_set": "n",
    "kernels.eta_counts_1d": "n",
}


def _exponent(sizes, name, size_key):
    """Slope of log time against log problem size between full and half size.

    0 means the function does not run on this workload, which still reports
    the metric, as every workload reports every per-layer metric.
    """
    def med(scale, key):
        return statistics.median(s["funcs"].get(name, {}).get(key, 0) for s in sizes[scale])

    calls = [med(scale, "calls") for scale in (1.0, HALF)]
    if max(calls) == 0:
        return 0.0
    t1, t0 = med(1.0, "s"), med(HALF, "s")
    n1, n0 = med(1.0, size_key), med(HALF, size_key)
    if min(calls) == 0 or n1 <= n0 or n0 <= 0:
        raise RuntimeError(f"{name}: half size must run it on a smaller input "
                           f"(calls {calls}, sizes {n1} and {n0})")
    return math.log(t1 / t0) / math.log(n1 / n0)


def layer_metrics(summaries, base, traced, sizes) -> dict:
    def fn(name, key):
        return statistics.fmean(s["funcs"].get(name, {}).get(key, 0) for s in summaries)

    def layer(name, key):
        return statistics.fmean(s["layers"].get(name, {}).get(key, 0.0) for s in summaries)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    # the layer self times must account for the traced call as timed from outside
    for s, elapsed in zip(summaries, traced):
        total = sum(v["self_s"] for v in s["layers"].values())
        if abs(elapsed - total) > TRACE_GAP * elapsed:
            raise RuntimeError(f"layer self times add up to {total:.6g} s, "
                               f"but the traced run took {elapsed:.6g} s")
    m = {f"cli.{verb}.s": (fn(f"cli.{verb}", "s"), "s") for verb in VERBS}
    m.update({f"{name}.self_s": (layer(name, "self_s"), "s") for name in LAYERS})
    for name in ("config", "serialize", "plots"):
        m[f"{name}.s"] = (layer(name, "s"), "s")
    for name, keys in FUNC_METRICS.items():
        m.update({f"{name}.{key}": (fn(name, key), "s" if key in ("s", "self_s") else "count")
                  for key in keys})
    m.update({
        "scheme.enumerate_cut.us_per_point": (
            ratio(fn("scheme.enumerate_cut", "s"), fn("scheme.enumerate_cut", "points"), 1e6),
            "us/point"),
        "kernels.eta_counts_1d.ns_per_lookup": (
            ratio(fn("kernels.eta_counts_1d", "s"), fn("kernels.eta_counts_1d", "lookups"), 1e9),
            "ns/lookup"),
        "spectral.separation_fraction.s_per_sample": (
            ratio(fn("spectral.separation_fraction", "s"),
                  fn("spectral.separation_fraction", "samples")), "s/sample"),
        # eta_table delegates the counting to eta_table_for_deltas
        "autocorr.eta_table.self_s": (fn("autocorr.eta_table", "self_s")
                                      + fn("autocorr.eta_table_for_deltas", "self_s"), "s"),
        "autocorr.eta.deltas": (fn("autocorr.eta_table_for_deltas", "deltas"), "count"),
        "autocorr.eta.boxes": (fn("autocorr.eta_table_for_deltas", "boxes"), "count"),
        "serialize.bytes_written": (sum(fn(n, "bytes_written") for n in (
            "serialize.pointset_to_csv", "serialize.peak_table_to_csv",
            "serialize.almost_periods_to_csv", "serialize.json_dumps_stable")), "bytes"),
        "serialize.rows_read": (fn("serialize.ingest_csv", "rows_read")
                                + fn("serialize.ingest_json", "rows_read"), "count"),
    })
    for name, size_key in EXPONENTS.items():
        m[f"{name}.exponent"] = (_exponent(sizes, name, size_key), "1")
    traced_s, untraced_s = statistics.fmean(traced), statistics.fmean(base)
    m["trace.run_s"] = (traced_s, "s")
    m["trace.base_run_s"] = (untraced_s, "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    m["trace.samples"] = (len(summaries), "count")
    return m


def environment() -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "numba": have_numba, "nproc": os.cpu_count(),
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                func = getattr(handle, sym)
                func.restype = ctypes.c_int
                return int(func())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    aperiodic, cli, load_config = import_cli()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = write_inputs(work, args.workload, args.seed)
    cfg = load_config(cfg_path)
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned = pins.get(args.workload) if args.seed == DEFAULT_SEED else None
    checker = Checker(len(cfg["runs"]), None if args.write_digests else pinned)
    out = work / "out"
    out.mkdir()
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    if args.write_digests:
        if args.seed != DEFAULT_SEED:
            raise SystemExit("--write-digests pins the default seed only")
        _, digests = run_sample(cli, cfg, out, checker)
        pins[args.workload] = digests
        DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        print(f"pinned {len(digests)} digests for {args.workload}")
        return 0 if checker.failed == 0 and len(digests) == checker.n_runs else 1
    if args.trace:
        scaling = {}
        for scale in (1.0, HALF):
            spath = write_inputs(work, args.workload, args.seed, scale, scaling_only=True)
            scfg = load_config(spath)
            sout = work / f"out_x{scale:g}"
            sout.mkdir()
            scaling[scale] = (scfg, sout, Checker(len(scfg["runs"]), None))
        metrics = traced_run(aperiodic, cli, cfg, out, checker, args.seconds, scaling)
        attempted = checker.attempted + sum(c.attempted for _, _, c in scaling.values())
        failed = checker.failed + sum(c.failed for _, _, c in scaling.values())
        messages = checker.messages + [m for _, _, c in scaling.values() for m in c.messages]
    else:
        metrics = timed_run(cli, cfg, out, checker, args.seconds, cfg_path)
        attempted, failed, messages = checker.attempted, checker.failed, checker.messages
    for msg in messages:
        print(f"FAILED {msg}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(f"  {'failed_frac':<{width}}  {failed / attempted:.6g} "
          f"({failed} of {attempted} sub-runs)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
