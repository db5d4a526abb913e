"""Repeat run.py over ten seeds per workload and summarize each end-to-end metric.

Usage (from the repository root):

    python3 perfbench/baseline.py [--write]

It runs every workload of ``BENCHMARK.json`` with seeds 1 to 10.  For every
workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median.  With ``--write`` the summary
and the environment go to ``perfbench/BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, env = {}, None
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                                   text=True).stdout.splitlines()
            env = env or json.loads(lines[1].split(": ", 1)[1])
            result = json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  above a third of the bound"
            print(f"  {workload} {name}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {spread:.4f} (bound {bounds[name]}){flag}")
    if args.write:
        out = {"environment": env, "seeds": list(SEEDS),
               "run_seconds": bench["run_seconds"], "workloads": summary}
        (BENCH_DIR / "BASELINE.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
