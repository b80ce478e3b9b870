"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload dense-map-fr --seeds 5
    python3 perfbench/spread.py --seeds 10 --baseline perfbench/BASELINE.json

For each workload (default: all in BENCHMARK.json) it runs ``run.py`` once
per seed, one run at a time, with BENCHMARK.json's ``run_seconds`` and
tracing off. For each end-to-end metric it prints the median of the per-run
values and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound. A run that fails or reports ``correct: false`` makes the
script exit with status 1. ``--baseline`` also makes one traced run per
workload, on the first seed, and writes the medians, the per-layer metrics
and the machine, numpy and OpenBLAS facts to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, str]:
    """One benchmark run; returns its result object and its whole stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    return result, proc.stdout


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS set for the CLI children": run.BLAS_THREADS,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload (repeatable; default all)")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, help="write medians and environment here")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary: dict = {}
    for workload in workloads:
        runs = [run_once(workload, seed, spec["run_seconds"])[0] for seed in seeds]
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "spread": spread, "values": values}
            flag = ("" if name == "setup_s" or spread < metric["bound"] / 3
                    else "  <-- above a third of the bound")
            print(f"{workload:<14} {name:<18} median {median:<12.6g} {metric['unit']:<9} "
                  f"spread {spread:6.2%}  bound {metric['bound']:.0%}{flag}", flush=True)
            print("    per seed: " + " ".join(f"{v:.4g}" for v in values), flush=True)
        if args.baseline:
            traced, stdout = run_once(workload, seeds[0], spec["run_seconds"], trace=1)
            summary[workload]["traced_seed"] = seeds[0]
            summary[workload]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()
            }
            summary[workload]["trace_notes"] = [
                line for line in stdout.splitlines() if line.startswith("#")
            ]
    if args.baseline:
        args.baseline.write_text(json.dumps({
            "environment": environment(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "workloads": summary,
        }, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
