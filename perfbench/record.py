"""Run the benchmark over several seeds and record the results.

    python3 perfbench/record.py --seeds 1-10 --seconds 20 \\
        --out perfbench/baseline.json

For each workload: one untraced ``run.py`` process per seed, then one
traced process on the first seed.  The record holds, per end-to-end
metric, the median, quartiles and the quartile spread as a share of the
median (checked against the bounds in ``BENCHMARK.json``), the traced
per-layer table, the model-fidelity table, the host (nproc, Python,
numpy, BLAS) and the commit.  It also checks that the simulated metrics
of the first seed are identical in its untraced and traced processes.
It exits 1 when any metric's spread (``setup_s`` included) exceeds its
bound or those simulated metrics differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metrics on the simulated clock: a pure function of the seed
SIM_METRICS = (
    "sim_goodput_rps", "sim_p50_ms", "sim_p99_ms", "slo_met_frac",
    "ok_frac", "clean_frac", "model_err_max", "sim_gflops_geomean",
    "sim_speedup_geomean",
)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int,
             results: Path) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--results", str(results),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}")
    return json.loads(results.read_text())[0], wall


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values)
        if statistics.median(values) else 0.0,
    }


def host_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all of them)")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    seeds = parse_seeds(args.seeds)
    scratch = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    results_file = scratch / "results.json"

    record = {"host": host_info(), "seeds": seeds, "run_seconds": seconds,
              "workloads": {}}
    ok = True
    try:
        for name in names:
            runs = []
            for seed in seeds:
                result, wall = run_once(name, seed, seconds, 0, results_file)
                result["process_wall_s"] = wall
                runs.append(result)
                print(f"{name} seed {seed}: {wall:.1f} s, "
                      f"{result['passes']} passes", flush=True)
            metrics = {}
            for metric, bound in bounds.items():
                stats = quartiles([r["metrics"][metric] for r in runs])
                stats["bound"] = bound
                metrics[metric] = stats
                if stats["spread"] > bound:
                    ok = False
                print(f"  {metric:22s} median {stats['median']:12.6g}  "
                      f"spread {stats['spread']:7.2%}  bound {bound:.0%}"
                      + ("  OVER BOUND" if stats["spread"] > bound else ""),
                      flush=True)
            entry = {
                "why": why.get(name, ""),
                "end_to_end": metrics,
                "runs": [
                    {"seed": r["seed"], "passes": r["passes"],
                     "process_wall_s": r["process_wall_s"],
                     "attempted": r["attempted"], "failed": r["failed"],
                     "samples": r["samples"], "phase_s": r["phase_s"],
                     "setup_samples_s": r["setup_samples_s"],
                     "metrics": r["metrics"]}
                    for r in runs
                ],
                "fidelity": {"seed": runs[0]["seed"],
                             "rows": runs[0]["fidelity"]},
            }
            if not args.no_trace:
                traced, wall = run_once(name, seeds[0], seconds, 1,
                                        results_file)
                same = all(
                    traced["metrics"][m] == runs[0]["metrics"][m]
                    for m in SIM_METRICS
                )
                ok = ok and same
                entry["traced"] = {
                    "seed": seeds[0],
                    "process_wall_s": wall,
                    "sim_identical_to_untraced": same,
                    "per_layer": traced["per_layer"],
                }
                print(f"{name} traced: {wall:.1f} s, simulated metrics "
                      f"identical to untraced: {same}", flush=True)
            record["workloads"][name] = entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # a run still uses it
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
