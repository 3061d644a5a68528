"""Run every workload on seeds 1-10 and write the results as one file.

    python3 perfbench/baseline.py --label seed --out perfbench/BENCH_seed.json

Each run is a fresh `python3 perfbench/run.py` process for BENCHMARK.json's
run_seconds, as the benchmark is normally driven.  Per workload and end-to-end metric the file holds every
run's value, the median, the quartiles and the spread (quartile distance as
a share of the median); one traced run per workload gives the per-layer
metrics.  The machine's processor count and the Python version are
recorded with them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)
SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit_code"] = proc.returncode
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    report = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": SECONDS,
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        runs = [run_once(name, seed, 0) for seed in SEEDS]
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        traced = run_once(name, 1, 1)
        report["workloads"][name] = {
            "seeds": list(SEEDS),
            "correct": all(r["correct"] and r["exit_code"] == 0 for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(name, {k: (round(v["median"], 4), round(v["spread"], 4)) for k, v in metrics.items()},
              flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
