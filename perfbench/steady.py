"""Measure the benchmark's run-to-run spread and record it.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] \
        [--workloads cold-load,warm-ask,...] [--output perfbench/steadiness.json]

Runs every workload ``--runs`` times, each with another seed, and for every
end-to-end metric takes the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median — once for the normalised figures the benchmark reports and once for
the raw wall-clock figures beside them.  The record keeps each run's median
kernel time, so a reader can see which host regime a number came from, and
the bound of each metric from ``BENCHMARK.json`` next to its spread.
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
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stdout}\n{completed.stderr}")
    raw = next(json.loads(line.split(" ", 2)[2]) for line in lines if line.startswith("[perfbench] raw "))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": wall,
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "raw": raw,
    }


def main(argv: Any = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--output", default=os.path.join(ROOT, "perfbench", "steadiness.json"))
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    record: Dict[str, Any] = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": benchmark["run_seconds"],
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [
            _run(workload, seed, benchmark["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        summary: Dict[str, Any] = {}
        for metric in bounds:
            entry = {"bound": bounds[metric], "normalised": _spread([r["metrics"][metric] for r in runs])}
            if metric in runs[0]["raw"]:
                entry["raw"] = _spread([r["raw"][metric] for r in runs])
            summary[metric] = entry
            print(
                f"{workload:<14} {metric:<12} median {entry['normalised']['median']:.4f} "
                f"spread {entry['normalised']['spread']:.4f} (bound {bounds[metric]}"
                + (f", raw spread {entry['raw']['spread']:.4f})" if "raw" in entry else ")"),
                flush=True,
            )
        record["workloads"][workload] = {
            "metrics": summary,
            "kernel_ms": [round(r["raw"]["kernel_ms"], 4) for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "runs": runs,
        }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
