"""Self-test of the benchmark's exact work counts.

    python3 perfbench/selftest.py [--seed 7] [--workloads cold-load,...]

For every workload it runs the traced run twice with one seed, each in its
own process, and requires the two to print identical exact work counts (SAT
solves, conflicts, propagations, clauses, encoder and space builds,
``entity_block`` calls, current databases, memo hits, ...).  It then
requires the next seed to generate different inputs.  Exits non-zero on
either failure.  A later change may rest a claim on these counts only while
this test passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import WORKLOADS  # noqa: E402


def _counts(workload: str, seed: int) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stdout}\n{completed.stderr}")
    line = next(line for line in completed.stdout.splitlines() if "exact counts:" in line)
    return json.loads(line.split("exact counts:", 1)[1])


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    failures = 0
    for name in args.workloads.split(","):
        first, second = _counts(name, args.seed), _counts(name, args.seed)
        same = first == second
        other = WORKLOADS[name](args.seed + 1).fingerprint()
        changed = WORKLOADS[name](args.seed).fingerprint() != other
        print(
            f"{name:<14} counts repeat: {'yes' if same else 'NO'}; "
            f"next seed changes the inputs: {'yes' if changed else 'NO'}"
        )
        if not same:
            for key in sorted(first):
                if first[key] != second[key]:
                    print(f"  {key}: {first[key]} != {second[key]}")
        failures += (not same) + (not changed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
