"""Run every workload once timed and once traced, and print every metric by
name with its unit, plus the operations attempted and failed per workload.

    python3 perfbench/report.py [--seed N]

Each run is a separate `run.py` process, started one after another, and
measures for the `run_seconds` of BENCHMARK.json.  Exits 1 if any run fails
or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import program
from run import HERE, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    seconds = json.loads((program.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:28s} {v['value']:14.6g} {v['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
