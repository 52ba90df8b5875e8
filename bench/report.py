"""Print every metric of every workload, end to end and per layer.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py for each workload, timed (--trace 0) and traced
(--trace 1), from the root of a checkout, and prints each metric with its
unit, plus the correctness outcome and the errors the record names.
Exits 1 if any run could not complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ],
                capture_output=True,
                text=True,
            )
            mode = "per layer (traced)" if trace else "end to end"
            if proc.returncode != 0:
                print(f"== {workload}, {mode}: run failed\n{proc.stderr}")
                status = 1
                continue
            lines = proc.stdout.splitlines()
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            print(
                f"== {workload}, {mode}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for error, count in record["errors"].items():
                print(f"   error x{count}: {error}")
            for name, metric in record["metrics"].items():
                print(f"   {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
