"""Print every end-to-end metric, by name and unit, for every workload.

Run from the root of a checkout::

    python3 paperbench/report.py [--seed 0] [--seconds N]

Runs ``run.py --trace 0`` once per workload, one after another, each
in its own process (for ``run_seconds`` of ``BENCHMARK.json`` unless
``--seconds`` is given), and prints one row per workload with its failed
operations over attempted (``failed_frac``).  Exits 1 if any
operation failed.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    seconds = args.seconds or manifest["run_seconds"]
    failed_any = False
    for workload in manifest["workloads"]:
        completed = subprocess.run(
            [
                sys.executable,
                os.path.join(BENCH_DIR, "run.py"),
                "--workload", workload["name"],
                "--seed", str(args.seed),
                "--seconds", str(seconds),
                "--trace", "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        failed_any |= result["failed"] > 0
        cells = [
            f"{name}={metric['value']:.4g} {metric['unit']}"
            for name, metric in result["metrics"].items()
        ]
        cells.append(f"failed_frac={result['failed'] / result['attempted']:.3g}")
        print(f"{workload['name']:<18} " + "  ".join(cells), flush=True)
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
