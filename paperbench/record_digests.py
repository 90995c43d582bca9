"""Record the result digests that ``run.py`` checks every pass against.

Run from the root of a checkout::

    python3 paperbench/record_digests.py --seeds 0 1

Runs one untraced pass per workload and seed, and writes each
operation's digest to ``paperbench/digests.json``, keeping the entries
of seeds not named.  Refuses to record an operation whose shape
predicates fail.  Re-record only in a change that alters results on
purpose (an RNG-stream change), and say so in that change.
"""

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from run import DIGESTS_PATH  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    recorded = {}
    if os.path.exists(DIGESTS_PATH):
        with open(DIGESTS_PATH) as handle:
            recorded = json.load(handle)
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            inputs = workload.setup(seed)
            results = workload.work(inputs)
            failing = {
                operation: [key for key, holds in checks.items() if not holds]
                for operation, checks in workload.checks(inputs, results).items()
                if not all(checks.values())
            }
            if failing:
                print(f"{name} seed {seed}: predicates fail: {failing}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = workload.digests(results)
            print(f"{name} seed {seed}: recorded", flush=True)
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
