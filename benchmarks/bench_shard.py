"""Benchmark: K address-space shards vs the unsharded run.

Two measurements, each paired with a bitwise-equivalence gate
against the unsharded run (the same tick loop at K=1, where the
exchange is the identity):

* **serial shards** — K in-process shards (exchange + per-shard
  verdict/dispatch) vs the unsharded run.  It measures pure exchange
  overhead; the gate is that sharding costs little and changes
  nothing.  A per-stage breakdown (generate / filter / dispatch /
  infect, the same stage names at every K) from one instrumented run
  shows where the driver's time goes.
* **million hosts** — the 10^6-host regime that motivates sharding:
  serial reference vs K in-process shards at scale, equivalence-gated
  like everything else.

Runs two ways:

* under pytest-benchmark: ``pytest benchmarks/bench_shard.py``;
* standalone, which writes the tracked perf baseline::

      python benchmarks/bench_shard.py --quick --output BENCH_shard.json

  Standalone mode exits non-zero if any sharded/unsharded equivalence
  check fails, which is what the CI ``shard-smoke`` job gates on.
  ``scripts/bench_baseline.py`` drives the same functions to refresh
  the committed ``BENCH_shard.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable

import numpy as np

from repro.env.environment import NetworkEnvironment
from repro.env.failures import LossModel, RegionLoss
from repro.env.filtering import FilterRule, FilteringPolicy
from repro.net.cidr import CIDRBlock
from repro.population.model import HostPopulation
from repro.runtime.compare import results_equal
from repro.runtime.perf import perf_collection
from repro.sensors.darknet import ims_standard_deployment
from repro.sim.spec import SimulationSpec, simulate
from repro.worms.uniform import UniformScanWorm

#: Quick (CI smoke) and full (tracked baseline) workload sizes.  The
#: quick serial-shards run lasts about a second, long enough that
#: host noise stays well inside the 20% ``--compare`` gate.
QUICK_SIZES = {
    "num_hosts": 100_000,
    "num_ticks": 60,
    "num_shards": 4,
    "million_hosts": 1_000_000,
    "million_ticks": 2,
    "million_shards": 4,
}
FULL_SIZES = {
    "num_hosts": 250_000,
    "num_ticks": 12,
    "num_shards": 4,
    "million_hosts": 4_000_000,
    "million_ticks": 4,
    "million_shards": 8,
}


def _best_of(repeats: int, func: Callable[[], object]) -> float:
    """Best wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def build_outbreak_spec(
    num_hosts: int,
    num_ticks: int,
    shards: "int | None",
    seed: int = 2006,
) -> SimulationSpec:
    """The bench_kernels outbreak (policy, loss, IMS) as a spec.

    Built fresh per run — populations and sensors are stateful, and
    sharded runs require both pristine.  Seeding a quarter of the hosts
    keeps every tick at figure-scale probe volume from tick 1.
    """
    rng = np.random.default_rng(seed)
    addrs = np.unique(
        rng.integers(
            1 << 24, 224 << 24, size=num_hosts, dtype=np.uint64
        ).astype(np.uint32)
    )
    policy = FilteringPolicy(
        [
            FilterRule("egress", CIDRBlock.parse("20.0.0.0/8")),
            FilterRule("ingress", CIDRBlock.parse("60.0.0.0/8")),
        ]
    )
    loss = LossModel(
        base_rate=0.05,
        region_losses=[RegionLoss(CIDRBlock.parse("100.0.0.0/8"), 0.5)],
    )
    return SimulationSpec(
        worm=UniformScanWorm(),
        population=HostPopulation(addrs),
        environment=NetworkEnvironment(policy=policy, loss=loss),
        sensors=tuple(ims_standard_deployment()),
        scan_rate=10.0,
        max_time=float(num_ticks),
        seed_count=max(1, num_hosts // 4),
        shards=shards,
    )


# -- serial shards ---------------------------------------------------


def bench_serial_shards(
    num_hosts: int,
    num_ticks: int,
    num_shards: int,
    seed: int = 2006,
    repeats: int = 3,
) -> dict:
    """K in-process shards vs the unsharded run."""

    def run_unsharded():
        return simulate(
            build_outbreak_spec(num_hosts, num_ticks, None, seed), seed
        )

    def run_sharded():
        return simulate(
            build_outbreak_spec(num_hosts, num_ticks, num_shards, seed), seed
        )

    unsharded_result = run_unsharded()
    sharded_result = run_sharded()
    equivalent = results_equal(unsharded_result, sharded_result)

    reference_s = _best_of(repeats, run_unsharded)
    sharded_s = _best_of(repeats, run_sharded)
    # One instrumented run for the stage breakdown; headline numbers
    # stay uninstrumented.
    with perf_collection() as timings:
        run_sharded()
    ticks = len(sharded_result.times)
    return {
        "num_hosts": num_hosts,
        "num_ticks": ticks,
        "num_shards": num_shards,
        "total_probes": int(sharded_result.total_probes),
        "reference_s": reference_s,
        "sharded_s": sharded_s,
        "reference_ticks_per_s": ticks / reference_s,
        "sharded_ticks_per_s": ticks / sharded_s,
        "sharded_probes_per_s": sharded_result.total_probes / sharded_s,
        "overhead": sharded_s / reference_s,
        "stage_seconds": {
            stage: round(seconds, 4)
            for stage, seconds in sorted(timings.seconds.items())
        },
        "equivalent": bool(equivalent),
    }


# -- million hosts ---------------------------------------------------


def bench_million_hosts(
    num_hosts: int,
    num_ticks: int,
    num_shards: int,
    seed: int = 2006,
    repeats: int = 1,
) -> dict:
    """Serial reference vs K in-process shards at 10^6+ hosts.

    The regime sharding exists for: the memory-slim per-shard state
    (population views into the global table, lazy sensor/verdict
    layers) has to hold millions of hosts, and per-shard locality has
    to keep the exchange overhead flat as the batch volume grows.
    Equivalence-gated like every other section.
    """

    def run_unsharded():
        return simulate(
            build_outbreak_spec(num_hosts, num_ticks, None, seed), seed
        )

    def run_sharded():
        return simulate(
            build_outbreak_spec(num_hosts, num_ticks, num_shards, seed), seed
        )

    unsharded_result = run_unsharded()
    sharded_result = run_sharded()
    equivalent = results_equal(unsharded_result, sharded_result)

    reference_s = _best_of(repeats, run_unsharded)
    sharded_s = _best_of(repeats, run_sharded)
    ticks = len(sharded_result.times)
    return {
        "num_hosts": num_hosts,
        "num_ticks": ticks,
        "num_shards": num_shards,
        "total_probes": int(sharded_result.total_probes),
        "reference_s": reference_s,
        "sharded_s": sharded_s,
        "reference_ticks_per_s": ticks / reference_s,
        "sharded_ticks_per_s": ticks / sharded_s,
        "sharded_probes_per_s": sharded_result.total_probes / sharded_s,
        "overhead": sharded_s / reference_s,
        "equivalent": bool(equivalent),
    }


# -- suite driver ----------------------------------------------------


def run_suite(quick: bool, seed: int = 2006) -> dict:
    """The shard benchmarks at the chosen scale, as one report."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    report = {
        "suite": "shard",
        "mode": "quick" if quick else "full",
        "sizes": dict(sizes),
        "serial_shards": bench_serial_shards(
            sizes["num_hosts"],
            sizes["num_ticks"],
            sizes["num_shards"],
            seed,
        ),
        "million_hosts": bench_million_hosts(
            sizes["million_hosts"],
            sizes["million_ticks"],
            sizes["million_shards"],
            seed,
        ),
    }
    report["equivalent"] = (
        report["serial_shards"]["equivalent"]
        and report["million_hosts"]["equivalent"]
    )
    return report


def format_report(report: dict) -> str:
    """Human-oriented rendering of :func:`run_suite` output."""
    lines = [f"shard benchmarks ({report['mode']} mode)"]
    serial = report.get("serial_shards")
    if serial is not None:
        lines.append(
            f"  serial:   {serial['sharded_ticks_per_s']:.2f} ticks/s with "
            f"{serial['num_shards']} in-process shards"
            f" vs {serial['reference_ticks_per_s']:.2f} unsharded"
            f" ({serial['overhead']:.2f}x cost,"
            f" {serial['total_probes']:,} probes)"
        )
    million = report.get("million_hosts")
    if million is not None:
        lines.append(
            f"  million:  {million['num_hosts']:,} hosts,"
            f" {million['num_shards']} shards:"
            f" {million['sharded_ticks_per_s']:.2f} ticks/s vs"
            f" {million['reference_ticks_per_s']:.2f} unsharded"
            f" ({million['overhead']:.2f}x cost,"
            f" {million['total_probes']:,} probes)"
        )
    lines.append(
        f"  equivalence: {'ok' if report['equivalent'] else 'FAILED'}"
    )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-smoke sizes (seconds, not minutes)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the JSON report to this path",
    )
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args(argv)

    report = run_suite(quick=args.quick, seed=args.seed)
    print(format_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    if not report["equivalent"]:
        print("sharded/unsharded equivalence FAILED", file=sys.stderr)
        return 2
    return 0


# -- pytest-benchmark wrappers ---------------------------------------


def test_serial_shards(benchmark):
    result = benchmark.pedantic(
        bench_serial_shards,
        kwargs={
            "num_hosts": QUICK_SIZES["num_hosts"],
            "num_ticks": QUICK_SIZES["num_ticks"],
            "num_shards": QUICK_SIZES["num_shards"],
            "repeats": 1,
        },
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["overhead"] = round(result["overhead"], 2)
    assert result["equivalent"]


if __name__ == "__main__":
    raise SystemExit(main())
