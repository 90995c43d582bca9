"""Engine benchmarks: the fused tick pipeline vs the reference oracle.

Where :mod:`bench_kernels` measures individual probe-path kernels,
this suite measures the *whole tick loop* — the shard driver at K=1
(an unsharded run), with its :class:`~repro.sim.arena.TickArena`
buffers, uniform-rate fast path and merged verdict partition —
against the reference oracle under ``kernel_override(False)``.  Three
sections:

``fused``
    End-to-end outbreak with an integral per-tick budget, so the
    uniform-rate fast path is live.  Also records per-stage seconds
    (generate/filter/dispatch/infect) from one instrumented run.
``fused_general``
    The same outbreak at a fractional scan rate, which disqualifies
    the uniform fast path and exercises the general arena path
    (accumulator + active-mask + survivor gather).
``allocations``
    tracemalloc peaks for fused vs reference runs, plus the driver's
    arena accounting (:attr:`ShardedSimulator.allocations`) —
    steady-state ticks must not grow the arenas (O(1) amortized array
    allocations per tick).

Every section carries an ``equivalent`` flag: the fused result must
be bitwise-equal (:func:`repro.runtime.compare.results_equal`) to the
reference result.  A perf number without that gate is meaningless —
the pipeline's contract is "faster and identical".

Run directly for the tracked baseline (``BENCH_engine.json``)::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick
    PYTHONPATH=src python benchmarks/bench_engine.py --output BENCH_engine.json

or through pytest-benchmark::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_engine.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc

import numpy as np

from bench_kernels import (
    FULL_SIZES,
    QUICK_SIZES,
    _best_of,
    _end_to_end_config,
    build_outbreak_simulator,
)

from repro.net.kernels import kernel_override
from repro.runtime.compare import results_equal
from repro.runtime.perf import perf_collection
from repro.runtime.runner import Trial, TrialRunner
from repro.sim.engine import SimulationConfig, run_simulation_trial
from repro.sim.shard import ShardedSimulator
from repro.sim.spec import SimulationSpec


def _fractional_config(num_hosts: int, num_ticks: int) -> SimulationConfig:
    """Like ``_end_to_end_config`` but with a non-integral per-tick
    budget (2.5 probes/host/tick), which keeps the accumulator live
    and forces the general arena path."""
    base = _end_to_end_config(num_hosts, num_ticks)
    return SimulationConfig(
        scan_rate=2.5,
        max_time=base.max_time,
        seed_count=base.seed_count,
        stop_at_fraction=base.stop_at_fraction,
    )


def _run_fused(num_hosts: int, config: SimulationConfig, seed: int):
    """One fused run, dispatched through ``TrialRunner`` — the same
    unit the experiment registry executes per trial."""
    runner = TrialRunner(workers=1)
    [result] = runner.run(
        [
            Trial(
                func=run_simulation_trial,
                kwargs={
                    "simulator": build_outbreak_simulator(num_hosts, seed),
                    "config": config,
                    "seed": seed,
                },
            )
        ]
    )
    return result


def _run_reference(num_hosts: int, config: SimulationConfig, seed: int):
    with kernel_override(False):
        return run_simulation_trial(
            build_outbreak_simulator(num_hosts, seed), config, seed
        )


def bench_fused(
    num_hosts: int, num_ticks: int, seed: int = 2006, repeats: int = 2
) -> dict:
    """Fused pipeline (uniform fast path live) vs reference."""
    config = _end_to_end_config(num_hosts, num_ticks)

    fused_result = _run_fused(num_hosts, config, seed)
    reference_result = _run_reference(num_hosts, config, seed)
    equivalent = results_equal(reference_result, fused_result)

    fused_s = _best_of(repeats, lambda: _run_fused(num_hosts, config, seed))
    reference_s = _best_of(
        repeats, lambda: _run_reference(num_hosts, config, seed)
    )

    # One instrumented run for the stage breakdown; timing overhead is
    # why the headline numbers come from the uninstrumented runs above.
    with perf_collection() as timings:
        _run_fused(num_hosts, config, seed)

    ticks = len(fused_result.times)
    return {
        "num_hosts": num_hosts,
        "num_ticks": ticks,
        "total_probes": int(fused_result.total_probes),
        "reference_s": reference_s,
        "fused_s": fused_s,
        "reference_ticks_per_s": ticks / reference_s,
        "fused_ticks_per_s": ticks / fused_s,
        "fused_probes_per_s": fused_result.total_probes / fused_s,
        "speedup": reference_s / fused_s,
        "stage_seconds": {
            stage: round(seconds, 4)
            for stage, seconds in sorted(timings.seconds.items())
        },
        "equivalent": bool(equivalent),
    }


def bench_fused_general(
    num_hosts: int, num_ticks: int, seed: int = 2006, repeats: int = 5
) -> dict:
    """General arena path (fractional rate) vs reference.

    One run lasts ~0.2 s, so the best of five keeps shared-host noise
    inside the ``--compare`` gate.
    """
    config = _fractional_config(num_hosts, num_ticks)

    fused_result = _run_fused(num_hosts, config, seed)
    reference_result = _run_reference(num_hosts, config, seed)
    equivalent = results_equal(reference_result, fused_result)

    fused_s = _best_of(repeats, lambda: _run_fused(num_hosts, config, seed))
    reference_s = _best_of(
        repeats, lambda: _run_reference(num_hosts, config, seed)
    )

    ticks = len(fused_result.times)
    return {
        "num_hosts": num_hosts,
        "num_ticks": ticks,
        "scan_rate": config.scan_rate,
        "total_probes": int(fused_result.total_probes),
        "reference_s": reference_s,
        "fused_s": fused_s,
        "reference_ticks_per_s": ticks / reference_s,
        "fused_ticks_per_s": ticks / fused_s,
        "speedup": reference_s / fused_s,
        "equivalent": bool(equivalent),
    }


def bench_allocations(num_hosts: int, num_ticks: int, seed: int = 2006) -> dict:
    """Allocation behaviour: tracemalloc peaks + arena accounting.

    The driver's ``allocations`` counter (summed over its arenas)
    increments once per buffer growth; steady-state ticks reuse
    buffers, so the counter must converge well below one-per-tick.
    tracemalloc runs make both paths slower by a similar factor — the
    peaks are comparable, the wall-clock is not (hence no timing
    here).
    """
    config = _end_to_end_config(num_hosts, num_ticks)

    simulator = build_outbreak_simulator(num_hosts, seed)
    driver = ShardedSimulator(
        SimulationSpec.from_config(
            config,
            worm=simulator.worm,
            population=simulator.population,
            environment=simulator.environment,
            sensors=simulator.sensors,
        )
    )
    tracemalloc.start()
    fused_result = driver.run(np.random.default_rng(seed))
    _, fused_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    arena_allocations = driver.allocations

    tracemalloc.start()
    with kernel_override(False):
        reference_result = run_simulation_trial(
            build_outbreak_simulator(num_hosts, seed), config, seed
        )
    _, reference_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    ticks = len(fused_result.times)
    return {
        "num_hosts": num_hosts,
        "num_ticks": ticks,
        "fused_peak_mib": round(fused_peak / 2**20, 2),
        "reference_peak_mib": round(reference_peak / 2**20, 2),
        "arena_allocations": int(arena_allocations),
        "arena_allocations_per_tick": round(arena_allocations / max(ticks, 1), 3),
        "equivalent": bool(results_equal(reference_result, fused_result)),
    }


# -- suite driver ----------------------------------------------------


def run_suite(quick: bool, seed: int = 2006) -> dict:
    """Every engine benchmark at the chosen scale, as one report."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    hosts = sizes["end_to_end_hosts"]
    ticks = sizes["end_to_end_ticks"]
    report = {
        "suite": "engine",
        "mode": "quick" if quick else "full",
        "sizes": {"end_to_end_hosts": hosts, "end_to_end_ticks": ticks},
        "fused": bench_fused(hosts, ticks, seed),
        "fused_general": bench_fused_general(hosts, ticks, seed),
        "allocations": bench_allocations(hosts, ticks, seed),
    }
    report["equivalent"] = all(
        report[section]["equivalent"]
        for section in ("fused", "fused_general", "allocations")
    )
    return report


def format_report(report: dict) -> str:
    """Human-oriented rendering of :func:`run_suite` output."""
    fused = report["fused"]
    general = report["fused_general"]
    alloc = report["allocations"]
    stages = fused["stage_seconds"]
    stage_text = " ".join(
        f"{stage}={stages[stage]:.2f}s"
        for stage in ("generate", "filter", "dispatch", "infect")
        if stage in stages
    )
    lines = [
        f"engine benchmarks ({report['mode']} mode)",
        (
            f"  fused:    {fused['fused_ticks_per_s']:.2f} ticks/s"
            f" vs {fused['reference_ticks_per_s']:.2f} reference"
            f" ({fused['speedup']:.2f}x, {fused['total_probes']:,} probes)"
        ),
        f"            stages: {stage_text}",
        (
            f"  general:  {general['fused_ticks_per_s']:.2f} ticks/s"
            f" vs {general['reference_ticks_per_s']:.2f} reference"
            f" ({general['speedup']:.2f}x, rate {general['scan_rate']})"
        ),
        (
            f"  memory:   fused peak {alloc['fused_peak_mib']:.1f} MiB"
            f" vs reference {alloc['reference_peak_mib']:.1f} MiB;"
            f" {alloc['arena_allocations']} arena allocations over"
            f" {alloc['num_ticks']} ticks"
            f" ({alloc['arena_allocations_per_tick']:.2f}/tick)"
        ),
        f"  equivalence: {'ok' if report['equivalent'] else 'FAILED'}",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
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
        print("fused/reference equivalence FAILED", file=sys.stderr)
        return 2
    return 0


# -- pytest-benchmark wrappers ---------------------------------------


def test_fused_end_to_end(benchmark):
    sizes = QUICK_SIZES
    result = benchmark.pedantic(
        lambda: bench_fused(
            sizes["end_to_end_hosts"], sizes["end_to_end_ticks"]
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["speedup"] = result["speedup"]
    assert result["equivalent"]


def test_fused_general_path(benchmark):
    sizes = QUICK_SIZES
    result = benchmark.pedantic(
        lambda: bench_fused_general(
            sizes["end_to_end_hosts"], sizes["end_to_end_ticks"]
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["speedup"] = result["speedup"]
    assert result["equivalent"]


if __name__ == "__main__":
    raise SystemExit(main())
