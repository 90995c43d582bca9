"""Paper-workload benchmark: time one workload end to end or per layer.

Run from the root of a checkout::

    python3 paperbench/run.py --workload nat-filtering --seed 0 \
        --seconds 60 --trace 0

The run repeats passes (a fresh set-up, then the timed work) in this
one process, with ``workers=1`` and no shards.  The first pass is a
warm-up: it is checked but not timed.  Further passes start while the
next one is expected to end within ``--seconds`` of the script's
start, and at least ``MIN_PASSES`` timed passes run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (operations over all passes) and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall
  seconds of a timed pass's work), ``setup_s`` (start of this script,
  import of ``repro`` included, to the first work call: the import
  time plus the median set-up over every pass), ``cpu_s`` (median
  user+system seconds of a timed pass's work) and ``peak_rss_mib``
  (peak resident memory).
* ``--trace 1`` alternates untraced and traced passes after the
  warm-up and reports the per-layer metrics of the median traced pass
  (see ``README.md``), plus ``trace_overhead_frac`` and the spans,
  written to ``paperbench/out/``.

Every operation is checked: its result digest must equal the one
recorded in ``digests.json`` for this seed (or, for a seed with no
record, the warm-up's), and its shape predicates must hold.  A
failed check counts in ``failed`` and does not stop the run.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Timed passes per run at least, after the warm-up.
MIN_PASSES = 2
MIN_TRACED_PASSES = 2

#: Per-layer self times (pass plus its set-up), in reporting order.
SELF_TIME_LAYERS = (
    "worms.generate",
    "worms.build_hitlist",
    "worms.blaster_starts",
    "net.contains",
    "net.random_addresses",
    "net.locate",
    "env.deliverable",
    "env.nat",
    "env.policy",
    "env.loss",
    "sensors.dispatch",
    "sensors.ingest",
    "sensors.place",
    "population.vulnerable_hits",
    "population.infect",
    "population.synthesize",
    "population.place_infected",
    "sim.simulate",
    "analysis.filtering_study",
    "analysis.blaster_leak",
    "analysis.blaster_seeds",
    "analysis.slammer_cycles",
    "analysis.hotspots",
    "prng.cycles",
    "prng.lcg",
    "prng.entropy",
    "botnet.commands",
    "experiments",
    "setup",
)

#: Every per-layer metric with its unit.
PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in SELF_TIME_LAYERS)
    + (
        ("worms.generate.calls", "count"),
        ("worms.generate.probes", "count"),
        ("worms.draw_passes_per_generate", "ratio"),
        ("net.contains.addresses", "count"),
        ("net.locate.addresses", "count"),
        ("env.delivered_ratio", "ratio"),
        ("population.vulnerable_hits.targets", "count"),
        ("population.new_infections", "count"),
        ("sim.ticks", "count"),
        ("sim.stage.generate_s", "s"),
        ("sim.stage.filter_s", "s"),
        ("sim.stage.dispatch_s", "s"),
        ("sim.stage.infect_s", "s"),
        ("traced_run_s", "s"),
        ("traced_setup_s", "s"),
        ("trace_overhead_frac", "ratio"),
        ("probes_per_s", "1/s"),
        ("failed_frac", "ratio"),
    )
)

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Pass:
    """One set-up plus timed work, with its check outcome."""

    def __init__(self, workload, seed, tracer=None):
        from repro.runtime.perf import perf_collection

        self.tracer = tracer
        self.stages = {}
        self.ticks = 0
        self.error = None
        self.inputs = self.results = None
        self.setup_s = self.run_s = self.cpu_s = 0.0
        try:
            start = time.perf_counter()
            if tracer is None:
                self.inputs = workload.setup(seed)
            else:
                with tracer.root("setup"):
                    self.inputs = workload.setup(seed)
            self.setup_s = time.perf_counter() - start
            cpu = _cpu_seconds()
            start = time.perf_counter()
            if tracer is None:
                self.results = workload.work(self.inputs)
            else:
                with perf_collection() as timings, tracer.root("experiments"):
                    self.results = workload.work(self.inputs)
                self.stages = dict(timings.seconds)
                self.ticks = timings.ticks
            self.run_s = time.perf_counter() - start
            self.cpu_s = _cpu_seconds() - cpu
        except Exception:  # a failed operation is counted, not fatal
            self.error = traceback.format_exc()
            print(self.error, file=sys.stderr)


class Checker:
    """Digest and predicate checks over every pass of one run."""

    def __init__(self, workload, seed):
        self.workload = workload
        recorded = {}
        if os.path.exists(DIGESTS_PATH):
            with open(DIGESTS_PATH) as handle:
                recorded = json.load(handle)
        self.expected = recorded.get(workload.name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0

    def check(self, run_pass: Pass) -> None:
        operations = self.workload.operations
        self.attempted += len(operations)
        if run_pass.error is not None:
            self.failed += len(operations)
            return
        digests = self.workload.digests(run_pass.results)
        checks = self.workload.checks(run_pass.inputs, run_pass.results)
        if self.expected is None:
            # No record for this seed: later passes must repeat the first.
            self.expected = digests
        for operation in operations:
            problems = [
                name
                for name, holds in checks.get(operation, {}).items()
                if not holds
            ]
            if digests[operation] != self.expected.get(operation):
                problems.append("digest")
            if problems:
                self.failed += 1
                print(
                    f"paperbench: {self.workload.name}/{operation} failed: "
                    + ", ".join(problems),
                    file=sys.stderr,
                )


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(run_pass: Pass) -> dict:
    """The per-layer metrics of one traced pass."""
    tracer = run_pass.tracer
    self_times = tracer.self_times()
    counts = tracer.counts
    metrics = {
        f"{layer}.self_s": self_times.get(layer, 0.0) for layer in SELF_TIME_LAYERS
    }
    codered_calls = counts.get("worms.generate.codered_calls", 0)
    generated = counts.get("sim.generated", 0) + counts.get("env.generated", 0)
    delivered = counts.get("sim.delivered", 0) + counts.get("env.delivered", 0)
    metrics.update(
        {
            "worms.generate.calls": tracer.calls.get("worms.generate", 0),
            "worms.generate.probes": counts.get("worms.generate.probes", 0),
            "worms.draw_passes_per_generate": (
                counts.get("worms.draw.passes", 0) / codered_calls
                if codered_calls
                else 0.0
            ),
            "net.contains.addresses": counts.get("net.contains.addresses", 0),
            "net.locate.addresses": counts.get("net.locate.addresses", 0),
            "env.delivered_ratio": delivered / generated if generated else 0.0,
            "population.vulnerable_hits.targets": counts.get(
                "population.vulnerable_hits.targets", 0
            ),
            "population.new_infections": counts.get(
                "population.infect.new_infections", 0
            ),
            "sim.ticks": run_pass.ticks,
            "traced_run_s": run_pass.run_s,
            "traced_setup_s": run_pass.setup_s,
        }
    )
    for stage in ("generate", "filter", "dispatch", "infect"):
        metrics[f"sim.stage.{stage}_s"] = run_pass.stages.get(stage, 0.0)
    return metrics


def _write_spans(workload_name, seed, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload_name}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(
            [
                [list(span) for span in run_pass.tracer.spans]
                for run_pass in traced
            ],
            handle,
        )


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(
            f"paperbench: the program's sources are missing ({SRC_DIR}/repro); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC_DIR)
    from tracer import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    if args.workload not in WORKLOADS:
        print(
            f"paperbench: unknown workload {args.workload!r}; "
            f"known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    checker = Checker(workload, args.seed)

    deadline = _START + args.seconds
    started = time.perf_counter()
    warmup = Pass(workload, args.seed)
    checker.check(warmup)
    pass_walls = [time.perf_counter() - started]
    untraced: list[Pass] = []
    traced: list[Pass] = []

    def finished() -> bool:
        if args.trace:
            if len(traced) < MIN_TRACED_PASSES or len(traced) < len(untraced):
                return False
        elif len(untraced) < MIN_PASSES:
            return False
        # With --trace 1 the next step is an untraced-traced pair.
        upcoming = (1 + args.trace) * statistics.median(pass_walls)
        return time.perf_counter() + upcoming > deadline

    while not finished():
        started = time.perf_counter()
        if args.trace and len(traced) < len(untraced):
            tracer = Tracer()
            with tracer.installed():
                run_pass = Pass(workload, args.seed, tracer)
            traced.append(run_pass)
        else:
            run_pass = Pass(workload, args.seed)
            untraced.append(run_pass)
        checker.check(run_pass)
        pass_walls.append(time.perf_counter() - started)

    good = [p for p in untraced if p.error is None]
    run_s = _median([p.run_s for p in good])
    if args.trace == 0:
        setups = [p.setup_s for p in [warmup, *good] if p.error is None]
        values = {
            "run_s": run_s,
            "setup_s": import_s + _median(setups),
            "cpu_s": _median([p.cpu_s for p in good]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        good_traced = sorted(
            (p for p in traced if p.error is None), key=lambda p: p.run_s
        )
        values = {name: 0.0 for name, _ in PER_LAYER}
        if good_traced:
            median_pass = good_traced[(len(good_traced) - 1) // 2]
            values.update(_layer_metrics(median_pass))
            traced_run_s = _median([p.run_s for p in good_traced])
            values["trace_overhead_frac"] = (
                traced_run_s / run_s - 1.0 if run_s else 0.0
            )
            values["probes_per_s"] = (
                values["worms.generate.probes"] / run_s if run_s else 0.0
            )
        values["failed_frac"] = checker.failed / max(checker.attempted, 1)
        units = dict(PER_LAYER)
        _write_spans(workload.name, args.seed, traced)
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
