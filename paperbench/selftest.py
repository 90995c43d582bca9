"""Self-tests of the paper-workload benchmark.

Run from the root of a checkout (about two minutes on one core)::

    python3 paperbench/selftest.py [--seed N]

1. The composed passes equal ``registry.get(id).run(...)`` bitwise at
   the same parameters for ``figure5a``, ``figure5c`` and ``table2``,
   so the benchmark measures what ``hotspots <id>`` computes.
2. A traced pass has the digests of an untraced one, and two traced
   passes repeat every count exactly.
3. Every function in the wrapper list exists and some workload calls
   it; the layer self times of a traced pass sum to its wall time.
4. ``BENCHMARK.json`` names exactly the workloads and metrics that
   ``run.py`` reports.

Exits 1 and names each failure if any check fails.
"""

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import registry  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

#: Per-layer metrics that are counts: two traced passes must agree.
COUNT_METRICS = (
    "worms.generate.calls",
    "worms.generate.probes",
    "worms.draw_passes_per_generate",
    "net.contains.addresses",
    "net.locate.addresses",
    "env.delivered_ratio",
    "population.vulnerable_hits.targets",
    "population.new_infections",
    "sim.ticks",
)

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def composed(name: str, seed: int) -> dict:
    workload = workloads.PARTS[name]
    return workload.work(workload.setup(seed))


def check_registry(seed: int) -> None:
    results = composed("hitlist-outbreak", seed)
    for index, program_seed in enumerate(workloads.hitlist_program_seeds(seed)):
        reference = registry.get("figure5a").run(
            max_time=workloads.HITLIST_HORIZON, seed=program_seed
        ).result
        expect(
            [workloads.hitlist_run_digest(r) for r in reference.runs]
            == [
                workloads.hitlist_run_digest(r)
                for r in results[f"figure5ab-{index}"].runs
            ],
            f"hitlist-outbreak pass == figure5a(seed={program_seed})",
        )
    reference = registry.get("figure5c").run(
        max_time=workloads.NAT_HORIZON,
        stop_at_fraction=0.5,
        stratify_nat_seeds=True,
        seed=seed,
    ).result
    expect(
        workloads.nat_digest(reference)
        == workloads.nat_digest(composed("nat-placement", seed)["figure5c"]),
        f"nat-placement pass == figure5c(seed={seed})",
    )
    inputs = workloads.PARTS["filtering-study"].setup(seed)
    reference = registry.get("table2").run(
        probes_per_host=inputs["probes_per_host"], seed=seed
    ).result
    results = workloads.PARTS["filtering-study"].work(inputs)
    expect(
        workloads.study_digest(reference.filtered)
        == workloads.study_digest(results["filtered"])
        and workloads.study_digest(reference.unfiltered)
        == workloads.study_digest(results["unfiltered"]),
        f"filtering-study pass == table2(seed={seed})",
    )


def traced_pass(workload, seed: int) -> run.Pass:
    tracer = Tracer()
    with tracer.installed():
        return run.Pass(workload, seed, tracer)


def check_tracer(seed: int) -> None:
    called: set[str] = set()
    for name, workload in workloads.WORKLOADS.items():
        plain = run.Pass(workload, seed)
        first = traced_pass(workload, seed)
        second = traced_pass(workload, seed)
        if plain.error or first.error or second.error:
            expect(False, f"{name}: passes ran without error")
            continue
        digests = workload.digests(plain.results)
        expect(
            workload.digests(first.results) == digests
            and workload.digests(second.results) == digests,
            f"{name}: traced digests == untraced digests",
        )
        metrics = [run._layer_metrics(p) for p in (first, second)]
        differing = [
            key for key in COUNT_METRICS if metrics[0][key] != metrics[1][key]
        ]
        expect(not differing, f"{name}: traced counts repeat exactly {differing or ''}")
        self_sum = sum(
            metrics[0][f"{layer}.self_s"] for layer in run.SELF_TIME_LAYERS
        )
        wall = first.run_s + first.setup_s
        expect(
            abs(self_sum - wall) <= 0.01 * wall,
            f"{name}: layer self times sum to the traced wall time "
            f"({self_sum:.4f} s vs {wall:.4f} s)",
        )
        called |= first.tracer.called_paths()
    uncalled = [target.path for target in LAYERS if target.path not in called]
    expect(not uncalled, f"every wrapped function is called by a workload {uncalled or ''}")


def check_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    expect(
        [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads == workloads.WORKLOADS",
    )
    expect(
        [(m["name"], m["unit"]) for m in manifest["end_to_end"]]
        == list(run.END_TO_END),
        "BENCHMARK.json end_to_end == run.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"]) for m in manifest["per_layer"]]
        == list(run.PER_LAYER),
        "BENCHMARK.json per_layer == run.PER_LAYER",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    check_manifest()
    check_registry(args.seed)
    check_tracer(args.seed)
    if failures:
        print(f"{len(failures)} self-test(s) failed", file=sys.stderr)
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
