"""Refresh or check the tracked perf baselines.

Two modes.  **Refresh** (the default) runs the chosen benchmark
suites at full (baseline) scale and writes their JSON reports to the
repository root::

    python scripts/bench_baseline.py                    # all suites
    python scripts/bench_baseline.py --suite engine     # just the engine
    python scripts/bench_baseline.py --quick            # CI-smoke sizes

Commit the refreshed ``BENCH_kernels.json`` / ``BENCH_engine.json``
alongside any change that touches the probe-path kernels or the tick
pipeline, so reviewers can diff throughput and the CI equivalence
gate stays anchored to a known-good baseline.

**Compare** re-runs a suite against a committed baseline and fails on
regression::

    python scripts/bench_baseline.py --compare BENCH_engine.json

The suite and workload mode (quick/full) are read from the baseline
file, so the fresh run is always like-for-like.  Exit status is
non-zero when any kernel/fused throughput metric drops more than
``--tolerance`` (default 20%) below the baseline, or when any
fused/reference equivalence check fails.  Reference-path throughput
is informational only — a slow machine slows both paths, and gating
on the reference would just re-measure the hardware.
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_engine  # noqa: E402
import bench_kernels  # noqa: E402
import bench_shard  # noqa: E402

SUITES = {
    "kernels": bench_kernels,
    "engine": bench_engine,
    "shard": bench_shard,
}

#: Throughput keys gated by --compare; ``reference_*`` stays advisory.
_GATED_SUFFIXES = ("_ticks_per_s", "_probes_per_s")


def _gated_metrics(report: dict) -> "dict[str, float]":
    """``{"section.metric": value}`` for every gated throughput key."""
    metrics = {}
    for section, body in report.items():
        if not isinstance(body, dict):
            continue
        for key, value in body.items():
            if key.startswith("reference_"):
                continue
            if any(key.endswith(suffix) for suffix in _GATED_SUFFIXES):
                metrics[f"{section}.{key}"] = float(value)
    return metrics


def compare_reports(baseline, fresh, tolerance):
    """Regression messages (empty = pass).

    A metric regresses when the fresh value drops more than
    ``tolerance`` (fractional) below the baseline.  Metrics present
    on only one side are skipped — renames should not fail CI — but
    an equivalence failure in the fresh run always fails.
    """
    problems = []
    if not fresh.get("equivalent", False):
        problems.append("fresh run failed its equivalence gate")
    baseline_metrics = _gated_metrics(baseline)
    for name, fresh_value in _gated_metrics(fresh).items():
        baseline_value = baseline_metrics.get(name)
        if baseline_value is None or baseline_value <= 0:
            continue
        floor = baseline_value * (1.0 - tolerance)
        if fresh_value < floor:
            problems.append(
                f"{name}: {fresh_value:,.1f} < {floor:,.1f}"
                f" (baseline {baseline_value:,.1f}, "
                f"-{(1 - fresh_value / baseline_value) * 100:.1f}%)"
            )
    return problems


def _run_compare(args) -> int:
    baseline_path = pathlib.Path(args.compare)
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    suite_name = baseline.get("suite")
    module = SUITES.get(suite_name)
    if module is None:
        print(
            f"unknown suite {suite_name!r} in {baseline_path}",
            file=sys.stderr,
        )
        return 2
    quick = baseline.get("mode") == "quick"
    print(
        f"comparing against {baseline_path} "
        f"(suite {suite_name}, {'quick' if quick else 'full'} mode, "
        f"tolerance {args.tolerance * 100:.0f}%)"
    )
    fresh = module.run_suite(quick=quick, seed=args.seed)
    print(module.format_report(fresh))
    problems = compare_reports(baseline, fresh, args.tolerance)
    if problems:
        print("PERF REGRESSION:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("no regression beyond tolerance")
    return 0


def _run_refresh(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        module = SUITES[name]
        report = module.run_suite(quick=args.quick, seed=args.seed)
        print(module.format_report(report))
        output = pathlib.Path(args.output_dir) / f"BENCH_{name}.json"
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")
        if not report["equivalent"]:
            print(f"{name}: equivalence FAILED", file=sys.stderr)
            failed = True
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=[*SUITES, "all"],
        default="all",
        help="which suite(s) to refresh (ignored with --compare; the "
        "baseline file names its own suite)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-smoke sizes instead of the full baseline sizes "
        "(ignored with --compare; the baseline file names its mode)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="regression mode: re-run the baseline's suite and fail "
        "on >tolerance throughput drop or equivalence failure",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional throughput drop in --compare mode "
        "(default: 0.20)",
    )
    parser.add_argument(
        "--output-dir",
        default=str(REPO_ROOT),
        help="where refreshed BENCH_<suite>.json files go "
        "(default: repo root)",
    )
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args(argv)

    if args.compare:
        return _run_compare(args)
    return _run_refresh(args)


if __name__ == "__main__":
    raise SystemExit(main())
