"""Chaos smoke test: real CLI campaigns survive faults and resume bitwise.

Scenario 1 (trial-level) runs ``hotspots figure5b`` twice over a
small synthetic population:

1. clean and serial — the ground truth;
2. parallel with ``--retries 2`` and a ``$REPRO_FAULT_PLAN`` that
   kills the worker running trial 1 on its first attempt (and makes
   trial 2 raise), so the run exercises pool replacement *and*
   deterministic retry.

Scenario 2 (checkpoint resume) runs one hit-list size of the same
experiment with the address space split over two in-process shards
and ``--checkpoint-every 20``, deletes each simulation's checkpoints
past its middle one, and resumes with ``--restore-from``.  The
resumed run must report one checkpoint restore per simulation.

Every run must exit 0 and print stdout byte-identical to the clean
serial run — the repo's determinism guarantee, end to end through the
real CLI.  Exit status: 0 on pass, 1 on any divergence (suitable for
CI).

    python scripts/chaos_smoke.py [--verbose]
"""

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile

#: Small enough for CI, large enough that hotspot structure (and thus
#: the figure's starvation effect) survives: 20k hosts over 300 /16s.
POPULATION_SPEC = (
    "{'total_hosts': 20000, 'num_slash8': 8, 'num_slash16': 300, "
    "'anchors': ((0, 0.0), (10, 0.35), (100, 0.85), (300, 1.0))}"
)

#: Kill trial 1's worker on its first attempt; make trial 2's first
#: attempt raise.  Both must recover via --retries with no output drift.
FAULT_PLAN = '{"1": ["kill"], "2": ["raise"]}'

BASE_ARGS = [
    sys.executable,
    "-m",
    "repro.cli",
    "figure5b",
    "--trials",
    "4",
    "--set",
    f"population_spec={POPULATION_SPEC}",
    "--set",
    "max_time=300",
]


#: The checkpoint-resume scenario runs one trial of one hit-list size
#: only (CI time; the trailing --trials wins over BASE_ARGS).
SHARD_ARGS = ["--set", "hitlist_sizes=(100,)", "--trials", "1"]


def run_cli(extra_args, fault_plan=None):
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_MIDRUN_FAULT", None)
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
    return subprocess.run(
        BASE_ARGS + extra_args,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--verbose", action="store_true", help="print both runs' stderr"
    )
    args = parser.parse_args()

    print("[chaos-smoke] clean serial run ...", flush=True)
    clean = run_cli(["--workers", "1"])
    if clean.returncode != 0:
        print("[chaos-smoke] FAIL: clean run exited nonzero")
        print(clean.stderr)
        return 1

    print("[chaos-smoke] chaotic parallel run (kill + raise) ...", flush=True)
    chaos = run_cli(
        ["--workers", "2", "--retries", "2"], fault_plan=FAULT_PLAN
    )
    if args.verbose:
        print(chaos.stderr)

    failed = False
    if chaos.returncode != 0:
        print("[chaos-smoke] FAIL: chaotic run exited nonzero")
        print(chaos.stderr)
        failed = True
    if chaos.stdout != clean.stdout:
        print("[chaos-smoke] FAIL: chaotic output diverged from clean run")
        sys.stdout.writelines(
            difflib.unified_diff(
                clean.stdout.splitlines(keepends=True),
                chaos.stdout.splitlines(keepends=True),
                fromfile="clean",
                tofile="chaos",
            )
        )
        failed = True
    if "retried" not in chaos.stderr:
        # The faults must actually have fired; a silently clean run
        # would make this smoke test vacuous.
        print("[chaos-smoke] FAIL: no retries reported — faults never fired?")
        print(chaos.stderr)
        failed = True
    if failed:
        return 1
    print(
        "[chaos-smoke] PASS: worker killed, trial raised, campaign "
        "recovered, output identical to the clean serial run"
    )

    print("[chaos-smoke] clean serial run (resume scenario) ...", flush=True)
    resume_clean = run_cli(["--workers", "1"] + SHARD_ARGS)
    if resume_clean.returncode != 0:
        print("[chaos-smoke] FAIL: resume-scenario clean run exited nonzero")
        print(resume_clean.stderr)
        return 1

    checkpoint_dir = tempfile.mkdtemp(prefix="chaos-ckpt-")
    try:
        print(
            "[chaos-smoke] sharded run checkpointing every 20 ticks ...",
            flush=True,
        )
        checkpointed = run_cli(
            SHARD_ARGS
            + [
                "--shards",
                "2",
                "--checkpoint-every",
                "20",
                "--checkpoint-dir",
                checkpoint_dir,
            ]
        )
        failed |= check_run(
            "checkpointed", checkpointed, resume_clean, args.verbose
        )
        restored_ticks = rewind_to_mid_run(checkpoint_dir)
        if not restored_ticks:
            print("[chaos-smoke] FAIL: the run wrote no checkpoints")
            return 1
        print(
            "[chaos-smoke] resuming from mid-run snapshots "
            f"(ticks {restored_ticks}) ...",
            flush=True,
        )
        resumed = run_cli(
            SHARD_ARGS + ["--shards", "2", "--restore-from", checkpoint_dir]
        )
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    failed |= check_run("resumed", resumed, resume_clean, args.verbose)
    restores = resumed.stderr.count("recovery: restore")
    if restores != len(restored_ticks):
        # The resume must really have restored one snapshot per
        # simulation; a silent fresh run would make this vacuous.
        print(
            f"[chaos-smoke] FAIL: expected {len(restored_ticks)} "
            f"checkpoint restore(s), saw {restores}"
        )
        print(resumed.stderr)
        failed = True
    if failed:
        return 1
    print(
        "[chaos-smoke] PASS: sharded run resumed from mid-run "
        "checkpoints, output identical to the clean serial run"
    )
    return 0


def rewind_to_mid_run(checkpoint_dir):
    """Keep each simulation's checkpoints up to its middle one.

    ``--restore-from`` resumes from the latest snapshot in each
    per-simulation subdirectory; deleting the later ones makes that a
    genuinely mid-run state.  Returns the kept tick per simulation.
    """
    ticks = []
    for subdir in sorted(os.listdir(checkpoint_dir)):
        files = sorted(
            name
            for name in os.listdir(os.path.join(checkpoint_dir, subdir))
            if name.endswith(".ckpt")
        )
        if not files:
            continue
        keep = len(files) // 2
        for name in files[keep + 1 :]:
            os.remove(os.path.join(checkpoint_dir, subdir, name))
        ticks.append(int(files[keep][len("tick-") : -len(".ckpt")]))
    return ticks


def check_run(label, run, clean, verbose):
    """True (failed) unless ``run`` exited 0 with the clean stdout."""
    if verbose:
        print(run.stderr)
    failed = False
    if run.returncode != 0:
        print(f"[chaos-smoke] FAIL: {label} run exited nonzero")
        print(run.stderr)
        failed = True
    if run.stdout != clean.stdout:
        print(f"[chaos-smoke] FAIL: {label} output diverged from clean run")
        sys.stdout.writelines(
            difflib.unified_diff(
                clean.stdout.splitlines(keepends=True),
                run.stdout.splitlines(keepends=True),
                fromfile="clean",
                tofile=label,
            )
        )
        failed = True
    return failed

if __name__ == "__main__":
    sys.exit(main())
