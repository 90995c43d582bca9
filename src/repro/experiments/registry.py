"""Declarative experiment registry.

One :class:`Experiment` record per paper artifact — id, title, where
its runner and formatter live, default parameters, and its
trial-count knob.  The record is simultaneously:

* the lookup unit for the CLI (``hotspots figure5b``),
* the unit of parallel dispatch for
  :class:`~repro.runtime.runner.TrialRunner` (each Monte-Carlo trial
  is one ``Experiment`` invocation under a spawned child seed), and
* the identity under which results cache on disk.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.runtime.cache import ResultCache, stable_key
from repro.runtime.checkpoint import recovery_collection
from repro.runtime.journal import TrialJournal
from repro.runtime.perf import active_timings
from repro.runtime.report import RunReport
from repro.runtime.runner import RetryPolicy, Trial, TrialRunner
from repro.runtime.seeding import spawn_trial_sequences

Runner = Callable[..., Any]
Formatter = Callable[[Any], str]


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the paper, as a runnable unit.

    Attributes
    ----------
    id:
        The CLI / registry identifier (``"figure5b"``).
    title:
        Human-readable name printed by ``hotspots --list``.
    module:
        Dotted path of the module holding the runner and formatter.
    runner / formatter:
        Attribute names inside ``module`` (several experiments share a
        module, so the names vary).
    defaults:
        Explicit parameter overrides applied under any caller
        overrides — the experiment's registry-level configuration.
    seed_param:
        The runner keyword that receives seed material; the trial
        runner injects per-trial ``SeedSequence`` children through it.
    default_trials:
        The trial-count knob: how many Monte-Carlo repetitions a plain
        ``hotspots <id>`` performs.
    """

    id: str
    title: str
    module: str
    runner: str = "run"
    formatter: str = "format_result"
    defaults: Mapping[str, Any] = field(default_factory=dict)
    seed_param: str = "seed"
    default_trials: int = 1

    # -- resolution --------------------------------------------------

    def resolve(self) -> tuple[Runner, Formatter]:
        """Import the module and return ``(run, format)`` callables."""
        module = importlib.import_module(self.module)
        return getattr(module, self.runner), getattr(module, self.formatter)

    def signature_defaults(self) -> dict[str, Any]:
        """The runner's own keyword defaults (for display and keys)."""
        run, _ = self.resolve()
        return {
            name: parameter.default
            for name, parameter in inspect.signature(run).parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }

    def display_params(self) -> dict[str, Any]:
        """Effective defaults, registry overrides applied, for --list."""
        params = self.signature_defaults()
        params.update(self.defaults)
        return params

    def base_seed(self, overrides: Mapping[str, Any]) -> Any:
        """The campaign seed: caller override, else the runner default."""
        if self.seed_param in overrides:
            return overrides[self.seed_param]
        return self.display_params().get(self.seed_param)

    # -- execution ---------------------------------------------------

    def run(
        self,
        *,
        trials: Optional[int] = None,
        workers: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        retry: "RetryPolicy | int | None" = None,
        timeout: Optional[float] = None,
        journal_dir: Optional[str] = None,
        resume: bool = False,
        raise_on_failure: bool = True,
        **overrides: Any,
    ) -> "ExperimentRun":
        """Run the experiment's Monte-Carlo campaign.

        ``trials=1`` (the default for every paper artifact) calls the
        runner once with the caller's parameters, bit-identical to
        invoking the module function directly.  ``trials=n`` derives n
        per-trial seeds via ``SeedSequence(base_seed).spawn(n)`` and
        fans them out over ``workers`` processes; serial (``workers=1``)
        and parallel runs produce identical results.

        ``workers`` always parallelizes at the widest level available:
        across trials when ``trials > 1``, otherwise *inside* the
        single trial for runners that accept a ``workers`` keyword
        (the Figure 5 per-hit-list-size fan-out).  Worker count never
        changes results, so it never enters cache keys.

        Fault tolerance: ``retry`` (a :class:`RetryPolicy` or plain
        extra-attempt count) re-executes failed trials under their
        original seeds, ``timeout`` bounds each trial's runtime under
        parallel execution, and ``journal_dir``/``resume`` checkpoint
        completed trials so an interrupted campaign re-executes only
        what is unfinished.  None of these change results — every
        recovery path is bitwise-identical to a clean serial run —
        and all of them are accounted for in ``ExperimentRun.report``.
        ``raise_on_failure=False`` returns the partial campaign (with
        ``None`` slots) instead of raising
        :class:`~repro.runtime.report.TrialExecutionError`.
        """
        if trials is None:
            trials = self.default_trials
        if trials < 1:
            raise ValueError("trials must be at least 1")
        run_callable, _ = self.resolve()
        params = dict(self.defaults)
        params.update(overrides)
        if (
            trials == 1
            and "workers" not in params
            and "workers" in self.signature_defaults()
        ):
            params["workers"] = workers
        # Reject unknown/invalid parameters before dispatching: the
        # fault-tolerant runner would otherwise record the TypeError
        # as a per-trial failure instead of a caller error.
        try:
            inspect.signature(run_callable).bind_partial(**params)
        except TypeError as error:
            raise TypeError(f"{self.id}: {error}") from None

        base_seed = self.base_seed(params)
        journal = None
        if journal_dir is not None or resume:
            if cache is None:
                raise ValueError(
                    "journaling/resume needs a result cache to hold the "
                    "completed trials' results (pass cache=...)"
                )
            journal = TrialJournal.for_campaign(
                self.campaign_key(params, trials),
                journal_dir,
                resume=resume,
            )
        runner = TrialRunner(
            workers=workers,
            cache=cache,
            retry=retry,
            timeout=timeout,
            journal=journal,
        )

        if trials == 1:
            # The single-trial path keeps the runner's historical seed
            # semantics (an integer default), so `hotspots figure5b`
            # reproduces the paper artifact exactly as before.
            cache_key = None
            if cache is not None:
                cache_key = stable_key(
                    self.id, self._effective_params(params), base_seed
                )
            trial_seeds: tuple[Any, ...] = (base_seed,)
            batch = [
                Trial(
                    func=run_callable,
                    kwargs=params,
                    seed=None,  # already in params (or the default)
                    cache_key=cache_key,
                    label=f"{self.id}[0]",
                )
            ]
        else:
            seedless = {
                key: value
                for key, value in params.items()
                if key != self.seed_param
            }
            if not isinstance(base_seed, (int, type(None))):
                raise TypeError(
                    f"multi-trial campaigns need an integer base seed; "
                    f"got {type(base_seed).__name__} for {self.id!r}"
                )
            trial_seeds = spawn_trial_sequences(
                base_seed if base_seed is not None else 0, trials
            )
            batch = [
                Trial(
                    func=run_callable,
                    kwargs=seedless,
                    seed=sequence,
                    seed_param=self.seed_param,
                    cache_key=(
                        stable_key(
                            self.id,
                            self._effective_params(seedless, drop_seed=True),
                            sequence,
                        )
                        if cache is not None
                        else None
                    ),
                    label=f"{self.id}[{index}]",
                )
                for index, sequence in enumerate(trial_seeds)
            ]

        with recovery_collection() as recovery_log:
            report = runner.run_report(batch)
        if recovery_log.events:
            # Checkpoint writes and restores during in-process trials
            # ride back on the report, so the CLI can surface every
            # recovery path it exercised.
            report = dataclasses.replace(
                report, recovery_events=tuple(recovery_log.events)
            )
        timings = active_timings()
        if timings is not None and timings.seconds:
            # `--perf` ran the campaign under a stage-timing
            # collection; the cumulative per-stage seconds ride back
            # on the report (serial trials only — pooled workers time
            # in their own processes and report nothing).
            report = dataclasses.replace(
                report,
                perf_stages=dict(timings.seconds),
                perf_ticks=timings.ticks,
            )
        if raise_on_failure:
            report.raise_on_failure()
        return ExperimentRun(
            experiment=self,
            results=report.results,
            trial_seeds=tuple(trial_seeds),
            report=report,
        )

    def campaign_key(
        self, params: Mapping[str, Any], trials: int
    ) -> str:
        """The stable identity of one campaign (journal file name).

        A campaign is (experiment, fully-bound parameters, trial
        count, base seed) — the same invocation always maps to the
        same key, which is how ``--resume`` finds its checkpoint
        without being told where it lives.
        """
        seedless = {
            key: value
            for key, value in params.items()
            if key != self.seed_param
        }
        return stable_key(
            f"campaign:{self.id}",
            {
                **self._effective_params(seedless, drop_seed=True),
                "__trials__": trials,
            },
            self.base_seed(params),
        )

    def _effective_params(
        self, params: Mapping[str, Any], drop_seed: bool = False
    ) -> dict[str, Any]:
        """Fully-bound parameters — the cache identity of a call.

        Two invocations that differ only in *how* defaults were
        supplied (explicitly vs. by omission) must share a cache key.
        """
        effective = self.signature_defaults()
        effective.update(params)
        if drop_seed:
            effective.pop(self.seed_param, None)
        # Worker count and checkpointing are execution details, never
        # result inputs: a checkpointed (or restored) run is bitwise
        # identical to a clean one, so it must share the cache key.
        effective.pop("workers", None)
        effective.pop("checkpoint_every", None)
        effective.pop("checkpoint_dir", None)
        effective.pop("restore_from", None)
        return effective


@dataclass(frozen=True)
class ExperimentRun:
    """A finished campaign: one result per trial, plus provenance.

    ``report`` (when the campaign ran through the fault-tolerant
    runner) accounts for every trial: cached/resumed skips, retries,
    timeouts, failures, and batch-level fallback events.  Failed
    trials leave ``None`` in their ``results`` slot.
    """

    experiment: Experiment
    results: tuple[Any, ...]
    trial_seeds: tuple[Any, ...]
    report: Optional[RunReport] = None

    @property
    def result(self) -> Any:
        """The single result of a one-trial campaign."""
        if len(self.results) != 1:
            raise ValueError(
                f"campaign has {len(self.results)} trials; "
                "pick one from .results"
            )
        return self.results[0]

    def formatted(self) -> str:
        """Every trial rendered with the experiment's formatter."""
        _, format_result = self.experiment.resolve()

        def render(index: int, trial_result: Any) -> str:
            if trial_result is None and self.report is not None:
                outcome = self.report.outcomes[index]
                if not outcome.succeeded:
                    return f"<trial {outcome.status}: {outcome.describe()}>"
            return str(format_result(trial_result))

        if len(self.results) == 1:
            return render(0, self.results[0])
        sections = []
        for index, trial_result in enumerate(self.results):
            sections.append(
                f"=== {self.experiment.id} trial {index + 1}/"
                f"{len(self.results)} ==="
            )
            sections.append(render(index, trial_result))
        return "\n".join(sections)


#: The registry proper: one declarative record per artifact.
REGISTRY: dict[str, Experiment] = {
    experiment.id: experiment
    for experiment in (
        Experiment(
            id="table1",
            title="Table 1 — botnet propagation commands on a live /15",
            module="repro.experiments.table1",
        ),
        Experiment(
            id="figure1",
            title="Figure 1 — Blaster sources by /24 and boot-seed forensics",
            module="repro.experiments.figure1",
        ),
        Experiment(
            id="figure2",
            title="Figure 2 — Slammer unique sources by destination /24",
            module="repro.experiments.figure2",
        ),
        Experiment(
            id="figure3",
            title="Figure 3 — per-host Slammer scans and LCG cycle spectrum",
            module="repro.experiments.figure3",
        ),
        Experiment(
            id="figure4",
            title="Figure 4 — CodeRedII sources, NATs, and quarantine replay",
            module="repro.experiments.figure4",
        ),
        Experiment(
            id="table2",
            title="Table 2 — enterprise egress filtering hides infections",
            module="repro.experiments.table2",
        ),
        Experiment(
            id="figure5a",
            title="Figure 5(a) — hit-list worm infection rate",
            module="repro.experiments.figure5",
            runner="run_infection",
            formatter="format_infection",
        ),
        Experiment(
            id="figure5b",
            title="Figure 5(b) — distributed detection starved by hotspots",
            module="repro.experiments.figure5",
            runner="run_detection",
            formatter="format_detection",
        ),
        Experiment(
            id="figure5c",
            title="Figure 5(c) — NATed worm vs sensor placement",
            module="repro.experiments.figure5",
            runner="run_nat_detection",
            formatter="format_nat_detection",
        ),
        # Beyond the paper: quantify its concluding arguments.
        Experiment(
            id="local-detection",
            title="Extension — local darknets beat a starved global quorum",
            module="repro.experiments.extension_local_detection",
        ),
        Experiment(
            id="containment",
            title="Extension — hotspots defeat quorum-triggered quarantine",
            module="repro.experiments.extension_containment",
        ),
    )
}


def get(experiment_id: str) -> Experiment:
    """The :class:`Experiment` record for an id."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(REGISTRY)}"
        ) from None


def experiment_ids() -> list[str]:
    """Registered ids, sorted."""
    return sorted(REGISTRY)
