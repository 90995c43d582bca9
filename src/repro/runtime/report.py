"""Structured accounting of one :class:`TrialRunner` batch.

Fault tolerance is only trustworthy when it is *visible*: a batch
that silently retried a hung trial or silently fell back to serial
execution looks identical to a clean run.  :class:`RunReport` makes
every recovery path explicit — one :class:`TrialOutcome` per trial
(status, attempt count, final error) plus the batch-level fallback
events (pool replacement, serial degradation, cache-write failures).

Statuses
--------
``ok``
    Succeeded on the first attempt.
``cached``
    Served from the :class:`~repro.runtime.cache.ResultCache`.
``resumed``
    Skipped because the :class:`~repro.runtime.journal.TrialJournal`
    recorded it as complete in an earlier (interrupted) run and the
    cache still held its result.
``retried``
    Succeeded, but only after one or more failed or timed-out
    attempts.  The retry re-executed the *identical* seeded trial,
    so the result is bitwise-equal to a clean first-attempt run.
``failed``
    Exhausted every attempt; the last attempt raised.
``timed-out``
    Exhausted every attempt; the last attempt exceeded the per-trial
    timeout and its worker was replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

#: Every status a :class:`TrialOutcome` may carry.
STATUSES = ("ok", "cached", "resumed", "retried", "failed", "timed-out")

#: Statuses that mean "this trial produced no result".
FAILURE_STATUSES = ("failed", "timed-out")


@dataclass(frozen=True)
class TrialOutcome:
    """How one trial of a batch ended.

    Attributes
    ----------
    index:
        The trial's position in the submitted batch (result order).
    label:
        The trial's human-readable tag.
    status:
        One of :data:`STATUSES`.
    attempts:
        Executions actually performed (0 for cached/resumed trials).
    timed_out_attempts:
        How many of those attempts were cut short by the per-trial
        timeout (their workers were replaced).
    error:
        The final exception for ``failed``/``timed-out`` trials.
    """

    index: int
    label: str
    status: str
    attempts: int
    timed_out_attempts: int = 0
    error: Optional[BaseException] = None

    @property
    def succeeded(self) -> bool:
        """True when the trial produced a result."""
        return self.status not in FAILURE_STATUSES

    def describe(self) -> str:
        """One log-friendly line for this outcome."""
        text = f"[{self.index}] {self.label or '<unlabeled>'}: {self.status}"
        if self.attempts != 1:
            text += f" ({self.attempts} attempts)"
        if self.error is not None:
            text += f" — {type(self.error).__name__}: {self.error}"
        return text


@dataclass(frozen=True)
class RunReport:
    """Everything that happened while executing one batch.

    ``results`` is positional (one slot per submitted trial, ``None``
    where the trial ultimately failed); ``outcomes`` explains each
    slot; ``fallback_events`` lists batch-level recoveries in the
    order they occurred.

    ``perf_stages``/``perf_ticks`` are filled only when the campaign
    ran under :func:`repro.runtime.perf.perf_collection` (the CLI's
    ``--perf``): cumulative stage seconds and tick count across every
    in-process trial.  Serial runs lap the four engine stages
    (generate/filter/dispatch/infect); sharded runs lap the driver
    stages of :data:`repro.runtime.perf.SHARD_STAGES`.

    ``recovery_events`` are the checkpoint/restore events collected by
    :func:`repro.runtime.checkpoint.recovery_collection` while the
    batch ran: one mapping per event with at least a ``kind`` key
    (``"checkpoint"``, ``"restore"``) plus kind-specific detail — the
    tick, and the file written or the path restored from.
    """

    outcomes: tuple[TrialOutcome, ...]
    results: tuple[Any, ...]
    fallback_events: tuple[str, ...] = field(default_factory=tuple)
    perf_stages: Optional[Mapping[str, float]] = None
    perf_ticks: int = 0
    recovery_events: tuple[Mapping[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.results):
            raise ValueError(
                f"{len(self.outcomes)} outcomes for "
                f"{len(self.results)} results"
            )

    # -- queries -----------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when every trial produced a result."""
        return all(outcome.succeeded for outcome in self.outcomes)

    @property
    def failures(self) -> tuple[TrialOutcome, ...]:
        """Outcomes of trials that produced no result."""
        return tuple(o for o in self.outcomes if not o.succeeded)

    @property
    def total_attempts(self) -> int:
        """Executions performed across the whole batch."""
        return sum(outcome.attempts for outcome in self.outcomes)

    def counts(self) -> dict[str, int]:
        """``{status: how many trials ended that way}`` (zeros kept)."""
        tally = {status: 0 for status in STATUSES}
        for outcome in self.outcomes:
            tally[outcome.status] += 1
        return tally

    @property
    def recoveries(self) -> tuple[Mapping[str, Any], ...]:
        """Recovery events beyond routine checkpoint writes.

        Checkpoint captures are scheduled work, not recoveries; a
        restore means the batch actually exercised a recovery path.
        """
        return tuple(
            event
            for event in self.recovery_events
            if event.get("kind") != "checkpoint"
        )

    @property
    def uneventful(self) -> bool:
        """True when nothing beyond plain ok/cached execution happened.

        Routine checkpoint writes don't count as events — they happen
        on every checkpointed run — but restores do.
        """
        counts = self.counts()
        return (
            not self.fallback_events
            and not self.recoveries
            and all(
                counts[status] == 0
                for status in ("resumed", "retried", "failed", "timed-out")
            )
        )

    # -- rendering / raising ----------------------------------------

    def summary(self) -> str:
        """A one-line digest: ``5 trials: 3 ok, 1 retried, 1 failed``."""
        counts = self.counts()
        parts = [
            f"{count} {status}"
            for status, count in counts.items()
            if count
        ]
        text = f"{len(self.outcomes)} trials: {', '.join(parts) or 'none'}"
        if self.fallback_events:
            text += f"; {len(self.fallback_events)} fallback event(s)"
        checkpoints = len(self.recovery_events) - len(self.recoveries)
        if checkpoints:
            text += f"; {checkpoints} checkpoint(s)"
        if self.recoveries:
            text += f"; {len(self.recoveries)} recovery event(s)"
        return text

    def perf_summary(self) -> Optional[str]:
        """The one-line ``--perf`` stage digest, or ``None`` without one.

        Stages print in pipeline order (engine stages, then the
        sharded-driver stages, then anything unknown alphabetically)
        via :func:`repro.runtime.perf.format_stages`.
        """
        if not self.perf_stages:
            return None
        from repro.runtime.perf import format_stages

        return format_stages(self.perf_stages, self.perf_ticks)

    def describe(self) -> str:
        """The multi-line report: summary, failures, fallbacks, recoveries."""
        lines = [self.summary()]
        for outcome in self.outcomes:
            if not outcome.succeeded or outcome.status == "retried":
                lines.append(f"  {outcome.describe()}")
        for event in self.fallback_events:
            lines.append(f"  fallback: {event}")
        for recovery in self.recoveries:
            detail = ", ".join(
                f"{key}={value}"
                for key, value in recovery.items()
                if key != "kind"
            )
            lines.append(
                f"  recovery: {recovery.get('kind', '<unknown>')}"
                + (f" ({detail})" if detail else "")
            )
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        """Raise :class:`TrialExecutionError` if any trial failed."""
        if not self.ok:
            raise TrialExecutionError(self)


class TrialExecutionError(RuntimeError):
    """A batch finished with at least one trial beyond recovery.

    Carries the full :class:`RunReport` (``.report``) so callers can
    inspect the surviving siblings' results; ``__cause__`` is the
    first failing trial's final exception.
    """

    def __init__(self, report: RunReport) -> None:
        self.report = report
        failures = report.failures
        super().__init__(
            f"{len(failures)} of {len(report.outcomes)} trials failed "
            f"after retries: "
            + "; ".join(outcome.describe() for outcome in failures)
        )
        if failures and failures[0].error is not None:
            self.__cause__ = failures[0].error
