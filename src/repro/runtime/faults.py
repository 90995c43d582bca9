"""Deterministic fault injection for the trial runner.

The paper's environmental root causes are *failures* — dropped and
mangled packets — and the simulation models them faithfully.  This
module applies the same discipline to the execution substrate: a
:class:`FaultPlan` designates which trials misbehave, how, and on
which attempt, so every recovery path in
:class:`~repro.runtime.runner.TrialRunner` can be exercised on
purpose and asserted bitwise-identical to a clean run.

Fault kinds
-----------
``raise``
    The attempt raises :class:`InjectedFault` instead of running.
``hang``
    The attempt sleeps ``seconds`` before running normally — long
    enough to trip the per-trial timeout (whereupon the worker is
    replaced), short enough to finish eventually if no timeout is
    armed.
``kill``
    The worker process hard-exits (``os._exit``), breaking the whole
    pool the way a segfault or OOM kill would.  In serial execution
    it degrades to ``raise`` (killing the caller would be a test
    harness defect, not a simulated one).
``corrupt``
    The attempt returns a value whose *unpickling* fails in the
    parent — a mangled result payload.  The executor machinery
    treats that as a broken pool, which is exactly the recovery path
    worth testing.  In serial execution (no pickle boundary) it
    degrades to ``raise``.

Determinism: a plan is data — ``{trial index: (fault per attempt,
...)}`` — with no clocks or ambient randomness.  Attempts beyond a
trial's listed faults run clean, so bounded retry always converges,
and because retries re-execute the identical seeded trial, the
recovered campaign is bitwise-equal to an undisturbed one.

For chaos-testing real CLI runs, a plan can ride in the
``REPRO_FAULT_PLAN`` environment variable as JSON
(``{"1": ["kill"], "3": ["raise", "hang:5"]}``);
:func:`plan_from_env` is consulted by the runner when no explicit
plan was given.

Mid-run faults
--------------
Trial-level faults strike before a trial starts; the checkpoint layer
(:mod:`repro.runtime.checkpoint`) needs failures that strike
*mid-run*, at a chosen tick.  ``$REPRO_MIDRUN_FAULT`` carries one as
JSON — ``{"kind": "corrupt-checkpoint", "tick": 40}`` — parsed by
:func:`midrun_fault_from_env` into a :class:`MidRunFault`:

``corrupt-checkpoint``
    The checkpoint writer flips a payload byte after the file lands,
    so a later restore must fail the content hash.
``stale-checkpoint-version``
    The checkpoint writer stamps a future format version, so a later
    restore must refuse the file by version.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

#: Recognised fault kinds.
FAULT_KINDS = ("raise", "hang", "kill", "corrupt")

#: Recognised mid-run fault kinds (``$REPRO_MIDRUN_FAULT``).
MIDRUN_FAULT_KINDS = ("corrupt-checkpoint", "stale-checkpoint-version")

#: Environment variable carrying a JSON fault plan for chaos runs.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment variable carrying one JSON :class:`MidRunFault`.
MIDRUN_FAULT_ENV = "REPRO_MIDRUN_FAULT"

#: How long a ``hang`` sleeps unless the spec says otherwise.
DEFAULT_HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """The deliberate failure raised by ``raise`` (and serial
    ``kill``/``corrupt``) faults."""


class FaultPlanError(ValueError):
    """A malformed fault plan (bad kind, bad JSON, bad index)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected misbehaviour: what, and (for hangs) how long."""

    kind: str
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.seconds <= 0:
            raise FaultPlanError("fault seconds must be positive")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """``"kill"`` or ``"hang:2.5"`` → a spec."""
        kind, _, argument = text.partition(":")
        kind = kind.strip().lower()
        if argument:
            try:
                return cls(kind=kind, seconds=float(argument))
            except ValueError as error:
                raise FaultPlanError(
                    f"bad fault argument in {text!r}: {error}"
                ) from None
        return cls(kind=kind)


class FaultPlan:
    """Which trials fault, how, attempt by attempt.

    ``faults`` maps a trial's batch index to the fault applied on
    each attempt (attempt 1 uses the first entry, …); attempts past
    the end run clean.
    """

    def __init__(
        self, faults: Mapping[int, Sequence[FaultSpec]] | None = None
    ) -> None:
        normalized: dict[int, tuple[FaultSpec, ...]] = {}
        for index, specs in (faults or {}).items():
            if int(index) < 0:
                raise FaultPlanError("trial indices must be >= 0")
            normalized[int(index)] = tuple(specs)
        self.faults = normalized

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.faults == other.faults

    def __repr__(self) -> str:
        return f"FaultPlan({self.faults!r})"

    def spec_for(self, index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault for (trial, 1-based attempt), or ``None``."""
        specs = self.faults.get(index, ())
        if 1 <= attempt <= len(specs):
            return specs[attempt - 1]
        return None

    # -- construction ------------------------------------------------

    @classmethod
    def from_mapping(cls, data: Mapping[Any, Any]) -> "FaultPlan":
        """``{index: ["kill", "hang:5", ...]}`` → a plan."""
        faults: dict[int, list[FaultSpec]] = {}
        for raw_index, raw_specs in data.items():
            try:
                index = int(raw_index)
            except (TypeError, ValueError):
                raise FaultPlanError(
                    f"trial index {raw_index!r} is not an integer"
                ) from None
            if isinstance(raw_specs, str):
                raw_specs = [raw_specs]
            specs = []
            for raw in raw_specs:
                if isinstance(raw, FaultSpec):
                    specs.append(raw)
                elif isinstance(raw, str):
                    specs.append(FaultSpec.parse(raw))
                else:
                    raise FaultPlanError(
                        f"fault entry {raw!r} is neither a string nor a "
                        "FaultSpec"
                    )
            faults[index] = specs
        return cls(faults)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULT_PLAN`` JSON format."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}")
        if not isinstance(data, Mapping):
            raise FaultPlanError("fault plan JSON must be an object")
        return cls.from_mapping(data)

    @classmethod
    def seeded(
        cls,
        seed: int,
        trials: int,
        rate: float,
        kinds: Sequence[str] = ("raise",),
        attempts: int = 1,
    ) -> "FaultPlan":
        """A randomized-but-reproducible plan.

        Each of ``trials`` trials independently faults with
        probability ``rate`` on its first ``attempts`` attempts,
        drawing the kind uniformly from ``kinds`` — all from a
        ``SeedSequence``-derived stream, so the same arguments always
        build the same plan (chaos you can replay).
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultPlanError("rate must be within [0, 1]")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        faults: dict[int, list[FaultSpec]] = {}
        for index in range(trials):
            if rng.random() < rate:
                faults[index] = [
                    FaultSpec.parse(str(rng.choice(list(kinds))))
                    for _ in range(attempts)
                ]
        return cls(faults)


def plan_from_env() -> Optional[FaultPlan]:
    """The ``$REPRO_FAULT_PLAN`` plan, or ``None`` when unset/empty."""
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    return FaultPlan.from_json(raw)


@dataclass(frozen=True)
class MidRunFault:
    """One injected mid-run failure (see the module docstring).

    ``tick`` is the absolute 0-based tick index the fault keys on.
    """

    kind: str
    tick: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in MIDRUN_FAULT_KINDS:
            raise FaultPlanError(
                f"unknown mid-run fault kind {self.kind!r}; "
                f"known: {MIDRUN_FAULT_KINDS}"
            )
        if self.tick is not None and self.tick < 0:
            raise FaultPlanError("mid-run fault tick must be >= 0")

    def matches_tick(self, tick: int) -> bool:
        """True when the fault applies at this tick (None = every)."""
        return self.tick is None or self.tick == tick


def midrun_fault_from_env() -> Optional[MidRunFault]:
    """The ``$REPRO_MIDRUN_FAULT`` fault, or ``None`` when unset.

    Read from the environment (not passed through pickled arguments)
    so the same fault reaches trial workers under any process start
    method — the :data:`FAULT_PLAN_ENV` idiom.
    """
    raw = os.environ.get(MIDRUN_FAULT_ENV)
    if not raw:
        return None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as error:
        raise FaultPlanError(
            f"{MIDRUN_FAULT_ENV} is not valid JSON: {error}"
        ) from None
    if not isinstance(data, Mapping):
        raise FaultPlanError(f"{MIDRUN_FAULT_ENV} JSON must be an object")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise FaultPlanError(
            f"{MIDRUN_FAULT_ENV} needs a string 'kind'; got {kind!r}"
        )
    tick = data.get("tick")
    return MidRunFault(
        kind=kind,
        tick=None if tick is None else int(tick),  # type: ignore[call-overload]
    )


class _CorruptPayload:
    """Pickles fine in the worker, detonates on unpickle in the parent."""

    def __reduce__(self) -> tuple[Any, ...]:
        return (_detonate, ())


def _detonate() -> None:
    raise InjectedFault("injected corrupt result payload")


def apply_fault(
    spec: Optional[FaultSpec], *, index: int, attempt: int, in_worker: bool
) -> Optional[_CorruptPayload]:
    """Enact ``spec`` before a trial's attempt runs.

    Returns a corrupt payload to *substitute* for the trial's result
    (``corrupt`` in a worker), raises for ``raise``-style faults,
    hard-exits for ``kill`` in a worker, sleeps for ``hang`` — or
    returns ``None``, meaning "run the trial normally".
    """
    if spec is None:
        return None
    if spec.kind == "raise":
        raise InjectedFault(
            f"injected failure (trial {index}, attempt {attempt})"
        )
    if spec.kind == "hang":
        time.sleep(spec.seconds)
        return None
    if spec.kind == "kill":
        if in_worker:
            os._exit(86)
        raise InjectedFault(
            f"injected worker kill (trial {index}, attempt {attempt}; "
            "degraded to raise in serial execution)"
        )
    if spec.kind == "corrupt":
        if in_worker:
            return _CorruptPayload()
        raise InjectedFault(
            f"injected corrupt result (trial {index}, attempt {attempt}; "
            "degraded to raise in serial execution)"
        )
    raise FaultPlanError(f"unknown fault kind {spec.kind!r}")
