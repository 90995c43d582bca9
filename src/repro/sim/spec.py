"""`SimulationSpec`: one picklable description of one outbreak.

``SimulationSpec`` is a single frozen, picklable unit: population +
worm + environment + sensors + shard plan + tick budget.  The
registry, the trial runner, the journal, and the CLI all pass specs
around; ``EpidemicSimulator.run`` and ``run_simulation_trial`` are
thin wrappers that build a spec and call :func:`simulate`.

Validation happens at construction and every error names the
offending field (``SimulationSpec.scan_rate must be positive``), so a
spec that pickles into a pool worker is already known-good.

:func:`simulate` is the one entry point.  With kernels enabled it runs
the one tick loop, the shard driver
(:class:`~repro.sim.shard.ShardedSimulator`); ``shards=None`` is its
K=1 case.  Under ``kernel_override(False)`` — the gating idiom every
kernel follows — it runs the reference oracle
(:func:`~repro.sim.engine.run_reference`) instead.  Results are
bitwise-identical either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from repro.env.environment import NetworkEnvironment
from repro.env.topology import Topology
from repro.net.kernels import kernels_enabled
from repro.population.model import HostPopulation
from repro.runtime.checkpoint import (
    Checkpointer,
    load_checkpoint,
    record_recovery,
    spec_hash,
)
from repro.sensors.darknet import DarknetSensor
from repro.sensors.deployment import SensorGrid
from repro.sim.containment import QuorumTriggeredContainment
from repro.sim.engine import (
    EpidemicSimulator,
    SimulationConfig,
    SimulationResult,
    run_reference,
)
from repro.sim.shard import ShardPlan, ShardedSimulator, as_shard_plan
from repro.traces.record import TraceRecorder
from repro.worms.base import WormModel

#: Seed material accepted wherever a run needs randomness.
SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def _type_error(field_name: str, expected: str, value: object) -> TypeError:
    return TypeError(
        f"SimulationSpec.{field_name}: expected {expected}, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True, eq=False)
class SimulationSpec:
    """Everything one outbreak run needs, in one picklable object.

    Attributes
    ----------
    worm:
        The :class:`~repro.worms.base.WormModel` driving the outbreak.
    population:
        The vulnerable hosts — a
        :class:`~repro.population.model.HostPopulation` or an address
        array (coerced).
    environment:
        The :class:`~repro.env.environment.NetworkEnvironment`
        (default: empty — everything routable, no NAT, no loss).
    topology:
        Optional per-host bandwidth :class:`~repro.env.topology.Topology`.
    sensors, sensor_grids:
        Darknet sensors and /24 sensor grids observing the outbreak.
    containment:
        Optional quorum-triggered containment.
    trace_recorder:
        Optional delivered-probe trace sink.
    scan_rate, tick_seconds, max_time, seed_count, stop_at_fraction,
    patch_rate:
        The tick budget — the former ``SimulationConfig`` knobs,
        inlined with the same semantics and defaults.
    shards:
        The shard plan: a :class:`~repro.sim.shard.ShardPlan`, an
        ``int`` shard count (even split), or ``None`` for an unsharded
        run (executed as one /0 shard, identical to ``shards=1``).
    seed_addrs:
        Optional explicit seed hosts (otherwise ``seed_count`` hosts
        are drawn uniformly at run time).
    checkpoint_every:
        Optional tick cadence for mid-run checkpoints (see
        :mod:`repro.runtime.checkpoint`); ``None`` disables them.
        Cadence never changes results — it is deliberately excluded
        from the checkpoint spec hash, so a run may be restored under
        a different cadence.
    """

    worm: WormModel
    population: HostPopulation
    environment: NetworkEnvironment = field(default=None)  # type: ignore[assignment]
    topology: Optional[Topology] = None
    sensors: tuple[DarknetSensor, ...] = ()
    sensor_grids: tuple[SensorGrid, ...] = ()
    containment: Optional[QuorumTriggeredContainment] = None
    trace_recorder: Optional[TraceRecorder] = None
    scan_rate: float = 10.0
    tick_seconds: float = 1.0
    max_time: float = 3600.0
    seed_count: int = 25
    stop_at_fraction: float = 1.0
    patch_rate: float = 0.0
    shards: Union[ShardPlan, int, None] = None
    seed_addrs: Optional[np.ndarray] = None
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        if not isinstance(self.worm, WormModel):
            raise _type_error("worm", "a WormModel", self.worm)
        if not isinstance(self.population, HostPopulation):
            try:
                addrs = np.asarray(self.population, dtype=np.uint32)
            except (TypeError, ValueError):
                raise _type_error(
                    "population",
                    "a HostPopulation or an address array",
                    self.population,
                ) from None
            set_(self, "population", HostPopulation(addrs))
        if self.environment is None:
            set_(self, "environment", NetworkEnvironment())
        elif not isinstance(self.environment, NetworkEnvironment):
            raise _type_error(
                "environment", "a NetworkEnvironment or None", self.environment
            )
        if self.topology is not None and not isinstance(
            self.topology, Topology
        ):
            raise _type_error("topology", "a Topology or None", self.topology)
        sensors = tuple(self.sensors)
        for index, sensor in enumerate(sensors):
            if not isinstance(sensor, DarknetSensor):
                raise _type_error(
                    f"sensors[{index}]", "a DarknetSensor", sensor
                )
        set_(self, "sensors", sensors)
        grids = tuple(self.sensor_grids)
        for index, grid in enumerate(grids):
            if not isinstance(grid, SensorGrid):
                raise _type_error(
                    f"sensor_grids[{index}]", "a SensorGrid", grid
                )
        set_(self, "sensor_grids", grids)
        if self.containment is not None and not isinstance(
            self.containment, QuorumTriggeredContainment
        ):
            raise _type_error(
                "containment",
                "a QuorumTriggeredContainment or None",
                self.containment,
            )
        if self.trace_recorder is not None and not isinstance(
            self.trace_recorder, TraceRecorder
        ):
            raise _type_error(
                "trace_recorder", "a TraceRecorder or None", self.trace_recorder
            )
        if self.scan_rate <= 0:
            raise ValueError(
                f"SimulationSpec.scan_rate must be positive, "
                f"got {self.scan_rate}"
            )
        if self.tick_seconds <= 0:
            raise ValueError(
                f"SimulationSpec.tick_seconds must be positive, "
                f"got {self.tick_seconds}"
            )
        if self.max_time <= 0:
            raise ValueError(
                f"SimulationSpec.max_time must be positive, "
                f"got {self.max_time}"
            )
        if self.seed_count < 1:
            raise ValueError(
                f"SimulationSpec.seed_count must be at least 1, "
                f"got {self.seed_count}"
            )
        if not 0.0 < self.stop_at_fraction <= 1.0:
            raise ValueError(
                f"SimulationSpec.stop_at_fraction must be in (0, 1], "
                f"got {self.stop_at_fraction}"
            )
        if not 0.0 <= self.patch_rate < 1.0:
            raise ValueError(
                f"SimulationSpec.patch_rate must be in [0, 1), "
                f"got {self.patch_rate}"
            )
        # Normalizes and validates (ShardPlan | int | None), raising
        # with the field name on anything else.
        as_shard_plan(self.shards)
        if self.seed_addrs is not None:
            try:
                seed_addrs = np.asarray(self.seed_addrs, dtype=np.uint32)
            except (TypeError, ValueError):
                raise _type_error(
                    "seed_addrs", "an address array or None", self.seed_addrs
                ) from None
            if seed_addrs.ndim != 1:
                raise ValueError(
                    "SimulationSpec.seed_addrs must be one-dimensional, "
                    f"got shape {seed_addrs.shape}"
                )
            set_(self, "seed_addrs", seed_addrs)
        if self.checkpoint_every is not None:
            if not isinstance(self.checkpoint_every, (int, np.integer)):
                raise _type_error(
                    "checkpoint_every",
                    "an int tick cadence or None",
                    self.checkpoint_every,
                )
            if self.checkpoint_every < 1:
                raise ValueError(
                    "SimulationSpec.checkpoint_every must be at least 1, "
                    f"got {self.checkpoint_every}"
                )
            set_(self, "checkpoint_every", int(self.checkpoint_every))

    # -- construction helpers -----------------------------------------

    @classmethod
    def from_config(
        cls,
        config: SimulationConfig,
        *,
        worm: WormModel,
        population: HostPopulation,
        **kwargs: object,
    ) -> "SimulationSpec":
        """Back-compat: lift a ``SimulationConfig`` into a spec.

        Every remaining keyword (environment, sensors, shards, ...)
        passes through unchanged.
        """
        for knob in (
            "scan_rate",
            "tick_seconds",
            "max_time",
            "seed_count",
            "stop_at_fraction",
            "patch_rate",
        ):
            if knob in kwargs:
                raise ValueError(
                    f"SimulationSpec.{knob}: set via the config argument, "
                    "not as a keyword, when using from_config()"
                )
            kwargs[knob] = getattr(config, knob)
        return cls(worm=worm, population=population, **kwargs)  # type: ignore[arg-type]

    def with_(self, **changes: object) -> "SimulationSpec":
        """A copy with fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    # -- derived views -------------------------------------------------

    @property
    def config(self) -> SimulationConfig:
        """The tick-budget knobs as a classic ``SimulationConfig``."""
        return SimulationConfig(
            scan_rate=self.scan_rate,
            tick_seconds=self.tick_seconds,
            max_time=self.max_time,
            seed_count=self.seed_count,
            stop_at_fraction=self.stop_at_fraction,
            patch_rate=self.patch_rate,
        )

    @property
    def shard_plan(self) -> Optional[ShardPlan]:
        """The normalized shard plan (``None`` = unsharded, run as K=1)."""
        return as_shard_plan(self.shards)

    @property
    def num_ticks(self) -> int:
        """The tick budget: how many steps reach ``max_time``."""
        return int(np.ceil(self.max_time / self.tick_seconds))

    def build_simulator(self) -> EpidemicSimulator:
        """An :class:`EpidemicSimulator` wrapper over this spec's parts."""
        return EpidemicSimulator(
            worm=self.worm,
            population=self.population,
            environment=self.environment,
            topology=self.topology,
            sensors=self.sensors,
            sensor_grids=self.sensor_grids,
            containment=self.containment,
            trace_recorder=self.trace_recorder,
        )

    def describe(self) -> dict[str, object]:
        """A journal-friendly summary of the spec's shape."""
        plan = self.shard_plan
        return {
            "worm": self.worm.name,
            "population_size": self.population.size,
            "num_sensors": len(self.sensors),
            "num_sensor_grids": len(self.sensor_grids),
            "scan_rate": self.scan_rate,
            "tick_seconds": self.tick_seconds,
            "max_time": self.max_time,
            "seed_count": self.seed_count,
            "num_shards": plan.num_shards if plan is not None else 1,
        }


def simulate(
    spec: SimulationSpec,
    rng: SeedLike,
    *,
    checkpoint_dir: "Union[str, os.PathLike[str], None]" = None,
    restore_from: "Union[str, os.PathLike[str], None]" = None,
) -> SimulationResult:
    """Run one outbreak described by a spec.

    ``rng`` is seed material (int / SeedSequence) or a live generator.
    With kernels enabled the shard driver runs at the spec's K
    (``shards=None`` is K=1); under ``kernel_override(False)`` the
    reference oracle runs instead, bitwise-identical, like every
    compiled kernel.

    ``checkpoint_dir`` (with ``spec.checkpoint_every`` set) persists
    the full run state at the spec's cadence; ``restore_from`` names a
    checkpoint file or directory to resume — the snapshot is validated
    against this spec's hash before any state is touched, and the
    resumed run continues bitwise-identically to an uninterrupted
    one.  The oracle does not checkpoint, so it refuses both.
    """
    generator = (
        rng
        if isinstance(rng, np.random.Generator)
        else np.random.default_rng(rng)
    )
    if not kernels_enabled():
        for name, value in (
            ("checkpoint_dir", checkpoint_dir),
            ("restore_from", restore_from),
        ):
            if value is not None:
                raise ValueError(
                    f"simulate: {name} was given under "
                    "kernel_override(False), but the reference oracle "
                    "does not checkpoint or restore"
                )
        return run_reference(spec, generator)
    checkpointer = None
    if checkpoint_dir is not None:
        if spec.checkpoint_every is None:
            raise ValueError(
                "SimulationSpec.checkpoint_every: checkpoint_dir was "
                "given but the spec has no checkpoint cadence — set "
                "checkpoint_every"
            )
        checkpointer = Checkpointer(
            checkpoint_dir,
            every=spec.checkpoint_every,
            spec_hash=spec_hash(spec),
        )
    resume = None
    if restore_from is not None:
        resume = load_checkpoint(
            restore_from, expected_spec_hash=spec_hash(spec)
        )
        record_recovery(
            "restore", tick=int(resume["tick"]), path=str(restore_from)
        )
    return ShardedSimulator(
        spec, checkpointer=checkpointer, resume=resume
    ).run(generator)


def run_spec_trial(
    spec: SimulationSpec,
    seed: "int | np.random.SeedSequence",
    checkpoint_dir: "Union[str, os.PathLike[str], None]" = None,
    restore_from: "Union[str, os.PathLike[str], None]" = None,
) -> SimulationResult:
    """Module-level (picklable) trial entry point for specs.

    The spec-era successor of
    :func:`repro.sim.engine.run_simulation_trial`: ``TrialRunner``
    pickles the callable plus ``(spec, seed)``, and the generator is
    built on whichever worker the trial lands on.
    """
    return simulate(
        spec,
        seed,
        checkpoint_dir=checkpoint_dir,
        restore_from=restore_from,
    )


__all__ = [
    "SeedLike",
    "SimulationSpec",
    "run_spec_trial",
    "simulate",
]
