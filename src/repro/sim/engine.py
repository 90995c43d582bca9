"""Vectorized time-stepped epidemic simulator: types and the oracle.

The simulation platform of the paper's Section 5, rebuilt: a worm
model supplies per-host targets in batches, the network environment
decides which probes are deliverable, darknet sensors and sensor
grids record what they see, and the host population tracks infections.

There are two tick loops.  Every kernel-enabled run goes through the
shard driver (:class:`repro.sim.shard.ShardedSimulator`; an unsharded
run is its K=1 case).  :func:`run_reference` here is the reference
oracle, run under ``kernel_override(False)``: a plain loop the driver
must match bitwise.  :class:`EpidemicSimulator` and
:func:`run_simulation_trial` are thin wrappers over
:func:`repro.sim.spec.simulate`.

Each tick (default one simulated second):

1. every infected host emits ``scan_rate`` probes (fractional rates
   carry a per-host accumulator, so 0.4 scans/s emits a probe every
   2.5 s rather than never);
2. the environment filters the batch (NAT, policy, loss);
3. sensors observe the delivered probes;
4. delivered probes landing on vulnerable hosts infect them; new
   hosts start scanning on the next tick.

All hot-path work is numpy; a full paper-scale run (134,586
vulnerable hosts, 25 seeds, 10 scans/s) takes on the order of a
minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.env.environment import NetworkEnvironment
from repro.env.topology import Topology
from repro.population.model import HostPopulation
from repro.runtime.perf import stage_timer
from repro.sensors.darknet import DarknetSensor
from repro.sensors.deployment import SensorGrid
from repro.sim.containment import QuorumTriggeredContainment
from repro.traces.record import TraceRecorder
from repro.worms.base import WormModel

if TYPE_CHECKING:
    from repro.sim.spec import SimulationSpec


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for one outbreak run.

    Attributes
    ----------
    scan_rate:
        Probes per second per infected host (the paper fixes 10/s
        "to provide comparable results to [Autograph]").
    tick_seconds:
        Simulation step; probes within a tick are unordered.
    max_time:
        Simulated-seconds horizon.
    seed_count:
        Initially infected hosts, drawn uniformly from the population.
    stop_at_fraction:
        End early once this fraction of the population is infected.
    patch_rate:
        Optional fraction of *vulnerable* hosts immunized per second
        (simple patching model; 0 disables).
    """

    scan_rate: float = 10.0
    tick_seconds: float = 1.0
    max_time: float = 3600.0
    seed_count: int = 25
    stop_at_fraction: float = 1.0
    patch_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.scan_rate <= 0:
            raise ValueError("scan_rate must be positive")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        if self.seed_count < 1:
            raise ValueError("need at least one seed host")
        if not 0.0 < self.stop_at_fraction <= 1.0:
            raise ValueError("stop_at_fraction must be in (0, 1]")
        if not 0.0 <= self.patch_rate < 1.0:
            raise ValueError("patch_rate must be in [0, 1)")


@dataclass(eq=False)
class SimulationResult:
    """What one run produced.

    Equality is bitwise over every field (array dtypes included) —
    the contract the parallel trial runner and the result cache rely
    on when asserting that a replayed run matches the original.
    """

    times: np.ndarray
    infected_counts: np.ndarray
    infection_times: np.ndarray
    population_size: int
    total_probes: int
    delivered_probes: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        from repro.runtime.compare import results_equal

        return all(
            results_equal(getattr(self, name), getattr(other, name))
            for name in (
                "times",
                "infected_counts",
                "infection_times",
                "population_size",
                "total_probes",
                "delivered_probes",
            )
        )

    @property
    def final_fraction_infected(self) -> float:
        """Infected fraction at the end of the run."""
        if not len(self.infected_counts):
            return 0.0
        return float(self.infected_counts[-1]) / self.population_size

    def fraction_infected_at(self, time: float) -> float:
        """Infected fraction at (or before) a given simulated time."""
        index = int(np.searchsorted(self.times, time, side="right")) - 1
        if index < 0:
            return 0.0
        return float(self.infected_counts[index]) / self.population_size

    def time_to_fraction(self, fraction: float) -> Optional[float]:
        """First time the infected fraction reached ``fraction``.

        Infections never revert, so ``infected_counts`` is monotone
        non-decreasing and the first crossing is a ``searchsorted``
        rather than a full scan.
        """
        threshold = fraction * self.population_size
        index = int(
            np.searchsorted(self.infected_counts, threshold, side="left")
        )
        if index >= len(self.infected_counts):
            return None
        return float(self.times[index])


class EpidemicSimulator:
    """Drives one worm over one population through one environment.

    A thin wrapper kept for its constructor-plus-config call shape:
    :meth:`run` lifts the config into a
    :class:`~repro.sim.spec.SimulationSpec` and calls
    :func:`~repro.sim.spec.simulate`, so it runs the same tick loop as
    every other entry point.
    """

    def __init__(
        self,
        worm: WormModel,
        population: HostPopulation,
        environment: Optional[NetworkEnvironment] = None,
        topology: Optional[Topology] = None,
        sensors: Sequence[DarknetSensor] = (),
        sensor_grids: Sequence[SensorGrid] = (),
        containment: Optional[QuorumTriggeredContainment] = None,
        trace_recorder: Optional[TraceRecorder] = None,
    ):
        self.worm = worm
        self.population = population
        self.environment = (
            environment if environment is not None else NetworkEnvironment()
        )
        self.topology = topology
        self.sensors = list(sensors)
        self.sensor_grids = list(sensor_grids)
        self.containment = containment
        self.trace_recorder = trace_recorder

    def run(
        self,
        config: SimulationConfig,
        rng: np.random.Generator,
        seed_addrs: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Run one outbreak to the horizon or the stop fraction.

        ``seed_addrs`` overrides the random seed choice (must be
        population members).
        """
        from repro.sim.spec import SimulationSpec, simulate

        spec = SimulationSpec.from_config(
            config,
            worm=self.worm,
            population=self.population,
            environment=self.environment,
            topology=self.topology,
            sensors=tuple(self.sensors),
            sensor_grids=tuple(self.sensor_grids),
            containment=self.containment,
            trace_recorder=self.trace_recorder,
            seed_addrs=seed_addrs,
        )
        return simulate(spec, rng)


def run_reference(
    spec: "SimulationSpec", rng: np.random.Generator
) -> SimulationResult:
    """The reference oracle: one plain tick loop over a spec.

    :func:`repro.sim.spec.simulate` runs this under
    ``kernel_override(False)``.  It is deliberately the simplest
    correct composition of each tick — a per-host scan accumulator,
    boolean-mask gathers, ``environment.deliverable`` and a
    per-sensor loop — with no arena, no fused verdict, no fast path,
    no shards and no checkpoints.  The shard driver
    (:class:`repro.sim.shard.ShardedSimulator`) must reproduce it
    bitwise at every K; the equivalence suites hold it to that.
    """
    config = spec.config
    worm = spec.worm
    population = spec.population
    environment = spec.environment
    containment = spec.containment
    trace_recorder = spec.trace_recorder

    seed_addrs = spec.seed_addrs
    if seed_addrs is None:
        if config.seed_count > population.size:
            raise ValueError("more seeds than hosts")
        seed_addrs = rng.choice(
            population.addresses(), size=config.seed_count, replace=False
        )
    seed_addrs = np.asarray(seed_addrs, dtype=np.uint32)
    state = worm.new_state()
    infected_now = population.infect(seed_addrs)
    worm.add_hosts(state, infected_now, rng)

    # Per-host fractional-scan accumulator, grown geometrically so
    # each wave of new infections appends into spare capacity instead
    # of reallocating the whole array.
    accumulator_buffer = np.zeros(max(state.num_hosts, 1), dtype=float)
    per_tick_budget = config.scan_rate * config.tick_seconds
    times: list[float] = []
    infected_counts: list[int] = []
    infection_times: list[float] = [0.0] * len(infected_now)
    total_probes = 0
    delivered_probes = 0
    timer = stage_timer()
    for tick in range(spec.num_ticks):
        now = (tick + 1) * config.tick_seconds
        timer.start()

        # Per-host scan budget this tick (fractional rates carry
        # across ticks in the accumulator).
        if spec.topology is not None:
            rates = spec.topology.scan_rates(state.addresses())
            budget = rates * config.tick_seconds
        else:
            budget = per_tick_budget
        scan_accumulator = accumulator_buffer[: state.num_hosts]
        scan_accumulator += budget
        scans_per_host = np.floor(scan_accumulator).astype(np.int64)
        scan_accumulator -= scans_per_host
        max_scans = int(scans_per_host.max()) if state.num_hosts else 0

        if max_scans > 0:
            targets = worm.generate(state, max_scans, rng)
            column = np.arange(max_scans)
            active = column[None, :] < scans_per_host[:, None]
            sources = np.broadcast_to(
                state.addresses()[:, None], targets.shape
            )
            flat_targets = targets[active]
            flat_sources = sources[active]
            total_probes += len(flat_targets)
            timer.lap("generate")

            deliverable = environment.deliverable(
                flat_sources, flat_targets, rng, worm=worm.name
            )
            if containment is not None:
                deliverable = containment.filter_probes(
                    deliverable, now, rng
                )
            delivered_targets = flat_targets[deliverable]
            delivered_sources = flat_sources[deliverable]
            delivered_probes += len(delivered_targets)
            timer.lap("filter")

            for sensor in spec.sensors:
                sensor.observe(delivered_sources, delivered_targets)
            for grid in spec.sensor_grids:
                grid.observe(delivered_targets, now)
            if trace_recorder is not None:
                trace_recorder.record(
                    now,
                    delivered_sources,
                    delivered_targets,
                    worm=worm.name,
                )
            timer.lap("dispatch")

            fresh = population.vulnerable_hits(delivered_targets)
            if len(fresh):
                population.infect(fresh)
                worm.add_hosts(state, fresh, rng)
                if state.num_hosts > len(accumulator_buffer):
                    grown = np.zeros(
                        max(state.num_hosts, 2 * len(accumulator_buffer)),
                        dtype=float,
                    )
                    grown[: len(accumulator_buffer)] = accumulator_buffer
                    accumulator_buffer = grown
                infection_times.extend([now] * len(fresh))
        else:
            timer.lap("generate")

        if config.patch_rate > 0:
            vulnerable = population.vulnerable_addresses()
            patch_mask = (
                rng.random(len(vulnerable))
                < config.patch_rate * config.tick_seconds
            )
            population.immunize(vulnerable[patch_mask])

        if containment is not None:
            containment.update(now)

        times.append(now)
        infected_counts.append(population.num_infected)
        timer.lap("infect")
        timer.tick()
        if population.fraction_infected >= config.stop_at_fraction:
            break

    return SimulationResult(
        times=np.array(times),
        infected_counts=np.array(infected_counts, dtype=np.int64),
        infection_times=np.array(infection_times),
        population_size=population.size,
        total_probes=total_probes,
        delivered_probes=delivered_probes,
    )


def run_simulation_trial(
    simulator: EpidemicSimulator,
    config: SimulationConfig,
    seed: "int | np.random.SeedSequence",
    seed_addrs: Optional[np.ndarray] = None,
) -> SimulationResult:
    """Module-level (picklable) trial entry point.

    ``TrialRunner`` ships work to pool processes by pickling the
    callable and its arguments; a bound ``simulator.run`` with a live
    ``Generator`` is the wrong unit because generator state would have
    to survive the round-trip.  This function instead carries the
    simulator and *seed material*, building the generator on the
    worker — the same construction the serial path uses, so results
    are identical wherever the trial lands.
    """
    return simulator.run(
        config, np.random.default_rng(seed), seed_addrs=seed_addrs
    )
