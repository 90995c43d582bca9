"""Vectorized time-stepped epidemic simulator.

The simulation platform of the paper's Section 5, rebuilt: a worm
model supplies per-host targets in batches, the network environment
decides which probes are deliverable, darknet sensors and sensor
grids record what they see, and the host population tracks infections.

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

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.env.environment import NetworkEnvironment
from repro.env.topology import Topology
from repro.net.kernels import MergedPartition, kernels_enabled
from repro.net.special import ADDR_PUBLIC, class_partition
from repro.population.model import HostPopulation
from repro.runtime.perf import stage_timer
from repro.sensors.darknet import DarknetSensor
from repro.sensors.deployment import SensorGrid
from repro.sensors.index import SensorIndex
from repro.sim.arena import TickArena
from repro.sim.containment import QuorumTriggeredContainment
from repro.traces.record import TraceRecorder
from repro.worms.base import WormModel

if TYPE_CHECKING:
    from repro.runtime.checkpoint import Checkpointer


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


#: "Never built" sentinel for :class:`_FusedVerdict` (distinct from a
#: ``None`` policy kernel, which is a valid built state).
_UNBUILT = object()


class _FusedVerdict:
    """One merged-partition locate answering every per-target question.

    The tick loop's delivered-batch path asks three independent
    interval questions about the same targets — special-range class,
    policy membership, sensor ownership.  This glue fuses their tables
    into one :class:`repro.net.kernels.MergedPartition`, so a tick
    pays a single locate, then reads each answer with one gather.

    Invalidation is by identity: the policy's compiled kernel object
    changes whenever its rule list does (see
    :meth:`repro.env.filtering.FilteringPolicy.compiled_kernel`), the
    sensor index is fixed per run, and the special-range table is
    static — so ``refresh`` rebuilds exactly when the kernel object
    differs from the one the table was built for.
    """

    __slots__ = (
        "environment",
        "worm_name",
        "sensor_index",
        "_merged",
        "_kernel",
        "_built_for",
        "_policy_component",
        "_sensor_component",
        "_num_layers",
        "_det",
        "_host_policy_buf",
        "_host_policy_count",
    )

    def __init__(
        self,
        environment: NetworkEnvironment,
        worm_name: Optional[str],
        sensor_index: Optional[SensorIndex],
    ):
        self.environment = environment
        self.worm_name = worm_name
        self.sensor_index = sensor_index
        self._merged: Optional[MergedPartition] = None
        self._kernel = None
        self._built_for: object = _UNBUILT
        self._policy_component: Optional[int] = None
        self._sensor_component = 0
        self._num_layers = 0
        self._det: Optional[np.ndarray] = None
        self._host_policy_buf: Optional[np.ndarray] = None
        self._host_policy_count = 0

    @property
    def kernel(self):
        """The policy kernel the current table answers for (or None)."""
        return self._kernel

    def refresh(self) -> None:
        """Rebuild the merged table if any component changed."""
        kernel = self.environment.policy.compiled_kernel(self.worm_name)
        if kernel is self._built_for:
            return
        components = [class_partition()]
        self._policy_component = None
        if kernel is not None:
            self._policy_component = len(components)
            components.append(kernel.partition_component())
        self._sensor_component = len(components)
        self._num_layers = 0
        if self.sensor_index is not None:
            sensor_components = self.sensor_index.partition_components()
            components.extend(sensor_components)
            self._num_layers = len(sensor_components)
        self._merged = MergedPartition(components)
        self._kernel = kernel
        self._built_for = kernel
        self._host_policy_buf = None
        self._host_policy_count = 0
        # Every RNG-free layer is a pure function of the source's
        # policy region and the target's merged interval, so fold them
        # all into one verdict table when NAT permits: with no NATed
        # hosts under the strict model, the NAT layer reduces to
        # "target is not private", making routable & NAT & policy a
        # per-(source-region, interval) boolean.  A tick then resolves
        # the deterministic layers with ONE table gather and ANDs in
        # the loss draw; boolean AND commutes, so the mask is
        # bit-identical to the layer-by-layer composition.
        self._det = None
        nat = self.environment.nat
        if nat.num_hosts == 0 and nat.intra_private_model == "strict":
            target_ok = (
                np.asarray(self._merged.values(0)) == ADDR_PUBLIC
            )
            if kernel is not None:
                target_indices = self._merged.values(
                    self._policy_component
                )
                self._det = (
                    kernel.decision_table[:, target_indices]
                    & target_ok[None, :]
                )
            elif not self.environment.policy.rules:
                self._det = target_ok

    def host_policy_indices(
        self, addresses: np.ndarray
    ) -> Optional[np.ndarray]:
        """Per-host policy membership, cached across ticks.

        The infected-host address table only appends within a run, so
        each tick resolves membership for the new hosts alone; the
        buffer grows geometrically like every arena buffer.  ``None``
        when the policy has no compiled kernel.
        """
        kernel = self._kernel
        if kernel is None:
            return None
        count = len(addresses)
        buf = self._host_policy_buf
        if buf is None or len(buf) < count:
            grown = np.empty(
                max(count, 1) if buf is None else max(count, 2 * len(buf)),
                dtype=np.int64,
            )
            if buf is not None:
                grown[: self._host_policy_count] = buf[
                    : self._host_policy_count
                ]
            self._host_policy_buf = buf = grown
        if self._host_policy_count < count:
            buf[self._host_policy_count : count] = kernel.source_membership(
                addresses[self._host_policy_count : count]
            )
            self._host_policy_count = count
        return buf[:count]

    def deterministic(
        self,
        flat_sources: np.ndarray,
        flat_targets: np.ndarray,
        source_indices: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pre-loss deliverability mask plus the merged slot per probe.

        Resolves every RNG-free layer (routability, NAT, policy) —
        bit-identical to ``environment.deterministic_deliverable`` on
        the same batch.  The sharded engine calls this per shard while
        the driver keeps the loss draw global; the serial path gets
        the loss ANDed back in by :meth:`verdict`.
        """
        merged = self._merged
        slots = merged.locate(flat_targets)
        det = self._det
        if det is not None:
            if det.ndim == 2:
                if source_indices is None:
                    source_indices = self._kernel.source_membership(
                        flat_sources
                    )
                ok = det[source_indices, slots]
            else:
                ok = det[slots]
            return ok, slots
        target_class = merged.values(0)[slots]
        policy_ok = None
        if self._kernel is not None:
            if source_indices is None:
                source_indices = self._kernel.source_membership(flat_sources)
            target_indices = merged.values(self._policy_component)[slots]
            policy_ok = self._kernel.deliverable_from_indices(
                source_indices, target_indices
            )
        ok = self.environment.deterministic_deliverable(
            flat_sources,
            flat_targets,
            worm=self.worm_name,
            target_class=target_class,
            policy_ok=policy_ok,
        )
        return ok, slots

    def verdict(
        self,
        flat_sources: np.ndarray,
        flat_targets: np.ndarray,
        rng: np.random.Generator,
        source_indices: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deliverability mask plus the merged slot per probe.

        Bit-identical to ``environment.deliverable`` on the same batch
        (:meth:`deterministic` composes the RNG-free layers, then the
        loss draw is ANDed in last, so RNG consumption is unchanged);
        the returned slots feed :meth:`dispatch` so sensors reuse the
        same locate.
        """
        ok, slots = self.deterministic(
            flat_sources, flat_targets, source_indices
        )
        np.logical_and(
            ok,
            self.environment.loss.deliverable(flat_targets, rng),
            out=ok,
        )
        return ok, slots

    def dispatch(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        time: float,
        delivered_slots: np.ndarray,
    ) -> None:
        """Route a delivered batch to sensors via the shared locate."""
        if self.sensor_index is None:
            return
        owners = [
            self._merged.values(self._sensor_component + layer)[
                delivered_slots
            ]
            for layer in range(self._num_layers)
        ]
        self.sensor_index.dispatch_from_owner_slots(
            sources, targets, time, owners
        )


class EpidemicSimulator:
    """Drives one worm over one population through one environment."""

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
        # Delivered batches normally route through one shared
        # SensorIndex pass; the per-sensor loop survives behind this
        # flag (and `kernel_override(False)`) as the equivalence
        # reference and the benchmark baseline.
        self.use_sensor_index = True
        # The fused tick pipeline (arena buffers, merged verdict
        # partition, index-based gathering) and its uniform-rate fast
        # path.  Both are bit-equivalent to the reference loop, which
        # stays reachable via `kernel_override(False)` or these flags;
        # the equivalence suite exercises every combination.
        self.use_fused_tick = True
        self.use_uniform_fast_path = True
        #: The scratch arena of the most recent fused run (None after
        #: a reference run); exposed for allocation accounting.
        self.last_arena: Optional[TickArena] = None

    def run(
        self,
        config: SimulationConfig,
        rng: np.random.Generator,
        seed_addrs: Optional[np.ndarray] = None,
        checkpointer: Optional["Checkpointer"] = None,
        resume: Optional[dict] = None,
    ) -> SimulationResult:
        """Run one outbreak to the horizon or the stop fraction.

        ``seed_addrs`` overrides the random seed choice (must be
        population members).  ``checkpointer`` persists the full run
        state at its tick cadence; ``resume`` is a validated payload
        from :func:`repro.runtime.checkpoint.load_checkpoint` — the
        run restores every piece of mutable state (including the
        generator's bit-generator state, which already accounts for
        the seed draw) and continues from the next tick, bitwise-
        identical to a run that was never interrupted.
        """
        population = self.population
        if resume is not None:
            # Deep-copied so the resume payload stays reusable.
            state = copy.deepcopy(resume["worm_state"])
            infected_now = np.empty(0, dtype=np.uint32)
        else:
            if seed_addrs is None:
                if config.seed_count > population.size:
                    raise ValueError("more seeds than hosts")
                seed_addrs = rng.choice(
                    population.addresses(),
                    size=config.seed_count,
                    replace=False,
                )
            seed_addrs = np.asarray(seed_addrs, dtype=np.uint32)

            state = self.worm.new_state()
            infected_now = population.infect(seed_addrs)
            self.worm.add_hosts(state, infected_now, rng)

        sensor_index = None
        if (
            self.use_sensor_index
            and kernels_enabled()
            and (self.sensors or self.sensor_grids)
        ):
            sensor_index = SensorIndex(self.sensors, self.sensor_grids)

        fused = self.use_fused_tick and kernels_enabled()
        arena = TickArena() if fused else None
        self.last_arena = arena
        verdict_path = (
            _FusedVerdict(self.environment, self.worm.name, sensor_index)
            if fused
            else None
        )
        # Uniform-rate fast path legality: with no topology and an
        # integral per-tick budget (one exact IEEE multiply — the same
        # product the accumulator path adds), the accumulator provably
        # stays 0.0 and every host emits exactly `uniform_scans`
        # probes, so the accumulator math, the all-True active mask,
        # and the source broadcast drop out bit-identically.
        per_tick_budget = config.scan_rate * config.tick_seconds
        uniform_fast = (
            fused
            and self.use_uniform_fast_path
            and self.topology is None
            and float(per_tick_budget).is_integer()
        )
        uniform_scans = int(per_tick_budget) if uniform_fast else 0

        if not fused:
            # Per-host fractional-scan accumulator, grown geometrically
            # so each wave of new infections appends into spare
            # capacity instead of reallocating the whole array (the
            # fused path keeps this carry in the arena instead).
            accumulator_buffer = np.zeros(
                max(state.num_hosts, 1), dtype=float
            )
        times: list[float] = []
        infected_counts: list[int] = []
        infection_times: list[float] = [0.0] * len(infected_now)
        total_probes = 0
        delivered_probes = 0
        start_tick = 0
        if resume is not None:
            rng.bit_generator.state = resume["rng_state"]
            population.state_restore(resume["population"])
            for sensor, snapshot in zip(self.sensors, resume["sensors"]):
                sensor.state_restore(snapshot)
            for grid, snapshot in zip(self.sensor_grids, resume["grids"]):
                grid.state_restore(snapshot)
            if (
                self.containment is not None
                and resume["containment"] is not None
            ):
                self.containment.state_restore(resume["containment"])
            if (
                self.trace_recorder is not None
                and resume["trace"] is not None
            ):
                self.trace_recorder.state_restore(resume["trace"])
            # A None carry means the writing run proved the
            # accumulator stays 0.0 (uniform fast path), so the
            # zero-initialized buffer above is already exact.
            carry = resume["accumulator"]
            if carry is not None:
                carry = np.asarray(carry, dtype=float)
                if fused:
                    arena.accumulator(len(carry))[:] = carry
                else:
                    accumulator_buffer[: len(carry)] = carry
            times = list(resume["times"])
            infected_counts = list(resume["infected_counts"])
            infection_times = list(resume["infection_times"])
            total_probes = int(resume["total_probes"])
            delivered_probes = int(resume["delivered_probes"])
            start_tick = int(resume["tick"]) + 1
        timer = stage_timer()

        num_ticks = int(np.ceil(config.max_time / config.tick_seconds))
        for tick in range(start_tick, num_ticks):
            now = (tick + 1) * config.tick_seconds
            timer.start()

            if uniform_fast:
                max_scans = uniform_scans if state.num_hosts else 0
            else:
                # Per-host scan budget this tick (fractional rates
                # carry across ticks in the accumulator).
                if self.topology is not None:
                    rates = self.topology.scan_rates(state.addresses())
                    budget = rates * config.tick_seconds
                else:
                    # A constant rate accumulates as a scalar; the
                    # per-tick np.full this replaces was bit-identical
                    # overhead (same IEEE product, broadcast add).
                    budget = per_tick_budget
                if fused:
                    scan_accumulator = arena.accumulator(state.num_hosts)
                else:
                    scan_accumulator = accumulator_buffer[: state.num_hosts]
                scan_accumulator += budget
                scans_per_host = np.floor(scan_accumulator).astype(np.int64)
                scan_accumulator -= scans_per_host
                max_scans = (
                    int(scans_per_host.max()) if state.num_hosts else 0
                )

            if max_scans > 0:
                targets = self.worm.generate(state, max_scans, rng)
                if uniform_fast:
                    # Every host scans exactly max_scans times: the
                    # active mask is all-True, so row-major flattening
                    # is the identity traversal the reference's
                    # `targets[active]` performs.
                    flat_targets = targets.ravel()
                    flat_sources = arena.repeated(
                        "uniform_sources", state.addresses(), max_scans
                    )
                elif fused:
                    active = arena.request(
                        "active", state.num_hosts * max_scans, np.bool_
                    ).reshape(state.num_hosts, max_scans)
                    np.less(
                        np.arange(max_scans)[None, :],
                        scans_per_host[:, None],
                        out=active,
                    )
                    probe_index = np.flatnonzero(active.ravel())
                    flat_targets = np.take(
                        targets,
                        probe_index,
                        out=arena.request(
                            "flat_targets", len(probe_index), targets.dtype
                        ),
                    )
                    source_rows = np.floor_divide(
                        probe_index,
                        max_scans,
                        out=arena.request(
                            "source_rows",
                            len(probe_index),
                            probe_index.dtype,
                        ),
                    )
                    flat_sources = np.take(
                        state.addresses(),
                        source_rows,
                        out=arena.request(
                            "flat_sources", len(probe_index), np.uint32
                        ),
                    )
                else:
                    column = np.arange(max_scans)
                    active = column[None, :] < scans_per_host[:, None]
                    sources = np.broadcast_to(
                        state.addresses()[:, None], targets.shape
                    )
                    flat_targets = targets[active]
                    flat_sources = sources[active]
                total_probes += len(flat_targets)
                timer.lap("generate")

                if verdict_path is not None:
                    verdict_path.refresh()
                    host_policy = verdict_path.host_policy_indices(
                        state.addresses()
                    )
                    source_indices = None
                    if host_policy is not None:
                        if uniform_fast:
                            source_indices = arena.repeated(
                                "uniform_source_policy",
                                host_policy,
                                max_scans,
                                token=verdict_path.kernel,
                            )
                        else:
                            source_indices = np.take(
                                host_policy,
                                source_rows,
                                out=arena.request(
                                    "flat_source_policy",
                                    len(source_rows),
                                    np.int64,
                                ),
                            )
                    deliverable, slots = verdict_path.verdict(
                        flat_sources, flat_targets, rng, source_indices
                    )
                else:
                    deliverable = self.environment.deliverable(
                        flat_sources, flat_targets, rng, worm=self.worm.name
                    )
                if self.containment is not None:
                    deliverable = self.containment.filter_probes(
                        deliverable, now, rng
                    )
                if fused:
                    delivered_index = np.flatnonzero(deliverable)
                    delivered_targets = np.take(
                        flat_targets,
                        delivered_index,
                        out=arena.request(
                            "delivered_targets",
                            len(delivered_index),
                            flat_targets.dtype,
                        ),
                    )
                    delivered_sources = np.take(
                        flat_sources,
                        delivered_index,
                        out=arena.request(
                            "delivered_sources",
                            len(delivered_index),
                            flat_sources.dtype,
                        ),
                    )
                else:
                    delivered_targets = flat_targets[deliverable]
                    delivered_sources = flat_sources[deliverable]
                delivered_probes += len(delivered_targets)
                timer.lap("filter")

                if verdict_path is not None and sensor_index is not None:
                    delivered_slots = np.take(
                        slots,
                        delivered_index,
                        out=arena.request(
                            "delivered_slots",
                            len(delivered_index),
                            slots.dtype,
                        ),
                    )
                    verdict_path.dispatch(
                        delivered_sources,
                        delivered_targets,
                        now,
                        delivered_slots,
                    )
                elif sensor_index is not None:
                    sensor_index.dispatch(
                        delivered_sources, delivered_targets, now
                    )
                else:
                    for sensor in self.sensors:
                        sensor.observe(delivered_sources, delivered_targets)
                    for grid in self.sensor_grids:
                        grid.observe(delivered_targets, now)
                if self.trace_recorder is not None:
                    self.trace_recorder.record(
                        now,
                        delivered_sources,
                        delivered_targets,
                        worm=self.worm.name,
                    )
                timer.lap("dispatch")

                fresh = population.vulnerable_hits(delivered_targets)
                if len(fresh):
                    population.infect(fresh)
                    self.worm.add_hosts(state, fresh, rng)
                    if not fused and state.num_hosts > len(
                        accumulator_buffer
                    ):
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

            if self.containment is not None:
                self.containment.update(now)

            times.append(now)
            infected_counts.append(population.num_infected)
            timer.lap("infect")
            timer.tick()
            if population.fraction_infected >= config.stop_at_fraction:
                break
            if checkpointer is not None and checkpointer.due(tick):
                if uniform_fast:
                    carry = None
                elif fused:
                    carry = arena.accumulator(state.num_hosts).copy()
                else:
                    carry = accumulator_buffer[: state.num_hosts].copy()
                checkpointer.write(
                    tick,
                    {
                        "rng_state": rng.bit_generator.state,
                        "worm_state": state,
                        "population": population.state_snapshot(),
                        "sensors": [
                            sensor.state_snapshot()
                            for sensor in self.sensors
                        ],
                        "grids": [
                            grid.state_snapshot()
                            for grid in self.sensor_grids
                        ],
                        "containment": (
                            self.containment.state_snapshot()
                            if self.containment is not None
                            else None
                        ),
                        "trace": (
                            self.trace_recorder.state_snapshot()
                            if self.trace_recorder is not None
                            else None
                        ),
                        "accumulator": carry,
                        "times": list(times),
                        "infected_counts": list(infected_counts),
                        "infection_times": list(infection_times),
                        "total_probes": total_probes,
                        "delivered_probes": delivered_probes,
                    },
                )

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
