"""The tick loop: one outbreak over K address-space shards.

``ShardedSimulator`` is the one tick loop of every kernel-enabled run
(:func:`repro.sim.spec.simulate`).  It partitions the address space
``[0, 2^32)`` into ``K`` contiguous intervals (:class:`ShardPlan`) and
gives each shard a :class:`ShardEngine`: a
:class:`~repro.population.model.HostPopulation` slice, a shard-clipped
:class:`~repro.sensors.index.SensorIndex`, a per-shard merged verdict
partition, and a private :class:`~repro.sim.arena.TickArena`.

An unsharded spec (``shards=None``) runs as ``ShardPlan.even(1)``, and
K=1 costs nothing over a dedicated serial loop: the single engine
works on the spec's population itself (one status table, so each tick
infects and immunizes once), and the exchange is the identity (the
batch is its own single slice — no route, no permute).  The separate,
deliberately plain loop is the reference oracle
(:func:`repro.sim.engine.run_reference`, run under
``kernel_override(False)``), which every K must reproduce bitwise.

**Determinism policy (the exchange contract).**  Every RNG-consuming
stage runs in the driver, in exactly the oracle's order; every
deterministic per-target stage runs in the owning shard.

* the driver generates probes for the global infected-host table
  (``worm.generate`` under the single run RNG), draws the loss mask
  over the full flat batch in batch order, applies containment and
  patching draws, and feeds merged infection batches back to
  ``worm.add_hosts`` — the exact RNG call sequence of the oracle;
* the *exchange step* routes each probe to the shard owning its
  target (a stable counting partition over the shard intervals), so
  per-shard batches preserve original batch order;
* each shard resolves the deterministic verdict layers (routability,
  NAT, policy) through its own merged partition, dispatches delivered
  probes to its clipped sensors, and matches them against its
  population slice;
* per-shard ``vulnerable_hits`` results are sorted-unique within the
  shard's interval, and shards are ordered by interval, so
  concatenating them in stable shard order *is* the global
  sorted-unique infection batch the oracle computes.

Each tick laps the four stages of :data:`repro.runtime.perf.STAGES`
whatever K is: ``generate``; ``filter`` (loss draw, routing, per-shard
verdict, containment mask); ``dispatch`` (per-shard sensor dispatch,
tracing); ``infect`` (hits, merge, patching, containment update).

Shards run serially in-process, in shard order.  The parallel axis
that pays on the paper's workloads is the trial level
(:class:`~repro.runtime.runner.TrialRunner`): target generation
dominates an outbreak and stays in the driver by the contract above.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.env.environment import NetworkEnvironment
from repro.env.filtering import FilteringPolicy
from repro.net.kernels import MergedPartition
from repro.net.special import ADDR_PUBLIC, class_partition
from repro.population.model import HostPopulation, HostStatus
from repro.runtime.perf import stage_timer
from repro.sensors.index import SensorIndex
from repro.sim.arena import TickArena
from repro.sim.engine import SimulationResult

if TYPE_CHECKING:
    from repro.runtime.checkpoint import Checkpointer
    from repro.sim.spec import SimulationSpec

#: End of the IPv4 address space (exclusive upper bound of any shard).
ADDRESS_SPACE_END = 1 << 32

#: Shard boundaries must be /24-aligned so no grid sensor (/24) and no
#: darknet /24 bin ever straddles two shards — the invariant that lets
#: per-shard sensor state merge exactly.
BOUNDARY_ALIGN = 256


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the address space into contiguous shards.

    ``boundaries`` holds each shard's first address; shard ``i`` owns
    ``[boundaries[i], boundaries[i+1])`` (the last shard runs to the
    end of the space).  The first boundary must be 0 and every
    boundary must be /24-aligned (multiple of 256) and strictly
    increasing.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.boundaries:
            raise ValueError("ShardPlan.boundaries: need at least one shard")
        if self.boundaries[0] != 0:
            raise ValueError(
                "ShardPlan.boundaries: the first shard must start at 0, "
                f"got {self.boundaries[0]:#x}"
            )
        for index, boundary in enumerate(self.boundaries):
            if not 0 <= boundary < ADDRESS_SPACE_END:
                raise ValueError(
                    f"ShardPlan.boundaries[{index}]: {boundary:#x} is "
                    "outside the address space"
                )
            if boundary % BOUNDARY_ALIGN:
                raise ValueError(
                    f"ShardPlan.boundaries[{index}]: {boundary:#x} is not "
                    "/24-aligned (multiple of 256) — required so no /24 "
                    "sensor straddles two shards"
                )
        if any(
            later <= earlier
            for earlier, later in zip(self.boundaries, self.boundaries[1:])
        ):
            raise ValueError(
                "ShardPlan.boundaries: must be strictly increasing"
            )

    @classmethod
    def even(cls, num_shards: int) -> "ShardPlan":
        """``num_shards`` near-equal intervals (aligned down to /24s)."""
        if num_shards < 1:
            raise ValueError(
                f"ShardPlan: num_shards must be at least 1, got {num_shards}"
            )
        if num_shards > ADDRESS_SPACE_END // BOUNDARY_ALIGN:
            raise ValueError(
                f"ShardPlan: num_shards {num_shards} exceeds the /24 count"
            )
        boundaries = tuple(
            (index * ADDRESS_SPACE_END // num_shards) & ~(BOUNDARY_ALIGN - 1)
            for index in range(num_shards)
        )
        return cls(boundaries=boundaries)

    @property
    def num_shards(self) -> int:
        """How many shards the plan defines."""
        return len(self.boundaries)

    def interval(self, shard_id: int) -> tuple[int, int]:
        """Shard's ``[lo, hi)`` address interval (``hi`` may be 2^32)."""
        lo = self.boundaries[shard_id]
        hi = (
            self.boundaries[shard_id + 1]
            if shard_id + 1 < len(self.boundaries)
            else ADDRESS_SPACE_END
        )
        return lo, hi

    def owner_of(self, addrs: np.ndarray) -> np.ndarray:
        """Owning shard id per address (the exchange lookup).

        ``searchsorted(side="right") - 1`` over the boundary table: an
        address exactly on a boundary belongs to the shard *starting*
        there.
        """
        starts = np.asarray(self.boundaries, dtype=np.uint32)
        return (
            np.searchsorted(
                starts, np.asarray(addrs, dtype=np.uint32), side="right"
            )
            - 1
        )



#: "Never built" sentinel for :class:`_FusedVerdict` (distinct from a
#: ``None`` policy kernel, which is a valid built state).
_UNBUILT = object()


class _FusedVerdict:
    """One merged-partition locate answering every per-target question.

    A shard's delivered-batch path asks three independent interval
    questions about the same targets — special-range class, policy
    membership, sensor ownership.  This glue fuses their tables into
    one :class:`repro.net.kernels.MergedPartition`, so a shard-tick
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
        # Every RNG-free layer is a pure function of the source's
        # policy region and the target's merged interval, so fold them
        # all into one verdict table when NAT permits: with no NATed
        # hosts under the strict model, the NAT layer reduces to
        # "target is not private", making routable & NAT & policy a
        # per-(source-region, interval) boolean.  A tick then resolves
        # the deterministic layers with ONE table gather and the
        # driver ANDs in the loss draw; boolean AND commutes, so the
        # mask is bit-identical to the layer-by-layer composition.
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

    def deterministic(
        self,
        flat_sources: np.ndarray,
        flat_targets: np.ndarray,
        source_indices: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pre-loss deliverability mask plus the merged slot per probe.

        Resolves every RNG-free layer (routability, NAT, policy) —
        bit-identical to ``environment.deterministic_deliverable`` on
        the same batch.  The driver keeps the loss draw global and
        ANDs it in afterwards.
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


class _SourcePolicy:
    """Per-host policy membership of the infected-host table.

    The driver's host-policy cache: keyed only on the compiled
    kernel's identity (a rule edit yields a new kernel and resets the
    cache).  The infected-host address table only appends within a
    run, so each tick resolves membership for the new hosts alone;
    the buffer grows geometrically like every arena buffer.
    """

    __slots__ = ("policy", "worm_name", "kernel", "_buf", "_count")

    def __init__(self, policy: FilteringPolicy, worm_name: Optional[str]):
        self.policy = policy
        self.worm_name = worm_name
        self.kernel = None
        self._buf: Optional[np.ndarray] = None
        self._count = 0

    def indices(self, addresses: np.ndarray) -> Optional[np.ndarray]:
        """Membership per host, or ``None`` with no compiled kernel."""
        kernel = self.policy.compiled_kernel(self.worm_name)
        if kernel is not self.kernel:
            self.kernel = kernel
            self._count = 0
        if kernel is None:
            return None
        count = len(addresses)
        buf = self._buf
        if buf is None or len(buf) < count:
            grown = np.empty(
                max(count, 1) if buf is None else max(count, 2 * len(buf)),
                dtype=np.int64,
            )
            if buf is not None:
                grown[: self._count] = buf[: self._count]
            self._buf = buf = grown
        if self._count < count:
            buf[self._count : count] = kernel.source_membership(
                addresses[self._count : count]
            )
            self._count = count
        return buf[:count]


class ShardEngine:
    """One shard's state: population slice, sensors, verdict tables.

    Constructed *from the spec*; the sensor objects are the caller's
    own, and shards ingest disjoint probe streams into them.  At K=1
    the engine works on the spec's population itself; at K>1 it holds
    a slice of it.

    Construction is memory-slim on purpose — the 10^6-host regime is
    the whole point of sharding.  The population slice is found with
    two ``searchsorted`` calls on the (sorted) global address table
    and shared as a *view* — no uint64 widening, no ownership mask,
    no copy; and the sensor index / fused-verdict tables are built
    lazily on the shard's first batch, so K engines never hold more
    than their population views until probes actually arrive.
    """

    def __init__(self, spec: "SimulationSpec", plan: ShardPlan, shard_id: int):
        self.shard_id = shard_id
        self.lo, self.hi = plan.interval(shard_id)
        if plan.num_shards == 1:
            self.population = spec.population
            self._span = slice(None)
        else:
            addrs = spec.population.addresses()
            lo_index = int(np.searchsorted(addrs, np.uint32(self.lo)))
            hi_index = (
                len(addrs)
                if self.hi >= ADDRESS_SPACE_END
                else int(np.searchsorted(addrs, np.uint32(self.hi)))
            )
            self._span = slice(lo_index, hi_index)
            # The slice of a sorted-unique table is sorted-unique, and
            # the table is never mutated, so the population can alias
            # it.
            self.population = HostPopulation(
                addrs[self._span], presorted_unique=True
            )
        self.sensors = list(spec.sensors)
        self.grids = list(spec.sensor_grids)
        self._environment = spec.environment
        self._worm_name = spec.worm.name
        self._sensor_index: Optional[SensorIndex] = None
        self._sensor_index_built = False
        self._verdict: Optional[_FusedVerdict] = None
        self.arena = TickArena()

    @property
    def sensor_index(self) -> Optional[SensorIndex]:
        """The shard-clipped sensor index, built on first use."""
        if not self._sensor_index_built:
            self._sensor_index_built = True
            if self.sensors or self.grids:
                # A shard owning the whole space (K=1) needs no clip.
                whole = self.lo == 0 and self.hi == ADDRESS_SPACE_END
                index = SensorIndex(
                    self.sensors,
                    self.grids,
                    within=None if whole else (self.lo, self.hi),
                )
                if index.num_intervals:
                    self._sensor_index = index
        return self._sensor_index

    @property
    def verdict(self) -> _FusedVerdict:
        """The shard's fused verdict tables, built on first use."""
        if self._verdict is None:
            self._verdict = _FusedVerdict(
                self._environment, self._worm_name, self.sensor_index
            )
        return self._verdict

    def deterministic(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        source_indices: Optional[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pre-loss verdict + merged slots for this shard's batch."""
        self.verdict.refresh()
        return self.verdict.deterministic(sources, targets, source_indices)

    def dispatch(
        self,
        now: float,
        sources: np.ndarray,
        targets: np.ndarray,
        slots: np.ndarray,
        deliverable: np.ndarray,
    ) -> np.ndarray:
        """Feed the delivered survivors to this shard's sensors.

        ``deliverable`` is the final per-probe mask (deterministic
        layers ∧ loss ∧ containment, composed by the driver).  Returns
        the delivered targets, an arena loan valid for this tick.
        """
        arena = self.arena
        delivered_index = np.flatnonzero(deliverable)
        delivered_targets = np.take(
            targets,
            delivered_index,
            out=arena.request(
                "delivered_targets", len(delivered_index), targets.dtype
            ),
        )
        if self.sensor_index is not None:
            delivered_sources = np.take(
                sources,
                delivered_index,
                out=arena.request(
                    "delivered_sources", len(delivered_index), sources.dtype
                ),
            )
            delivered_slots = np.take(
                slots,
                delivered_index,
                out=arena.request(
                    "delivered_slots", len(delivered_index), slots.dtype
                ),
            )
            self.verdict.dispatch(
                delivered_sources, delivered_targets, now, delivered_slots
            )
        return delivered_targets

    def infect(self, delivered_targets: np.ndarray) -> np.ndarray:
        """Infect the vulnerable hosts hit; returns them sorted-unique."""
        fresh = self.population.vulnerable_hits(delivered_targets)
        if len(fresh):
            self.population.infect(fresh)
        return fresh

    def state_restore(self, population_snapshot: dict) -> None:
        """Load this shard's slice of a global population snapshot."""
        status = np.asarray(population_snapshot["status"])[self._span]
        self.population.state_restore(
            {
                "status": status,
                "num_infected": int(
                    np.count_nonzero(status == HostStatus.INFECTED)
                ),
                "num_immune": int(
                    np.count_nonzero(status == HostStatus.IMMUNE)
                ),
            }
        )


#: Above this shard count the O(K·n) counting partition loses to the
#: O(n log n) stable argsort it replaces, so ``route`` falls back.
_COUNTING_PARTITION_MAX_SHARDS = 64


class _Exchange:
    """The per-tick probe router: stable owner partition of a batch.

    Routing is a counting-sort partition, not a full-batch stable
    ``argsort``: shards own contiguous address intervals, so one
    wraparound-subtract range test per shard plus a ``flatnonzero``
    (whose ascending indices are exactly the bucket's probes in
    original batch order) yields the *identical* stable permutation in
    O(K·n) with trivial constants.  Scratch buffers and permuted
    outputs live in a private :class:`TickArena`, so steady-state
    routing allocates only the per-bucket index arrays.

    With one shard the exchange is the identity: ``route`` does
    nothing, ``split`` hands the batch back as its own single slice,
    and ``join`` returns the one part.
    """

    __slots__ = ("plan", "identity", "arena", "order", "offsets")

    def __init__(self, plan: ShardPlan):
        self.plan = plan
        self.identity = plan.num_shards == 1
        self.arena = TickArena()
        self.order: Optional[np.ndarray] = None
        self.offsets: Optional[np.ndarray] = None

    def route(self, targets: np.ndarray) -> None:
        """Compute the stable owner ordering for one flat batch."""
        if self.identity:
            return
        num_shards = self.plan.num_shards
        count = len(targets)
        order = self.arena.request("order", count, np.intp)
        offsets = np.empty(num_shards + 1, dtype=np.int64)
        offsets[0] = 0
        if num_shards > _COUNTING_PARTITION_MAX_SHARDS:
            owner = self.plan.owner_of(targets)
            # Stable sort keeps each shard's probes in original batch
            # order — the same guarantee the counting partition gives.
            order[:] = np.argsort(owner, kind="stable")
            counts = np.bincount(owner, minlength=num_shards)
            np.cumsum(counts, out=offsets[1:])
        else:
            mask = self.arena.request("mask", count, np.bool_)
            shifted = self.arena.request("shifted", count, np.uint32)
            position = 0
            for shard_id in range(num_shards):
                lo, hi = self.plan.interval(shard_id)
                # uint32 wraparound makes (t - lo) < (hi - lo) exactly
                # "lo <= t < hi" without widening; works for the last
                # shard too since hi - lo < 2^32 whenever lo > 0.
                if lo == 0:
                    np.less(targets, np.uint32(hi), out=mask)
                else:
                    np.subtract(targets, np.uint32(lo), out=shifted)
                    np.less(shifted, np.uint32(hi - lo), out=mask)
                bucket = np.flatnonzero(mask)
                end = position + len(bucket)
                order[position:end] = bucket
                offsets[shard_id + 1] = end
                position = end
        self.order = order
        self.offsets = offsets

    def split(
        self, values: Optional[np.ndarray], name: str
    ) -> list[Optional[np.ndarray]]:
        """Per-shard slices of a batch array, in shard order.

        Slices of a routed batch are views of an arena loan: valid
        until the next tick splits the same ``name`` (consumers either
        finish within the tick or copy before the next one).
        """
        if values is None:
            return [None] * self.plan.num_shards
        if self.identity:
            return [values]
        assert self.order is not None and self.offsets is not None
        permuted = self.arena.request(name, len(values), values.dtype)
        np.take(values, self.order, out=permuted)
        return [
            permuted[self.offsets[k] : self.offsets[k + 1]]
            for k in range(self.plan.num_shards)
        ]

    def join(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-shard arrays into original batch order."""
        if self.identity:
            return parts[0]
        assert self.order is not None
        permuted = np.concatenate(parts)
        out = np.empty_like(permuted)
        out[self.order] = permuted
        return out


class ShardedSimulator:
    """The tick loop: drives one outbreak across K address-space shards.

    Parameters
    ----------
    spec:
        The :class:`~repro.sim.spec.SimulationSpec`.  ``shards=None``
        runs as one /0 shard.  With K>1 the population must be
        pristine, because shard slices start from the bare address
        table.
    checkpointer:
        Optional :class:`~repro.runtime.checkpoint.Checkpointer`; the
        driver snapshots the full run state at its cadence.
    resume:
        Optional validated payload from
        :func:`~repro.runtime.checkpoint.load_checkpoint`; the run
        restores it and continues from the next tick, bitwise-
        identical to a run that was never interrupted.
    """

    def __init__(
        self,
        spec: "SimulationSpec",
        checkpointer: Optional["Checkpointer"] = None,
        resume: Optional[dict] = None,
    ):
        plan = spec.shard_plan
        if plan is None:
            plan = ShardPlan.even(1)
        if plan.num_shards > 1 and (
            spec.population.num_infected or spec.population.num_immune
        ):
            raise ValueError(
                "SimulationSpec.population: sharded runs need a pristine "
                "population (no prior infections or immunizations) — "
                "shard slices start from the bare address table"
            )
        self.spec = spec
        self.plan = plan
        self.checkpointer = checkpointer
        self.resume = resume
        self._arenas: list[TickArena] = []

    @property
    def allocations(self) -> int:
        """Backing-array allocations across every arena of the last run."""
        return sum(arena.allocations for arena in self._arenas)

    def run(self, rng: np.random.Generator) -> SimulationResult:
        """Run the outbreak (bitwise ≡ the reference oracle)."""
        spec = self.spec
        config = spec.config
        worm = spec.worm
        population = spec.population  # global source of truth
        environment = spec.environment
        containment = spec.containment
        trace_recorder = spec.trace_recorder
        plan = self.plan
        single = plan.num_shards == 1

        engines = [
            ShardEngine(spec, plan, shard_id)
            for shard_id in range(plan.num_shards)
        ]
        exchange = _Exchange(plan)
        arena = TickArena()
        self._arenas = [arena, exchange.arena] + [
            engine.arena for engine in engines
        ]
        source_policy = _SourcePolicy(environment.policy, worm.name)
        loss = environment.loss
        loss_active = loss.is_active
        needs_global_mask = (
            containment is not None or trace_recorder is not None
        )

        per_tick_budget = config.scan_rate * config.tick_seconds
        # Uniform-rate fast path legality: with no topology and an
        # integral per-tick budget (one exact IEEE multiply — the same
        # product the accumulator path adds), the accumulator provably
        # stays 0.0 and every host emits exactly `uniform_scans`
        # probes, so the accumulator math, the active mask, and the
        # source gather drop out bit-identically.
        uniform_fast = spec.topology is None and float(
            per_tick_budget
        ).is_integer()
        uniform_scans = int(per_tick_budget) if uniform_fast else 0

        times: list[float] = []
        infected_counts: list[int] = []
        infection_times: list[float] = []
        total_probes = 0
        delivered_probes = 0
        start_tick = 0
        resume = self.resume
        if resume is None:
            seed_addrs = spec.seed_addrs
            if seed_addrs is None:
                if config.seed_count > population.size:
                    raise ValueError("more seeds than hosts")
                seed_addrs = rng.choice(
                    population.addresses(),
                    size=config.seed_count,
                    replace=False,
                )
            seed_addrs = np.asarray(seed_addrs, dtype=np.uint32)
            state = worm.new_state()
            infected_now = population.infect(seed_addrs)
            worm.add_hosts(state, infected_now, rng)
            infection_times = [0.0] * len(infected_now)
            if not single:
                seed_owner = plan.owner_of(infected_now)
                for shard_id, engine in enumerate(engines):
                    engine.population.infect(
                        infected_now[seed_owner == shard_id]
                    )
        else:
            # The restored bit-generator state already accounts for
            # the seed draw; the restored population already carries
            # the seed infections.  Deep-copied so the resume payload
            # stays reusable.
            state = copy.deepcopy(resume["worm_state"])
            rng.bit_generator.state = resume["rng_state"]
            population.state_restore(resume["population"])
            if not single:
                for engine in engines:
                    engine.state_restore(resume["population"])
            for sensor, snapshot in zip(spec.sensors, resume["sensors"]):
                sensor.state_restore(snapshot)
            for grid, snapshot in zip(spec.sensor_grids, resume["grids"]):
                grid.state_restore(snapshot)
            if containment is not None and resume["containment"] is not None:
                containment.state_restore(resume["containment"])
            if trace_recorder is not None and resume["trace"] is not None:
                trace_recorder.state_restore(resume["trace"])
            # A None carry means the writing run proved the
            # accumulator stays 0.0 (uniform fast path), so the
            # arena's zero-filled growth is already exact.
            carry = resume["accumulator"]
            if carry is not None:
                carry = np.asarray(carry, dtype=float)
                arena.accumulator(len(carry))[:] = carry
            times = list(resume["times"])
            infected_counts = list(resume["infected_counts"])
            infection_times = list(resume["infection_times"])
            total_probes = int(resume["total_probes"])
            delivered_probes = int(resume["delivered_probes"])
            start_tick = int(resume["tick"]) + 1

        checkpointer = self.checkpointer
        timer = stage_timer()
        for tick in range(start_tick, spec.num_ticks):
            now = (tick + 1) * config.tick_seconds
            timer.start()

            if uniform_fast:
                max_scans = uniform_scans if state.num_hosts else 0
            else:
                # Per-host scan budget this tick (fractional rates
                # carry across ticks in the accumulator).
                if spec.topology is not None:
                    rates = spec.topology.scan_rates(state.addresses())
                    budget = rates * config.tick_seconds
                else:
                    budget = per_tick_budget
                scan_accumulator = arena.accumulator(state.num_hosts)
                scan_accumulator += budget
                scans_per_host = np.floor(scan_accumulator).astype(np.int64)
                scan_accumulator -= scans_per_host
                max_scans = (
                    int(scans_per_host.max()) if state.num_hosts else 0
                )

            if max_scans > 0:
                targets = worm.generate(state, max_scans, rng)
                if uniform_fast:
                    # Every host scans exactly max_scans times, so
                    # row-major flattening is the identity traversal
                    # the oracle's `targets[active]` performs.
                    flat_targets = targets.ravel()
                    flat_sources = arena.repeated(
                        "uniform_sources", state.addresses(), max_scans
                    )
                else:
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
                total_probes += len(flat_targets)
                timer.lap("generate")

                # RNG-consuming stage: the loss draw over the full
                # flat batch, in batch order — exactly the oracle's
                # consumption (an inactive loss model draws nothing).
                loss_ok = (
                    loss.deliverable(flat_targets, rng)
                    if loss_active
                    else None
                )
                host_policy = source_policy.indices(state.addresses())
                source_indices = None
                if host_policy is not None:
                    if uniform_fast:
                        source_indices = arena.repeated(
                            "uniform_source_policy",
                            host_policy,
                            max_scans,
                            token=source_policy.kernel,
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

                # The exchange: route every probe to the shard owning
                # its target, preserving batch order per shard.
                exchange.route(flat_targets)
                shard_targets = exchange.split(flat_targets, "targets")
                shard_sources = exchange.split(flat_sources, "sources")
                shard_policy = exchange.split(source_indices, "policy")
                verdicts = [
                    engine.deterministic(
                        shard_sources[shard_id],
                        shard_targets[shard_id],
                        shard_policy[shard_id],
                    )
                    for shard_id, engine in enumerate(engines)
                ]
                if needs_global_mask:
                    # Containment / tracing need the whole batch's
                    # mask in original order: compose globally, then
                    # hand each shard its final delivered mask.
                    ok = exchange.join([det for det, _ in verdicts])
                    if loss_ok is not None:
                        np.logical_and(ok, loss_ok, out=ok)
                    if containment is not None:
                        ok = containment.filter_probes(ok, now, rng)
                    masks = exchange.split(ok, "delivered")
                else:
                    masks = [det for det, _ in verdicts]
                    for mask, shard_loss in zip(
                        masks, exchange.split(loss_ok, "loss")
                    ):
                        if shard_loss is not None:
                            np.logical_and(mask, shard_loss, out=mask)
                timer.lap("filter")

                delivered = [
                    engine.dispatch(
                        now,
                        shard_sources[shard_id],
                        shard_targets[shard_id],
                        verdicts[shard_id][1],
                        masks[shard_id],
                    )
                    for shard_id, engine in enumerate(engines)
                ]
                delivered_probes += sum(len(part) for part in delivered)
                if trace_recorder is not None:
                    trace_recorder.record(
                        now,
                        flat_sources[ok],
                        flat_targets[ok],
                        worm=worm.name,
                    )
                timer.lap("dispatch")

                # Merge the infection streams: per-shard arrays are
                # sorted-unique within disjoint ascending intervals,
                # so shard-order concatenation is the global
                # sorted-unique batch of the oracle.
                fresh_parts = [
                    engine.infect(part)
                    for engine, part in zip(engines, delivered)
                ]
                fresh = (
                    fresh_parts[0] if single else np.concatenate(fresh_parts)
                )
                if len(fresh):
                    if not single:
                        population.infect(fresh)
                    worm.add_hosts(state, fresh, rng)
                    infection_times.extend([now] * len(fresh))
            else:
                timer.lap("generate")

            if config.patch_rate > 0:
                vulnerable = population.vulnerable_addresses()
                patch_mask = (
                    rng.random(len(vulnerable))
                    < config.patch_rate * config.tick_seconds
                )
                patched = vulnerable[patch_mask]
                population.immunize(patched)
                if not single and len(patched):
                    patch_owner = plan.owner_of(patched)
                    for shard_id, engine in enumerate(engines):
                        engine.population.immunize(
                            patched[patch_owner == shard_id]
                        )

            if containment is not None:
                containment.update(now)

            times.append(now)
            infected_counts.append(population.num_infected)
            timer.lap("infect")
            timer.tick()
            if population.fraction_infected >= config.stop_at_fraction:
                break
            if checkpointer is not None and checkpointer.due(tick):
                checkpointer.write(
                    tick,
                    {
                        "rng_state": rng.bit_generator.state,
                        "worm_state": state,
                        "population": population.state_snapshot(),
                        "sensors": [
                            sensor.state_snapshot()
                            for sensor in spec.sensors
                        ],
                        "grids": [
                            grid.state_snapshot()
                            for grid in spec.sensor_grids
                        ],
                        "containment": (
                            containment.state_snapshot()
                            if containment is not None
                            else None
                        ),
                        "trace": (
                            trace_recorder.state_snapshot()
                            if trace_recorder is not None
                            else None
                        ),
                        "accumulator": (
                            None
                            if uniform_fast
                            else arena.accumulator(state.num_hosts).copy()
                        ),
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


def as_shard_plan(
    value: "ShardPlan | int | None",
) -> Optional[ShardPlan]:
    """Coerce a shard knob to a plan: int → even split, None → None."""
    if value is None:
        return None
    if isinstance(value, ShardPlan):
        return value
    if isinstance(value, (int, np.integer)):
        return ShardPlan.even(int(value))
    raise TypeError(
        "SimulationSpec.shards: expected a ShardPlan, an int shard "
        f"count, or None; got {type(value).__name__}"
    )


