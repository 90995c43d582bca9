"""Sharded runs must be bitwise-equal to the serial reference.

The sharded engine only reorganizes *where* the deterministic verdict
and sensor work happens — never what any stage computes and never how
the run RNG is consumed (the exchange contract in
:mod:`repro.sim.shard`).  These tests sweep shard counts, boundary
edge cases (hosts exactly on breakpoints, empty shards, a single /0
shard), cross-shard same-tick infection and containment feedback —
demanding ``SimulationResult.__eq__`` (bitwise over every field) plus
identical sensor state throughout.
"""

import numpy as np
import pytest

from repro.env.environment import NetworkEnvironment
from repro.env.failures import LossModel, RegionLoss
from repro.env.filtering import FilterRule, FilteringPolicy
from repro.net.cidr import BlockSet, CIDRBlock
from repro.net.kernels import kernel_override
from repro.population.model import HostPopulation
from repro.runtime.perf import STAGES, perf_collection
from repro.sensors.darknet import ims_standard_deployment
from repro.sensors.deployment import SensorGrid
from repro.sim.containment import QuorumTriggeredContainment
from repro.sim.shard import (
    ADDRESS_SPACE_END,
    ShardPlan,
    ShardedSimulator,
)
from repro.sim.spec import SimulationSpec, simulate
from repro.worms.hitlist import HitListWorm
from repro.worms.localpref import LocalPreferenceWorm
from repro.worms.uniform import UniformScanWorm


def figure_spec(seed=2006, num_hosts=3000, shards=None, **overrides):
    """A small figure1-shaped outbreak: policy, loss, IMS, a grid."""
    rng = np.random.default_rng(seed)
    addrs = np.unique(
        rng.integers(
            1 << 24, 224 << 24, size=num_hosts, dtype=np.uint64
        ).astype(np.uint32)
    )
    policy = FilteringPolicy(
        [
            FilterRule("egress", CIDRBlock.parse("20.0.0.0/8")),
            FilterRule("ingress", CIDRBlock.parse("60.0.0.0/8")),
        ]
    )
    loss = LossModel(
        base_rate=0.05,
        region_losses=[RegionLoss(CIDRBlock.parse("100.0.0.0/8"), 0.5)],
    )
    grid = SensorGrid(
        np.random.default_rng(seed + 1)
        .integers(0, 1 << 24, size=400, dtype=np.uint64)
        .astype(np.uint32),
        alert_threshold=3,
    )
    kwargs = dict(
        worm=UniformScanWorm(),
        population=HostPopulation(addrs),
        environment=NetworkEnvironment(policy=policy, loss=loss),
        sensors=tuple(ims_standard_deployment()),
        sensor_grids=(grid,),
        scan_rate=10.0,
        max_time=20.0,
        seed_count=300,
        shards=shards,
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


def hitlist_spec(seed=7, shards=None, **overrides):
    """Hit-list growth across two /16s in different halves of space."""
    rng = np.random.default_rng(seed)
    hitlist = BlockSet(
        [CIDRBlock.parse("10.1.0.0/16"), CIDRBlock.parse("200.7.0.0/16")]
    )
    addrs = np.unique(hitlist.random_addresses(4_000, rng))
    kwargs = dict(
        worm=HitListWorm(hitlist),
        population=HostPopulation(addrs),
        scan_rate=5.0,
        max_time=40.0,
        seed_count=5,
        stop_at_fraction=0.9,
        shards=shards,
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


def assert_sensor_state_equal(spec_a, spec_b):
    for sensor_a, sensor_b in zip(spec_a.sensors, spec_b.sensors):
        assert np.array_equal(
            sensor_a.probes_by_slash24(), sensor_b.probes_by_slash24()
        )
        assert np.array_equal(
            sensor_a.unique_sources_by_slash24(),
            sensor_b.unique_sources_by_slash24(),
        )
    for grid_a, grid_b in zip(spec_a.sensor_grids, spec_b.sensor_grids):
        assert np.array_equal(
            grid_a.payload_counts(), grid_b.payload_counts()
        )
        assert np.array_equal(
            grid_a.alert_times(), grid_b.alert_times(), equal_nan=True
        )


def run_pair(build, shards, seed=2006, **kwargs):
    """(reference spec+result, sharded spec+result) under one seed."""
    reference = build(seed=seed, shards=None, **kwargs)
    sharded = build(seed=seed, shards=shards, **kwargs)
    reference_result = simulate(reference, seed)
    sharded_result = simulate(sharded, seed)
    return reference, reference_result, sharded, sharded_result


class TestShardPlan:
    def test_even_split(self):
        plan = ShardPlan.even(4)
        assert plan.num_shards == 4
        assert plan.boundaries[0] == 0
        assert all(b % 256 == 0 for b in plan.boundaries)
        assert plan.interval(3)[1] == ADDRESS_SPACE_END

    def test_single_shard_owns_everything(self):
        plan = ShardPlan(boundaries=(0,))
        assert plan.interval(0) == (0, ADDRESS_SPACE_END)
        addrs = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32)
        assert np.array_equal(plan.owner_of(addrs), [0, 0, 0, 0])

    def test_boundary_address_owned_by_upper_shard(self):
        plan = ShardPlan.even(2)
        boundary = plan.boundaries[1]
        addrs = np.array(
            [boundary - 1, boundary, boundary + 1], dtype=np.uint32
        )
        assert np.array_equal(plan.owner_of(addrs), [0, 1, 1])

    def test_first_boundary_must_be_zero(self):
        with pytest.raises(ValueError, match="first shard must start at 0"):
            ShardPlan(boundaries=(256,))

    def test_boundaries_must_be_aligned(self):
        with pytest.raises(ValueError, match=r"boundaries\[1\].*aligned"):
            ShardPlan(boundaries=(0, 100))

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ShardPlan(boundaries=(0, 512, 512))

    def test_boundaries_must_fit_address_space(self):
        with pytest.raises(ValueError, match="outside the address space"):
            ShardPlan(boundaries=(0, ADDRESS_SPACE_END))

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardPlan(boundaries=())

    def test_even_rejects_non_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            ShardPlan.even(0)


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_figure_shaped_sweep(self, num_shards):
        reference, reference_result, sharded, sharded_result = run_pair(
            figure_spec, num_shards
        )
        assert sharded_result == reference_result
        assert_sensor_state_equal(reference, sharded)

    def test_single_slash0_shard_equals_unsharded(self):
        _, reference_result, _, sharded_result = run_pair(
            figure_spec, ShardPlan(boundaries=(0,))
        )
        assert sharded_result == reference_result

    def test_cross_shard_same_tick_infection(self):
        # Two /16 islands in different halves of the space: every
        # inter-island infection crosses the shard boundary inside a
        # tick, and growth is real (seeds alone don't reach 90%).
        _, reference_result, _, sharded_result = run_pair(
            hitlist_spec, 2, seed=7
        )
        assert sharded_result == reference_result
        assert reference_result.infected_counts[-1] > 100

    def test_hosts_exactly_on_shard_breakpoints(self):
        plan = ShardPlan.even(4)
        near = []
        for boundary in plan.boundaries[1:]:
            near.extend([boundary - 1, boundary, boundary + 1])
        rng = np.random.default_rng(3)
        filler = rng.integers(
            1 << 24, 224 << 24, size=2_000, dtype=np.uint64
        ).astype(np.uint32)
        addrs = np.unique(
            np.concatenate([np.array(near, dtype=np.uint32), filler])
        )
        hitlist = BlockSet([CIDRBlock.parse("0.0.0.0/0")])

        def build(seed, shards):
            return SimulationSpec(
                worm=HitListWorm(hitlist),
                population=HostPopulation(addrs.copy()),
                scan_rate=8.0,
                max_time=15.0,
                seed_count=50,
                shards=shards,
            )

        assert simulate(build(11, 4), 11) == simulate(build(11, None), 11)

    def test_empty_shard(self):
        # All hosts in the first quarter of the space; shards 1-3 of an
        # even 4-way split own nothing and must stay inert.
        rng = np.random.default_rng(5)
        addrs = np.unique(
            rng.integers(1 << 24, 1 << 29, size=2_000, dtype=np.uint64
            ).astype(np.uint32)
        )
        hitlist = BlockSet([CIDRBlock.parse("0.0.0.0/4")])

        def build(seed, shards):
            return SimulationSpec(
                worm=HitListWorm(hitlist),
                population=HostPopulation(addrs.copy()),
                scan_rate=5.0,
                max_time=15.0,
                seed_count=20,
                shards=shards,
            )

        assert simulate(build(5, 4), 5) == simulate(build(5, None), 5)

    def test_local_preference_worm(self):
        def build(seed, shards):
            rng = np.random.default_rng(seed)
            addrs = np.unique(
                rng.integers(
                    1 << 24, 224 << 24, size=3_000, dtype=np.uint64
                ).astype(np.uint32)
            )
            return SimulationSpec(
                worm=LocalPreferenceWorm(0.5, 0.25, name="localpref"),
                population=HostPopulation(addrs),
                scan_rate=10.0,
                max_time=15.0,
                seed_count=200,
                shards=shards,
            )

        assert simulate(build(13, 4), 13) == simulate(build(13, None), 13)

    def test_fractional_rate_and_patching(self):
        # Fractional per-tick budgets take the accumulator path, and
        # patching adds a second RNG-consuming stage per tick.
        _, reference_result, _, sharded_result = run_pair(
            figure_spec, 4, scan_rate=2.5, patch_rate=0.01
        )
        assert sharded_result == reference_result

    def test_containment_feedback(self):
        # Quorum containment is global per-tick feedback: the driver
        # must compose the full-batch mask before shards dispatch.
        def build(seed, shards):
            spec = figure_spec(seed=seed, shards=shards)
            grid = spec.sensor_grids[0]
            return spec.with_(
                containment=QuorumTriggeredContainment(
                    grid, quorum_fraction=0.02, reaction_delay=3.0
                )
            )

        reference = build(2006, None)
        sharded = build(2006, 4)
        assert simulate(sharded, 2006) == simulate(reference, 2006)
        assert_sensor_state_equal(reference, sharded)
        assert (
            sharded.containment.triggered_at
            == reference.containment.triggered_at
        )

    def test_explicit_seed_addrs(self):
        def build(seed, shards):
            spec = figure_spec(seed=seed, shards=shards)
            seeds = spec.population.addresses()[::7][:100]
            return spec.with_(seed_addrs=seeds)

        assert simulate(build(17, 8), 17) == simulate(build(17, None), 17)

    def test_kernel_override_runs_reference_engine(self):
        # Under kernel_override(False) a sharded spec takes the serial
        # reference path — the gating idiom every compiled kernel
        # follows — and still matches bitwise.
        spec = figure_spec(seed=19, shards=4)
        with kernel_override(False):
            gated_result = simulate(spec, 19)
        reference = figure_spec(seed=19, shards=None)
        assert gated_result == simulate(reference, 19)


class TestStageTimings:
    @pytest.mark.parametrize("shards", [None, 4])
    def test_every_k_laps_exactly_the_tick_stages(self, shards):
        # One stage list: --perf, bench_shard and paperbench read the
        # same names whatever the shard count.
        with perf_collection() as timings:
            simulate(figure_spec(shards=shards), 2006)
        assert set(timings.seconds) == set(STAGES)
        assert timings.ticks == 20


class TestShardedValidation:
    def test_no_plan_runs_as_one_shard(self):
        # An unsharded spec is the K=1 case of the one tick loop.
        simulator = ShardedSimulator(figure_spec(shards=None))
        assert simulator.plan == ShardPlan.even(1)
        assert simulator.run(np.random.default_rng(3)) == simulate(
            figure_spec(shards=1), 3
        )

    def test_needs_pristine_population(self):
        spec = figure_spec(shards=2)
        spec.population.infect(spec.population.addresses()[:3])
        with pytest.raises(
            ValueError, match="SimulationSpec.population.*pristine"
        ):
            ShardedSimulator(spec)
