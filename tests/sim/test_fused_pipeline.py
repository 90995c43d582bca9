"""The fused tick pipeline must be bitwise-equal to the reference path.

The fused pipeline (arena buffers + uniform-rate fast path + merged
verdict partition, all inside the shard driver) only reorganizes
*how* each tick's probe batch is produced and judged — never which
probes exist, never how the RNG is consumed.  These tests sweep worm
families, integral and fractional scan rates, and an
overlapping-sensor deployment, and demand ``SimulationResult.__eq__``
(bitwise over every field) of ``kernel_override(True)`` runs against
``kernel_override(False)`` reference-oracle runs.  Alongside the
equivalence sweep: the duplicate-hit infection invariant and the
arena's O(1) steady-state allocation contract.
"""

import tracemalloc

import numpy as np
import pytest

from repro.env.environment import NetworkEnvironment
from repro.env.failures import LossModel, RegionLoss
from repro.env.filtering import FilterRule, FilteringPolicy
from repro.net.cidr import CIDRBlock
from repro.net.kernels import kernel_override
from repro.population.model import HostPopulation
from repro.sensors.darknet import DarknetSensor, ims_standard_deployment
from repro.sim.engine import (
    EpidemicSimulator,
    SimulationConfig,
    run_simulation_trial,
)
from repro.sim.shard import ShardedSimulator
from repro.sim.spec import SimulationSpec, simulate
from repro.worms.base import WormModel, WormState
from repro.worms.blaster import BlasterWorm
from repro.worms.slammer import SlammerWorm
from repro.worms.uniform import UniformScanWorm

WORMS = {
    "uniform": UniformScanWorm,
    "blaster": BlasterWorm,
    "slammer": SlammerWorm,
}


def overlapping_sensors():
    """IMS deployment plus blocks nested inside D/20 and Z/8.

    Overlap means a probe can land on several sensors at once, which
    exercises every per-layer owner gather of the merged partition.
    """
    sensors = ims_standard_deployment()
    sensors.append(DarknetSensor("D-nested", CIDRBlock.parse("133.101.4.0/24")))
    sensors.append(DarknetSensor("Z-nested", CIDRBlock.parse("41.7.0.0/16")))
    return sensors


def build_simulator(worm_name, seed=2006, num_hosts=3000):
    """A small outbreak exercising policy, regional loss, sensors."""
    rng = np.random.default_rng(seed)
    addrs = np.unique(
        rng.integers(1 << 24, 224 << 24, size=num_hosts, dtype=np.uint64).astype(
            np.uint32
        )
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
    return EpidemicSimulator(
        WORMS[worm_name](),
        HostPopulation(addrs),
        environment=NetworkEnvironment(policy=policy, loss=loss),
        sensors=overlapping_sensors(),
    )


def config_with(scan_rate):
    return SimulationConfig(
        scan_rate=scan_rate,
        max_time=12.0,
        seed_count=300,
        stop_at_fraction=1.0,
    )


def reference_run(worm_name, scan_rate, seed=2006):
    simulator = build_simulator(worm_name, seed)
    with kernel_override(False):
        result = run_simulation_trial(
            simulator, config_with(scan_rate), seed
        )
    return simulator, result


def fused_run(worm_name, scan_rate, seed=2006):
    simulator = build_simulator(worm_name, seed)
    with kernel_override(True):
        result = run_simulation_trial(
            simulator, config_with(scan_rate), seed
        )
    return simulator, result


def assert_same_sensors(left_sim, right_sim):
    for left, right in zip(left_sim.sensors, right_sim.sensors):
        assert np.array_equal(
            left.probes_by_slash24(), right.probes_by_slash24()
        )
        assert np.array_equal(
            left.unique_sources_by_slash24(),
            right.unique_sources_by_slash24(),
        )


# scan_rate 10.0 -> integral per-tick budget, uniform fast path live;
# scan_rate 2.5 -> fractional budget, general arena path.
@pytest.mark.parametrize("worm_name", sorted(WORMS))
@pytest.mark.parametrize("scan_rate", [10.0, 2.5])
def test_fused_bitwise_equals_reference(worm_name, scan_rate):
    fused_sim, fused_result = fused_run(worm_name, scan_rate)
    reference_sim, reference_result = reference_run(worm_name, scan_rate)
    assert fused_result == reference_result
    assert_same_sensors(fused_sim, reference_sim)


def test_fractional_rate_accumulator_carry():
    """A rate of 0.75 emits probes only on some ticks; the fused
    accumulator must carry the fraction exactly like the reference."""
    _, fused_result = fused_run("uniform", 0.75)
    _, reference_result = reference_run("uniform", 0.75)
    assert fused_result == reference_result


# -- duplicate-hit infection invariant --------------------------------


class _FixedTargetWorm(WormModel):
    """Every probe of every host aims at one fixed address, so any
    tick with >=2 probes produces duplicate hits on that host.  Each
    ``add_hosts`` batch is recorded for the alignment assertions."""

    name = "fixed"

    def __init__(self, target):
        self.target = np.uint32(target)
        self.added_batches = []

    def new_state(self):
        return WormState()

    def add_hosts(self, state, addrs, rng):
        self.added_batches.append(np.array(addrs, dtype=np.uint32))
        state._append_addresses(addrs)

    def generate(self, state, scans, rng):
        return np.full(
            (state.num_hosts, scans), self.target, dtype=np.uint32
        )


# Ids keep the unsharded cases under their kernels-on/off names.
@pytest.mark.parametrize(
    "enabled, shards",
    [
        pytest.param(True, None, id="True"),
        pytest.param(False, None, id="False"),
        pytest.param(True, 2, id="True-shards2"),
        pytest.param(False, 2, id="False-shards2"),
    ],
)
def test_double_hit_infects_once(enabled, shards):
    """One host probed three times in one tick: exactly one infection,
    one worm row, one infection-time entry — state stays aligned."""
    base = 12 << 24  # 12.0.0.0/8: plain public space
    addrs = np.array([base + 1, base + 2, base + 3], dtype=np.uint32)
    worm = _FixedTargetWorm(base + 3)
    population = HostPopulation(addrs)
    spec = SimulationSpec(
        worm=worm,
        population=population,
        scan_rate=3.0,
        max_time=1.0,
        seed_count=1,
        stop_at_fraction=1.0,
        seed_addrs=addrs[:1],
        shards=shards,
    )
    with kernel_override(enabled):
        result = simulate(spec, np.random.default_rng(0))
    assert population.num_infected == 2  # seed + target
    assert result.infected_counts[-1] == 2
    # One infection_times entry per infection event, aligned with the
    # population count (a duplicated entry would desynchronize them).
    assert len(result.infection_times) == 2
    # add_hosts saw the seed batch plus ONE row for the triple-hit
    # host — never a duplicated row.
    all_added = np.concatenate(worm.added_batches)
    assert len(all_added) == 2
    assert len(np.unique(all_added)) == 2


@pytest.mark.parametrize("enabled", [True, False])
def test_vulnerable_hits_dedups_and_sorts(enabled):
    """Duplicate probe hits collapse to one sorted address on every
    vulnerable_hits path (sort-flip, locator, reference)."""
    addrs = np.arange(100, 160, dtype=np.uint32) * 7919
    population = HostPopulation(addrs)
    hits = np.array([addrs[13], addrs[2], addrs[13], addrs[40]])
    with kernel_override(enabled):
        # Small batch: locator (or searchsorted reference) path.
        small = population.vulnerable_hits(
            np.concatenate([hits, np.zeros(10, dtype=np.uint32)])
        )
        # Batch >= population size: sort-flip path when enabled.
        big = population.vulnerable_hits(
            np.concatenate([hits, np.zeros(200, dtype=np.uint32)])
        )
    expected = np.unique(hits)
    assert np.array_equal(small, expected)
    assert np.array_equal(big, expected)


def test_sort_flip_matches_locator_across_thresholds():
    """The large-batch sort-flip result equals the per-probe locate
    result on both sides of its size threshold."""
    rng = np.random.default_rng(42)
    addrs = np.unique(
        rng.integers(1 << 24, 224 << 24, size=500, dtype=np.uint64).astype(
            np.uint32
        )
    )
    population = HostPopulation(addrs)
    population.infect(addrs[::5])
    for batch_size in (64, len(addrs) - 1, len(addrs), 4 * len(addrs)):
        targets = rng.choice(addrs, size=batch_size).astype(np.uint32)
        with kernel_override(True):
            kernel_hits = population.vulnerable_hits(targets)
        with kernel_override(False):
            reference_hits = population.vulnerable_hits(targets)
        assert np.array_equal(kernel_hits, reference_hits)


# -- arena allocation contract ----------------------------------------


def test_arena_allocations_are_steady_state():
    """Once the outbreak saturates, extra ticks must not allocate:
    a 3x longer run reuses the same arena buffers."""
    def run_for(ticks):
        simulator = build_simulator("uniform", num_hosts=1500)
        config = SimulationConfig(
            scan_rate=10.0,
            max_time=float(ticks),
            seed_count=400,
            stop_at_fraction=1.0,
        )
        driver = ShardedSimulator(
            SimulationSpec.from_config(
                config,
                worm=simulator.worm,
                population=simulator.population,
                environment=simulator.environment,
                sensors=simulator.sensors,
            )
        )
        driver.run(np.random.default_rng(7))
        return driver.allocations

    short = run_for(12)
    long = run_for(36)
    # Growth is geometric per buffer name, so the total is O(log n)
    # per name regardless of tick count...
    assert long <= 64
    # ...and a saturated outbreak stops growing entirely: the extra
    # 24 ticks add zero allocations.
    assert long == short


def test_arena_request_reuse_allocates_nothing():
    """Steady-state arena requests return views of existing buffers."""
    from repro.sim.arena import TickArena

    arena = TickArena()
    arena.request("flat", 10_000, np.uint32)
    arena.accumulator(5_000)
    arena.repeated("rep", np.arange(100, dtype=np.uint32), 8)
    warm = arena.allocations

    tracemalloc.start()
    for _ in range(50):
        view = arena.request("flat", 10_000, np.uint32)
        acc = arena.accumulator(5_000)
        rep = arena.repeated("rep", np.arange(100, dtype=np.uint32), 8)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert arena.allocations == warm
    assert view.base is not None and acc.base is not None
    assert rep.base is not None
    # 50 iterations of three requests: only view objects and the
    # throwaway arange; far below one fresh 10k-element buffer.
    assert peak < 20_000


def test_arena_growth_preserves_accumulator():
    from repro.sim.arena import TickArena

    arena = TickArena()
    acc = arena.accumulator(4)
    acc[:] = [0.25, 0.5, 0.75, 1.0]
    grown = arena.accumulator(8)
    assert np.array_equal(grown[:4], [0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(grown[4:], np.zeros(4))


def test_arena_repeated_tracks_token_identity():
    from repro.sim.arena import TickArena

    arena = TickArena()
    rows = np.arange(6, dtype=np.int64)
    first = arena.repeated("policy", rows, 3, token="kernel-a")
    assert np.array_equal(first, np.repeat(rows, 3))
    # Same token: prefix reuse; only appended rows are rewritten.
    more = np.arange(8, dtype=np.int64)
    second = arena.repeated("policy", more, 3, token="kernel-a")
    assert np.array_equal(second, np.repeat(more, 3))
    # New token (rebuilt kernel): full rewrite with the new values.
    flipped = more[::-1].copy()
    third = arena.repeated("policy", flipped, 3, token="kernel-b")
    assert np.array_equal(third, np.repeat(flipped, 3))
