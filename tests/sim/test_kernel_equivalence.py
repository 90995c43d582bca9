"""Kernelized simulation runs must be bitwise-equal to reference runs.

The compiled kernels (policy table, special-range classifier, sensor
index, population locator) only reorganize *how* masks are computed —
never what they contain and never how the RNG is consumed.  These
tests run figure1-flavoured outbreaks twice, kernels on and kernels
off, and demand `SimulationResult.__eq__` (bitwise over every field)
plus identical sensor state.
"""

import numpy as np
import pytest

from repro.env.environment import NetworkEnvironment
from repro.env.failures import LossModel, RegionLoss
from repro.env.filtering import FilterRule, FilteringPolicy
from repro.env.nat import NATDeployment
from repro.net.cidr import CIDRBlock
from repro.net.kernels import kernel_override
from repro.population.model import HostPopulation
from repro.sensors.darknet import ims_standard_deployment
from repro.sensors.deployment import SensorGrid
from repro.sim.engine import (
    EpidemicSimulator,
    SimulationConfig,
    run_simulation_trial,
)
from repro.worms.uniform import UniformScanWorm


def build_simulator(seed=2006, num_hosts=4000):
    """A small figure1-shaped outbreak exercising every kernel."""
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
    nat = NATDeployment.empty()
    grid = SensorGrid(
        np.random.default_rng(seed + 1)
        .integers(0, 1 << 24, size=500, dtype=np.uint64)
        .astype(np.uint32),
        alert_threshold=3,
    )
    return EpidemicSimulator(
        UniformScanWorm(),
        HostPopulation(addrs),
        environment=NetworkEnvironment(policy=policy, nat=nat, loss=loss),
        sensors=ims_standard_deployment(),
        sensor_grids=[grid],
    )


CONFIG = SimulationConfig(
    scan_rate=10.0,
    max_time=25.0,
    seed_count=400,
    stop_at_fraction=1.0,
    patch_rate=0.001,
)


def run(enabled, seed=2006):
    simulator = build_simulator(seed)
    with kernel_override(enabled):
        result = run_simulation_trial(simulator, CONFIG, seed)
    return simulator, result


@pytest.mark.parametrize("seed", [2006, 7])
def test_kernel_run_bitwise_equals_reference_run(seed):
    kernel_sim, kernel_result = run(True, seed)
    reference_sim, reference_result = run(False, seed)

    assert kernel_result == reference_result
    assert kernel_result.times.dtype == reference_result.times.dtype
    assert (
        kernel_result.infected_counts.dtype
        == reference_result.infected_counts.dtype
    )

    for kernel_sensor, reference_sensor in zip(
        kernel_sim.sensors, reference_sim.sensors
    ):
        assert np.array_equal(
            kernel_sensor.probes_by_slash24(),
            reference_sensor.probes_by_slash24(),
        )
        assert np.array_equal(
            kernel_sensor.unique_sources_by_slash24(),
            reference_sensor.unique_sources_by_slash24(),
        )
    for kernel_grid, reference_grid in zip(
        kernel_sim.sensor_grids, reference_sim.sensor_grids
    ):
        assert np.array_equal(
            kernel_grid.payload_counts(), reference_grid.payload_counts()
        )
        assert np.array_equal(
            kernel_grid.alert_times(),
            reference_grid.alert_times(),
            equal_nan=True,
        )


def test_time_to_fraction():
    _, result = run(True)
    assert result.time_to_fraction(0.0) == result.times[0]
    reached = result.final_fraction_infected
    if reached > 0.01:
        t = result.time_to_fraction(0.01)
        assert t is not None
        # First crossing: count at t reaches, count before doesn't.
        index = int(np.searchsorted(result.times, t))
        assert result.infected_counts[index] >= 0.01 * result.population_size
        if index > 0:
            assert (
                result.infected_counts[index - 1]
                < 0.01 * result.population_size
            )
    assert result.time_to_fraction(1.1) is None
