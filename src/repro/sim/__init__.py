"""Worm outbreak simulation.

``spec``
    :class:`SimulationSpec` — the single picklable description of one
    outbreak (population + worm + environment + sensors + shard plan
    + tick budget) and :func:`simulate`, the one entry point over it.
``shard``
    The tick loop of every outbreak experiment in the paper's
    Section 5: K per-interval shard engines behind a deterministic
    exchange.  An unsharded run is its K=1 case.
``engine``
    The result and config types, the thin ``EpidemicSimulator``
    wrapper, and the reference oracle (:func:`run_reference`, run
    under ``kernel_override(False)``) the tick loop must match
    bitwise.
``epidemic``
    The classic analytic SI ("simple epidemic") model, used to
    validate the simulator and as the uniform-propagation baseline the
    paper defines hotspots against.
``events``
    A small discrete-event kernel for packet-level micro-simulations
    (latency-sensitive scenarios the 1-second engine cannot resolve).
"""

from repro.sim.arena import TickArena
from repro.sim.containment import QuorumTriggeredContainment
from repro.sim.engine import (
    EpidemicSimulator,
    SimulationConfig,
    SimulationResult,
    run_reference,
    run_simulation_trial,
)
from repro.sim.epidemic import si_curve, si_time_to_fraction
from repro.sim.events import Event, EventKernel
from repro.sim.shard import ShardEngine, ShardPlan, ShardedSimulator
from repro.sim.spec import SimulationSpec, run_spec_trial, simulate

__all__ = [
    "EpidemicSimulator",
    "Event",
    "EventKernel",
    "QuorumTriggeredContainment",
    "ShardEngine",
    "ShardPlan",
    "ShardedSimulator",
    "SimulationConfig",
    "SimulationResult",
    "SimulationSpec",
    "TickArena",
    "run_reference",
    "run_simulation_trial",
    "run_spec_trial",
    "si_curve",
    "si_time_to_fraction",
    "simulate",
]
