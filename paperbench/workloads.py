"""The benchmark's paper workloads, composed from public calls.

Four parts each split one registry experiment (or a group of them)
into the two phases the benchmark times separately:

* ``setup(seed)`` builds the inputs with the same public calls, in the
  same RNG order, as the registry runner: population and allocation
  synthesis, hit-list build, sensor placement, NAT build.
* ``work(inputs)`` is the timed pass.  It runs the operations (one
  simulated outbreak, one filtering study, or one forensics
  experiment each) and returns their results by name.

The two benchmark workloads each run two parts back to back.
``selftest.py`` checks that the composed passes equal the registry's
``figure5a``, ``figure5c`` and ``table2`` results bitwise, so the
benchmark measures what ``hotspots <id>`` computes.  Every input comes
from the benchmark seed alone; workers=1, no shards.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.analysis.filtering_study import (
    FilteringStudyResult,
    blaster_leak_counts,
    run_filtering_study,
)
from repro.env.environment import NetworkEnvironment
from repro.env.filtering import FilteringPolicy, FilterRule
from repro.experiments import figure1, figure2, figure3, figure5, table1, table2
from repro.net.cidr import BlockSet, CIDRBlock
from repro.net.special import is_private
from repro.population.allocation import (
    place_infected_hosts,
    synthesize_broadband_isps,
    synthesize_enterprises,
)
from repro.population.model import HostPopulation
from repro.population.synthesis import (
    as_population_spec,
    nat_population,
    synthesize_clustered_population,
)
from repro.runtime import as_seed_sequence
from repro.sensors.darknet import ims_standard_deployment
from repro.sensors.deployment import (
    SensorGrid,
    place_one_per_block,
    place_random,
    place_within_blocks,
)
from repro.sensors.detection import AlertTimeline
from repro.sim.spec import SimulationSpec, simulate
from repro.worms.codered2 import CodeRedIIWorm
from repro.worms.hitlist import HitListCodeRedIIWorm, build_greedy_hitlist
from repro.worms.slammer import SlammerWorm

#: Figure 5 outbreak parameters shared by both outbreak workloads.
SCAN_RATE = 10.0
SEED_COUNT = 25

#: Hit-list horizon (simulated seconds).  By t=45 the 10-prefix list
#: has nearly saturated its reachable hosts, so most of the pass is
#: fixed work; the larger lists are still early in their outbreak.
HITLIST_HORIZON = 45.0

#: Figure 5(a/b) program seeds per benchmark seed.  Early outbreak
#: growth varies with the seed (~8% between quartiles of the probe
#: count for one seed); a pass over two seeds averages it down.
HITLIST_SEEDS_PER_PASS = 2


def hitlist_program_seeds(seed: int) -> list[int]:
    """The ``figure5a`` seeds one benchmark seed runs."""
    return [
        HITLIST_SEEDS_PER_PASS * seed + index
        for index in range(HITLIST_SEEDS_PER_PASS)
    ]


#: NAT horizon.  The NATed 15% is infected within ~20 ticks; from then
#: on the public outbreak grows slowly, so every tick generates about
#: the same number of probes whatever the seed.
NAT_HORIZON = 50.0
NAT_FRACTION = 0.15
NUM_RANDOM_SENSORS = 10_000

#: Table 2 probe budget per pass: ``probes_per_host`` is chosen so the
#: pass generates about this many probes (two policies x CodeRedII and
#: Slammer x every infected host).  Organization sizes are drawn from
#: the seed, so a fixed per-host budget would make the pass length a
#: property of the seed rather than of the code.
TABLE2_PROBE_BUDGET = 36_000_000


def _digest(*parts: Any) -> str:
    """SHA-256 over nested tuples, lists and dicts of arrays and values.

    Arrays hash by dtype, shape and bytes (their repr elides elements);
    everything else hashes by repr.
    """
    digest = hashlib.sha256()

    def feed(part: Any) -> None:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            digest.update(f"<{array.dtype.str}{array.shape}>".encode())
            digest.update(array.tobytes())
        elif isinstance(part, (tuple, list)):
            digest.update(b"(")
            for item in part:
                feed(item)
            digest.update(b")")
        elif isinstance(part, Mapping):
            feed(sorted(part.items()))
        else:
            digest.update(repr(part).encode())
        digest.update(b"|")

    feed(parts)
    return digest.hexdigest()[:32]


def _simulation_digest(result) -> tuple:
    return (
        result.times,
        result.infected_counts,
        result.infection_times,
        result.total_probes,
        result.delivered_probes,
    )


def study_digest(study: FilteringStudyResult) -> str:
    return _digest([(row.name, row.observed) for row in study.rows])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``checks(inputs, results)`` maps each operation to its shape
    predicates (name -> bool); ``digests(results)`` maps each
    operation to a digest of its bitwise result.
    """

    name: str
    setup: Callable[[int], Any]
    work: Callable[[Any], dict[str, Any]]
    operations: tuple[str, ...]
    checks: Callable[[Any, dict[str, Any]], dict[str, dict[str, bool]]]
    digests: Callable[[dict[str, Any]], dict[str, str]]


# -- hitlist-outbreak: Figure 5(a/b) -------------------------------------


def _hitlist_setup(seed: int) -> list[dict]:
    return [
        _figure5ab_setup(program_seed)
        for program_seed in hitlist_program_seeds(seed)
    ]


def _figure5ab_setup(seed: int) -> dict:
    """`figure5.run_infection` + `_hitlist_trial` inputs, workers=1."""
    population_seq, *size_seqs = as_seed_sequence(seed).spawn(
        len(figure5.HITLIST_SIZES) + 1
    )
    base_population = synthesize_clustered_population(
        as_population_spec(None), np.random.default_rng(population_seq)
    )
    vulnerable_16s = [
        CIDRBlock(int(prefix) << 16, 16)
        for prefix in np.unique(base_population >> 16)
    ]
    runs = []
    for num_prefixes, size_seq in zip(figure5.HITLIST_SIZES, size_seqs):
        rng = np.random.default_rng(size_seq)
        hitlist, coverage = build_greedy_hitlist(base_population, num_prefixes)
        grid = SensorGrid(
            place_one_per_block(vulnerable_16s, rng),
            alert_threshold=figure5.ALERT_THRESHOLD,
        )
        seeds = rng.choice(
            base_population[hitlist.contains_array(base_population)],
            size=SEED_COUNT,
            replace=False,
        )
        spec = SimulationSpec(
            worm=HitListCodeRedIIWorm(hitlist),
            population=HostPopulation(base_population),
            sensor_grids=(grid,),
            scan_rate=SCAN_RATE,
            max_time=HITLIST_HORIZON,
            seed_count=SEED_COUNT,
            stop_at_fraction=min(0.97 * coverage, 1.0),
            seed_addrs=seeds,
        )
        runs.append((num_prefixes, coverage, spec, grid, rng))
    return {"runs": runs, "total_slash16s": len(vulnerable_16s)}


def _hitlist_work(inputs: list[dict]) -> dict[str, Any]:
    results: dict[str, Any] = {}
    for figure in inputs:
        runs = []
        for num_prefixes, coverage, spec, grid, rng in figure["runs"]:
            result = simulate(spec, rng)
            timeline = AlertTimeline.from_alert_times(
                grid.alert_times(), horizon=result.times[-1]
            )
            t90 = result.time_to_fraction(0.9 * coverage)
            runs.append(
                figure5.HitlistRun(
                    num_prefixes=num_prefixes,
                    coverage=coverage,
                    result=result,
                    alert_timeline=timeline,
                    sensors_alerted_at_90pct=(
                        timeline.fraction_at(t90) if t90 is not None else None
                    ),
                )
            )
        results[f"figure5ab-{len(results)}"] = figure5.Figure5ABResult(
            runs=tuple(runs), total_slash16s=figure["total_slash16s"]
        )
    return results


def hitlist_run_digest(run: figure5.HitlistRun) -> str:
    return _digest(
        run.num_prefixes,
        run.coverage,
        *_simulation_digest(run.result),
        run.alert_timeline.fraction_alerted,
        run.sensors_alerted_at_90pct,
    )


def _hitlist_operations(results: dict) -> dict[str, tuple[str, Any]]:
    """``operation -> (figure key, HitlistRun)`` for every outbreak."""
    return {
        f"{key}/hitlist-{run.num_prefixes}": (key, run)
        for key, figure in results.items()
        for run in figure.runs
    }


def _hitlist_checks(inputs: list, results: dict) -> dict[str, dict[str, bool]]:
    return {
        operation: {"detection_starved": results[key].detection_starved}
        for operation, (key, _) in _hitlist_operations(results).items()
    }


def _hitlist_digests(results: dict) -> dict[str, str]:
    return {
        operation: hitlist_run_digest(run)
        for operation, (_, run) in _hitlist_operations(results).items()
    }


# -- nat-placement: Figure 5(c) ------------------------------------------


def _nat_setup(seed: int) -> dict:
    """`figure5.run_nat_detection(stratify_nat_seeds=True)` inputs, in
    its RNG order."""
    rng = np.random.default_rng(seed)
    base_population = synthesize_clustered_population(
        as_population_spec(None), rng
    )
    addrs, nat = nat_population(base_population, NAT_FRACTION, rng)
    grid_random = SensorGrid(
        place_random(NUM_RANDOM_SENSORS, rng),
        alert_threshold=figure5.ALERT_THRESHOLD,
    )
    per8 = np.bincount(base_population >> 24, minlength=256)
    top_octets = np.argsort(per8)[::-1][:20]
    top_blocks = BlockSet(
        CIDRBlock(int(octet) << 24, 8) for octet in top_octets if per8[octet]
    )
    grid_top20 = SensorGrid(
        place_random(NUM_RANDOM_SENSORS, rng, within=top_blocks),
        alert_threshold=figure5.ALERT_THRESHOLD,
    )
    grid_192 = SensorGrid(
        place_within_blocks(
            CIDRBlock.parse("192.0.0.0/8").subblocks(16),
            rng,
            exclude=BlockSet.parse(["192.168.0.0/16"]),
        ),
        alert_threshold=figure5.ALERT_THRESHOLD,
    )
    grids = (
        ("random", grid_random),
        ("top-20 /8s", grid_top20),
        ("192/8 per-/16", grid_192),
    )
    # `stratify_nat_seeds=True`: about 1 seed in 60 draws no NATed host
    # among the 25 seeds (0.85**25), and private hosts are infectable
    # only from private space, so that outbreak never reaches its NAT
    # hotspot and stalls below 1% infected.
    private_mask = is_private(addrs)
    num_nat_seeds = min(
        max(1, round(SEED_COUNT * NAT_FRACTION)), int(private_mask.sum())
    )
    seed_addrs = np.concatenate(
        [
            rng.choice(addrs[private_mask], num_nat_seeds, replace=False),
            rng.choice(
                addrs[~private_mask], SEED_COUNT - num_nat_seeds, replace=False
            ),
        ]
    )
    spec = SimulationSpec(
        worm=CodeRedIIWorm(),
        population=HostPopulation(addrs),
        environment=NetworkEnvironment(nat=nat),
        sensor_grids=tuple(grid for _, grid in grids),
        scan_rate=SCAN_RATE,
        max_time=NAT_HORIZON,
        seed_count=SEED_COUNT,
        stop_at_fraction=0.5,
        seed_addrs=seed_addrs,
    )
    return {"spec": spec, "grids": grids, "rng": rng}


def _nat_work(inputs: dict) -> dict[str, Any]:
    result = simulate(inputs["spec"], inputs["rng"])
    t20 = result.time_to_fraction(0.20)
    horizon = float(result.times[-1])
    placements = []
    for name, grid in inputs["grids"]:
        timeline = AlertTimeline.from_alert_times(grid.alert_times(), horizon)
        placements.append(
            figure5.PlacementRun(
                name=name,
                num_sensors=grid.num_sensors,
                timeline=timeline,
                alerted_at_20pct_infected=(
                    timeline.fraction_at(t20) if t20 is not None else 0.0
                ),
            )
        )
    return {
        "figure5c": figure5.Figure5CResult(
            placements=tuple(placements), result=result
        )
    }


def nat_digest(result: figure5.Figure5CResult) -> str:
    return _digest(
        *_simulation_digest(result.result),
        *(
            (run.name, run.timeline.fraction_alerted, run.alerted_at_20pct_infected)
            for run in result.placements
        ),
    )


def _targeted_wins_at_horizon(result: figure5.Figure5CResult) -> bool:
    """`targeted_placement_wins`, read at the horizon.

    The horizon falls before 20% infected, so the registry property
    (which reads the alert curves at t(20%)) sees no t(20%).  The same
    claim at the horizon: the 192/8 grid has fully alerted while under
    20% of hosts are infected, and random placement lags behind it.
    """
    targeted = result.placement("192/8 per-/16").timeline.final_fraction()
    random_wide = result.placement("random").timeline.final_fraction()
    return (
        result.result.final_fraction_infected < 0.20
        and targeted > 0.95
        and random_wide < targeted
    )


# -- filtering-study: Table 2 --------------------------------------------


def _table2_setup(seed: int) -> dict:
    """`table2.run` inputs, in its RNG order, at a fixed probe budget."""
    rng = np.random.default_rng(seed)
    enterprises = synthesize_enterprises(3, rng)
    isps = synthesize_broadband_isps(3, rng)
    organizations = enterprises + isps
    infected_counts = [
        int(
            org.address_count
            * (
                table2.ENTERPRISE_INFECTION_DENSITY
                if org.kind == "enterprise"
                else table2.BROADBAND_INFECTION_DENSITY
            )
        )
        for org in organizations
    ]
    egress_policy = FilteringPolicy(
        FilterRule("egress", block)
        for org in enterprises
        for block in org.blocks.blocks
    )
    return {
        "organizations": organizations,
        "infected_counts": infected_counts,
        "sensors": ims_standard_deployment(),
        "worms": {"codered2": CodeRedIIWorm(), "slammer": SlammerWorm()},
        "policies": (("filtered", egress_policy), ("unfiltered", FilteringPolicy())),
        "probes_per_host": table2_probes_per_host(infected_counts),
        "rng": rng,
    }


def table2_probes_per_host(infected_counts) -> int:
    """The per-host scan budget that spends the pass's probe budget."""
    generating = 2 * 2 * sum(infected_counts)  # policies x worms x hosts
    return max(1, round(TABLE2_PROBE_BUDGET / generating))


def _table2_work(inputs: dict) -> dict[str, Any]:
    """The two `study(policy)` calls of `table2.run`."""
    organizations = inputs["organizations"]
    counts = inputs["infected_counts"]
    rng = inputs["rng"]
    results: dict[str, Any] = {}
    for label, policy in inputs["policies"]:
        placements = {
            worm_name: place_infected_hosts(organizations, counts, rng)
            for worm_name in inputs["worms"]
        }
        study = run_filtering_study(
            organizations,
            placements,
            inputs["worms"],
            inputs["sensors"],
            policy,
            inputs["probes_per_host"],
            rng,
        )
        blaster_counts = blaster_leak_counts(
            place_infected_hosts(organizations, counts, rng),
            inputs["sensors"],
            policy,
            10_000_000,
            rng,
        )
        results[label] = FilteringStudyResult(
            rows=tuple(
                type(row)(
                    name=row.name,
                    kind=row.kind,
                    total_addresses=row.total_addresses,
                    observed={
                        **row.observed,
                        "blaster": blaster_counts[row.name],
                    },
                )
                for row in study.rows
            )
        )
    results["table2"] = table2.Table2Result(
        filtered=results["filtered"], unfiltered=results["unfiltered"]
    )
    return results


def _enterprises_hidden(inputs: dict, table: table2.Table2Result) -> bool:
    """`enterprises_hidden`, minus enterprises that hold a sensor.

    Enterprise /16s are drawn at random, so some seeds give an
    enterprise the /16 around an IMS block (F sits in 162.33/16); its
    internal scans then reach that sensor without crossing the egress
    filter.  Every other enterprise must stay hidden.
    """
    sensor_blocks = [sensor.block for sensor in inputs["sensors"]]
    holds_sensor = {
        org.name
        for org in inputs["organizations"]
        if any(
            block.overlaps(sensor)
            for block in org.blocks.blocks
            for sensor in sensor_blocks
        )
    }
    return all(
        count <= 5
        for row in table.filtered.enterprises()
        if row.name not in holds_sensor
        for count in row.observed.values()
    )


def _filtering_is_the_cause(table: table2.Table2Result) -> bool:
    """`filtering_is_the_cause`, read at the pass's probe budget.

    The registry property asks for an enterprise seen more than 50
    times without egress rules, a count set for table2's default 3,000
    probes per host.  The pass gives each host about a fifteenth of
    that, and at seed 34 the unfiltered enterprises are seen 26-43
    times.  The same claim at this budget: some enterprise is hidden
    with the filter (at most 5 observations, as `enterprises_hidden`
    reads it) and visible without it.
    """
    filtered = {
        row.name: sum(row.observed.values()) for row in table.filtered.enterprises()
    }
    return any(
        filtered[row.name] <= 5 < sum(row.observed.values())
        for row in table.unfiltered.enterprises()
    )


def _table2_checks(inputs: dict, results: dict) -> dict[str, dict[str, bool]]:
    table = results["table2"]
    return {
        "filtered": {
            "enterprises_hidden": _enterprises_hidden(inputs, table),
            "broadband_leaks": table.broadband_leaks,
        },
        "unfiltered": {"filtering_is_the_cause": _filtering_is_the_cause(table)},
    }


# -- forensics: Table 1, Figures 1-3 -------------------------------------

#: (operation, module, parameter overrides) at paper parameters, as
#: ``scripts/run_full_scale.py`` runs them.
FORENSICS = (
    ("table1", table1, {}),
    ("figure1", figure1, {}),
    ("figure2", figure2, {"num_hosts": 75_000}),
    ("figure3", figure3, {}),
)


def _forensics_work(seed: int) -> dict[str, Any]:
    return {name: module.run(seed=seed, **params) for name, module, params in FORENSICS}


def _forensics_checks(seed: int, results: dict) -> dict[str, dict[str, bool]]:
    fig1 = results["figure1"]
    fig3 = results["figure3"]
    return {
        "table1": {"restricted_majority": results["table1"].restricted_fraction > 0.5},
        "figure1": {
            "hotspots_not_uniform": not fig1.hotspots.is_uniform,
            "spikes_have_plausible_start_times": fig1.spikes_have_plausible_start_times,
        },
        "figure2": {"h_deficit_reproduced": results["figure2"].h_deficit_reproduced},
        "figure3": {
            "host_a_block_bias": fig3.host_a_block_bias,
            "spectrum_spans_orders_of_magnitude": fig3.spectrum_spans_orders_of_magnitude,
        },
    }


def _forensics_digests(results: dict) -> dict[str, str]:
    fig1 = results["figure1"]
    fig2 = results["figure2"]
    fig3 = results["figure3"]
    return {
        "table1": _digest(results["table1"].rows, results["table1"].capture_lines),
        "figure1": _digest(
            str(fig1.block),
            fig1.unique_sources,
            fig1.spike_boot_minutes,
            fig1.cold_boot_minutes,
        ),
        "figure2": _digest(
            *(
                (name, str(block), fig2.observed_by_slash24[name], fig2.predicted_by_slash24[name])
                for name, block in fig2.blocks.items()
            )
        ),
        "figure3": _digest(
            *(
                (
                    host.label,
                    host.b_value,
                    host.seed_state,
                    host.probes,
                    host.counts_by_block,
                )
                for host in (fig3.host_a, fig3.host_b)
            ),
            fig3.cycle_lengths,
        ),
    }


#: The four paper compositions.  Each benchmark workload runs two of
#: them back to back in one pass (see ``WORKLOADS``).
PARTS: Mapping[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hitlist-outbreak",
            setup=_hitlist_setup,
            work=_hitlist_work,
            operations=tuple(
                f"figure5ab-{index}/hitlist-{size}"
                for index in range(HITLIST_SEEDS_PER_PASS)
                for size in figure5.HITLIST_SIZES
            ),
            checks=_hitlist_checks,
            digests=_hitlist_digests,
        ),
        Workload(
            name="nat-placement",
            setup=_nat_setup,
            work=_nat_work,
            operations=("figure5c",),
            checks=lambda inputs, results: {
                "figure5c": {
                    "targeted_placement_wins": _targeted_wins_at_horizon(
                        results["figure5c"]
                    )
                }
            },
            digests=lambda results: {"figure5c": nat_digest(results["figure5c"])},
        ),
        Workload(
            name="filtering-study",
            setup=_table2_setup,
            work=_table2_work,
            operations=("filtered", "unfiltered"),
            checks=_table2_checks,
            digests=lambda results: {
                label: study_digest(results[label])
                for label in ("filtered", "unfiltered")
            },
        ),
        Workload(
            name="forensics",
            setup=lambda seed: seed,
            work=_forensics_work,
            operations=tuple(name for name, _, _ in FORENSICS),
            checks=_forensics_checks,
            digests=_forensics_digests,
        ),
    )
}


def compose(name: str, *parts: Workload) -> Workload:
    """One workload whose pass sets up, then runs, ``parts`` in order.

    Operations, checks and digests keep their part's name as a prefix
    (``"nat-placement/figure5c"``).
    """

    def setup(seed: int) -> dict[str, Any]:
        return {part.name: part.setup(seed) for part in parts}

    def work(inputs: dict[str, Any]) -> dict[str, Any]:
        return {part.name: part.work(inputs[part.name]) for part in parts}

    def checks(inputs: dict, results: dict) -> dict[str, dict[str, bool]]:
        return {
            f"{part.name}/{operation}": predicates
            for part in parts
            for operation, predicates in part.checks(
                inputs[part.name], results[part.name]
            ).items()
        }

    def digests(results: dict) -> dict[str, str]:
        return {
            f"{part.name}/{operation}": digest
            for part in parts
            for operation, digest in part.digests(results[part.name]).items()
        }

    return Workload(
        name=name,
        setup=setup,
        work=work,
        operations=tuple(
            f"{part.name}/{operation}"
            for part in parts
            for operation in part.operations
        ),
        checks=checks,
        digests=digests,
    )


#: The benchmark workloads.  The split is by network environment: the
#: first runs no NAT and no filter, so every ``env`` layer is bypassed
#: while the hit-list ``BlockSet`` path and the forensics layers work;
#: the second makes NAT, egress policy and ``deliverable`` do real work
#: and bypasses the hit-list path.  Two long workloads rather than four
#: short ones, so each run averages over more of a shared machine's
#: drift.
WORKLOADS: Mapping[str, Workload] = {
    workload.name: workload
    for workload in (
        compose("hitlist-forensics", PARTS["hitlist-outbreak"], PARTS["forensics"]),
        compose("nat-filtering", PARTS["nat-placement"], PARTS["filtering-study"]),
    )
}
