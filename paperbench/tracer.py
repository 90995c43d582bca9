"""Per-layer spans and counts, recorded from outside the program.

The tracer wraps public functions of the ``repro`` modules for the
length of a traced pass and puts the originals back afterwards, so
untraced passes run the program untouched.  Each wrapped call records
a span (layer, start, end, parent) in memory; a layer's self time is
its spans' durations minus their children's.  A call into a layer
that is already open (``HitListCodeRedIIWorm.generate`` calling
``CodeRedIIWorm.generate``, ``deliverable`` calling
``deterministic_deliverable``) folds into the open span.

``LAYERS`` is the wrapper list.  Installing it raises
:class:`MissingLayerError` if a named function no longer exists, and
``selftest.py`` fails if no workload calls one of them, so a refactor
cannot silently drop a layer from the trace.  Functions called
hundreds of thousands of times per pass are not wrapped (for example
``AffineCycleStructure.cycle_id_of_state``); their time lands in the
caller's span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional


def _size(result: Any) -> int:
    return int(result.size)


def _first_array_len(args: tuple) -> int:
    return len(args[1])


@dataclass(frozen=True)
class Target:
    """One wrapped public function.

    ``path`` is ``"module:Class.method"`` or ``"module:function"``.
    ``count_in(args)`` and ``count_out(result)`` add to the
    layer's ``counter`` on each outermost call.  A target with
    ``span=False`` only counts (for functions called many times per
    outer call, whose time belongs to the caller).
    """

    layer: str
    path: str
    counter: Optional[str] = None
    count_in: Optional[Callable[[tuple], int]] = None
    count_out: Optional[Callable[[Any], int]] = None
    span: bool = True


def _targets(layer: str, *paths: str, **options: Any) -> list[Target]:
    return [Target(layer, path, **options) for path in paths]


#: The wrapper list: every layer the per-layer metrics read.
LAYERS: tuple[Target, ...] = tuple(
    _targets(
        "worms.generate",
        "repro.worms.codered2:CodeRedIIWorm.generate",
        "repro.worms.hitlist:HitListCodeRedIIWorm.generate",
        "repro.worms.slammer:SlammerWorm.generate",
        counter="probes",
        count_out=_size,
    )
    + _targets(
        "worms.draw",
        "repro.worms.codered2:uniform_random_addresses",
        counter="passes",
        span=False,
    )
    + _targets("worms.build_hitlist", "repro.worms.hitlist:build_greedy_hitlist")
    + _targets("worms.blaster_starts", "repro.worms.blaster:blaster_starts_for_seeds")
    + _targets(
        "net.contains",
        "repro.net.cidr:BlockSet.contains_array",
        "repro.net.cidr:CIDRBlock.contains_array",
        counter="addresses",
        count_in=_first_array_len,
    )
    + _targets("net.random_addresses", "repro.net.cidr:BlockSet.random_addresses")
    + _targets(
        "net.locate",
        "repro.net.kernels:MergedPartition.locate",
        counter="addresses",
        count_in=_first_array_len,
    )
    + _targets(
        "env.deliverable",
        "repro.env.environment:NetworkEnvironment.deliverable",
        "repro.env.environment:NetworkEnvironment.deterministic_deliverable",
        counter="probes",
        count_in=_first_array_len,
    )
    + _targets("env.nat", "repro.env.nat:NATDeployment.deliverable")
    + _targets("env.policy", "repro.env.filtering:FilteringPolicy.deliverable")
    + _targets("env.loss", "repro.env.failures:LossModel.deliverable")
    + _targets(
        "sensors.dispatch",
        "repro.sensors.index:SensorIndex.dispatch_from_owner_slots",
    )
    + _targets("sensors.ingest", "repro.sensors.deployment:SensorGrid.ingest")
    + _targets(
        "sensors.place",
        "repro.sensors.deployment:place_one_per_block",
        "repro.sensors.deployment:place_random",
        "repro.sensors.deployment:place_within_blocks",
    )
    + _targets(
        "population.vulnerable_hits",
        "repro.population.model:HostPopulation.vulnerable_hits",
        counter="targets",
        count_in=_first_array_len,
    )
    + _targets(
        "population.infect",
        "repro.population.model:HostPopulation.infect",
        counter="new_infections",
        count_out=len,
    )
    + _targets(
        "population.synthesize",
        "repro.population.synthesis:synthesize_clustered_population",
        "repro.population.synthesis:nat_population",
        "repro.population.allocation:synthesize_enterprises",
        "repro.population.allocation:synthesize_broadband_isps",
    )
    + _targets(
        "population.place_infected",
        "repro.population.allocation:place_infected_hosts",
    )
    + _targets("sim.simulate", "repro.sim.spec:simulate")
    + _targets(
        "analysis.filtering_study",
        "repro.analysis.filtering_study:run_filtering_study",
    )
    + _targets(
        "analysis.blaster_leak",
        "repro.analysis.filtering_study:blaster_leak_counts",
    )
    + _targets(
        "analysis.blaster_seeds",
        "repro.analysis.blaster_seeds:SeedTargetMap.__init__",
        "repro.analysis.blaster_seeds:SeedTargetMap.seeds_for_window",
        "repro.analysis.blaster_seeds:BlasterSweepModel.__init__",
        "repro.analysis.blaster_seeds:BlasterSweepModel.sweep_block",
    )
    + _targets(
        "analysis.slammer_cycles",
        "repro.analysis.slammer_cycles:expected_unique_sources_per_slash24",
        "repro.analysis.slammer_cycles:slash16_observation_scores",
    )
    + _targets("analysis.hotspots", "repro.analysis.hotspots:hotspot_report")
    + _targets(
        "prng.cycles",
        "repro.prng.cycles:cycle_structure",
        "repro.prng.cycles:AffineCycleStructure.cycle_lengths_of_states",
    )
    + _targets("prng.lcg", "repro.prng.lcg:LCG.stream_fast")
    + _targets("prng.entropy", "repro.prng.entropy:BootTimeModel.sample_seeds")
    + _targets(
        "botnet.commands",
        "repro.botnet.corpus:synthesize_capture",
        "repro.botnet.corpus:extract_commands",
        "repro.botnet.commands:anonymize_command",
    )
)


#: Generators that draw through ``uniform_random_addresses``: the base
#: of ``worms.draw_passes_per_generate``.
CODERED_GENERATE = frozenset(
    (
        "repro.worms.codered2:CodeRedIIWorm.generate",
        "repro.worms.hitlist:HitListCodeRedIIWorm.generate",
    )
)


class MissingLayerError(RuntimeError):
    """A function named in the wrapper list no longer exists."""


def _resolve(path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a ``module:qualname`` path."""
    module_name, _, qualname = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise MissingLayerError(f"{path}: {error}") from None
    *parents, attribute = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            raise MissingLayerError(f"{path}: no {parent!r} in {module_name}")
    # Methods must be defined on the named class itself: an inherited
    # attribute would mean the named definition is gone.
    namespace = vars(owner)
    if attribute not in namespace or not callable(namespace[attribute]):
        raise MissingLayerError(f"{path}: no function {attribute!r}")
    return owner, attribute, namespace[attribute]


class Tracer:
    """Spans and counters for one traced pass (or set-up).

    ``spans`` holds ``(layer, start, end, parent_index)`` tuples, with
    ``parent_index`` -1 for a root.  Install the wrappers with
    ``with tracer.installed(): ...`` and open a root span with
    ``with tracer.root("experiments"): ...``; calls outside a root span
    are not recorded.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.path_calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------

    def _enter(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((layer, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        self._open[layer] = self._open.get(layer, 0) + 1
        return index

    def _exit(self, index: int) -> None:
        layer, start, _, parent = self.spans[index]
        self.spans[index] = (layer, start, time.perf_counter(), parent)
        self._stack.pop()
        self._open[layer] -= 1

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A root span (``"setup"`` or ``"experiments"``) around a phase."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        layer = target.layer
        counter_key = f"{layer}.{target.counter}" if target.counter else None

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._stack:
                return original(*args, **kwargs)
            self.path_calls[target.path] = self.path_calls.get(target.path, 0) + 1
            if not target.span:
                self._add(counter_key, 1)
                return original(*args, **kwargs)
            if self._open.get(layer):
                return original(*args, **kwargs)
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if target.count_in is not None:
                self._add(counter_key, target.count_in(args))
            index = self._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(index)
            if target.count_out is not None:
                self._add(counter_key, target.count_out(result))
            self._observe(target, args, result)
            return result

        return wrapper

    def _observe(self, target: Target, args: tuple, result: Any) -> None:
        """Layer-specific counts read from a call's arguments or result."""
        layer = target.layer
        if target.path in CODERED_GENERATE:
            self._add("worms.generate.codered_calls", 1)
        elif layer == "sim.simulate":
            self._add("sim.generated", int(result.total_probes))
            self._add("sim.delivered", int(result.delivered_probes))
        elif layer == "env.deliverable" and not self._open.get("sim.simulate"):
            self._add("env.generated", len(args[1]))
            self._add("env.delivered", int(result.sum()))

    # -- installation ------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """The wrappers, installed for the length of the block."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        resolved = [(target, *_resolve(target.path)) for target in LAYERS]
        # The program's modules and the benchmark's own composition.
        namespaces = [
            vars(module)
            for name, module in list(sys.modules.items())
            if module is not None
            and (name in ("repro", "workloads") or name.startswith("repro."))
        ]
        for target, owner, attribute, original in resolved:
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, original, wrapper)
                continue
            # A module-level function is also bound by name in every
            # module that imported it; patch each binding.
            for namespace in namespaces:
                for name, value in list(namespace.items()):
                    if value is original:
                        self._patch(namespace, name, original, wrapper)

    def _patch(self, owner: Any, attribute: str, original: Any, wrapper: Any) -> None:
        _assign(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def _uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            _assign(owner, attribute, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: span durations minus their children's."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (layer, start, end, _) in enumerate(self.spans):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[index]
        return totals

    def called_paths(self) -> set[str]:
        """Wrapped functions called at least once, folded calls included."""
        return set(self.path_calls)


def _assign(owner: Any, attribute: str, value: Any) -> None:
    """Bind ``value`` in a class or in a module's namespace dict."""
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)
