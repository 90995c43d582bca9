"""The RP101–RP104 determinism-flow checkers.

All four are :class:`~repro.analysis.lint.framework.ProjectChecker`
subclasses with ``needs_context = True``: the lint driver hands them
one shared :class:`~repro.analysis.flow.context.ProjectContext`
(symbol table + call graph + taint fixpoint) instead of a single
file's AST.

Suppression policy — stricter than the RP00x rules on purpose: a
flow finding names a cross-module contract, so silencing one must
name the argument why the contract still holds::

    state = replay(rng)  # noqa: RP102 -- restored bit-generator state; the replay re-draws the serial stream

A bare ``# noqa: RP102`` (or a blanket ``# noqa``) does not silence
the finding; the checker reports the missing reason instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.analysis.flow.callgraph import SubmitSite
from repro.analysis.flow.context import ProjectContext, build_context
from repro.analysis.flow.taint import RNG
from repro.analysis.lint.config import LintConfig
from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.framework import ProjectChecker

#: ``# noqa: RP101 -- reason`` — codes are mandatory, the reason
#: group decides whether the suppression is honored or reported.
_NOQA_WITH_REASON = re.compile(
    r"#\s*noqa:\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
    r"(?:\s*--\s*(?P<reason>\S.*))?",
    re.IGNORECASE,
)


def _short(context: ProjectContext, qualname: str) -> str:
    """A qualname without its module prefix, for readable messages."""
    info = context.table.functions.get(qualname)
    if info is not None and qualname.startswith(info.module + "."):
        return qualname[len(info.module) + 1 :]
    cls = context.table.classes.get(qualname)
    if cls is not None and qualname.startswith(cls.module + "."):
        return qualname[len(cls.module) + 1 :]
    return qualname


class FlowChecker(ProjectChecker):
    """Shared driver: scope filter, reasoned-noqa policy, ordering."""

    needs_context = True
    #: Findings are only reported for files under these prefixes —
    #: the *analysis* still sees the whole project (a test passing a
    #: generator into shard code is an edge; the finding anchors in
    #: ``src``).
    scope: tuple[str, ...] = ("src",)

    def check_project(
        self,
        root: Path,
        config: LintConfig,
        context: Optional[ProjectContext] = None,
    ) -> Iterator[Diagnostic]:
        if context is None:
            context = build_context(root, config)
        seen: set[tuple[str, int, int, str]] = set()
        results: list[Diagnostic] = []
        for diagnostic in self._find(context):
            if not self.applies_to(diagnostic.path):
                continue
            key = (
                diagnostic.path,
                diagnostic.line,
                diagnostic.col,
                diagnostic.message,
            )
            if key in seen:
                continue
            seen.add(key)
            resolved = self._apply_noqa(context, diagnostic)
            if resolved is not None:
                results.append(resolved)
        yield from sorted(results)

    def _find(self, context: ProjectContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def _apply_noqa(
        self, context: ProjectContext, diagnostic: Diagnostic
    ) -> Optional[Diagnostic]:
        """Honor reasoned suppressions; report bare ones."""
        lines = context.source_lines(diagnostic.path)
        first = max(diagnostic.line, 1)
        last = max(diagnostic.end_line, first)
        bare_line: Optional[int] = None
        for lineno in range(first, min(last, len(lines)) + 1):
            for match in _NOQA_WITH_REASON.finditer(lines[lineno - 1]):
                codes = {
                    code.strip().upper()
                    for code in match.group("codes").split(",")
                }
                if self.code.upper() not in codes:
                    continue
                reason = match.group("reason")
                if reason and reason.strip():
                    return None
                bare_line = lineno
        if bare_line is not None:
            return Diagnostic(
                path=diagnostic.path,
                line=diagnostic.line,
                col=diagnostic.col,
                code=self.code,
                message=(
                    f"suppression of {self.code} must name a reason "
                    f"('# noqa: {self.code} -- why'); suppressed finding: "
                    f"{diagnostic.message}"
                ),
                end_line=diagnostic.end_line,
            )
        return diagnostic


class ShardPurityChecker(FlowChecker):
    """RP101: RNG/clock/entropy must not flow into shard-side code.

    Shard-side code is every method of a ``ShardEngine`` class plus
    everything reachable from a process-pool ``submit`` payload (the
    :class:`~repro.runtime.runner.TrialRunner` workers).  The exchange
    determinism contract keeps all stream consumption in the driver,
    in serial order; a draw inside a shard would break bitwise
    reproduction.
    """

    code = "RP101"
    name = "shard-purity"
    rationale = (
        "RNG, wall-clock, and entropy reads must stay in the driver; "
        "shard-side stages are deterministic per-target (exchange "
        "determinism contract)."
    )

    def _find(self, context: ProjectContext) -> Iterable[Diagnostic]:
        table, graph, taint = context.table, context.graph, context.taint
        roots: dict[str, str] = {}
        for class_qualname in table.classes_by_name.get("ShardEngine", ()):
            cls = table.classes[class_qualname]
            for method_qualname in cls.methods.values():
                roots.setdefault(
                    method_qualname, f"method of {class_qualname}"
                )
        for site in graph.submit_sites:
            if site.payload is not None:
                roots.setdefault(
                    site.payload,
                    f"pool payload ({site.relpath}:{site.node.lineno})",
                )

        parent: dict[str, str] = {}
        shard_set = set(roots)
        queue = list(roots)
        while queue:
            current = queue.pop()
            for callee in graph.edges.get(current, ()):
                if callee not in shard_set:
                    shard_set.add(callee)
                    parent[callee] = current
                    queue.append(callee)

        def chain(qualname: str) -> str:
            parts = [qualname]
            while parts[-1] in parent:
                parts.append(parent[parts[-1]])
            return " <- ".join(_short(context, part) for part in parts)

        # (a) direct stream/clock/entropy consumption in shard code.
        for qualname in sorted(shard_set):
            info = table.functions.get(qualname)
            summary = taint.functions.get(qualname)
            if info is None or summary is None:
                continue
            for site in summary.sites:
                yield Diagnostic(
                    path=info.relpath,
                    line=site.line,
                    col=site.col,
                    code=self.code,
                    message=(
                        f"shard-side code consumes {site.kind}: "
                        f"{_short(context, qualname)} {site.detail} "
                        f"[shard-reachable: {chain(qualname)}]"
                    ),
                    end_line=site.line,
                )

        # (b) a live generator handed from the driver into shard code.
        for qualname, summary in sorted(taint.functions.items()):
            if qualname in shard_set:
                continue
            info = table.functions.get(qualname)
            if info is None:
                continue
            for call in summary.call_sites:
                if call.kind != RNG or call.via_cha:
                    continue
                crossing = next(
                    (t for t in call.targets if t in shard_set), None
                )
                if crossing is None:
                    continue
                yield Diagnostic(
                    path=info.relpath,
                    line=call.line,
                    col=call.col,
                    code=self.code,
                    message=(
                        f"a generator crosses into shard-side code: "
                        f"{_short(context, qualname)} {call.detail} "
                        f"[{_short(context, crossing)} is shard-reachable: "
                        f"{chain(crossing)}]"
                    ),
                    end_line=call.line,
                )

        # (c) a tainted value shipped through a pool submit().
        for site in graph.submit_sites:
            summary = taint.functions.get(site.caller)
            if summary is None:
                continue
            for call in summary.call_sites:
                if (
                    call.line == site.node.lineno
                    and call.col == site.node.col_offset
                ):
                    yield Diagnostic(
                        path=site.relpath,
                        line=call.line,
                        col=call.col,
                        code=self.code,
                        message=(
                            f"a {call.kind}-tainted value crosses the pool "
                            f"boundary in {_short(context, site.caller)}; "
                            "ship frozen spec data, not live streams"
                        ),
                        end_line=call.line,
                    )


class RngOrderingChecker(FlowChecker):
    """RP102: no RNG consumption under data-dependent order.

    Draw order *is* the reproducibility contract, so a draw inside a
    set iteration, an ``os.listdir``/``glob`` loop, or an
    ``except``/``finally`` recovery path — code the serial reference
    would not execute, or would execute in another order — silently
    forks the stream.  The fork-deadlock and degrade-to-serial
    fallbacks in ``runner.py`` are the motivating precedents.
    """

    code = "RP102"
    name = "rng-ordering"
    rationale = (
        "RNG must not be consumed under data-dependent iteration "
        "order (sets, os.listdir, unsorted glob) or in except/finally "
        "recovery paths the serial reference would not execute."
    )

    def _find(self, context: ProjectContext) -> Iterable[Diagnostic]:
        taint = context.taint
        for qualname, summary in sorted(taint.functions.items()):
            info = context.table.functions.get(qualname)
            if info is None:
                continue
            for site in summary.sites:
                if site.kind != RNG or not site.regions:
                    continue
                yield Diagnostic(
                    path=info.relpath,
                    line=site.line,
                    col=site.col,
                    code=self.code,
                    message=(
                        f"RNG drawn under {site.regions[0]}: "
                        f"{_short(context, qualname)} {site.detail}; "
                        "draw order must match the serial reference"
                    ),
                    end_line=site.line,
                )
            for call in summary.call_sites:
                if call.kind != RNG or not call.regions:
                    continue
                consumer = next(
                    (t for t in call.targets if t in taint.uses_rng), None
                )
                if consumer is None:
                    continue
                witness = taint.witness.get(consumer, "consumes the stream")
                yield Diagnostic(
                    path=info.relpath,
                    line=call.line,
                    col=call.col,
                    code=self.code,
                    message=(
                        f"a generator flows into "
                        f"{_short(context, consumer)} under "
                        f"{call.regions[0]} in {_short(context, qualname)} "
                        f"({witness}); recovery paths must not consume "
                        "the live stream"
                    ),
                    end_line=call.line,
                )


class PoolBoundaryPicklabilityChecker(FlowChecker):
    """RP103: everything crossing a pool boundary pickles statically.

    A pool boundary is a process-pool ``submit`` call, such as the
    :class:`~repro.runtime.runner.TrialRunner` dispatch.  Generalizes
    RP004 from "the payload callable" to the whole
    shipped object graph: the payload must be a module-level
    function, no argument may be a lambda or a closure, and every
    project class reachable from the payload's parameter annotations
    (through dataclass fields and constructor-typed attributes) must
    be module-level with no lambda field defaults.
    """

    code = "RP103"
    name = "pool-picklability"
    rationale = (
        "Objects crossing a ProcessPoolExecutor boundary must be "
        "statically picklable: module-level callables and classes, no "
        "lambdas, closures, or function-local classes in the "
        "transitive field set."
    )

    def _find(self, context: ProjectContext) -> Iterable[Diagnostic]:
        table, graph = context.table, context.graph
        shipped_classes: dict[str, str] = {}
        for site in graph.submit_sites:
            payload_label = (
                _short(context, site.payload)
                if site.payload is not None
                else "the pool payload"
            )
            if isinstance(site.payload_node, ast.Lambda):
                yield self._site_diag(
                    site.relpath,
                    site.payload_node,
                    "a lambda is submitted as a pool payload; only "
                    "module-level functions pickle",
                )
            elif site.payload is not None:
                info = table.functions[site.payload]
                if info.nested:
                    yield self._site_diag(
                        site.relpath,
                        site.node,
                        f"pool payload {payload_label} is a nested "
                        "function (closure); only module-level "
                        "functions pickle",
                    )
                module = table.modules.get(info.module)
                if module is not None:
                    args = info.node.args
                    for param in [*args.posonlyargs, *args.args]:
                        if param.annotation is None:
                            continue
                        for class_qualname in table.annotation_classes(
                            param.annotation, module
                        ):
                            shipped_classes.setdefault(
                                class_qualname, payload_label
                            )
            for arg in site.node.args[1:]:
                yield from self._check_arg(context, site, arg)
            for keyword in site.node.keywords:
                yield from self._check_arg(context, site, keyword.value)

        yield from self._check_shipped_graph(context, shipped_classes)

    def _site_diag(
        self, relpath: str, node: ast.AST, message: str
    ) -> Diagnostic:
        line = int(getattr(node, "lineno", 1))
        return Diagnostic(
            path=relpath,
            line=line,
            col=int(getattr(node, "col_offset", 0)),
            code=self.code,
            message=message,
            end_line=int(getattr(node, "end_lineno", 0) or line),
        )

    def _check_arg(
        self, context: ProjectContext, site: "SubmitSite", arg: ast.expr
    ) -> Iterator[Diagnostic]:
        relpath = site.relpath
        for node in ast.walk(arg):
            if isinstance(node, ast.Lambda):
                yield self._site_diag(
                    relpath,
                    node,
                    "a lambda is shipped as a pool-submit argument; "
                    "lambdas do not pickle",
                )
        module = context.table.modules_by_relpath.get(relpath)
        if module is None:
            return
        dotted = context.table.dotted_name(arg, module)
        info = context.table.resolve_function(dotted)
        if info is None and isinstance(arg, ast.Name):
            info = context.table.functions.get(f"{site.caller}.{arg.id}")
        if dotted is None and info is None:
            return
        if info is not None and info.nested:
            yield self._site_diag(
                relpath,
                arg,
                f"pool-submit argument {_short(context, info.qualname)} "
                "is a nested function (closure); it does not pickle",
            )
        cls = context.table.resolve_class(dotted)
        if cls is not None and cls.nested_in_function:
            yield self._site_diag(
                relpath,
                arg,
                f"pool-submit argument {cls.name} is a function-local "
                "class; it does not pickle",
            )

    def _check_shipped_graph(
        self, context: ProjectContext, shipped: dict[str, str]
    ) -> Iterator[Diagnostic]:
        table = context.table
        seen: set[str] = set()
        queue = sorted(shipped)
        via = dict(shipped)
        while queue:
            class_qualname = queue.pop(0)
            if class_qualname in seen:
                continue
            seen.add(class_qualname)
            cls = table.classes.get(class_qualname)
            if cls is None:
                continue
            payload_label = via.get(class_qualname, "a pool payload")
            if cls.nested_in_function:
                yield self._site_diag(
                    cls.relpath,
                    cls.node,
                    f"class {cls.name} crosses a pool boundary (shipped "
                    f"via {payload_label}) but is defined inside a "
                    "function; function-local classes do not pickle",
                )
            for statement in cls.node.body:
                value = getattr(statement, "value", None)
                if value is None:
                    continue
                for node in ast.walk(value):
                    if isinstance(node, ast.Lambda):
                        yield self._site_diag(
                            cls.relpath,
                            node,
                            f"field default of pool-shipped class "
                            f"{cls.name} is a lambda; it does not pickle",
                        )
            module = table.modules.get(cls.module)
            if module is not None:
                for annotation in cls.attr_annotations.values():
                    for reached in table.annotation_classes(
                        annotation, module
                    ):
                        via.setdefault(reached, payload_label)
                        queue.append(reached)
            for constructed in cls.attr_constructed.values():
                via.setdefault(constructed, payload_label)
                queue.append(constructed)


class KernelGateCoverageChecker(FlowChecker):
    """RP104: every gated fast path has equivalence-test coverage.

    A function branching on ``kernels_enabled()`` has two
    implementations; the bitwise guarantee is only as good as the
    tests that run *both*.  This rule requires each gated function to
    be call-graph-reachable from at least one test module that also
    references ``kernel_override`` (the context manager equivalence
    tests use to force the reference path).
    """

    code = "RP104"
    name = "kernel-gate-coverage"
    rationale = (
        "Every kernels_enabled() fast path must be reachable from at "
        "least one test that also exercises the reference path via "
        "kernel_override."
    )

    def _find(self, context: ProjectContext) -> Iterable[Diagnostic]:
        table, graph = context.table, context.graph
        tests_prefix = context.config.tests_path.rstrip("/") + "/"
        covered: set[str] = set()
        for module in table.modules.values():
            relpath = module.relpath
            if not relpath.startswith(tests_prefix):
                continue
            basename = relpath.rsplit("/", 1)[-1]
            if not basename.startswith("test_"):
                continue
            if not any(
                "kernel_override" in line for line in module.source_lines
            ):
                continue
            roots = {
                qualname
                for qualname, info in table.functions.items()
                if info.relpath == relpath
            }
            covered |= graph.reachable_from(roots)

        for qualname in sorted(graph.gated_functions):
            if qualname in covered:
                continue
            info = table.functions.get(qualname)
            if info is None:
                continue
            yield Diagnostic(
                path=info.relpath,
                line=info.node.lineno,
                col=info.node.col_offset,
                code=self.code,
                message=(
                    f"kernels_enabled() fast path in "
                    f"{_short(context, qualname)} is not reachable from "
                    "any test that exercises the reference path via "
                    "kernel_override; add an equivalence test driving "
                    "both implementations"
                ),
                end_line=info.node.lineno,
            )
