"""Cross-module determinism-flow analysis (`repro.analysis.flow`).

The RP001–RP007 suite (:mod:`repro.analysis.lint`) is per-file
pattern matching: it can see a wall-clock call or an unseeded
generator, but not *where a value goes*.  The repo's correctness
story — bitwise reproduction at every optimization level — rests on
cross-module contracts that only runtime equivalence tests checked
until now:

* the **exchange determinism contract** (every RNG-consuming stage
  stays in the driver in exact serial order; shard-side stages are
  deterministic per-target),
* **pool-boundary picklability** (frozen spec units and module-level
  callables are the only things shipped to worker processes),
* the **equivalence gate** (every ``kernels_enabled()`` fast path has
  a reference twin that tests exercise via ``kernel_override``).

This package verifies those contracts statically:

* :mod:`~repro.analysis.flow.symbols` — a project symbol table: one
  AST per module, classes/functions by qualified name, instance
  attribute types, annotation resolution.
* :mod:`~repro.analysis.flow.callgraph` — an import-resolved call
  graph built with receiver-type inference (``self.verdict.dispatch``
  resolves through the attribute's inferred class, falling back to
  name-based class-hierarchy analysis only when the receiver type is
  unknown).
* :mod:`~repro.analysis.flow.taint` — a taint-style dataflow lattice
  tracking ``numpy.random.Generator`` values and wall-clock/entropy
  sources through assignments, calls, attribute loads, and
  comprehensions, plus a worklist fixpoint over the call graph.
  Conservative by design: unknown calls propagate taint.
* :mod:`~repro.analysis.flow.context` — the cached
  :class:`~repro.analysis.flow.context.ProjectContext` the lint
  framework hands to project-level checkers.
* :mod:`~repro.analysis.flow.checkers` — the RP101–RP104 rules
  exposed through ``hotspots lint``.

Every suppression of an RP1xx finding must name a reason::

    fresh = engine.run(rng)  # noqa: RP101 -- driver-owned rng, consumed pre-exchange

A bare ``# noqa: RP101`` does not silence the finding; the checker
reports the missing reason instead.
"""

from repro.analysis.flow.checkers import (
    KernelGateCoverageChecker,
    PoolBoundaryPicklabilityChecker,
    RngOrderingChecker,
    ShardPurityChecker,
)
from repro.analysis.flow.context import ProjectContext, build_context

__all__ = [
    "KernelGateCoverageChecker",
    "PoolBoundaryPicklabilityChecker",
    "ProjectContext",
    "RngOrderingChecker",
    "ShardPurityChecker",
    "build_context",
]
