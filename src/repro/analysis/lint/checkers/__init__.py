"""The checker registry for ``hotspots lint``.

One module per concern; :func:`all_checkers` is the canonical
ordering (by error code) the CLI and the test suite both use.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.flow.checkers import (
    KernelGateCoverageChecker,
    PoolBoundaryPicklabilityChecker,
    RngOrderingChecker,
    ShardPurityChecker,
)
from repro.analysis.lint.checkers.dispatch import PicklableDispatchChecker
from repro.analysis.lint.checkers.excepts import SilentExceptChecker
from repro.analysis.lint.checkers.floats import FloatEqualityChecker
from repro.analysis.lint.checkers.nondeterminism import NondeterminismChecker
from repro.analysis.lint.checkers.registry_consistency import (
    RegistryConsistencyChecker,
)
from repro.analysis.lint.checkers.rng import (
    GlobalRandomChecker,
    UnseededRngChecker,
)
from repro.analysis.lint.framework import Checker

#: Checker classes in error-code order.  RP00x are per-file rules;
#: RP10x are the cross-module determinism-flow rules from
#: :mod:`repro.analysis.flow`.
CHECKER_CLASSES: tuple[type[Checker], ...] = (
    GlobalRandomChecker,
    UnseededRngChecker,
    NondeterminismChecker,
    PicklableDispatchChecker,
    FloatEqualityChecker,
    RegistryConsistencyChecker,
    SilentExceptChecker,
    ShardPurityChecker,
    RngOrderingChecker,
    PoolBoundaryPicklabilityChecker,
    KernelGateCoverageChecker,
)


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker, code order."""
    return [checker_class() for checker_class in CHECKER_CLASSES]


def checkers_for_codes(codes: Sequence[str]) -> list[Checker]:
    """Instances for a ``--select`` list; unknown codes raise."""
    known = {
        checker_class.code: checker_class
        for checker_class in CHECKER_CLASSES
    }
    selected: list[Checker] = []
    for code in codes:
        normalized = code.strip().upper()
        if normalized not in known:
            raise ValueError(
                f"unknown checker code {code!r}; known: {sorted(known)}"
            )
        selected.append(known[normalized]())
    return selected


__all__ = [
    "CHECKER_CLASSES",
    "all_checkers",
    "checkers_for_codes",
    "FloatEqualityChecker",
    "GlobalRandomChecker",
    "KernelGateCoverageChecker",
    "NondeterminismChecker",
    "PicklableDispatchChecker",
    "PoolBoundaryPicklabilityChecker",
    "RegistryConsistencyChecker",
    "RngOrderingChecker",
    "ShardPurityChecker",
    "SilentExceptChecker",
    "UnseededRngChecker",
]
