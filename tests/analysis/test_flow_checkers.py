"""Tests for the RP101–RP104 cross-module flow checkers.

Each checker runs against a miniature project under
``tests/analysis/flow_fixtures/<code>/`` — its own ``src/repro``
tree, because the analysis is cross-module by design.  Per checker
the corpus covers: the violations fire, the clean patterns stay
silent, a *reasoned* ``# noqa`` suppression is honored, and a bare
``# noqa`` is reported as missing its reason.

The final class is the self-check: the four checkers produce zero
findings on the repository itself (the acceptance gate for
``hotspots lint`` exiting 0 at HEAD).
"""

from pathlib import Path

import pytest

from repro.analysis.flow import (
    KernelGateCoverageChecker,
    PoolBoundaryPicklabilityChecker,
    RngOrderingChecker,
    ShardPurityChecker,
    build_context,
)
from repro.analysis.flow.context import clear_cache
from repro.analysis.lint.config import LintConfig, load_config

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "tests" / "analysis" / "flow_fixtures"

#: Fixture projects analyze everything under their own src/ + tests/.
FIXTURE_CONFIG = LintConfig(paths=("src", "tests"), exclude=())


def flow_findings(checker_class, fixture_name):
    """All diagnostics from one checker on one fixture project."""
    clear_cache()
    root = FIXTURES / fixture_name
    context = build_context(root, FIXTURE_CONFIG)
    checker = checker_class()
    return list(checker.check_project(root, FIXTURE_CONFIG, context))


def marker_lines(relpath, fixture_name, marker="# violation"):
    """1-indexed lines of ``relpath`` carrying a marker comment."""
    source = (FIXTURES / fixture_name / relpath).read_text(encoding="utf-8")
    return {
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if marker in line
    }


class TestShardPurityRP101:
    def findings(self):
        return flow_findings(ShardPurityChecker, "rp101")

    def test_rng_draw_moved_into_shard_engine_is_caught(self):
        # The ISSUE acceptance criterion: a draw on a stored generator
        # inside a ShardEngine method must fire RP101.
        draws = [
            d
            for d in self.findings()
            if d.path == "src/repro/sim/shard.py"
            and "shard-side code consumes rng" in d.message
        ]
        assert draws, "the ShardEngine.tick draw must be flagged"
        assert draws[0].line in marker_lines("src/repro/sim/shard.py", "rp101")

    def test_cross_module_helper_draw_is_caught(self):
        helper = [
            d for d in self.findings() if d.path == "src/repro/sim/helper.py"
        ]
        assert len(helper) == 1
        assert "shard-side code consumes rng" in helper[0].message
        # The witness chain names how the helper became shard-reachable.
        assert "jitter" in helper[0].message
        assert "<-" in helper[0].message

    def test_driver_handing_generator_into_shard_is_caught(self):
        crossings = [
            d for d in self.findings() if d.path == "src/repro/driver.py"
        ]
        assert len(crossings) == 1
        assert "crosses into shard-side code" in crossings[0].message
        assert crossings[0].line in marker_lines(
            "src/repro/driver.py", "rp101"
        )

    def test_driver_owned_draw_is_clean(self):
        clean = marker_lines("src/repro/driver.py", "rp101", marker="# clean")
        flagged = {
            d.line for d in self.findings() if d.path == "src/repro/driver.py"
        }
        assert not clean & flagged

    def test_reasoned_noqa_is_honored_and_bare_noqa_reports(self):
        findings = self.findings()
        reasons = [d for d in findings if "must name a reason" in d.message]
        assert len(reasons) == 1
        # blessed (reasoned) is silent; unexplained (bare) reports.
        assert "RP101" in reasons[0].message
        assert all("blessed" not in d.message for d in findings)

    def test_exact_finding_count(self):
        assert len(self.findings()) == 4


class TestRngOrderingRP102:
    def findings(self):
        return flow_findings(RngOrderingChecker, "rp102")

    def test_fires_on_every_marked_violation(self):
        expected = marker_lines("src/repro/pipeline.py", "rp102")
        flagged = {d.line for d in self.findings()}
        assert expected <= flagged

    def test_set_iteration_draw_names_the_region(self):
        messages = [d.message for d in self.findings()]
        assert any("iteration over a set" in m for m in messages)
        assert any("os.listdir()" in m for m in messages)
        assert any("finally block" in m for m in messages)

    def test_recovery_path_call_into_consumer_is_caught(self):
        crossing = [
            d
            for d in self.findings()
            if "a generator flows into _replay" in d.message
        ]
        assert len(crossing) == 1
        assert "except block" in crossing[0].message

    def test_clean_patterns_stay_silent(self):
        clean = marker_lines("src/repro/pipeline.py", "rp102", marker="# clean")
        flagged = {d.line for d in self.findings()}
        assert not clean & flagged

    def test_reasoned_noqa_is_honored_and_bare_noqa_reports(self):
        findings = self.findings()
        reasons = [d for d in findings if "must name a reason" in d.message]
        assert len(reasons) == 1
        assert len(findings) == 5  # 4 violations + 1 missing-reason


class TestPoolPicklabilityRP103:
    def findings(self):
        return flow_findings(PoolBoundaryPicklabilityChecker, "rp103")

    def test_lambda_payload_is_caught(self):
        assert any(
            "a lambda is submitted as a pool payload" in d.message
            for d in self.findings()
        )

    def test_nested_function_payload_is_caught(self):
        assert any(
            "nested function (closure)" in d.message
            and "pool payload" in d.message
            for d in self.findings()
        )

    def test_lambda_argument_is_caught(self):
        assert any(
            "shipped as a pool-submit argument" in d.message
            for d in self.findings()
        )

    def test_lambda_field_default_in_shipped_class_is_caught(self):
        defaults = [
            d
            for d in self.findings()
            if "field default of pool-shipped class JobSpec" in d.message
        ]
        assert len(defaults) == 1
        assert defaults[0].line in marker_lines(
            "src/repro/pool.py", "rp103"
        )

    def test_module_level_payload_with_plain_spec_is_clean(self):
        clean = marker_lines("src/repro/pool.py", "rp103", marker="# clean")
        flagged = {d.line for d in self.findings()}
        assert not clean & flagged

    def test_reasoned_noqa_is_honored_and_bare_noqa_reports(self):
        findings = self.findings()
        reasons = [d for d in findings if "must name a reason" in d.message]
        assert len(reasons) == 1
        assert len(findings) == 5  # 4 violations + 1 missing-reason


class TestKernelGateCoverageRP104:
    def findings(self):
        return flow_findings(KernelGateCoverageChecker, "rp104")

    def test_uncovered_gated_function_is_caught(self):
        uncovered = [
            d for d in self.findings() if "uncovered_scale" in d.message
        ]
        assert len(uncovered) == 1
        assert "kernel_override" in uncovered[0].message
        assert uncovered[0].line in marker_lines(
            "src/repro/fast.py", "rp104"
        )

    def test_covered_gated_function_is_clean(self):
        assert all(
            "covered_sum" not in d.message for d in self.findings()
        )

    def test_plain_test_without_override_does_not_count(self):
        # test_plain.py calls uncovered_scale but never kernel_override,
        # so the function stays uncovered.
        assert any(
            "uncovered_scale" in d.message for d in self.findings()
        )

    def test_reasoned_noqa_is_honored_and_bare_noqa_reports(self):
        findings = self.findings()
        reasons = [d for d in findings if "must name a reason" in d.message]
        assert len(reasons) == 1
        assert "unexplained_shift" in reasons[0].message
        assert all("blessed_shift" not in d.message for d in findings)

    def test_exact_finding_count(self):
        assert len(self.findings()) == 2


class TestRepoSelfCheck:
    """The four checkers are clean on the repository at HEAD."""

    @pytest.mark.parametrize(
        "checker_class",
        [
            ShardPurityChecker,
            RngOrderingChecker,
            PoolBoundaryPicklabilityChecker,
            KernelGateCoverageChecker,
        ],
    )
    def test_flow_checker_is_clean_on_repo(self, checker_class):
        config = load_config(ROOT)
        context = build_context(ROOT, config)
        checker = checker_class()
        findings = list(checker.check_project(ROOT, config, context))
        assert findings == [], "\n".join(str(d) for d in findings)

    def test_repo_context_sees_the_real_project(self):
        config = load_config(ROOT)
        context = build_context(ROOT, config)
        assert "repro.sim.shard.ShardEngine" in context.table.classes
        assert context.graph.gated_functions
        assert context.taint.uses_rng
