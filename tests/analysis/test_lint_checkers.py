"""Fixture-backed tests for every ``hotspots lint`` checker.

Each RP code gets three assertions against its fixture module: the
flagged pattern fires, the clean pattern stays silent, and the
suppression path (inline ``# noqa`` / ``# bitwise`` marker / TOML
baseline) silences a real violation.
"""

from pathlib import Path

import pytest

from repro.analysis.lint.checkers import (
    CHECKER_CLASSES,
    FloatEqualityChecker,
    GlobalRandomChecker,
    NondeterminismChecker,
    PicklableDispatchChecker,
    RegistryConsistencyChecker,
    SilentExceptChecker,
    UnseededRngChecker,
    all_checkers,
    checkers_for_codes,
)
from repro.analysis.lint.config import LintConfig, Suppression
from repro.analysis.lint.framework import run_lint

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "tests" / "analysis" / "lint_fixtures"


def lint_fixture(checker, fixture_name, config=None):
    """Diagnostics of one checker over one fixture file."""
    report = run_lint(
        ROOT,
        paths=[FIXTURES / f"{fixture_name}.py"],
        config=config or LintConfig(),
        checkers=[checker],
        run_project_checks=False,
    )
    return report.diagnostics


class TestGlobalRandomChecker:
    def test_flags_every_global_state_pattern(self):
        diagnostics = lint_fixture(GlobalRandomChecker(), "rp001")
        assert len(diagnostics) == 3
        assert {d.code for d in diagnostics} == {"RP001"}
        messages = " ".join(d.message for d in diagnostics)
        assert "stdlib `random`" in messages
        assert "numpy.random.seed" in messages
        assert "numpy.random.RandomState" in messages

    def test_clean_patterns_do_not_fire(self):
        diagnostics = lint_fixture(GlobalRandomChecker(), "rp001")
        flagged_lines = {d.line for d in diagnostics}
        source = (FIXTURES / "rp001.py").read_text().splitlines()
        for line_number in flagged_lines:
            assert "violation" in source[line_number - 1]

    def test_inline_noqa_suppresses(self):
        source = (FIXTURES / "rp001.py").read_text()
        assert "# noqa: RP001" in source and "# noqa  " in source
        diagnostics = lint_fixture(GlobalRandomChecker(), "rp001")
        # 5 global-state patterns in the file, 2 carry noqa markers.
        assert len(diagnostics) == 3

    def test_baseline_suppression_silences_the_file(self):
        config = LintConfig(
            suppressions=(
                Suppression(
                    path="tests/analysis/lint_fixtures/*",
                    codes=("RP001",),
                ),
            )
        )
        assert lint_fixture(GlobalRandomChecker(), "rp001", config) == ()


class TestUnseededRngChecker:
    def test_flags_unseeded_default_rng(self):
        diagnostics = lint_fixture(UnseededRngChecker(), "rp002")
        assert len(diagnostics) == 2
        assert {d.code for d in diagnostics} == {"RP002"}

    def test_seeded_calls_are_clean(self):
        source = (FIXTURES / "rp002.py").read_text().splitlines()
        for diagnostic in lint_fixture(UnseededRngChecker(), "rp002"):
            assert "violation" in source[diagnostic.line - 1]

    def test_noqa_suppresses(self):
        diagnostics = lint_fixture(UnseededRngChecker(), "rp002")
        suppressed_line = next(
            index
            for index, line in enumerate(
                (FIXTURES / "rp002.py").read_text().splitlines(), start=1
            )
            if "# noqa: RP002" in line
        )
        assert suppressed_line not in {d.line for d in diagnostics}

    def test_entrypoint_files_are_exempt(self):
        config = LintConfig(
            entrypoints=("tests/analysis/lint_fixtures/rp002.py",)
        )
        assert lint_fixture(UnseededRngChecker(), "rp002", config) == ()


class TestNondeterminismChecker:
    def test_flags_clock_entropy_and_set_order(self):
        diagnostics = lint_fixture(NondeterminismChecker(), "rp003")
        assert len(diagnostics) == 5
        messages = " ".join(d.message for d in diagnostics)
        assert "time.time" in messages
        assert "datetime.datetime.now" in messages
        assert "os.urandom" in messages
        assert "hash-dependent ordering" in messages

    def test_clean_patterns_do_not_fire(self):
        source = (FIXTURES / "rp003.py").read_text().splitlines()
        for diagnostic in lint_fixture(NondeterminismChecker(), "rp003"):
            assert "violation" in source[diagnostic.line - 1]

    def test_noqa_suppresses(self):
        source = (FIXTURES / "rp003.py").read_text()
        assert source.count("time.time()") == 2  # one flagged, one noqa'd
        diagnostics = lint_fixture(NondeterminismChecker(), "rp003")
        wall_clock = [d for d in diagnostics if "time.time" in d.message]
        assert len(wall_clock) == 1


class TestPicklableDispatchChecker:
    def test_flags_lambda_and_closure_payloads(self):
        diagnostics = lint_fixture(PicklableDispatchChecker(), "rp004")
        assert len(diagnostics) == 3
        messages = " ".join(d.message for d in diagnostics)
        assert "lambda" in messages
        assert "closure_payload" in messages

    def test_module_level_payloads_are_clean(self):
        source = (FIXTURES / "rp004.py").read_text().splitlines()
        for diagnostic in lint_fixture(PicklableDispatchChecker(), "rp004"):
            assert "violation" in source[diagnostic.line - 1]

    def test_noqa_suppresses(self):
        diagnostics = lint_fixture(PicklableDispatchChecker(), "rp004")
        suppressed_line = next(
            index
            for index, line in enumerate(
                (FIXTURES / "rp004.py").read_text().splitlines(), start=1
            )
            if "# noqa: RP004" in line
        )
        assert suppressed_line not in {d.line for d in diagnostics}


class TestFloatEqualityChecker:
    def test_flags_bare_float_comparisons(self):
        diagnostics = lint_fixture(FloatEqualityChecker(), "rp005")
        assert len(diagnostics) == 3
        assert {d.code for d in diagnostics} == {"RP005"}

    def test_isclose_and_non_floats_are_clean(self):
        source = (FIXTURES / "rp005.py").read_text().splitlines()
        for diagnostic in lint_fixture(FloatEqualityChecker(), "rp005"):
            assert "violation" in source[diagnostic.line - 1]

    def test_bitwise_marker_and_noqa_suppress(self):
        source_lines = (FIXTURES / "rp005.py").read_text().splitlines()
        marked = {
            index
            for index, line in enumerate(source_lines, start=1)
            if "# bitwise" in line or "# noqa: RP005" in line
        }
        assert len(marked) == 2
        diagnostics = lint_fixture(FloatEqualityChecker(), "rp005")
        assert marked.isdisjoint({d.line for d in diagnostics})


class TestRegistryConsistencyChecker:
    BROKEN = dict(
        registry_module="tests.analysis.lint_fixtures.rp006_registry",
        tests_path="tests/net",  # references no fixture experiment id
    )

    def run_project(self, **overrides):
        config = LintConfig(**{**self.BROKEN, **overrides})
        report = run_lint(
            ROOT,
            paths=[],
            config=config,
            checkers=[RegistryConsistencyChecker()],
            run_project_checks=True,
        )
        return report.diagnostics

    def test_flags_every_inconsistency(self):
        diagnostics = self.run_project()
        assert {d.code for d in diagnostics} == {"RP006"}
        messages = " ".join(d.message for d in diagnostics)
        assert "names no parameter" in messages
        assert "does not resolve" in messages
        assert "seed parameter" in messages
        assert "referenced by no test" in messages

    def test_diagnostics_anchor_to_registry_lines(self):
        source = (FIXTURES / "rp006_registry.py").read_text().splitlines()
        for diagnostic in self.run_project():
            assert diagnostic.path.endswith("rp006_registry.py")
            assert "id=" in source[diagnostic.line - 1]

    def test_clean_registry_with_referencing_test_passes(self, tmp_path):
        tests_dir = tmp_path / "referencing_tests"
        tests_dir.mkdir()
        (tests_dir / "test_fixture.py").write_text(
            "def test_clean():\n    assert 'fixture-clean'\n"
        )
        config = LintConfig(
            registry_module="tests.analysis.lint_fixtures.rp006_registry",
            registry_attr="CLEAN_REGISTRY",
            tests_path=str(tests_dir.relative_to(tmp_path)),
        )
        report = run_lint(
            tmp_path,
            paths=[],
            config=config,
            checkers=[RegistryConsistencyChecker()],
            run_project_checks=True,
        )
        assert report.diagnostics == ()

    def test_baseline_suppression_applies(self):
        diagnostics = self.run_project()
        assert diagnostics
        suppressed = self.run_project()
        config = LintConfig(
            **self.BROKEN,
            suppressions=(
                Suppression(path="src/repro/experiments/*", codes=("RP006",)),
                Suppression(
                    path="tests/analysis/lint_fixtures/*", codes=("RP006",)
                ),
            ),
        )
        report = run_lint(
            ROOT,
            paths=[],
            config=config,
            checkers=[RegistryConsistencyChecker()],
            run_project_checks=True,
        )
        assert report.diagnostics == () and suppressed


class TestSilentExceptChecker:
    def test_flags_bare_broad_and_silent_handlers(self):
        diagnostics = lint_fixture(SilentExceptChecker(), "rp007")
        assert len(diagnostics) == 4
        assert {d.code for d in diagnostics} == {"RP007"}
        messages = " ".join(d.message for d in diagnostics)
        assert "bare `except:`" in messages
        assert "BaseException" in messages
        assert "silently `pass`es" in messages

    def test_clean_patterns_do_not_fire(self):
        source = (FIXTURES / "rp007.py").read_text().splitlines()
        for diagnostic in lint_fixture(SilentExceptChecker(), "rp007"):
            assert "violation" in source[diagnostic.line - 1]

    def test_noqa_on_except_line_suppresses(self):
        source_lines = (FIXTURES / "rp007.py").read_text().splitlines()
        allowlisted = {
            index
            for index, line in enumerate(source_lines, start=1)
            if "# noqa: RP007" in line
        }
        assert len(allowlisted) == 2
        diagnostics = lint_fixture(SilentExceptChecker(), "rp007")
        assert allowlisted.isdisjoint({d.line for d in diagnostics})

    def test_diagnostics_anchor_to_the_except_line(self):
        # A noqa in the handler *body* must not blanket-suppress; the
        # allowlist convention is a marker on the except line itself.
        for diagnostic in lint_fixture(SilentExceptChecker(), "rp007"):
            assert diagnostic.end_line == diagnostic.line

    def test_baseline_suppression_applies(self):
        config = LintConfig(
            suppressions=(
                Suppression(
                    path="tests/analysis/lint_fixtures/*",
                    codes=("RP007",),
                ),
            )
        )
        assert lint_fixture(SilentExceptChecker(), "rp007", config) == ()

    def test_repo_source_is_clean_under_rp007(self):
        report = run_lint(
            ROOT,
            paths=[ROOT / "src" / "repro"],
            checkers=[SilentExceptChecker()],
            run_project_checks=False,
        )
        assert report.diagnostics == ()


class TestCheckerRegistry:
    def test_codes_are_unique_and_ordered(self):
        codes = [checker_class.code for checker_class in CHECKER_CLASSES]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)
        assert codes == [f"RP00{n}" for n in range(1, 8)] + [
            f"RP10{n}" for n in range(1, 5)
        ]

    def test_every_checker_has_a_rationale(self):
        for checker_class in CHECKER_CLASSES:
            assert checker_class.rationale, checker_class.code
            assert checker_class.name != "base"

    def test_selection_by_code(self):
        selected = checkers_for_codes(["rp005", "RP001"])
        assert [checker.code for checker in selected] == ["RP005", "RP001"]
        with pytest.raises(ValueError, match="unknown checker code"):
            checkers_for_codes(["RP999"])

    def test_all_checkers_returns_fresh_instances(self):
        first, second = all_checkers(), all_checkers()
        assert all(a is not b for a, b in zip(first, second))
