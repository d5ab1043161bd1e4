"""Rule-level tests for :mod:`repro.lint`.

Rule R2 has failing fixtures (must trigger that rule and only that
rule) and passing fixtures (must be silent).  Fixtures use
the ``.pysnippet`` extension so CLI runs over ``tests/`` never walk into
deliberately-broken code.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Finding, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: position fixtures as if they lived inside the simulator package, so
#: the package-scoped rules apply.
IN_PACKAGE = ("repro", "core", "fixture.py")

#: an R2 violation on line 4 of an otherwise clean module.
R2_ON_LINE_4 = ("from repro.units import Joules, Seconds\n"
                "\n"
                "def f(end_time: Seconds, total_energy: Joules) -> bool:\n"
                "    return end_time < total_energy{pragma}\n")


def lint_fixture(name: str,
                 package_rel: tuple[str, ...] | None = IN_PACKAGE
                 ) -> list[Finding]:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, path=name, package_rel=package_rel)


@pytest.mark.parametrize("rule", ["R2"])
def test_bad_fixture_triggers_only_its_rule(rule: str) -> None:
    findings = lint_fixture(f"{rule.lower()}_bad.pysnippet")
    assert findings, f"{rule} fixture produced no findings"
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("rule", ["R2"])
def test_good_fixture_is_clean(rule: str) -> None:
    assert lint_fixture(f"{rule.lower()}_good.pysnippet") == []


def test_r2_flags_mixed_dimensions() -> None:
    findings = lint_fixture("r2_bad.pysnippet")
    mixes = [f for f in findings if "incompatible dimensions" in f.message]
    assert len(mixes) == 1
    assert "time vs energy" in mixes[0].message


def test_r2_flags_both_comparison_directions() -> None:
    findings = lint_fixture("r2_compare_bad.pysnippet")
    assert {f.rule for f in findings} == {"R2"}
    assert [f.message.rsplit(": ", 1)[1] for f in findings] == [
        "energy vs time", "time vs energy"]


def test_equality_is_not_a_finding() -> None:
    # Exact equality on floats is legal: a tolerance belongs only where
    # a behavioural test shows float noise would flip the answer.
    assert lint_fixture("r2_compare_good.pysnippet") == []


# ----------------------------------------------------------------------
# rule scoping
# ----------------------------------------------------------------------
def test_package_rules_do_not_apply_outside_the_package() -> None:
    # No rule applies outside repro/: the R2 fixtures are legal there.
    assert lint_fixture("r2_bad.pysnippet", package_rel=None) == []
    assert lint_fixture("r2_compare_bad.pysnippet",
                        package_rel=None) == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_inline_pragma_suppresses_the_named_rule() -> None:
    assert lint_fixture("suppressed.pysnippet") == []


def test_pragma_for_a_different_rule_does_not_suppress() -> None:
    source = R2_ON_LINE_4.format(pragma="  # repro-lint: ignore[E1]")
    findings = lint_source(source, path="x.py", package_rel=IN_PACKAGE)
    assert [f.rule for f in findings] == ["R2"]


def test_bare_ignore_suppresses_everything_on_the_line() -> None:
    source = R2_ON_LINE_4.format(pragma="  # repro-lint: ignore")
    assert lint_source(source, path="x.py", package_rel=IN_PACKAGE) == []


# ----------------------------------------------------------------------
# parse errors
# ----------------------------------------------------------------------
def test_syntax_error_is_a_finding_not_a_crash() -> None:
    findings = lint_source("def broken(:\n", path="x.py")
    assert [f.rule for f in findings] == ["E1"]
    assert "syntax error" in findings[0].message


# ----------------------------------------------------------------------
# inference details
# ----------------------------------------------------------------------
def test_alias_annotations_beat_lexical_inference() -> None:
    # 'budget' carries no lexical unit; the Seconds annotation binds it,
    # so comparing it to a joules-named value is a dimension mix.
    source = ("from repro.units import Seconds\n"
              "def f(budget: Seconds, total_energy: float) -> bool:\n"
              "    return budget < total_energy\n")
    findings = lint_source(source, path="x.py", package_rel=IN_PACKAGE)
    mixes = [f for f in findings if "incompatible dimensions" in f.message]
    assert len(mixes) == 1


def test_propagation_through_addition() -> None:
    source = ("def f(end_time: float, total_energy: float) -> bool:\n"
              "    return end_time + 1.0 < total_energy\n")
    findings = lint_source(source, path="x.py", package_rel=IN_PACKAGE)
    assert any("incompatible dimensions" in f.message for f in findings)


def test_same_dimension_arithmetic_is_silent() -> None:
    source = ("from repro.units import Seconds\n"
              "def f(start_time: Seconds, end_time: Seconds) -> Seconds:\n"
              "    return end_time - start_time\n")
    assert lint_source(source, path="x.py", package_rel=IN_PACKAGE) == []


def test_finding_render_is_editor_clickable() -> None:
    findings = lint_source(R2_ON_LINE_4.format(pragma=""),
                           path="mod.py", package_rel=IN_PACKAGE)
    assert findings and findings[0].render().startswith("mod.py:4:")
    assert "R2(unit-discipline)" in findings[0].render()
