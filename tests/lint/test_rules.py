"""Rule-level tests for :mod:`repro.lint`.

Every rule R1-R3 and R5 has a failing fixture (must trigger that rule and only
that rule) and a passing fixture (must be silent).  Fixtures use the
``.pysnippet`` extension so CLI runs over ``tests/`` never walk into
deliberately-broken code.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Finding, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: position fixtures as if they lived inside the simulator package, so
#: the package-scoped rules (R1-R3) apply.
IN_PACKAGE = ("repro", "core", "fixture.py")


def lint_fixture(name: str,
                 package_rel: tuple[str, ...] | None = IN_PACKAGE
                 ) -> list[Finding]:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, path=name, package_rel=package_rel)


@pytest.mark.parametrize("rule", ["R1", "R2", "R3", "R5"])
def test_bad_fixture_triggers_only_its_rule(rule: str) -> None:
    findings = lint_fixture(f"{rule.lower()}_bad.pysnippet")
    assert findings, f"{rule} fixture produced no findings"
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("rule", ["R1", "R2", "R3", "R5"])
def test_good_fixture_is_clean(rule: str) -> None:
    assert lint_fixture(f"{rule.lower()}_good.pysnippet") == []


def test_r1_counts_every_nondeterministic_call() -> None:
    findings = lint_fixture("r1_bad.pysnippet")
    assert len(findings) == 5
    messages = " ".join(f.message for f in findings)
    assert "time.time" in messages
    assert "datetime.datetime.now" in messages
    assert "random.random" in messages
    assert "default_rng" in messages
    assert "numpy.random.rand" in messages


def test_r2_flags_mixed_dimensions() -> None:
    findings = lint_fixture("r2_bad.pysnippet")
    mixes = [f for f in findings if "incompatible dimensions" in f.message]
    assert len(mixes) == 1
    assert "time vs energy" in mixes[0].message


def test_r3_both_equality_directions() -> None:
    findings = lint_fixture("r3_bad.pysnippet")
    assert len(findings) == 2
    assert {"energy", "time"} == {
        "energy" if "energy" in f.message else "time" for f in findings}


# ----------------------------------------------------------------------
# rule scoping
# ----------------------------------------------------------------------
def test_package_rules_do_not_apply_outside_the_package() -> None:
    # No rule applies outside repro/: the R1 fixture is legal there.
    assert lint_fixture("r1_bad.pysnippet", package_rel=None) == []


def test_rng_module_is_exempt_from_r1() -> None:
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    inside = lint_source(source, path="x.py",
                         package_rel=("repro", "core", "x.py"))
    assert [f.rule for f in inside] == ["R1"]
    sanctioned = lint_source(source, path="rng.py",
                             package_rel=("repro", "sim", "rng.py"))
    assert sanctioned == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_inline_pragma_suppresses_the_named_rule() -> None:
    assert lint_fixture("suppressed.pysnippet") == []


def test_pragma_for_a_different_rule_does_not_suppress() -> None:
    source = ("import time\n"
              "t = time.time()  # repro-lint: ignore[R3]\n")
    findings = lint_source(source, path="x.py", package_rel=IN_PACKAGE)
    assert [f.rule for f in findings] == ["R1"]


def test_bare_ignore_suppresses_everything_on_the_line() -> None:
    source = ("import time\n"
              "t = time.time()  # repro-lint: ignore\n")
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
    findings = lint_source("import time\nx = time.time()\n",
                           path="mod.py", package_rel=IN_PACKAGE)
    assert findings and findings[0].render().startswith("mod.py:2:")
    assert "R1(determinism)" in findings[0].render()


# ----------------------------------------------------------------------
# R5 layering specifics
# ----------------------------------------------------------------------
def test_r5_counts_every_upward_import() -> None:
    findings = lint_fixture("r5_bad.pysnippet")
    assert len(findings) == 3
    messages = " ".join(f.message for f in findings)
    assert "repro.cli" in messages
    assert "repro.experiments" in messages
    assert "repro.experiments.runner" in messages


def test_r5_devices_may_not_import_kernel_or_core() -> None:
    source = ("from repro.kernel.path import KernelPath\n"
              "from repro.core.session import SimulationSession\n")
    findings = lint_source(source, path="disk.py",
                           package_rel=("repro", "devices", "disk.py"))
    assert [f.rule for f in findings] == ["R5", "R5"]


def test_r5_resolves_relative_imports() -> None:
    source = "from ..core import session\n"
    findings = lint_source(source, path="disk.py",
                           package_rel=("repro", "devices", "disk.py"))
    assert [f.rule for f in findings] == ["R5"]
    assert "repro.core" in findings[0].message


def test_r5_same_rank_and_downward_are_allowed() -> None:
    # experiments(4) and cli(4) share a rank; cli importing core is
    # downward.  Neither direction is a finding.
    assert lint_source("from repro.cli import main\n", path="figures.py",
                       package_rel=("repro", "experiments",
                                    "figures.py")) == []
    assert lint_source("from repro.core.session import"
                       " SimulationSession\n", path="cli.py",
                       package_rel=("repro", "cli.py")) == []


def test_r5_unranked_packages_are_exempt() -> None:
    # traces sits outside the stack on purpose (it builds core
    # profiles); importing core from it is not upward.
    source = "from repro.core.profile import profile_from_trace\n"
    assert lint_source(source, path="scenarios.py",
                       package_rel=("repro", "traces", "synth",
                                    "scenarios.py")) == []


def test_r5_pragma_suppresses() -> None:
    source = ("from repro.experiments.runner import run_point"
              "  # repro-lint: ignore[R5]\n")
    assert lint_source(source, path="x.py", package_rel=IN_PACKAGE) == []


def test_r5_relative_imports_resolve_from_nested_subpackages() -> None:
    # traces.synth is two levels deep; each leading dot beyond the
    # first climbs one package.
    import ast

    from repro.lint.layering import LayeringRule
    from repro.lint.rules import FileContext

    rule = LayeringRule(FileContext(
        path="scenarios.py",
        package_rel=("repro", "traces", "synth", "scenarios.py")))
    resolve = rule._absolute_module

    def node_of(source: str) -> ast.ImportFrom:
        stmt = ast.parse(source).body[0]
        assert isinstance(stmt, ast.ImportFrom)
        return stmt

    assert resolve(node_of("from . import phases")) == \
        "repro.traces.synth"
    assert resolve(node_of("from ..trace import Trace")) == \
        "repro.traces.trace"
    assert resolve(node_of("from ...core import profile")) == \
        "repro.core"
    # exactly at the root the path leaves ``repro`` (never ranked);
    # climbing past it is unresolvable, not a crash.
    assert resolve(node_of("from ....x import y")) == "x"
    assert resolve(node_of("from .....x import y")) is None


def test_r5_relative_upward_import_from_ranked_subpackage() -> None:
    # a hypothetical devices/models/disk.py reaching up into core via
    # a relative import is still caught after resolution.
    source = "from ...core import session\n"
    findings = lint_source(source, path="disk.py",
                           package_rel=("repro", "devices", "models",
                                        "disk.py"))
    assert [f.rule for f in findings] == ["R5"]
    assert "repro.core" in findings[0].message


def test_r5_relative_imports_inside_traces_synth_are_clean() -> None:
    # the whole synth package is unranked, so even its upward-looking
    # relative imports (into core) resolve without a finding.
    source = ("from ..trace import Trace\n"
              "from ...core.profile import profile_from_trace\n")
    assert lint_source(source, path="scenarios.py",
                       package_rel=("repro", "traces", "synth",
                                    "scenarios.py")) == []
