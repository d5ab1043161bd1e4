"""Plan-equivalence rule R13 (``repro.lint.equiv``).

The rule gets a checked-in bad/good ``.pysnippet`` fixture pair
(positioned inside the package via ``package_rel`` so the anchors
resolve) and a current-tree clean assertion.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

PLAN = ("repro", "sim", "plan.py")


def _fixture(name: str) -> str:
    return (FIXTURES / f"{name}.pysnippet").read_text(encoding="utf-8")


def _lint_fixture(name: str, package_rel: tuple[str, ...],
                  rule: str) -> list:
    return lint_source(_fixture(name), path=f"{name}.py",
                       package_rel=package_rel,
                       select=frozenset({rule}))


# ----------------------------------------------------------------------
# R13 — plan staleness
# ----------------------------------------------------------------------
class TestR13:
    def test_bad_fixture_flags_memo_key_and_mutation(self):
        findings = _lint_fixture("r13_bad", PLAN, "R13")
        assert [f.rule for f in findings] == ["R13"] * 2
        messages = " | ".join(f.message for f in findings)
        assert "input 'threshold' is not folded" in messages
        assert "write to 'plan.record_count'" in messages

    def test_good_fixture_is_clean(self):
        assert _lint_fixture("r13_good", PLAN, "R13") == []

    def test_current_tree_is_clean(self):
        assert lint_paths([REPO_ROOT / "src"],
                          select=frozenset({"R13"})) == []


# ----------------------------------------------------------------------
# hygiene: the analyzer analyzes itself, stays out of the repo
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_lint_package_is_clean_under_equiv_rules(self):
        assert lint_paths([REPO_ROOT / "src" / "repro" / "lint"],
                          select=frozenset({"R13"})) == []

    def test_whole_tree_is_clean_under_equiv_rules(self):
        assert lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests",
             REPO_ROOT / "benchmarks", REPO_ROOT / "examples"],
            select=frozenset({"R13"})) == []

    def test_pycache_is_gitignored(self):
        gitignore = (REPO_ROOT / ".gitignore").read_text(
            encoding="utf-8").splitlines()
        assert "__pycache__/" in gitignore


# ----------------------------------------------------------------------
# ordering: equiv findings merge into the global sort
# ----------------------------------------------------------------------
class TestOrdering:
    def test_findings_sorted_by_location(self):
        findings = _lint_fixture("r13_bad", PLAN, "R13")
        keys = [(f.path, f.line, f.col, f.rule, f.message)
                for f in findings]
        assert keys == sorted(keys)
