"""Cross-file ordering of :func:`repro.lint.lint_paths`.

Findings from several files come back in one global order, keyed by
path, line, column, rule and message, and two runs over the same tree
return identical lists.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths


class TestOrdering:
    def test_findings_are_globally_ordered_and_stable(
            self, tmp_path: Path) -> None:
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text(
            "from repro.units import Joules, Seconds\n\n\n"
            "def f(end_time: float, start_time: Seconds,\n"
            "      total_energy: Joules) -> bool:\n"
            "    return end_time == start_time < total_energy\n",
            encoding="utf-8")
        (pkg / "a.py").write_text(
            "def done(end_time, total_energy):\n"
            "    return end_time == total_energy\n", encoding="utf-8")
        first = lint_paths([tmp_path])
        assert first == lint_paths([tmp_path])
        keys = [(f.path, f.line, f.col, f.rule, f.message) for f in first]
        assert keys == sorted(keys)
        # a.py: R3; b.py: R2 (bare float), then R2 and R3 on one
        # comparison chain, ordered by rule.
        assert [f.rule for f in first] == ["R3", "R2", "R2", "R3"]
