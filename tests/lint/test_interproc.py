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
            "import time\n\n\ndef f(end_time: float):\n"
            "    return end_time == time.time()\n", encoding="utf-8")
        (pkg / "a.py").write_text(
            "import time\nT = time.time()\n", encoding="utf-8")
        first = lint_paths([tmp_path])
        assert first == lint_paths([tmp_path])
        keys = [(f.path, f.line, f.col, f.rule, f.message) for f in first]
        assert keys == sorted(keys)
        # a.py: R1; b.py: R2 (bare float), R3 and R1 on one line.
        assert [f.rule for f in first] == ["R1", "R2", "R3", "R1"]
