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
            "    return end_time < total_energy < start_time\n",
            encoding="utf-8")
        (pkg / "a.py").write_text(
            "def done(end_time, total_energy):\n"
            "    return end_time < total_energy\n", encoding="utf-8")
        first = lint_paths([tmp_path])
        assert first == lint_paths([tmp_path])
        keys = [(f.path, f.line, f.col, f.rule, f.message) for f in first]
        assert keys == sorted(keys)
        # a.py: one mix; b.py: a bare float, then two mixes on one
        # comparison chain, ordered by message.
        assert [(Path(f.path).name, f.line, f.message[-14:])
                for f in first] == [
            ("a.py", 2, "time vs energy"),
            ("b.py", 4, "bare float/int"),
            ("b.py", 6, "energy vs time"),
            ("b.py", 6, "time vs energy")]
