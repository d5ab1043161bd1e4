"""Within-file ordering of :func:`repro.lint.lint_source`.

The rules run one after another, but their findings for one file come
back sorted by location, so a later line never precedes an earlier one
whichever rule reported it.
"""

from __future__ import annotations

from repro.lint import lint_source

IN_PACKAGE = ("repro", "core", "fixture.py")

SOURCE = ("import time\n"
          "from repro.cli import main\n"
          "\n\n"
          "def f(end_time: float, total_energy: float) -> bool:\n"
          "    t = time.time()\n"
          "    return end_time + 1.0 < total_energy or end_time == t\n"
          "\n\n"
          "T = time.time()\n")


class TestOrdering:
    def test_findings_sorted_by_location(self) -> None:
        findings = lint_source(SOURCE, path="x.py", package_rel=IN_PACKAGE)
        keys = [(f.path, f.line, f.col, f.rule, f.message)
                for f in findings]
        assert keys == sorted(keys)
        # Rules R1, R2, R3 and R5 each report here, so the sort is not
        # just the order in which the rules ran.
        assert {f.rule for f in findings} == {"R1", "R2", "R3", "R5"}
