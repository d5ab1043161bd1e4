"""Within-file ordering of :func:`repro.lint.lint_source`.

One visitor reports R2 as it walks, and the walk does not visit a
module in source order: a function's parameters and body are checked
before its decorators are visited.  The findings for one file still
come back sorted by location.
"""

from __future__ import annotations

from repro.lint import lint_source

IN_PACKAGE = ("repro", "core", "fixture.py")

SOURCE = ("import functools\n"
          "\n"
          "LIMIT_TIME = 1.0\n"
          "\n\n"
          "@functools.lru_cache(maxsize=int(LIMIT_TIME < LIMIT_ENERGY))\n"
          "def f(end_time: float, total_energy: float) -> bool:\n"
          "    return end_time + 1.0 < total_energy\n")


class TestOrdering:
    def test_findings_sorted_by_location(self) -> None:
        findings = lint_source(SOURCE, path="x.py", package_rel=IN_PACKAGE)
        keys = [(f.path, f.line, f.col, f.rule, f.message)
                for f in findings]
        assert keys == sorted(keys)
        # The decorator's finding is found last but sorts first.
        assert [f.line for f in findings] == [6, 7, 7, 8]
