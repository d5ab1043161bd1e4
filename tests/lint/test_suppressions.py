"""Suppression pragmas on multi-line statements.

The line-pragma basics (``ignore[R1]``, bare ``ignore``) are covered in
``test_rules.py``; this module covers the expansion of trailing
pragmas on multi-line statements.
"""

from __future__ import annotations

from repro.lint import lint_source

CORE = ("repro", "core", "x.py")


class TestMultilineStatements:
    def test_trailing_pragma_covers_the_statement(self):
        source = ("import time\n"
                  "\n"
                  "\n"
                  "def f():\n"
                  "    t = (time.time()\n"
                  "         + 0.0)  # repro-lint: ignore[R1]\n"
                  "    return t\n")
        assert lint_source(source, path="x.py",
                           package_rel=CORE) == []

    def test_bare_ignore_on_a_continuation_line(self):
        source = ("import time\n"
                  "\n"
                  "\n"
                  "def f():\n"
                  "    t = (time.time()\n"
                  "         + 0.0)  # repro-lint: ignore\n"
                  "    return t\n")
        assert lint_source(source, path="x.py",
                           package_rel=CORE) == []

    def test_wrong_rule_on_a_continuation_line_does_not_suppress(self):
        source = ("import time\n"
                  "\n"
                  "\n"
                  "def f():\n"
                  "    t = (time.time()\n"
                  "         + 0.0)  # repro-lint: ignore[R3]\n"
                  "    return t\n")
        findings = lint_source(source, path="x.py", package_rel=CORE)
        assert [f.rule for f in findings] == ["R1"]

    def test_compound_statements_do_not_inherit_nested_pragmas(self):
        # the def spans lines 4-6; a pragma inside its body must not
        # leak onto the def line (or suppress sibling statements).
        source = ("import time\n"
                  "\n"
                  "\n"
                  "def f():\n"
                  "    x = 1  # repro-lint: ignore\n"
                  "    return time.time()\n")
        findings = lint_source(source, path="x.py", package_rel=CORE)
        assert [f.rule for f in findings] == ["R1"]
        assert findings[0].line == 6
