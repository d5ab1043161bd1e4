"""Suppression-comment parsing for :mod:`repro.lint`.

One pragma, an ordinary comment: ``# repro-lint: ignore[R2]`` (a
comma-separated list of rule ids) / ``ignore`` suppresses the named
rules (or all rules) on that physical line.  Findings anchor to a statement's first
line, so that is where the pragma goes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.lint.findings import Finding

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*ignore(?![\w-])(?:\[(?P<rules>[A-Za-z0-9,\s]+)\])?")


@dataclass(frozen=True, slots=True)
class Suppressions:
    """Parsed pragmas of one file."""

    #: line number -> suppressed rule ids; empty set means *all* rules.
    by_line: dict[int, frozenset[str]]

    def allows(self, finding: Finding) -> bool:
        """True when the finding survives the file's pragmas."""
        rules = self.by_line.get(finding.line)
        if rules is None:
            return True
        return bool(rules) and finding.rule not in rules


def parse_suppressions(source: str) -> Suppressions:
    """Scan source text for ``repro-lint`` pragmas."""
    by_line: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        spec = match.group("rules")
        by_line[lineno] = frozenset() if spec is None else frozenset(
            token.strip().upper()
            for token in spec.split(",") if token.strip())
    return Suppressions(by_line=by_line)
