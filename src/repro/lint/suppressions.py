"""Suppression-comment parsing for :mod:`repro.lint`.

One pragma, an ordinary comment: ``# repro-lint: ignore[R1]`` /
``ignore[R1,R3]`` / ``ignore`` suppresses the named rules (or all
rules) on that physical line; on the last line of a multi-line
statement it covers the whole statement (findings anchor to the
statement's first line).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace

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


def expand_multiline(suppressions: Suppressions,
                     tree: ast.AST) -> Suppressions:
    """Make trailing pragmas on multi-line statements effective.

    Findings anchor to a statement's *first* line, but a pragma is
    naturally written on the line the offending expression ends on::

        total = (compute_energy()
                 + base_line)  # repro-lint: ignore[R2]

    For every statement spanning several lines, any pragma on any of
    its lines is copied onto its first line (rule sets union; an
    ignore-all on one line wins).
    """
    if not suppressions.by_line:
        return suppressions
    by_line = dict(suppressions.by_line)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if hasattr(node, "body"):
            # Compound statements (if/for/def/...) span their whole
            # suite; inheriting pragmas from nested lines would
            # suppress far more than the author wrote.
            continue
        end = getattr(node, "end_lineno", None)
        if end is None or end <= node.lineno:
            continue
        merged: frozenset[str] | None = by_line.get(node.lineno)
        hit = False
        for lineno in range(node.lineno + 1, end + 1):
            rules = suppressions.by_line.get(lineno)
            if rules is None:
                continue
            hit = True
            if merged is None:
                merged = rules
            elif not merged or not rules:
                merged = frozenset()  # ignore-all dominates
            else:
                merged = merged | rules
        if hit and merged is not None:
            by_line[node.lineno] = merged
    if by_line == suppressions.by_line:
        return suppressions
    return replace(suppressions, by_line=by_line)
