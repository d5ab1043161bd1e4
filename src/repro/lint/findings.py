"""Finding type and rule ids for :mod:`repro.lint`.

Every diagnostic the analyzer emits is a :class:`Finding` tagged with a
rule id from :data:`RULES`; DESIGN.md §10, the suppression pragmas and
the test fixtures all key off the same ids.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Rule id -> name.  Ids are stable; suppression comments
#: (``# repro-lint: ignore[R2]``) reference them.
RULES: dict[str, str] = {
    "R2": "unit-discipline",
    "E1": "parse-error",
}


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic: a rule violated at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: RULE(name) message`` — editor-clickable."""
        name = RULES.get(self.rule, "?")
        return (f"{self.path}:{self.line}:{self.col}:"
                f" {self.rule}({name}) {self.message}")
