"""Finding and rule-catalogue types for :mod:`repro.lint`.

Every diagnostic the analyzer emits is a :class:`Finding` tagged with a
rule id from :data:`RULES`.  The catalogue is data, not code, so the CLI
``--list-rules`` output, DESIGN.md §10, and the test fixtures all key off
the same ids.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Rule:
    """One entry of the rule catalogue."""

    id: str
    name: str
    summary: str
    rationale: str


#: The rule catalogue.  Ids are stable; suppression comments
#: (``# repro-lint: ignore[R1]``) reference them.
RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="R1",
            name="determinism",
            summary="no wall-clock or unseeded randomness inside the"
                    " simulator package",
            rationale="replays must be a pure function of (trace, seed);"
                      " time.time()/datetime.now()/unseeded RNGs make"
                      " results unreproducible across runs and machines."
                      " All randomness flows through repro.sim.rng.",
        ),
        Rule(
            id="R2",
            name="unit-discipline",
            summary="physical quantities use the repro.units aliases and"
                    " never mix dimensions in +/-/comparisons",
            rationale="seconds, joules, watts, bytes and bytes/s as bare"
                      " float/int invite ms-vs-s and Mb-vs-MB slips —"
                      " exactly the numbers the paper's evaluation"
                      " (T_disk/E_disk vs T_net/E_net) depends on.",
        ),
        Rule(
            id="R3",
            name="float-equality",
            summary="no == / != on measured time/energy/power/bandwidth"
                    " values",
            rationale="accumulated float error makes exact equality on"
                      " integrated quantities flaky; compare with"
                      " repro.units.approx_eq / is_zero or math.isclose.",
        ),
        Rule(
            id="R5",
            name="layering",
            summary="no upward imports across the"
                    " devices → kernel → core → experiments/cli stack",
            rationale="the layered split (DESIGN.md §12) only holds if"
                      " dependencies point one way; a device model"
                      " importing policy code (or the kernel importing"
                      " the simulator core) silently re-fuses the"
                      " monolith.  Inject upward dependencies as"
                      " callables/protocols instead.",
        ),
        Rule(
            id="E1",
            name="parse-error",
            summary="file could not be parsed as Python",
            rationale="an unparsable file cannot be analyzed; fix the"
                      " syntax error first.",
        ),
    )
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
        name = RULES[self.rule].name if self.rule in RULES else "?"
        return (f"{self.path}:{self.line}:{self.col}:"
                f" {self.rule}({name}) {self.message}")
