"""``repro.lint`` — the repo's own determinism/units static analyzer.

An AST-based checker with repo-specific rules that generic linters
cannot express (see DESIGN.md §10 for the catalogue and rationale).
Every rule checks one file at a time and applies only inside the
``repro`` package:

* **R1 determinism** — no wall clocks or unseeded randomness;
* **R2 unit-discipline** — physical quantities carry the
  :mod:`repro.units` aliases, and ``+``/``-``/ordering never mixes
  dimensions (seconds vs joules);
* **R3 float-equality** — no ``==``/``!=`` on measured float
  quantities;
* **R5 layering** — no upward imports across the
  devices → kernel → core → experiments/cli stack (DESIGN.md §12).

Run as ``python -m repro.lint`` or ``flexfetch lint`` (default path:
``src``); suppress a finding with ``# repro-lint: ignore[R1]`` on its
line.  ``tests/lint/test_selfcheck.py`` holds ``src`` at zero findings.
"""

from repro.lint.findings import RULES, Finding, Rule
from repro.lint.runner import (
    lint_file,
    lint_paths,
    lint_source,
    main,
    package_relative,
)
from repro.lint.suppressions import Suppressions, parse_suppressions

__all__ = [
    "RULES",
    "Finding",
    "Rule",
    "Suppressions",
    "parse_suppressions",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "package_relative",
]
