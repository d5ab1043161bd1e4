"""``repro.lint`` — the repo's units static analyzer.

An AST-based checker with repo-specific rules that generic linters
cannot express (see DESIGN.md §10 for the catalogue and rationale).
One visitor checks one file at a time and applies only inside the
``repro`` package.  It has one rule, **R2 unit-discipline**: physical
quantities carry the :mod:`repro.units` aliases, and ``+``/``-``/
ordering never mixes dimensions (seconds vs joules).  Files that do not
parse are reported as **E1**.

Determinism and layering are checked by tier-1 tests instead:
``tests/experiments/test_cell_purity.py`` replays cells with the wall
clock and the global RNGs patched to raise, and ``tests/test_layering.py``
parses every import of the ranked packages.

Run as ``python -m repro.lint`` or ``flexfetch lint`` (default path:
``src``); suppress a finding with ``# repro-lint: ignore[R2]`` on its
line.  ``tests/lint/test_selfcheck.py`` holds ``src`` at zero findings.
"""

from repro.lint.findings import RULES, Finding
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
    "Suppressions",
    "parse_suppressions",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "package_relative",
]
