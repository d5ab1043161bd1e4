"""Imports point down the layer stack (DESIGN.md §12).

The simulator's packages are ranked bottom-up::

    devices (1)  →  kernel (2)  →  core (3)  →  experiments / cli (4)

A module may import from its own rank or any rank below it.  Every
import statement of the ranked packages is parsed, function-local ones
included; ``units``, ``sim``, ``faults``, ``traces`` and ``lint`` are
unranked and may be imported from anywhere.  Relative imports would
hide the target layer from this check, so the ranked packages use none.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

RANKS = {"devices": 1, "kernel": 2, "core": 3, "experiments": 4, "cli": 4}


def _imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    assert node.module is not None
    if node.module == "repro":
        # ``from repro import core`` names the layer in the alias list.
        return [f"repro.{alias.name}" for alias in node.names]
    return [node.module]


def test_no_upward_or_relative_imports() -> None:
    files = [PACKAGE / "cli.py"]
    for package in ("devices", "kernel", "core", "experiments"):
        files.extend(sorted((PACKAGE / package).rglob("*.py")))
    assert len(files) > 40
    violations = []
    for path in files:
        name = path.relative_to(PACKAGE)
        own = RANKS[name.parts[0].removesuffix(".py")]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                violations.append(f"{name}:{node.lineno}: relative import")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for module in _imported_modules(node):
                    top, _, rest = module.partition(".")
                    rank = RANKS.get(rest.split(".")[0], 0) \
                        if top == "repro" else 0
                    if rank > own:
                        violations.append(f"{name}:{node.lineno}: {module}"
                                          f" (rank {rank}) imported from"
                                          f" rank {own}")
    assert violations == []
