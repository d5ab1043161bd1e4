"""R5 — architectural layering checks for :mod:`repro.lint`.

The layered decomposition (DESIGN.md §12) orders the simulator's
packages bottom-up::

    devices (1)  →  kernel (2)  →  core (3)  →  experiments / cli (4)

A module may import from its own layer or any layer *below* it; an
import that points **up** the stack reintroduces exactly the coupling
the split removed (e.g. a device model reaching into policy code).
Packages outside the stack — ``units``, ``sim``, ``faults``,
``traces``, ``lint`` — are deliberately unranked: they are either
leaf utilities everything may use or tooling that must see everything,
so they neither emit nor attract findings.

The check is purely syntactic (import statements only), so dependency
injection remains the sanctioned escape hatch for a need that does
point up.  ``kernel.path`` importing the disk layout is not one: the
kernel (2) sits above the devices (1).
"""

from __future__ import annotations

import ast
from typing import Protocol

from repro.lint.findings import Finding


class _Located(Protocol):
    """The slice of :class:`repro.lint.rules.FileContext` R5 needs."""

    @property
    def path(self) -> str: ...

    @property
    def package_rel(self) -> tuple[str, ...] | None: ...

#: bottom-up rank of each layered package (higher = closer to the user).
LAYER_RANKS: dict[str, int] = {
    "devices": 1,
    "kernel": 2,
    "core": 3,
    "experiments": 4,
    "cli": 4,
}


def layer_of(package_rel: tuple[str, ...] | None) -> str | None:
    """The ranked layer a package-relative path belongs to, if any."""
    if package_rel is None or len(package_rel) < 2:
        return None
    name = package_rel[1]
    name = name.removesuffix(".py")
    return name if name in LAYER_RANKS else None


def _module_layer(module: str) -> str | None:
    """The ranked layer a dotted ``repro.*`` module path belongs to."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1] if parts[1] in LAYER_RANKS else None


class LayeringRule(ast.NodeVisitor):
    """R5: no imports pointing up the device→kernel→core→UI stack."""

    def __init__(self, ctx: _Located) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._layer = layer_of(ctx.package_rel)

    def _flag(self, node: ast.AST, module: str, target: str) -> None:
        assert self._layer is not None
        self.findings.append(Finding(
            path=self.ctx.path, line=node.lineno, col=node.col_offset,
            rule="R5",
            message=f"upward import of {module!r}:"
                    f" {self._layer} (layer {LAYER_RANKS[self._layer]})"
                    f" may not depend on {target} (layer"
                    f" {LAYER_RANKS[target]}) — invert the dependency or"
                    " inject it from above"))

    def _check_module(self, node: ast.AST, module: str) -> None:
        if self._layer is None:
            return
        target = _module_layer(module)
        if target is None:
            return
        if LAYER_RANKS[target] > LAYER_RANKS[self._layer]:
            self._flag(node, module, target)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_module(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = self._absolute_module(node)
        if module is not None:
            self._check_module(node, module)
            # ``from repro import experiments`` names the layer in the
            # alias list, not the module path.
            if module == "repro":
                for alias in node.names:
                    self._check_module(node, f"repro.{alias.name}")
        self.generic_visit(node)

    def _absolute_module(self, node: ast.ImportFrom) -> str | None:
        """Resolve an import to a dotted path, following relativity."""
        if node.level == 0:
            return node.module
        rel = self.ctx.package_rel
        if rel is None:
            return None
        # The importing module's package: drop the filename, then one
        # more component per extra leading dot.
        pkg = list(rel[:-1])
        for _ in range(node.level - 1):
            if not pkg:
                return None
            pkg.pop()
        if node.module:
            pkg.extend(node.module.split("."))
        return ".".join(pkg) if pkg else None
