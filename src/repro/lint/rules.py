"""The rule implementation (R2) for :mod:`repro.lint`.

One :class:`ast.NodeVisitor` walks each module with a per-function unit
environment and emits the rule's :class:`Finding` objects.  The
analyzer never imports or executes the code under analysis — pure
syntax, so it runs identically on any tree (including broken
work-in-progress checkouts, as long as they parse).

The rule applies to every file inside the ``repro`` package and to
nothing outside it (see DESIGN.md §10).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.unitinfer import (
    DIMENSION_ALIASES,
    UnitEnv,
    dimension_of_identifier,
    is_bare_numeric_annotation,
)


@dataclass(frozen=True, slots=True)
class FileContext:
    """Where a file sits, which determines rule applicability."""

    path: str
    #: path relative to the ``repro`` package root (``("repro", "core",
    #: "session.py")``) or None when the file is outside the package.
    package_rel: tuple[str, ...] | None

    @property
    def in_package(self) -> bool:
        return self.package_rel is not None


class UnitDisciplineRule(ast.NodeVisitor):
    """R2: physical quantities use the aliases and dimensions never mix."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._env_stack: list[UnitEnv] = [UnitEnv()]

    @property
    def _env(self) -> UnitEnv:
        return self._env_stack[-1]

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.ctx.path, line=node.lineno, col=node.col_offset,
            rule=rule, message=message))

    # -- R2: annotation discipline -------------------------------------
    def _check_arg(self, arg: ast.arg) -> None:
        if not is_bare_numeric_annotation(arg.annotation):
            return
        dim = dimension_of_identifier(arg.arg)
        if dim is not None:
            alias = DIMENSION_ALIASES[dim]
            self._flag(arg, "R2", f"parameter {arg.arg!r} is a physical"
                                  f" quantity ({dim}); annotate it with"
                                  f" repro.units.{alias}, not bare"
                                  " float/int")

    def _visit_function(self,
                        node: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> None:
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self._check_arg(arg)
        if is_bare_numeric_annotation(node.returns):
            dim = dimension_of_identifier(node.name)
            if dim is not None:
                alias = DIMENSION_ALIASES[dim]
                assert node.returns is not None
                self._flag(node.returns, "R2",
                           f"function {node.name!r} returns a physical"
                           f" quantity ({dim}); annotate the return as"
                           f" repro.units.{alias}, not bare float/int")
        # Fresh symbol table seeded from the alias-annotated parameters.
        env = UnitEnv()
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            env.bind_annotation(arg.arg, arg.annotation)
        self._env_stack.append(env)
        self.generic_visit(node)
        self._env_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            self._env.bind_annotation(node.target.id, node.annotation)
            if is_bare_numeric_annotation(node.annotation):
                dim = dimension_of_identifier(node.target.id)
                if dim is not None:
                    alias = DIMENSION_ALIASES[dim]
                    self._flag(node, "R2",
                               f"{node.target.id!r} is a physical"
                               f" quantity ({dim}); annotate it"
                               f" with repro.units.{alias}")
        self.generic_visit(node)

    # -- R2: dimensional arithmetic ------------------------------------
    def _check_mix(self, node: ast.AST, op: str, left: ast.expr,
                   right: ast.expr) -> None:
        ldim = self._env.dimension_of(left)
        rdim = self._env.dimension_of(right)
        if ldim is not None and rdim is not None and ldim != rdim:
            self._flag(node, "R2", f"incompatible dimensions in {op!r}:"
                                   f" {ldim} vs {rdim}")

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            op = "+" if isinstance(node.op, ast.Add) else "-"
            self._check_mix(node, op, node.left, node.right)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            op = "+=" if isinstance(node.op, ast.Add) else "-="
            self._check_mix(node, op, node.target, node.value)
        self.generic_visit(node)

    # -- R2: ordering --------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:],
                                   strict=False):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                self._check_mix(node, "comparison", left, right)
        self.generic_visit(node)


def run_rules(tree: ast.AST, ctx: FileContext) -> list[Finding]:
    """Run R2 over a parsed module, in (line, col, rule) order."""
    if not ctx.in_package:
        return []
    visitor = UnitDisciplineRule(ctx)
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda f: (f.line, f.col, f.rule))
