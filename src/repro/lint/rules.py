"""The rule implementations (R1-R3) for :mod:`repro.lint`.

Each rule is an :class:`ast.NodeVisitor` producing :class:`Finding`
objects.  Rules never import or execute the code under analysis — pure
syntax, so the analyzer runs identically on any tree (including broken
work-in-progress checkouts, as long as they parse).

Every rule applies only inside the ``repro`` package (see DESIGN.md
§10):

* **R1** (determinism) — every package file except
  ``repro/sim/rng.py``, the sanctioned randomness front door.
* **R2/R3** (unit discipline, float equality) — every package file.
  Tests may compare replays for *exact* equality on purpose
  (bit-reproducibility assertions), so they are exempt.
* **R5** (layering) — files inside the ranked layers (see
  :mod:`repro.lint.layering`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.layering import LayeringRule, layer_of
from repro.lint.unitinfer import (
    DIMENSION_ALIASES,
    FLOAT_DIMENSIONS,
    UnitEnv,
    dimension_of_identifier,
    is_bare_numeric_annotation,
)


@dataclass(frozen=True, slots=True)
class FileContext:
    """Where a file sits, which determines rule applicability."""

    path: str
    #: path relative to the ``repro`` package root (``("repro", "core",
    #: "simulator.py")``) or None when the file is outside the package.
    package_rel: tuple[str, ...] | None

    @property
    def in_package(self) -> bool:
        return self.package_rel is not None

    @property
    def is_rng_module(self) -> bool:
        return self.package_rel == ("repro", "sim", "rng.py")


# ----------------------------------------------------------------------
# R1 — determinism
# ----------------------------------------------------------------------
class ImportTable:
    """Maps local names to the absolute dotted paths they alias."""

    def __init__(self) -> None:
        self._aliases: dict[str, str] = {}

    def collect(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    local = alias.asname or root
                    self._aliases[local] = alias.name if alias.asname \
                        else root
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted path of a Name/Attribute chain, through import aliases."""
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.append(self._aliases.get(cur.id, cur.id))
        return ".".join(reversed(parts))


#: calls that read the wall clock or the host environment.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.localtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: nondeterministic entropy sources.
_ENTROPY = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
})

#: stdlib ``random`` module-level functions (global, shared-state RNG).
_GLOBAL_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.sample", "random.shuffle",
    "random.uniform", "random.gauss", "random.normalvariate",
    "random.expovariate", "random.betavariate", "random.seed",
    "random.getrandbits", "random.paretovariate", "random.triangular",
})

#: numpy legacy global-state API; everything except the seeded
#: Generator machinery is banned.
_NUMPY_RANDOM_OK = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.Philox", "numpy.random.BitGenerator",
})


def impurity_of_call(dotted: str, node: ast.Call) -> str | None:
    """Message when a dotted call is a nondeterminism source, else None."""
    if dotted in _WALL_CLOCK:
        return (f"wall-clock call {dotted}() — simulation"
                " time comes from the replay scheduler, never the"
                " host clock")
    if dotted in _ENTROPY or dotted.startswith("secrets."):
        return (f"nondeterministic entropy source {dotted}()"
                " — derive randomness from the experiment"
                " seed via repro.sim.rng")
    if dotted in _GLOBAL_RANDOM:
        return (f"global-state RNG call {dotted}() — use a"
                " seeded generator from"
                " repro.sim.rng.make_rng instead")
    if dotted == "random.Random" and not node.args and not node.keywords:
        return ("unseeded random.Random() — pass an explicit"
                " seed derived via repro.sim.rng.child_seed")
    if dotted == "numpy.random.default_rng" and not node.args and \
            not node.keywords:
        return ("unseeded numpy.random.default_rng() — use"
                " repro.sim.rng.make_rng(seed, name)")
    if dotted.startswith("numpy.random.") and \
            dotted not in _NUMPY_RANDOM_OK:
        return (f"legacy numpy global RNG {dotted}() — use a"
                " seeded Generator from"
                " repro.sim.rng.make_rng")
    return None


class DeterminismRule(ast.NodeVisitor):
    """R1: the simulator may not consult wall clocks or unseeded RNGs."""

    def __init__(self, ctx: FileContext, imports: ImportTable) -> None:
        self.ctx = ctx
        self.imports = imports
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            path=self.ctx.path, line=node.lineno, col=node.col_offset,
            rule="R1", message=message))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.imports.resolve(node.func)
        if dotted is not None:
            message = impurity_of_call(dotted, node)
            if message is not None:
                self._flag(node, message)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# R2 — unit discipline
# ----------------------------------------------------------------------
class UnitDisciplineRule(ast.NodeVisitor):
    """R2: physical quantities use the aliases; dimensions never mix."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._env_stack: list[UnitEnv] = [UnitEnv()]

    @property
    def _env(self) -> UnitEnv:
        return self._env_stack[-1]

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            path=self.ctx.path, line=node.lineno, col=node.col_offset,
            rule="R2", message=message))

    # -- annotation discipline -----------------------------------------
    def _check_arg(self, arg: ast.arg) -> None:
        if not is_bare_numeric_annotation(arg.annotation):
            return
        dim = dimension_of_identifier(arg.arg)
        if dim is not None:
            alias = DIMENSION_ALIASES[dim]
            self._flag(arg, f"parameter {arg.arg!r} is a physical"
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
                self._flag(node.returns,
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
                    self._flag(node, f"{node.target.id!r} is a physical"
                                     f" quantity ({dim}); annotate it"
                                     f" with repro.units.{alias}")
        self.generic_visit(node)

    # -- dimensional arithmetic ----------------------------------------
    def _check_mix(self, node: ast.AST, op: str, left: ast.expr,
                   right: ast.expr) -> None:
        ldim = self._env.dimension_of(left)
        rdim = self._env.dimension_of(right)
        if ldim is not None and rdim is not None and ldim != rdim:
            self._flag(node, f"incompatible dimensions in {op!r}:"
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

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:],
                                   strict=False):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                self._check_mix(node, "comparison", left, right)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# R3 — float equality on measured quantities
# ----------------------------------------------------------------------
class FloatEqualityRule(ast.NodeVisitor):
    """R3: no ``==``/``!=`` on time/energy/power/bandwidth values."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._env_stack: list[UnitEnv] = [UnitEnv()]

    def _flag(self, node: ast.AST, dim: str) -> None:
        self.findings.append(Finding(
            path=self.ctx.path, line=node.lineno, col=node.col_offset,
            rule="R3",
            message=f"exact equality on a measured {dim} value — use"
                    " repro.units.approx_eq / is_zero (or math.isclose)"))

    def _visit_function(self,
                        node: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> None:
        args = node.args
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
            self._env_stack[-1].bind_annotation(node.target.id,
                                                node.annotation)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        env = self._env_stack[-1]
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:],
                                   strict=False):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                dim = env.dimension_of(side)
                if dim in FLOAT_DIMENSIONS:
                    self._flag(node, dim)
                    break
        self.generic_visit(node)


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def run_rules(tree: ast.AST, ctx: FileContext,
              select: frozenset[str] | None = None) -> list[Finding]:
    """Run every applicable rule over a parsed module."""
    if not ctx.in_package:
        return []

    def wanted(rule: str) -> bool:
        return select is None or rule in select

    visitors: list[DeterminismRule | UnitDisciplineRule
                   | FloatEqualityRule | LayeringRule] = []
    if wanted("R1") and not ctx.is_rng_module:
        imports = ImportTable()
        imports.collect(tree)
        visitors.append(DeterminismRule(ctx, imports))
    if wanted("R2"):
        visitors.append(UnitDisciplineRule(ctx))
    if wanted("R3"):
        visitors.append(FloatEqualityRule(ctx))
    if wanted("R5") and layer_of(ctx.package_rel) is not None:
        visitors.append(LayeringRule(ctx))
    findings: list[Finding] = []
    for visitor in visitors:
        visitor.visit(tree)
        findings.extend(visitor.findings)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings
