"""Interprocedural rules R6-R9 for :mod:`repro.lint`.

These rules answer whole-program questions the per-file pass (R1-R5)
cannot: they run over a :class:`~repro.lint.ir.Project` and its
:class:`~repro.lint.callgraph.CallGraph`, with the fixpoint engine in
:mod:`repro.lint.dataflow` doing the propagation.

* **R6 determinism-taint** — any function reachable from the sweep
  worker entry (``_execute_job``) or from cache-key hashing
  (``run_key``) that *directly* performs an impure operation
  (wall-clock, entropy, unseeded RNG, environment read, iteration over
  an unordered set) is flagged, with the call chain from the root in
  the message.  On these paths R6 replaces R1's local check (the
  runner drops the duplicate R1 finding).
* **R7 parallel-safety** — worker-reachable code must not write
  module-level state (workers are forked; writes never reach the
  parent), and nothing non-picklable (lambdas, nested functions, open
  handles, locks) may flow into the ``SweepJob`` /
  ``ParallelSweepExecutor`` fork boundary.
* **R8 cache-key soundness** — every result-affecting parameter of
  ``SimulationSession.__init__`` must have a corresponding entry in the
  description dict hashed by ``run_key``; an omitted input means a run
  varying it can hit a stale cached result.
* **R9 interprocedural unit flow** — return dimensions propagate
  through the call graph, catching mixed-dimension arithmetic that
  crosses a call boundary (invisible to R2) and unit-less returns
  assigned into unit-alias-typed slots.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator

from repro.lint.callgraph import CallGraph, FunctionSummary
from repro.lint.dataflow import reachable, solve
from repro.lint.findings import Finding
from repro.lint.ir import FunctionIR, ImportTable, Project
from repro.lint.rules import impurity_of_call
from repro.lint.unitinfer import (
    DIMENSION_ALIASES,
    UnitEnv,
    dimension_of_annotation,
    is_bare_numeric_annotation,
)

# ----------------------------------------------------------------------
# R6 — determinism taint
# ----------------------------------------------------------------------
#: functions whose transitive callees must be deterministic: the sweep
#: worker entry point and the cache-key hash.
_R6_ROOTS = (
    "repro.experiments.parallel._execute_job",
    "repro.experiments.cache.run_key",
)

#: the sanctioned randomness front door is exempt (it wraps the RNG
#: constructors the rest of the code must not touch directly).
_RNG_MODULE = "repro.sim.rng"

_ENV_READ_CALLS = frozenset({
    "os.getenv", "os.getenvb", "os.environ.get", "os.environ.items",
    "os.environ.keys", "os.environ.values", "os.environ.copy",
})

_SET_MESSAGE = ("iteration over an unordered set — wrap in sorted() so"
                " replay order (and therefore results) never depends on"
                " hash seeding")


def _is_set_expr(expr: ast.expr, imports: ImportTable) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        return imports.resolve(expr.func) in ("set", "frozenset")
    return False


def _direct_sources(fn: FunctionIR, summary: FunctionSummary
                    ) -> list[tuple[ast.AST, str]]:
    """(node, message) for every impure operation in the function body."""
    out: list[tuple[ast.AST, str]] = []
    for dotted, call in summary.external:
        message = impurity_of_call(dotted, call)
        if message is not None:
            out.append((call, message))
        elif dotted in _ENV_READ_CALLS:
            out.append((call, f"environment read {dotted}() — results"
                              " must not depend on the host environment;"
                              " thread configuration through"
                              " ExperimentConfig"))
    imports = fn.module.imports
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Subscript):
            if imports.resolve(node.value) == "os.environ":
                out.append((node, "environment read os.environ[...] —"
                                  " results must not depend on the host"
                                  " environment; thread configuration"
                                  " through ExperimentConfig"))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter, imports):
                out.append((node.iter, _SET_MESSAGE))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter, imports):
                    out.append((gen.iter, _SET_MESSAGE))
    return out


def _run_r6(graph: CallGraph) -> list[Finding]:
    project = graph.project
    roots = {q for q in _R6_ROOTS if q in project.functions}
    if not roots:
        return []
    reach = reachable(roots, graph.callees)
    findings: list[Finding] = []
    for qualname in sorted(reach):
        fn = project.functions.get(qualname)
        if fn is None or fn.module.name == _RNG_MODULE:
            continue
        sources = _direct_sources(fn, graph.summaries[qualname])
        if not sources:
            continue
        chain = graph.shortest_path(roots, qualname) or [qualname]
        via = " -> ".join(chain)
        for node, message in sources:
            findings.append(Finding(
                path=fn.module.path, line=node.lineno,
                col=node.col_offset, rule="R6",
                message=f"{message} [reachable from sweep/cache-key"
                        f" root via {via}]"))
    return findings


# ----------------------------------------------------------------------
# R7 — parallel safety
# ----------------------------------------------------------------------
_WORKER_ROOTS = ("repro.experiments.parallel._execute_job",)

#: methods that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "add", "update", "setdefault", "insert",
    "remove", "discard", "pop", "popitem", "clear", "appendleft",
    "extendleft",
})

_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Event",
    "threading.Condition", "threading.Semaphore",
    "threading.BoundedSemaphore", "multiprocessing.Lock",
    "multiprocessing.RLock",
})

#: constructors whose results are mutable — unsafe to stage in the
#: fork-inherited worker payload registry.
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.deque", "collections.defaultdict",
    "collections.Counter", "collections.OrderedDict",
})


def _fn_params(fn: FunctionIR) -> set[str]:
    args = fn.node.args
    names = {a.arg for a in
             (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def _shared_state_writes(fn: FunctionIR) -> list[Finding]:
    """Writes to module-level state inside one worker-reachable body."""
    declared: set[str] = set()
    assigned: set[str] = set()
    params = _fn_params(fn)
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                assigned.add(node.target.id)

    mutable = fn.module.mutable_globals

    def is_module_ref(name: str) -> bool:
        if name in params:
            return False
        if name in declared:
            return True
        return name in mutable and name not in assigned

    def flag(node: ast.AST, what: str) -> Finding:
        return Finding(
            path=fn.module.path, line=node.lineno, col=node.col_offset,
            rule="R7",
            message=f"worker-reachable code {what} — sweep workers are"
                    " forked processes, so the write never reaches the"
                    " parent and breaks bit-identical parallel/serial"
                    " parity; return the value instead")

    findings: list[Finding] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATORS and \
                isinstance(node.func.value, ast.Name) and \
                is_module_ref(node.func.value.id):
            findings.append(flag(
                node, f"mutates module-level container"
                      f" {node.func.value.id!r}"
                      f" (.{node.func.attr}())"))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        is_module_ref(target.value.id):
                    findings.append(flag(
                        node, "stores into module-level container"
                              f" {target.value.id!r}"))
                elif isinstance(target, ast.Name) and \
                        target.id in declared:
                    findings.append(flag(
                        node, f"rebinds module-level name {target.id!r}"
                              " via 'global'"))
    return findings


def _unpicklable_kind(expr: ast.expr, fn: FunctionIR,
                      summary: FunctionSummary) -> str | None:
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.Name) and expr.id in summary.local_defs:
        return f"nested function {expr.id!r} (closure)"
    if isinstance(expr, ast.Call):
        dotted = fn.module.imports.resolve(expr.func)
        if dotted == "open":
            return "an open file handle"
        if dotted in _LOCK_FACTORIES:
            return f"a {dotted}()"
    return None


def _mutable_payload_kind(expr: ast.expr, fn: FunctionIR) -> str | None:
    """Why ``expr`` is a mutable value, or None if it looks immutable."""
    if isinstance(expr, ast.List):
        return "a list literal"
    if isinstance(expr, ast.Dict):
        return "a dict literal"
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.ListComp):
        return "a list comprehension"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    if isinstance(expr, ast.DictComp):
        return "a dict comprehension"
    if isinstance(expr, ast.Call):
        dotted = fn.module.imports.resolve(expr.func)
        if dotted in _MUTABLE_FACTORIES:
            return f"{dotted}()"
    return None


def _staged_payload_exprs(summary: FunctionSummary) -> list[ast.expr]:
    """Payload arguments of ``stage_payload(digest, payload)`` calls."""
    out: list[ast.expr] = []
    seen: set[int] = set()

    def payload_arg(call: ast.Call) -> None:
        if id(call) in seen:
            return
        seen.add(id(call))
        if len(call.args) > 1:
            out.append(call.args[1])
        for kw in call.keywords:
            if kw.arg == "payload":
                out.append(kw.value)

    for target, call in summary.calls:
        if target.rsplit(".", 1)[-1] == "stage_payload":
            payload_arg(call)
    for dotted, call in summary.external:
        if dotted.rsplit(".", 1)[-1] == "stage_payload":
            payload_arg(call)
    return out


def _iter_display_values(expr: ast.expr) -> Iterator[ast.expr]:
    """The expression plus every element of nested literal displays."""
    yield expr
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        for elt in expr.elts:
            yield from _iter_display_values(elt)
    elif isinstance(expr, ast.Dict):
        for part in (*expr.keys, *expr.values):
            if part is not None:
                yield from _iter_display_values(part)


def _boundary_exprs(summary: FunctionSummary
                    ) -> list[tuple[str, ast.expr]]:
    """(boundary label, argument expression) pairs crossing the fork."""
    out: list[tuple[str, ast.expr]] = []

    def job_args(call: ast.Call) -> None:
        for arg in call.args:
            out.append(("SweepJob", arg))
        for kw in call.keywords:
            out.append(("SweepJob", kw.value))

    seen: set[int] = set()
    for cls_qual, call in summary.constructs:
        if cls_qual.rsplit(".", 1)[-1] == "SweepJob" and \
                id(call) not in seen:
            seen.add(id(call))
            job_args(call)
    for dotted, call in summary.external:
        if dotted.rsplit(".", 1)[-1] == "SweepJob" and \
                id(call) not in seen:
            seen.add(id(call))
            job_args(call)
    for target, call in summary.calls:
        if not target.endswith("ParallelSweepExecutor.run_sweep"):
            continue
        # Only policy_factories is pickled (it lands in SweepJob
        # fields); programs_factory runs in the parent.
        if len(call.args) > 1:
            out.append(("ParallelSweepExecutor.run_sweep", call.args[1]))
        for kw in call.keywords:
            if kw.arg == "policy_factories":
                out.append(("ParallelSweepExecutor.run_sweep", kw.value))
    return out


def _run_r7(graph: CallGraph) -> list[Finding]:
    project = graph.project
    findings: list[Finding] = []
    worker_roots = {q for q in _WORKER_ROOTS if q in project.functions}
    if worker_roots:
        for qualname in sorted(reachable(worker_roots, graph.callees)):
            fn = project.functions.get(qualname)
            if fn is not None:
                findings.extend(_shared_state_writes(fn))
    for qualname in sorted(graph.summaries):
        fn = project.functions[qualname]
        summary = graph.summaries[qualname]
        for label, arg in _boundary_exprs(summary):
            for expr in _iter_display_values(arg):
                kind = _unpicklable_kind(expr, fn, summary)
                if kind is None:
                    continue
                findings.append(Finding(
                    path=fn.module.path, line=expr.lineno,
                    col=expr.col_offset, rule="R7",
                    message=f"non-picklable value ({kind}) flows into"
                            f" the {label} fork boundary — sweep jobs"
                            " are pickled into worker processes; pass a"
                            " module-level function or a describable"
                            " factory instead"))
        for arg in _staged_payload_exprs(summary):
            for expr in _iter_display_values(arg):
                kind = _mutable_payload_kind(expr, fn)
                if kind is None:
                    continue
                findings.append(Finding(
                    path=fn.module.path, line=expr.lineno,
                    col=expr.col_offset, rule="R7",
                    message=f"mutable value ({kind}) staged into the"
                            " worker payload registry — staged payloads"
                            " are inherited copy-on-write by forked"
                            " workers and keyed by content digest, so"
                            " they must be immutable (frozen dataclass,"
                            " bytes, tuple); parent-side mutation after"
                            " staging silently diverges from what"
                            " workers see"))
    return findings


# ----------------------------------------------------------------------
# R8 — cache-key soundness
# ----------------------------------------------------------------------
#: SimulationSession.__init__ parameters that cannot change a RunResult
#: (observers), so the cache key may omit them.
_RESULT_NEUTRAL = frozenset({"self", "sinks"})

#: suffixes stripped when matching a session parameter against a
#: description key (``disk_spec`` is keyed as ``"disk"``).
_PARAM_SUFFIXES = ("_spec", "_policy", "_factory", "_schedule")


def _description_dict(fn: FunctionIR) -> tuple[ast.Dict | None, set[str]]:
    """The largest string-keyed dict literal in ``run_key`` + all keys."""
    best: ast.Dict | None = None
    keys: set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Dict):
            continue
        literal = {k.value for k in node.keys
                   if isinstance(k, ast.Constant)
                   and isinstance(k.value, str)}
        if not literal:
            continue
        keys |= literal
        if best is None or len(literal) > sum(
                1 for k in best.keys if isinstance(k, ast.Constant)):
            best = node
    return best, keys


def _run_r8(graph: CallGraph) -> list[Finding]:
    project = graph.project
    run_key_fn: FunctionIR | None = None
    for qualname in sorted(project.functions):
        fn = project.functions[qualname]
        if fn.name == "run_key" and fn.cls is None:
            run_key_fn = fn
            break
    session = None
    for qualname in sorted(project.classes):
        if qualname.rsplit(".", 1)[-1] == "SimulationSession":
            session = project.classes[qualname]
            break
    if run_key_fn is None or session is None:
        return []
    init_qual = session.methods.get("__init__")
    init = project.functions.get(init_qual) if init_qual else None
    if init is None:
        return []
    dict_node, keys = _description_dict(run_key_fn)
    if dict_node is None:
        return []
    findings: list[Finding] = []
    args = init.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        param = arg.arg
        if param in _RESULT_NEUTRAL:
            continue
        candidates = {param} | {param[:-len(suffix)]
                                for suffix in _PARAM_SUFFIXES
                                if param.endswith(suffix)}
        if candidates & keys:
            continue
        short = min(candidates, key=len)
        findings.append(Finding(
            path=run_key_fn.module.path, line=dict_node.lineno,
            col=dict_node.col_offset, rule="R8",
            message=f"simulation input {param!r} of"
                    f" {session.name}.__init__ is absent from run_key's"
                    " description — a run varying it can return a stale"
                    " cached result; add an explicit entry (even"
                    f" '{short}': None)"))
    return findings


# ----------------------------------------------------------------------
# R9 — interprocedural unit flow
# ----------------------------------------------------------------------
#: lattice top: a function returns different dimensions on different
#: paths; consumers treat it as unknown.
_CONFLICT = "<conflict>"

_FactOf = Callable[[str], str | None]


def _join(a: str | None, b: str | None) -> str | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    return _CONFLICT


class _CallAwareEnv(UnitEnv):
    """A :class:`UnitEnv` that also knows call return dimensions."""

    def __init__(self, summary: FunctionSummary, fact_of: _FactOf) -> None:
        super().__init__()
        self._summary = summary
        self._fact_of = fact_of

    def dimension_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Call):
            targets = self._summary.by_node.get(node, ())
            dims = {self._fact_of(t) for t in targets}
            if len(dims) == 1:
                dim = dims.pop()
                return None if dim == _CONFLICT else dim
            return None
        return super().dimension_of(node)


def _own_returns(fn_node: ast.FunctionDef | ast.AsyncFunctionDef
                 ) -> Iterator[ast.Return]:
    """Return statements of the function itself, not of nested defs."""
    stack: list[ast.AST] = list(fn_node.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Return):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _seed_env(env: UnitEnv, fn: FunctionIR) -> None:
    args = fn.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        env.bind_annotation(arg.arg, arg.annotation)
    for node in ast.walk(fn.node):
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            env.bind_annotation(node.target.id, node.annotation)


def _return_dimension_facts(graph: CallGraph) -> dict[str, str | None]:
    """Fixpoint return-dimension fact for every project function."""
    project = graph.project
    nodes = sorted(project.functions)
    inputs: dict[str, tuple[str, ...]] = {
        q: graph.callees.get(q, ()) for q in nodes}

    def transfer(qualname: str, fact_of: _FactOf) -> str | None:
        fn = project.functions[qualname]
        annotated = dimension_of_annotation(fn.node.returns)
        if annotated is not None:
            return annotated
        env = _CallAwareEnv(graph.summaries[qualname], fact_of)
        _seed_env(env, fn)
        result: str | None = None
        for ret in _own_returns(fn.node):
            if ret.value is None:
                continue
            result = _join(result, env.dimension_of(ret.value))
        # Join with the previous fact so the transfer is monotone even
        # through call cycles.
        return _join(result, fact_of(qualname))

    return solve(nodes, inputs, transfer, bottom=None)


class _R9Checker(ast.NodeVisitor):
    """Per-function pass applying the cross-call unit checks."""

    def __init__(self, project: Project, fn: FunctionIR,
                 summary: FunctionSummary,
                 facts: dict[str, str | None]) -> None:
        self.project = project
        self.fn = fn
        self.summary = summary
        self.facts = facts
        self.findings: list[Finding] = []
        self.call_env = _CallAwareEnv(summary, facts.get)
        self.base_env = UnitEnv()
        _seed_env(self.call_env, fn)
        _seed_env(self.base_env, fn)

    def run(self) -> list[Finding]:
        for stmt in self.fn.node.body:
            self.visit(stmt)
        self._check_return_annotation()
        return self.findings

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            path=self.fn.module.path, line=node.lineno,
            col=node.col_offset, rule="R9", message=message))

    def _call_fact(self, call: ast.Call) -> tuple[str | None, str | None]:
        """(dimension, single target qualname) of a resolved call."""
        targets = self.summary.by_node.get(call, ())
        dims = {self.facts.get(t) for t in targets}
        if len(dims) != 1:
            return None, None
        dim = dims.pop()
        target = targets[0] if len(targets) == 1 else None
        return (None if dim == _CONFLICT else dim), target

    # -- mixed-dimension arithmetic across calls -----------------------
    def _check_mix(self, node: ast.AST, op: str, left: ast.expr,
                   right: ast.expr) -> None:
        ldim = self.call_env.dimension_of(left)
        rdim = self.call_env.dimension_of(right)
        if ldim is None or rdim is None or ldim == rdim or \
                _CONFLICT in (ldim, rdim):
            return
        lbase = self.base_env.dimension_of(left)
        rbase = self.base_env.dimension_of(right)
        if lbase is not None and rbase is not None and lbase != rbase:
            return  # R2 already sees this mismatch locally
        self._flag(node, "incompatible dimensions across a call"
                         f" boundary in {op!r}: {ldim} vs {rdim}")

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

    # -- unit-less / mismatched returns into typed slots ---------------
    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        slot_dim = dimension_of_annotation(node.annotation)
        if slot_dim is not None and isinstance(node.value, ast.Call):
            self._check_slot(node, node.value, slot_dim)
        self.generic_visit(node)

    def _check_slot(self, node: ast.AST, call: ast.Call,
                    slot_dim: str) -> None:
        alias = DIMENSION_ALIASES[slot_dim]
        dim, target = self._call_fact(call)
        targets = self.summary.by_node.get(call, ())
        if not targets:
            return
        if dim is not None and dim != slot_dim:
            who = target or " / ".join(sorted(targets))
            self._flag(node, f"call to {who}() returns {dim} but is"
                             f" assigned into a {slot_dim}-typed slot"
                             f" ({alias})")
        elif dim is None and all(
                is_bare_numeric_annotation(
                    self.project.functions[t].node.returns)
                for t in targets if t in self.project.functions):
            who = target or " / ".join(sorted(targets))
            self._flag(node, f"unit-less return of {who}() assigned"
                             f" into a {alias}-typed slot — annotate"
                             " the callee's return with"
                             f" repro.units.{alias}")

    def _check_return_annotation(self) -> None:
        annotated = dimension_of_annotation(self.fn.node.returns)
        if annotated is None:
            return
        for ret in _own_returns(self.fn.node):
            if not isinstance(ret.value, ast.Call):
                continue
            dim, target = self._call_fact(ret.value)
            if dim is not None and dim != annotated:
                who = target or "callee"
                self._flag(ret, f"returns the {dim}-valued result of"
                                f" {who}() from a function annotated"
                                f" -> {DIMENSION_ALIASES[annotated]}"
                                f" ({annotated})")

    # Nested defs are part of the enclosing summary; visit them but do
    # not re-seed the environments.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.generic_visit(node)


def _run_r9(graph: CallGraph) -> list[Finding]:
    facts = _return_dimension_facts(graph)
    findings: list[Finding] = []
    for qualname in sorted(graph.summaries):
        fn = graph.project.functions[qualname]
        checker = _R9Checker(graph.project, fn,
                             graph.summaries[qualname], facts)
        findings.extend(checker.run())
    return findings


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_project_rules(project: Project,
                      select: frozenset[str] | None = None
                      ) -> list[Finding]:
    """Run the interprocedural rules over a linked project.

    Suppression filtering and the global ordering happen in the runner
    (which also drops R1 findings shadowed by R6).
    """
    wanted = {"R6", "R7", "R8", "R9"} if select is None \
        else {"R6", "R7", "R8", "R9"} & select
    if not wanted or not project.modules:
        return []
    graph = CallGraph(project)
    findings: list[Finding] = []
    if "R6" in wanted:
        findings.extend(_run_r6(graph))
    if "R7" in wanted:
        findings.extend(_run_r7(graph))
    if "R8" in wanted:
        findings.extend(_run_r8(graph))
    if "R9" in wanted:
        findings.extend(_run_r9(graph))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule,
                                 f.message))
    return findings
