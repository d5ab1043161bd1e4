"""Plan-equivalence rule R13 (DESIGN.md §17).

Behind one scheduler the replay keeps two implementations of the
kernel path: the live kernel (the oracle) and the BurstPlan fast path,
and promises *bit-identical* results.  Nothing in Python enforces that
promise structurally — a new input to ``build_plan`` that the memo key
omits, or a write to a memoised plan, silently drifts the twins apart
until a parity test happens to cover it.  (That every session input
reaches both surfaces is checked behaviourally, by
``tests/core/test_session_inputs.py``; the cost model's packed walks
are held to their clone-and-replay oracle by
``tests/core/test_costmodel_parity.py``.)

* **R13 plan-staleness** — memoised plans are never mutated and every
  ``build_plan`` input is folded into ``plan_for``'s memo key.

Like :mod:`repro.lint.interproc` the rule is *syntactic but
whole-program*: it anchors on the real names of the replay machinery
(``plan_for``, ``build_plan``, ...) and goes silent when an anchor is
absent, so snippets and partial projects lint clean by default.  The
dynamic half of the same contract is the shadow sanitizer in
:mod:`repro.core.shadow`.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.ir import Project, _annotation_name

#: Frozen plan types (R13) and the factories that hand them out.
_FROZEN_PLANS = frozenset({"BurstPlan", "CompiledTrace"})
_PLAN_MAKERS = frozenset({"plan_for", "build_plan", "compile_trace"})


# --------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------

def _params_of(fn: ast.FunctionDef | ast.AsyncFunctionDef
               ) -> list[ast.arg]:
    a = fn.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs]


def _self_arg(fn: ast.FunctionDef | ast.AsyncFunctionDef
              ) -> str | None:
    a = fn.args
    ordered = [*a.posonlyargs, *a.args]
    return ordered[0].arg if ordered else None


def _attr_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``self.faults.spec.x`` -> ``("self", "faults", "spec", "x")``."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        parts.reverse()
        return tuple(parts)
    return None


def _last_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _assign_pairs(node: ast.AST) -> list[tuple[ast.expr, ast.expr]]:
    """Every ``(target, value)`` pair of Assign/AnnAssign under node."""
    pairs: list[tuple[ast.expr, ast.expr]] = []
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign):
            pairs.extend((t, stmt.value) for t in stmt.targets)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            pairs.append((stmt.target, stmt.value))
    return pairs


# --------------------------------------------------------------------
# R13: plan staleness
# --------------------------------------------------------------------

def _root_names(expr: ast.expr) -> set[str]:
    """Free names an expression depends on (call *inputs*, not callees)."""
    callees = {id(node.func) for node in ast.walk(expr)
               if isinstance(node, ast.Call)}
    return {node.id for node in ast.walk(expr)
            if isinstance(node, ast.Name) and id(node) not in callees}


def _r13_memo_key(project: Project) -> list[Finding]:
    findings = []
    for qualname in sorted(project.functions):
        fn = project.functions[qualname]
        if fn.name != "plan_for" or fn.cls is not None:
            continue
        path = fn.module.path
        locals_: dict[str, ast.expr] = {}
        for target, value in _assign_pairs(fn.node):
            if isinstance(target, ast.Name):
                locals_.setdefault(target.id, value)
        key_roots: set[str] = set()
        saw_memo_write = False
        for target, value in _assign_pairs(fn.node):
            if not (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                continue
            saw_memo_write = True
            key_expr = target.slice
            if isinstance(key_expr, ast.Name) \
                    and key_expr.id in locals_:
                key_roots.add(key_expr.id)
                key_expr = locals_[key_expr.id]
            key_roots |= _root_names(key_expr)
        if not saw_memo_write:
            continue
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call)
                    and _last_name(node.func) == "build_plan"):
                continue
            inputs = [*node.args, *(kw.value for kw in node.keywords)]
            for arg in inputs:
                for root in sorted(_root_names(arg) - key_roots):
                    findings.append(Finding(
                        path=path, line=node.lineno,
                        col=node.col_offset, rule="R13",
                        message=f"build_plan input '{root}' is not"
                                " folded into plan_for's memo key —"
                                " cells that vary it are served a"
                                " stale memoised plan"))
    return findings


def _r13_frozen_writes(project: Project) -> list[Finding]:
    findings = []
    for qualname in sorted(project.functions):
        fn = project.functions[qualname]
        path = fn.module.path
        typed: set[str] = set()
        for arg in _params_of(fn.node):
            ann = (_annotation_name(arg.annotation)
                   if arg.annotation is not None else None)
            if ann in _FROZEN_PLANS:
                typed.add(arg.arg)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                ann_name = _annotation_name(node.annotation)
                if ann_name in _FROZEN_PLANS:
                    typed.add(node.target.id)
            elif (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and _last_name(node.value.func) in _PLAN_MAKERS):
                typed.add(node.targets[0].id)
        frozen_attrs: set[str] = set()
        if fn.cls is not None and fn.cls in project.classes:
            for attr, cls_q in project.classes[fn.cls] \
                    .attr_types.items():
                if cls_q.rsplit(".", 1)[-1] in _FROZEN_PLANS:
                    frozen_attrs.add(attr)
        self_name = _self_arg(fn.node) if fn.cls is not None else None
        for node in ast.walk(fn.node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None:
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                chain = _attr_chain(target)
                if chain is None:
                    continue
                hit = (chain[0] in typed and len(chain) >= 2) or (
                    self_name is not None and chain[0] == self_name
                    and len(chain) >= 3 and chain[1] in frozen_attrs)
                if hit:
                    findings.append(Finding(
                        path=path, line=target.lineno,
                        col=target.col_offset, rule="R13",
                        message=f"write to '{'.'.join(chain)}' mutates"
                                " a memoised plan after creation —"
                                " plans are cached process-wide and"
                                " shared copy-on-write with workers;"
                                " build a new plan instead"))
    return findings


def _run_r13(project: Project) -> list[Finding]:
    return _r13_memo_key(project) + _r13_frozen_writes(project)


# --------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------

def run_equiv_rules(project: Project,
                    select: frozenset[str] | None = None
                    ) -> list[Finding]:
    """Run the plan-equivalence rule over a built project.

    Mirrors :func:`repro.lint.interproc.run_project_rules`: ``select``
    of ``None`` means R13, suppression filtering is the caller's job,
    findings come back in (path, line, col, rule, message) order.
    """
    if (select is not None and "R13" not in select) \
            or not project.modules:
        return []
    findings = _run_r13(project)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule,
                                 f.message))
    return findings
