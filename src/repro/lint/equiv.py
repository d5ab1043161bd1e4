"""Dual-path equivalence rules R11 and R13 (DESIGN.md §17).

The replay keeps two implementations of its hot computations: behind
one scheduler, the live kernel path (the oracle) and the BurstPlan fast
path; inside the cost model, the object-path device clones (the oracle)
and the packed walks.  Both pairs promise *bit-identical* results.  Nothing in
Python enforces that promise structurally — a cost term added to a
device model, or a new input to ``build_plan``, silently drifts the
twins apart until a parity test happens to cover it.  (That every
session input reaches both surfaces is checked behaviourally, by
``tests/core/test_session_inputs.py``.)

These rules make the promise checkable without running anything:

* **R11 kernel-pair drift** — the packed walks account the same
  breakdown buckets, spec constants and DPM transitions as the device
  models they shadow.
* **R13 plan-staleness** — memoised plans are never mutated and every
  ``build_plan`` input is folded into ``plan_for``'s memo key.

Like :mod:`repro.lint.interproc` the rules are *syntactic but
whole-program*: they anchor on the real names of the replay machinery
(``_replay_packed``, ``_disk_walk``, ``plan_for``, ...) and go
silent when an anchor is absent, so snippets and partial projects lint
clean by default.  The dynamic half of the same contract is the shadow
sanitizer in :mod:`repro.core.shadow`.
"""

from __future__ import annotations

import ast
import re

from repro.lint.findings import Finding
from repro.lint.ir import ClassIR, ModuleIR, Project, _annotation_name

# --------------------------------------------------------------------
# R11 allowances: device effects the packed walk legitimately never
# replays.  Each entry must be justified by a _packed_ok refusal or by
# the shared-state argument below; an unexplained entry is drift.
# --------------------------------------------------------------------

#: Sleep-tier and fault buckets: ``_packed_ok`` refuses devices with a
#: sleep timeout, devices already asleep, and any run with a fault
#: schedule, so the walk can never need to charge them.
_DISK_BUCKET_ALLOWANCE = frozenset({
    "disk.to-sleep", "disk.wake", "disk.spinup-failed",
})

#: Spec constants whose cost reaches the walk through the *shared*
#: ``device._transitions`` table (spindown/spinup/wake/sleep times and
#: energies — the walk indexes the same TransitionSpec objects the
#: device charges, so the constants cannot drift), through
#: ``device.spindown_policy.timeout()`` (spindown_timeout), or that
#: only feed machinery ``_packed_ok`` refuses: the sleep tier
#: (sleep_power), adaptive-DPM feedback (breakeven_time, which only
#: non-FixedTimeout policies consume), and fault retry tuning
#: (spinup_retries/backoff, dead without a fault schedule).
_DISK_SPEC_ALLOWANCE = frozenset({
    "sleep_power", "spindown_time", "spindown_energy", "spinup_time",
    "spinup_energy", "wake_time", "wake_energy", "spindown_timeout",
    "sleep_timeout", "breakeven_time", "spinup_retries",
    "spinup_backoff",
})

#: The sleep tier again: unreachable when ``sleep_timeout is None`` and
#: the device is not already asleep — both checked by ``_packed_ok``.
_DISK_TRANSITION_ALLOWANCE = frozenset({
    ("standby", "sleep"), ("sleep", "active"),
})

#: PSM bulk transfer is refused by ``_packed_ok`` (``not
#: psm_transfer_enabled``), so its buckets never occur on the fast
#: path; outages require a fault schedule, also refused.
_WNIC_BUCKET_ALLOWANCE = frozenset({
    "wnic.psm-recv", "wnic.psm-send", "wnic.outage",
})

#: CAM<->PSM transition costs flow through the shared ``_transitions``
#: table (see the disk note); the psm_* transfer constants and
#: network_timeout only feed PSM bulk transfer and fault handling,
#: both refused by ``_packed_ok``.
_WNIC_SPEC_ALLOWANCE = frozenset({
    "cam_to_psm_time", "cam_to_psm_energy", "psm_to_cam_time",
    "psm_to_cam_energy", "psm_transfer_max_bytes", "beacon_interval",
    "psm_bandwidth_factor", "psm_recv_power", "psm_send_power",
    "network_timeout",
})

_WNIC_TRANSITION_ALLOWANCE: frozenset[tuple[str, str]] = frozenset()

#: Breakdown-bucket literals: ``"disk.spinup"``, ``"wnic.recv"``, ...
_BUCKET_RE = re.compile(r"^(disk|wnic)\.[a-z0-9_.>-]+$")

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


def _classes_named(project: Project, name: str) -> list[ClassIR]:
    return [project.classes[q] for q in sorted(project.classes)
            if q.rsplit(".", 1)[-1] == name]


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
# R11: kernel-pair drift
# --------------------------------------------------------------------

class _Effects:
    """Symbolic effect summary of one side of a kernel pair."""

    def __init__(self) -> None:
        #: bucket literal -> first occurrence (line, col)
        self.buckets: dict[str, tuple[int, int]] = {}
        #: dynamic-bucket prefixes seen ("disk.", "wnic.", None=any)
        self.state_wildcards: set[str | None] = set()
        self.transition_wildcard = False
        #: spec attribute -> first occurrence
        self.spec_attrs: dict[str, tuple[int, int]] = {}
        #: (src, dst) state pair -> first occurrence
        self.transitions: dict[tuple[str, str], tuple[int, int]] = {}


def _enum_values(project: Project) -> dict[str, dict[str, str]]:
    """Enum class name -> {MEMBER: string value}, project-wide."""
    enums: dict[str, dict[str, str]] = {}
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {_last_name(b) for b in node.bases}
            if not bases & {"Enum", "StrEnum", "IntEnum"}:
                continue
            members: dict[str, str] = {}
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    members[stmt.targets[0].id] = stmt.value.value
            if members:
                enums[node.name] = members
    return enums


def _module_state_aliases(module: ModuleIR,
                          enums: dict[str, dict[str, str]]
                          ) -> dict[str, str]:
    """Module-level ``_IDLE = DiskState.IDLE.value`` style aliases."""
    aliases: dict[str, str] = {}
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        value = _state_of(stmt.value, {}, enums)
        if value is not None:
            aliases[stmt.targets[0].id] = value
    return aliases


def _state_of(expr: ast.expr, aliases: dict[str, str],
              enums: dict[str, dict[str, str]]) -> str | None:
    """Resolve an expression to a device-state string, if possible."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    chain = _attr_chain(expr) if isinstance(expr, ast.Attribute) else None
    if chain is not None and len(chain) == 3 and chain[2] == "value" \
            and chain[0] in enums:
        member = enums[chain[0]].get(chain[1])
        return member if member is not None else chain[1].lower()
    return None


def _spec_receivers(fn: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> set[str]:
    """Names that hold a device spec inside one function."""
    receivers: set[str] = set()
    for arg in _params_of(fn):
        ann = (_annotation_name(arg.annotation)
               if arg.annotation is not None else None)
        if arg.arg == "spec" or (
                ann is not None and ann.endswith("Spec")
                and ann != "TransitionSpec"):
            receivers.add(arg.arg)
    for target, value in _assign_pairs(fn):
        if not isinstance(target, ast.Name):
            continue
        chain = (_attr_chain(value)
                 if isinstance(value, ast.Attribute) else None)
        if chain is not None and chain[-1] == "spec":
            receivers.add(target.id)
    return receivers


def _collect_buckets(tree: ast.AST, effects: _Effects) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _BUCKET_RE.match(node.value):
                effects.buckets.setdefault(
                    node.value, (node.lineno, node.col_offset))
            continue
        parts: list[str] = []
        if isinstance(node, ast.JoinedStr):
            parts = [p.value for p in node.values
                     if isinstance(p, ast.Constant)
                     and isinstance(p.value, str)]
        elif (isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Add)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)):
            parts = [node.left.value]
        if not parts:
            continue
        if any("->" in part for part in parts):
            effects.transition_wildcard = True
        elif any("." in part for part in parts):
            prefix = next(
                (p for part in parts for p in ("disk.", "wnic.")
                 if part.startswith(p)), None)
            effects.state_wildcards.add(prefix)


def _collect_fn_effects(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                        aliases: dict[str, str],
                        enums: dict[str, dict[str, str]],
                        effects: _Effects) -> None:
    _collect_buckets(fn, effects)
    receivers = _spec_receivers(fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in receivers:
                effects.spec_attrs.setdefault(
                    node.attr, (node.lineno, node.col_offset))
            elif isinstance(value, ast.Attribute) \
                    and value.attr == "spec":
                effects.spec_attrs.setdefault(
                    node.attr, (node.lineno, node.col_offset))
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Tuple) \
                and len(node.slice.elts) == 2:
            src = _state_of(node.slice.elts[0], aliases, enums)
            dst = _state_of(node.slice.elts[1], aliases, enums)
            if src is not None and dst is not None:
                effects.transitions.setdefault(
                    (src, dst), (node.lineno, node.col_offset))
        elif isinstance(node, ast.Call) \
                and _last_name(node.func) == "TransitionSpec":
            pair: list[str | None] = [None, None]
            for i, arg in enumerate(node.args[:2]):
                pair[i] = _state_of(arg, aliases, enums)
            for kw in node.keywords:
                if kw.arg == "src":
                    pair[0] = _state_of(kw.value, aliases, enums)
                elif kw.arg == "dst":
                    pair[1] = _state_of(kw.value, aliases, enums)
            if pair[0] is not None and pair[1] is not None:
                effects.transitions.setdefault(
                    (pair[0], pair[1]), (node.lineno, node.col_offset))


class _DeviceSide:
    """Effects + state vocabulary of one device class hierarchy."""

    def __init__(self, project: Project, cls_qualname: str,
                 enums: dict[str, dict[str, str]]) -> None:
        self.effects = _Effects()
        self.states: set[str] = set()
        modules: dict[str, ModuleIR] = {}
        for qualname in project.mro(cls_qualname):
            cls = project.classes[qualname]
            module = cls.module
            modules[module.name] = module
            aliases = _module_state_aliases(module, enums)
            for stmt in ast.walk(cls.node):
                if isinstance(stmt, ast.FunctionDef):
                    _collect_fn_effects(stmt, aliases, enums,
                                        self.effects)
            _collect_buckets(cls.node, self.effects)
        # Module-level statements of the defining modules carry bucket
        # tables (e.g. direction -> "wnic.recv" dicts) and transitions.
        for module in modules.values():
            aliases = _module_state_aliases(module, enums)
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Import,
                                     ast.ImportFrom)):
                    continue
                _collect_buckets(stmt, self.effects)
            # State vocabulary: enums defined in these modules.
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) \
                        and node.name in enums:
                    self.states.update(enums[node.name].values())


def _walk_cone(project: Project, anchor: str) -> list[str]:
    """Qualnames of [_packed_ok, _replay_packed, anchor] that exist."""
    cone = []
    for name in ("_packed_ok", "_replay_packed", anchor):
        for qualname in sorted(project.functions):
            if qualname.rsplit(".", 1)[-1] == name:
                cone.append(qualname)
                break
    return cone


def _collect_walk_effects(project: Project, cone: list[str],
                          enums: dict[str, dict[str, str]]
                          ) -> _Effects:
    effects = _Effects()
    for qualname in cone:
        fn = project.functions[qualname]
        aliases = _module_state_aliases(fn.module, enums)
        _collect_fn_effects(fn.node, aliases, enums, effects)
    return effects


def _state_cover(effects: _Effects, prefix: str,
                 states: set[str]) -> set[str]:
    if None in effects.state_wildcards \
            or prefix in effects.state_wildcards:
        return {prefix + state for state in states}
    return set()


def _r11_device(project: Project, cls_name: str, anchor: str,
                prefix: str, walk: _Effects, walk_spec_union: set[str],
                bucket_allowance: frozenset[str],
                spec_allowance: frozenset[str],
                transition_allowance: frozenset[tuple[str, str]],
                enums: dict[str, dict[str, str]]) -> list[Finding]:
    classes = _classes_named(project, cls_name)
    anchors = [project.functions[q] for q in sorted(project.functions)
               if q.rsplit(".", 1)[-1] == anchor]
    if not classes or not anchors:
        return []
    walk_fn = anchors[0]
    walk_path = walk_fn.module.path
    walk_line = walk_fn.node.lineno
    walk_col = walk_fn.node.col_offset
    device = _DeviceSide(project, classes[0].qualname, enums)
    dev = device.effects
    findings: list[Finding] = []

    dev_literals = {b for b in dev.buckets if b.startswith(prefix)}
    walk_literals = {b for b in walk.buckets if b.startswith(prefix)}
    walk_cover = _state_cover(walk, prefix, device.states)
    for bucket in sorted(dev_literals - walk_literals - walk_cover
                         - bucket_allowance):
        findings.append(Finding(
            path=walk_path, line=walk_line, col=walk_col, rule="R11",
            message=f"device breakdown bucket '{bucket}' ({cls_name})"
                    f" is never accounted by {anchor} — the two replay"
                    " paths drift on any trace that charges it"))
    dev_cover = _state_cover(dev, prefix, device.states)
    for bucket in sorted(walk_literals - dev_literals - dev_cover):
        if "->" in bucket and dev.transition_wildcard:
            continue
        line, col = walk.buckets[bucket]
        findings.append(Finding(
            path=walk_path, line=line, col=col, rule="R11",
            message=f"packed-walk bucket '{bucket}' does not exist in"
                    f" the {cls_name} device model — the walk charges"
                    " energy the device model never does"))

    for attr in sorted(set(dev.spec_attrs) - walk_spec_union
                       - spec_allowance):
        findings.append(Finding(
            path=walk_path, line=walk_line, col=walk_col, rule="R11",
            message=f"device spec constant '{attr}' ({cls_name}) is"
                    f" never read by the packed walk — a cost term the"
                    " fast path silently drops"))

    dev_tr = set(dev.transitions)
    walk_tr = set(walk.transitions)
    for src, dst in sorted(dev_tr - walk_tr - transition_allowance):
        findings.append(Finding(
            path=walk_path, line=walk_line, col=walk_col, rule="R11",
            message=f"device transition {src}->{dst} ({cls_name}) is"
                    f" never charged by {anchor}"))
    for src, dst in sorted(walk_tr - dev_tr):
        line, col = walk.transitions[(src, dst)]
        findings.append(Finding(
            path=walk_path, line=line, col=col, rule="R11",
            message=f"packed walk charges transition {src}->{dst}"
                    f" which the {cls_name} model never defines"))
    return findings


def _run_r11(project: Project) -> list[Finding]:
    enums = _enum_values(project)
    disk_walk = _collect_walk_effects(
        project, _walk_cone(project, "_disk_walk"), enums)
    wnic_walk = _collect_walk_effects(
        project, _walk_cone(project, "_wnic_walk"), enums)
    # Spec reads are compared as unions: the shared stages
    # (_replay_packed, _packed_ok) read e.g. bandwidth_bps on behalf
    # of both devices, so per-cone attribution would cross-flag.
    spec_union = set(disk_walk.spec_attrs) | set(wnic_walk.spec_attrs)
    findings = _r11_device(
        project, "HardDisk", "_disk_walk", "disk.", disk_walk,
        spec_union, _DISK_BUCKET_ALLOWANCE, _DISK_SPEC_ALLOWANCE,
        _DISK_TRANSITION_ALLOWANCE, enums)
    findings += _r11_device(
        project, "WirelessNic", "_wnic_walk", "wnic.", wnic_walk,
        spec_union, _WNIC_BUCKET_ALLOWANCE, _WNIC_SPEC_ALLOWANCE,
        _WNIC_TRANSITION_ALLOWANCE, enums)
    return findings


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
    """Run the dual-path equivalence rules over a built project.

    Mirrors :func:`repro.lint.interproc.run_project_rules`: ``select``
    of ``None`` means both R11 and R13, suppression filtering is the
    caller's job, findings come back in (path, line, col, rule,
    message) order.
    """
    wanted = {"R11", "R13"}
    if select is not None:
        wanted &= select
    if not wanted or not project.modules:
        return []
    findings: list[Finding] = []
    if "R11" in wanted:
        findings.extend(_run_r11(project))
    if "R13" in wanted:
        findings.extend(_run_r13(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule,
                                 f.message))
    return findings
