"""Per-layer spans for the traced run (``--trace``).

The tracer wraps public functions and methods of the program's layer
classes from the outside: it edits no file of the program and sets no
environment variable.  Each wrapper times its call with
``perf_counter`` on a stack, so a span's *self* time is its duration
minus the part its child spans cover.  Calls within one cell are
aggregated by (span, parent span): a cell makes millions of device and
policy calls, too many to keep one record each.

A target that no longer exists -- a later change may delete
``EventLoop`` or ``TwoQCache.dirty_pages`` -- is reported with
``calls=0`` instead of failing, so the benchmark keeps working on the
code it measures without being edited.

This module imports nothing from ``repro`` until :meth:`Tracer.install`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections.abc import Callable, Iterable, Sized
from time import perf_counter
from types import FunctionType
from typing import Any

#: span name -> wrapped targets, each ``module:function``,
#: ``module:Class.method`` or ``policy:method`` (that method on each
#: concrete policy class the workload builds).  Names follow the
#: program's modules.
SPANS: dict[str, tuple[str, ...]] = {
    "runner.run_point": ("repro.experiments.runner:run_point",),
    "session.run": ("repro.core.session:SimulationSession.run",),
    "engine.run": ("repro.sim.engine:EventLoop.run",),
    "engine.schedule_at": ("repro.sim.engine:EventLoop.schedule_at",),
    "workload.advance": ("repro.core.workload:ProgramDriver.advance",),
    "kernel.read": ("repro.kernel.path:KernelPath.read",),
    "kernel.write": ("repro.kernel.path:KernelPath.write",),
    "kernel.plan_writeback": (
        "repro.kernel.path:KernelPath.plan_writeback",),
    "kernel.complete_fetch": (
        "repro.kernel.path:KernelPath.complete_fetch",),
    "kernel.dirty_pages": ("repro.kernel.cache:TwoQCache.dirty_pages",),
    "plan.read": ("repro.sim.plan:PlanCursor.read",),
    "plan.complete_fetch": ("repro.sim.plan:PlanCursor.complete_fetch",),
    "plan.plan_writeback": ("repro.sim.plan:PlanCursor.plan_writeback",),
    "devices.disk_transfer": (
        "repro.devices.service:DiskService.transfer",),
    "devices.wnic_transfer": (
        "repro.devices.service:WnicService.transfer",),
    "devices.advance_to": ("repro.devices.disk:HardDisk.advance_to",
                           "repro.devices.wnic:WirelessNic.advance_to"),
    "routing.service": ("repro.core.routing:RequestRouter.service",),
    "policy.route": ("policy:route",),
    "policy.on_tick": ("policy:on_tick",),
    "policy.on_syscall": ("policy:on_syscall",),
    "policy.on_serviced": ("policy:on_serviced",),
    "costmodel.stage_pair": ("repro.core.costmodel:CostModel.stage_pair",),
    "costmodel.stage_estimate": (
        "repro.core.costmodel:CostModel.stage_estimate",),
    "costmodel.marginal_pair": (
        "repro.core.costmodel:CostModel.marginal_pair",),
    "telemetry.build_run_result": (
        "repro.core.telemetry:build_run_result",),
}

#: Set-up phases, timed in every child (see ``child.py``).
SETUP_PHASES = ("synth", "compile", "profile", "plan")

#: Simulated outcome counters of the traced pass: name -> (unit,
#: better).  They are exact, so a pure-performance change must leave
#: them unchanged.
COUNTERS: dict[str, tuple[str, str]] = {
    "kernel.cache_hit_ratio": ("ratio", "higher"),
    "kernel.read.extents_per_call": ("extents/call", "lower"),
    "plan.fast_path_share": ("share", "higher"),
    "routing.disk_byte_share": ("share", "lower"),
    "routing.retry_ratio": ("ratio", "lower"),
    "routing.failovers": ("count", "lower"),
    "devices.disk_spinups": ("count", "lower"),
    "devices.wnic_wakeups": ("count", "lower"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    metrics = []
    for span in SPANS:
        metrics += [(f"{span}.calls", "count", "lower"),
                    (f"{span}.self_s", "s", "lower"),
                    (f"{span}.self_share", "share", "lower")]
    metrics += [(f"setup.{phase}_s", "s", "lower")
                for phase in SETUP_PHASES]
    metrics += [(name, unit, better)
                for name, (unit, better) in COUNTERS.items()]
    metrics.append(("trace_overhead", "x", "lower"))
    return metrics


class Tracer:
    """Span stack and per-cell aggregation behind the installed wrappers."""

    def __init__(self) -> None:
        #: open spans, innermost last: [name, seconds covered by children]
        self._stack: list[list[Any]] = []
        #: (span, parent) -> [calls, total_s, self_s, first start, last end]
        self._cell: dict[tuple[str, str | None], list[float]] = {}
        #: targets that no longer exist in the program.
        self.missing: list[str] = []
        #: extents returned by ``kernel.read`` calls.
        self.read_extents = 0
        #: ``session.run`` calls that took the BurstPlan fast path.
        self.fast_path_runs = 0

    # -- installation --------------------------------------------------
    def install(self, policy_classes: Iterable[type]) -> None:
        """Wrap every target in :data:`SPANS` (missing ones recorded)."""
        policy_classes = tuple(policy_classes)
        for span, targets in SPANS.items():
            for target in targets:
                sites = _sites(target, policy_classes)
                if not sites:
                    self.missing.append(target)
                for owner, attr, fn in sites:
                    setattr(owner, attr, self._wrap(span, fn))

    def _wrap(self, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        cell = self._cell
        observe = {"kernel.read": self._count_extents,
                   "session.run": self._note_path}.get(span)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                total = t1 - t0
                if stack:
                    stack[-1][1] += total
                entry = cell.get((span, parent))
                if entry is None:
                    cell[(span, parent)] = [1, total, total - frame[1],
                                            t0, t1]
                else:
                    entry[0] += 1
                    entry[1] += total
                    entry[2] += total - frame[1]
                    entry[4] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count_extents(self, args: tuple[Any, ...], result: Any) -> None:
        # Never fail the program's call: a read that stops returning a
        # sized batch is simply not counted.
        if isinstance(result, Sized):
            self.read_extents += len(result)

    def _note_path(self, args: tuple[Any, ...], result: Any) -> None:
        if getattr(args[0], "used_fast_path", False):
            self.fast_path_runs += 1

    # -- recording -----------------------------------------------------
    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` (a calibration probe) out of the open span."""
        if self._stack:
            self._stack[-1][1] += seconds

    def take_cell(self, origin: float) -> list[dict[str, Any]]:
        """The aggregated spans recorded since the last call, with
        start/end relative to ``origin``; resets the aggregation."""
        spans = [{"name": span, "parent": parent, "calls": int(calls),
                  "total_s": total, "self_s": self_s,
                  "start_s": first - origin, "end_s": last - origin}
                 for (span, parent), (calls, total, self_s, first, last)
                 in self._cell.items()]
        self._cell.clear()
        return spans


def _sites(target: str, policy_classes: tuple[type, ...]
           ) -> list[tuple[Any, str, FunctionType]]:
    """(owner, attribute, function) places where ``target`` lives."""
    where, _, path = target.partition(":")
    if where == "policy":
        owners, attr = list(policy_classes), path
    else:
        try:
            module = importlib.import_module(where)
        except ImportError:
            return []
        if "." not in path:
            fn = getattr(module, path, None)
            if not isinstance(fn, FunctionType):
                return []
            # Also every program module that imported it by name.
            return [(mod, path, fn) for name, mod in list(sys.modules.items())
                    if name.split(".")[0] == "repro"
                    and getattr(mod, path, None) is fn]
        cls_name, _, attr = path.partition(".")
        owner = getattr(module, cls_name, None)
        owners = [owner] if isinstance(owner, type) else []
    sites = []
    for owner in owners:
        fn = inspect.getattr_static(owner, attr, None)
        if isinstance(fn, FunctionType):
            sites.append((owner, attr, fn))
    return sites
