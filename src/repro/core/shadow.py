"""Shadow-execution sanitizer for the BurstPlan fast path.

The fast path (DESIGN.md §15–§16) swaps the live kernel path for a
cursor over a frozen BurstPlan, under the same scheduler, with a
bit-identical contract: for every plan-shaped cell it must produce the
same :class:`~repro.core.telemetry.RunResult` — every float, dict and
counter — as the live kernel path.
``tests/core/test_session_inputs.py`` checks that every session input
reaches both kernel surfaces; this module is the dynamic half: with
``REPRO_SANITIZE=1`` (or ``flexfetch sweep --sanitize``) every cell that
engages the fast path is run once more on the live kernel path and the
two runs are diffed at the bit level, stage by stage:

1. **service** — the per-extent service stream (program, source,
   bytes, energy, completion) recorded by a telemetry sink on each run;
2. **syscall** — the demand-level observation stream the policy saw;
3. **result** — every ``RunResult`` field.

The first mismatch raises :class:`ReplayDivergenceError` carrying the
stage, the index of the diverging event, the field, both values and
both energy breakdowns — enough to localise a single wrong constant to
the record that first exposed it.

The toggle is resolved once at import time: reading the environment
inside a sweep cell would make the cell depend on more than its job,
which ``tests/experiments/test_cell_purity.py`` rejects.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Callable, Sequence
from dataclasses import fields
from typing import TYPE_CHECKING

from repro.core.telemetry import RecordingSink, RunResult

if TYPE_CHECKING:
    from repro.core.session import SimulationSession

#: Process-wide default for the sanitizer, from ``REPRO_SANITIZE``.
#: Explicit ``sanitize=`` arguments (CLI flag, executor knob) override
#: it per sweep; forked pool workers inherit the parent's value.
SANITIZE_DEFAULT: bool = bool(os.environ.get("REPRO_SANITIZE"))

_SERVICE_FIELDS = ("program", "source", "nbytes", "energy", "completion")
_SYSCALL_FIELDS = ("program", "op", "nbytes", "now")


class ReplayDivergenceError(RuntimeError):
    """The fast path and the live kernel path disagreed at the bit level.

    Attributes
    ----------
    stage:
        ``"service"``, ``"syscall"`` or ``"result"`` — the first
        comparison stage that diverged.
    index:
        Index of the diverging event within the stage's stream
        (``-1`` for the ``result`` stage, which has no stream).
    field:
        Name of the diverging field within that event (``"count"``
        when one replay produced more events than the other).
    fast / slow:
        The two diverging values (fast path first).
    fast_breakdown / slow_breakdown:
        The merged ``disk.*``/``wnic.*`` energy breakdowns of both
        runs, for post-mortem without re-running either path.
    """

    def __init__(self, *, stage: str, index: int, field: str,
                 fast: object, slow: object,
                 fast_breakdown: dict[str, float],
                 slow_breakdown: dict[str, float]) -> None:
        self.stage = stage
        self.index = index
        self.field = field
        self.fast = fast
        self.slow = slow
        self.fast_breakdown = dict(fast_breakdown)
        self.slow_breakdown = dict(slow_breakdown)
        at = f"[{index}]" if index >= 0 else ""
        super().__init__(
            f"fast path diverged from live kernel path at {stage}{at}"
            f".{field}: fast={fast!r} != slow={slow!r}")


def _bit_equal(a: object, b: object) -> bool:
    """Bitwise equality: NaN == NaN, but 0.0 != -0.0 stays visible."""
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_bit_equal(v, b[k]) for k, v in a.items()))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(_bit_equal(x, y) for x, y in zip(a, b)))
    return bool(a == b)


def _breakdown(result: RunResult) -> dict[str, float]:
    merged = dict(result.disk_breakdown)
    merged.update(result.wnic_breakdown)
    return merged


def _diff_stream(stage: str, names: tuple[str, ...],
                 fast_events: Sequence[tuple[object, ...]],
                 slow_events: Sequence[tuple[object, ...]],
                 fast: RunResult, slow: RunResult) -> None:
    for index, (a, b) in enumerate(zip(fast_events, slow_events)):
        for name, x, y in zip(names, a, b):
            if not _bit_equal(x, y):
                raise ReplayDivergenceError(
                    stage=stage, index=index, field=name, fast=x,
                    slow=y, fast_breakdown=_breakdown(fast),
                    slow_breakdown=_breakdown(slow))
    if len(fast_events) != len(slow_events):
        raise ReplayDivergenceError(
            stage=stage, index=min(len(fast_events), len(slow_events)),
            field="count", fast=len(fast_events),
            slow=len(slow_events), fast_breakdown=_breakdown(fast),
            slow_breakdown=_breakdown(slow))


def compare_runs(fast: RunResult, slow: RunResult,
                 fast_sink: RecordingSink | None = None,
                 slow_sink: RecordingSink | None = None) -> None:
    """Diff two replays; raise :class:`ReplayDivergenceError` on the
    first bit-level mismatch, event streams before summary fields."""
    if fast_sink is not None and slow_sink is not None:
        _diff_stream("service", _SERVICE_FIELDS, fast_sink.services,
                     slow_sink.services, fast, slow)
        _diff_stream("syscall", _SYSCALL_FIELDS, fast_sink.syscalls,
                     slow_sink.syscalls, fast, slow)
    for spec in fields(RunResult):
        a = getattr(fast, spec.name)
        b = getattr(slow, spec.name)
        if not _bit_equal(a, b):
            raise ReplayDivergenceError(
                stage="result", index=-1, field=spec.name, fast=a,
                slow=b, fast_breakdown=_breakdown(fast),
                slow_breakdown=_breakdown(slow))


def run_shadowed(session: SimulationSession,
                 build_twin: Callable[[], SimulationSession]
                 ) -> RunResult:
    """Run ``session``; if it took the fast path, replay ``build_twin``
    on the live kernel path and verify bit-identical behaviour.

    ``build_twin`` must recreate the session from scratch (policies and
    devices are stateful, so the primary cannot be re-run); the twin is
    forced onto the live kernel path with ``with_fast_path(False)``.
    Returns the primary's result — a sanitized sweep is bit-identical
    to an unsanitized one or it raises.
    """
    fast_sink = RecordingSink()
    session.add_sink(fast_sink)
    fast = session.run()
    if not session.used_fast_path:
        return fast
    slow_sink = RecordingSink()
    twin = build_twin().with_fast_path(False).add_sink(slow_sink)
    slow = twin.run()
    compare_runs(fast, slow, fast_sink, slow_sink)
    return fast
