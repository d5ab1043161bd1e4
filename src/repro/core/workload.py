"""Workload layer: closed-loop program drivers replaying traces.

"We built a simulator that is driven by real-life applications'
execution traces."  Each :class:`ProgramDriver` replays one recorded
program **closed-loop**: request *i+1* issues one recorded think time
after request *i* completes, so slow devices stretch the run (and the
performance-loss rule has teeth).  The driver owns only the replay
cursor — what happens to each syscall (kernel path, routing, devices)
is the session's wiring of the layers below.

Replay is compile-once / simulate-many: a :class:`ProgramSpec` holds
either a record-level :class:`~repro.traces.trace.Trace` (convenient to
construct) or its **prepared** form, a
:class:`~repro.traces.compile.CompiledTrace` whose data records, think
times and file table were lowered once into immutable columnar arrays.
Drivers read the compiled columns through zero-copy ``memoryview``\\ s,
so building a driver — and therefore a
:class:`~repro.core.session.SimulationSession` — is O(1) in trace
length.  A record-level spec is compiled on first use (memoised per
trace object), so both forms replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.traces.compile import CompiledTrace, compile_trace
from repro.traces.trace import Trace
from repro.units import Bytes, Seconds


@dataclass(frozen=True, slots=True)
class ProgramSpec:
    """One program participating in a replay.

    ``trace`` is either a record-level :class:`Trace` or a
    :class:`CompiledTrace`; :meth:`prepared` returns the spec in
    compiled form.  ``profiled`` — FlexFetch has (or builds) a profile
    for it; ``disk_pinned`` — its data exists only on the local disk
    (no remote replica), so every request must go to the disk.
    """

    trace: Trace | CompiledTrace
    profiled: bool = True
    disk_pinned: bool = False

    @property
    def is_prepared(self) -> bool:
        """Whether the trace is already in compiled form."""
        return isinstance(self.trace, CompiledTrace)

    def prepared(self) -> ProgramSpec:
        """This spec with its trace compiled (self if already so)."""
        if self.is_prepared:
            return self
        return replace(self, trace=compile_trace(self.trace))

    @property
    def compiled(self) -> CompiledTrace:
        """The compiled trace (compiling on the fly if record-level)."""
        return compile_trace(self.trace)


class ProgramDriver:
    """Replay cursor of one program, reading compiled columns."""

    def __init__(self, spec: ProgramSpec) -> None:
        self.spec = spec.prepared()
        compiled = self.spec.trace
        assert isinstance(compiled, CompiledTrace)
        self.compiled = compiled
        #: plain attributes, not properties: the router and the session
        #: read them for every record and extent.
        self.name = compiled.name
        self.profiled = self.spec.profiled
        self.disk_pinned = self.spec.disk_pinned
        #: raw compiled columns; the replay loop indexes them directly
        #: instead of materialising an object per record.
        self.ops = compiled.ops
        self.pids = memoryview(compiled.pids).cast("q")
        self.inodes = memoryview(compiled.inodes).cast("q")
        self.offsets = memoryview(compiled.offsets).cast("q")
        self.sizes = memoryview(compiled.sizes).cast("q")
        #: closed-loop think times, precomputed at compile time.
        self.thinks = memoryview(compiled.thinks).cast("d")
        self.index = 0
        self.last_completion = 0.0
        self.done = compiled.record_count == 0

    @property
    def record_count(self) -> int:
        """Number of data-moving records being replayed."""
        return self.compiled.record_count

    @property
    def total_bytes(self) -> Bytes:
        """Total bytes the replayed records move."""
        return self.compiled.total_bytes

    @property
    def start_time(self) -> Seconds:
        """Recorded timestamp of the first data record."""
        return self.compiled.start_time

    def advance(self) -> float | None:
        """Move past the current record; returns the recorded think
        time before the next one, or None when the program is done."""
        self.index += 1
        if self.index >= self.compiled.record_count:
            self.done = True
            return None
        return self.thinks[self.index - 1]
