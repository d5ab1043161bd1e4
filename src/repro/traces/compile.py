"""Compile-once trace lowering.

A sweep replays the same trace at every (policy x link) cell, yet the
record-level :class:`~repro.traces.trace.Trace` pays its costs per cell:
every :class:`~repro.core.workload.ProgramDriver` re-walks the records
to find the data-moving calls and re-derives the closed-loop think
times, and every :class:`~repro.experiments.parallel.SweepJob` used to
pickle the full record list across the process boundary.

:func:`compile_trace` pays those costs **once**, lowering a trace into a
:class:`CompiledTrace` — compact immutable ``bytes`` columns (one byte
per op code, int64 per pid/inode/offset/size, float64 per think time)
plus the file table, stamped with a content digest.  Everything the
replay loop reads is precomputed with the exact float expressions the
record-level driver used, so a compiled replay is bit-identical to a
record-level one; the digest keys the run cache and the burst-plan
memo.

:class:`TraceSource` is the seam real-trace ingestion plugs into: a
source knows how to *load* a record-level trace and how to hand out its
compiled form.  :class:`SyntheticSource` (the Table 3 generators) and
:class:`StraceSource` (the modified-strace text format) are the two
shipped implementations.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable
from weakref import WeakKeyDictionary

from repro.traces.record import OpType
from repro.traces.trace import Trace
from repro.units import Bytes, Seconds

#: Compiled op codes, index-aligned with :data:`OPS_BY_CODE`.  Only
#: data-moving calls are lowered — OPEN/CLOSE never reach the replay
#: loop (``Trace.data_records`` drops them today) and therefore do not
#: participate in the digest either.
_OP_TO_CODE = {OpType.READ: 0, OpType.WRITE: 1}
OPS_BY_CODE: tuple[OpType, ...] = (OpType.READ, OpType.WRITE)


@dataclass(frozen=True, slots=True)
class CompiledTrace:
    """A trace lowered once into immutable columnar arrays.

    All columns are raw little/native-endian buffers; view them
    zero-copy with ``memoryview(col).cast("q")`` (int64) or
    ``.cast("d")`` (float64).  ``thinks[i]`` is the recorded gap between
    data record ``i`` returning and record ``i+1`` being issued —
    computed at compile time with the same expression the record-level
    driver used, so replays stay bit-identical.

    ``digest`` is a content hash over everything that reaches the
    simulator (name, op/pid/inode/offset/size columns, think times,
    start time, and the inode-sorted file table).  It keys the run
    cache (salt v3) and the burst-plan memo.
    """

    name: str
    digest: str
    #: number of data-moving records (the replay length).
    record_count: int
    #: total bytes moved by the data records.
    total_bytes: Bytes
    #: timestamp of the first data record (first scheduling point).
    start_time: Seconds
    ops: bytes        # 1 byte per record, see OPS_BY_CODE
    pids: bytes       # int64 per record
    inodes: bytes     # int64 per record
    offsets: bytes    # int64 per record
    sizes: bytes      # int64 per record
    thinks: bytes     # float64, record_count - 1 entries (0 if empty)
    #: file table, sorted by inode (the registration order the
    #: record-level path used — layout placement depends on it).
    file_inodes: bytes  # int64 per file
    file_sizes: bytes   # int64 per file
    file_paths: tuple[str, ...]

    @property
    def file_count(self) -> int:
        return len(self.file_paths)

    def __len__(self) -> int:
        return self.record_count

    def files_view(self) -> tuple[memoryview, memoryview]:
        """Zero-copy (inodes, sizes) int64 views of the file table."""
        return (memoryview(self.file_inodes).cast("q"),
                memoryview(self.file_sizes).cast("q"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CompiledTrace {self.name!r}"
                f" records={self.record_count}"
                f" files={self.file_count}"
                f" digest={self.digest[:12]}>")


#: Compile-once memo: the same ``Trace`` object is lowered at most once
#: per process, however many sessions or sweeps reference it.  Keys are
#: weak so a dropped trace does not pin its compiled form forever.
_COMPILE_CACHE: WeakKeyDictionary[Trace, CompiledTrace] = \
    WeakKeyDictionary()


def compile_trace(trace: Trace | CompiledTrace) -> CompiledTrace:
    """Lower ``trace`` to its compiled form (idempotent, memoised)."""
    if isinstance(trace, CompiledTrace):
        return trace
    cached = _COMPILE_CACHE.get(trace)
    if cached is not None:
        return cached
    data = trace.data_records()
    ops = bytes(_OP_TO_CODE[r.op] for r in data)
    pids = array("q", (r.pid for r in data)).tobytes()
    inodes = array("q", (r.inode for r in data)).tobytes()
    offsets = array("q", (r.offset for r in data)).tobytes()
    sizes = array("q", (r.size for r in data)).tobytes()
    # The exact expression ProgramDriver historically evaluated per
    # session — evaluated once here, bit-for-bit.
    thinks = array("d", (max(0.0, nxt.timestamp - cur.end_time)
                         for cur, nxt in zip(data, data[1:],
                                             strict=False))).tobytes()
    start_time = data[0].timestamp if data else 0.0
    infos = sorted(trace.files.values(), key=lambda f: f.inode)
    file_inodes = array("q", (f.inode for f in infos)).tobytes()
    file_sizes = array("q", (f.size_bytes for f in infos)).tobytes()
    file_paths = tuple(f.path for f in infos)

    h = hashlib.sha256()
    h.update(f"ctrace/v1/{sys.byteorder}\0{trace.name}\0{len(data)}\0"
             f"{start_time!r}\0".encode())
    for column in (ops, pids, inodes, offsets, sizes, thinks,
                   file_inodes, file_sizes):
        h.update(column)
        h.update(b"\0")
    compiled = CompiledTrace(
        name=trace.name, digest=h.hexdigest(),
        record_count=len(data),
        total_bytes=sum(r.size for r in data),
        start_time=start_time,
        ops=ops, pids=pids, inodes=inodes, offsets=offsets, sizes=sizes,
        thinks=thinks, file_inodes=file_inodes, file_sizes=file_sizes,
        file_paths=file_paths)
    _COMPILE_CACHE[trace] = compiled
    return compiled


# ----------------------------------------------------------------------
# trace sources
# ----------------------------------------------------------------------
@runtime_checkable
class TraceSource(Protocol):
    """Anything that can produce a trace, record-level or compiled.

    The ingestion seam: figure builders and the CLI talk to sources, so
    a real strace capture and a synthetic generator are interchangeable
    behind it.
    """

    def load(self) -> Trace:
        """Produce (or re-produce) the record-level trace."""
        ...

    def compiled(self) -> CompiledTrace:
        """The compiled form (compile-once per source/process)."""
        ...


@dataclass(frozen=True, slots=True)
class SyntheticSource:
    """A Table 3 synthetic generator behind the :class:`TraceSource`
    seam.  ``generator`` is the bare application name — any ``name`` for
    which ``repro.traces.synth.generate_<name>`` exists."""

    generator: str
    seed: int = 0

    def _generator(self):
        from repro.traces import synth
        fn = getattr(synth, f"generate_{self.generator}", None)
        if fn is None:
            raise ValueError(
                f"unknown synthetic generator {self.generator!r}"
                " (no repro.traces.synth.generate_"
                f"{self.generator})")
        return fn

    def load(self) -> Trace:
        return self._generator()(self.seed)

    def compiled(self) -> CompiledTrace:
        return compile_trace(self.load())


@dataclass(frozen=True, slots=True)
class StraceSource:
    """A modified-strace text capture behind the :class:`TraceSource`
    seam (the §3.2 collection format)."""

    path: str
    name: str | None = None
    skip_malformed: bool = False

    def load(self) -> Trace:
        from repro.traces.strace import parse_strace_text
        path = Path(self.path)
        parsed = parse_strace_text(path.read_text(encoding="utf-8"),
                                   name=self.name or path.stem,
                                   skip_malformed=self.skip_malformed)
        if self.skip_malformed:
            trace, _skipped = parsed
            return trace
        return parsed

    def compiled(self) -> CompiledTrace:
        return compile_trace(self.load())
