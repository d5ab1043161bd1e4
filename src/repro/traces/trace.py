"""The :class:`Trace` container.

A trace is an ordered list of :class:`~repro.traces.record.SyscallRecord`
plus the file set they touch.  Construction validates ordering and
referential integrity; :meth:`Trace.stats` computes the Table 3 columns
and the think-time structure burst extraction depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.traces.record import FileInfo, OpType, SyscallRecord
from repro.sim.clock import MB
from repro.units import Bytes, Seconds


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Summary statistics of a trace (Table 3 + burst structure)."""

    name: str
    file_count: int
    footprint_bytes: Bytes
    record_count: int
    read_bytes: Bytes
    write_bytes: Bytes
    duration: Seconds
    mean_request: float
    think_times: tuple[float, ...] = field(repr=False, default=())

    @property
    def footprint_mb(self) -> float:
        """Footprint in the paper's MB (10^6 bytes) convention."""
        return self.footprint_bytes / 1e6

    @property
    def total_bytes(self) -> Bytes:
        return self.read_bytes + self.write_bytes

    def think_percentile(self, q: float) -> float:
        """Percentile of inter-call think times (0 if no gaps)."""
        if not self.think_times:
            return 0.0
        return float(np.percentile(np.asarray(self.think_times), q))


class Trace:
    """Ordered syscall records + the file namespace they reference.

    Parameters
    ----------
    name:
        Workload label (e.g. ``"grep"``).
    records:
        Syscall records; must be sorted by timestamp (ties allowed).
    files:
        File set; every record's inode must be present, and data-moving
        records must stay within the file size.
    """

    def __init__(self, name: str, records: list[SyscallRecord],
                 files: dict[int, FileInfo]) -> None:
        if not name:
            raise ValueError("trace needs a name")
        self.name = name
        self.records: tuple[SyscallRecord, ...] = tuple(records)
        self.files: dict[int, FileInfo] = dict(files)
        self._validate()

    def _validate(self) -> None:
        prev_ts = 0.0
        for i, rec in enumerate(self.records):
            if rec.timestamp < prev_ts - 1e-9:
                raise ValueError(
                    f"record {i} out of order: {rec.timestamp} < {prev_ts}")
            prev_ts = max(prev_ts, rec.timestamp)
            info = self.files.get(rec.inode)
            if info is None:
                raise ValueError(f"record {i} references unknown inode"
                                 f" {rec.inode}")
            if rec.op.moves_data and rec.end_offset > info.size_bytes:
                # The disk layout places each file at its declared size,
                # so a write past it would reach a block with no address.
                past = ("reads past EOF" if rec.op is OpType.READ
                        else "writes past the declared size")
                raise ValueError(
                    f"record {i} {past} of {info.path}:"
                    f" {rec.end_offset} > {info.size_bytes}")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def duration(self) -> Seconds:
        """End time of the last call (0 for an empty trace)."""
        if not self.records:
            return 0.0
        return max(r.end_time for r in self.records)

    @property
    def pids(self) -> set[int]:
        return {r.pid for r in self.records}

    def data_records(self) -> list[SyscallRecord]:
        """Only the read/write records, in order."""
        return [r for r in self.records if r.op.moves_data]

    # ------------------------------------------------------------------
    def stats(self) -> TraceStats:
        """Compute summary statistics (Table 3 columns and think gaps)."""
        data = self.data_records()
        read_bytes = sum(r.size for r in data if r.op is OpType.READ)
        write_bytes = sum(r.size for r in data if r.op is OpType.WRITE)
        thinks: list[float] = []
        for prev, cur in zip(data, data[1:], strict=False):
            thinks.append(max(0.0, cur.timestamp - prev.end_time))
        sizes = [r.size for r in data]
        return TraceStats(
            name=self.name,
            file_count=len(self.files),
            footprint_bytes=sum(f.size_bytes for f in self.files.values()),
            record_count=len(self.records),
            read_bytes=read_bytes,
            write_bytes=write_bytes,
            duration=self.duration,
            mean_request=float(np.mean(sizes)) if sizes else 0.0,
            think_times=tuple(thinks),
        )

    # ------------------------------------------------------------------
    def shifted(self, dt: Seconds) -> Trace:
        """Copy with all timestamps moved by ``dt`` (>= 0 result)."""
        records = []
        for r in self.records:
            ts = r.timestamp + dt
            if ts < 0:
                raise ValueError("shift would produce negative timestamps")
            records.append(SyscallRecord(
                pid=r.pid, fd=r.fd, inode=r.inode, offset=r.offset,
                size=r.size, op=r.op, timestamp=ts, duration=r.duration))
        return Trace(self.name, records, self.files)

    def renumbered(self, inode_offset: int) -> Trace:
        """Copy with every inode shifted by ``inode_offset``.

        Generators all start numbering at 1; composing two independent
        traces requires moving one into a disjoint inode range first.
        """
        records = [SyscallRecord(
            pid=r.pid, fd=r.fd, inode=r.inode + inode_offset,
            offset=r.offset, size=r.size, op=r.op,
            timestamp=r.timestamp, duration=r.duration)
            for r in self.records]
        files = {
            inode + inode_offset: FileInfo(
                inode=inode + inode_offset, path=info.path,
                size_bytes=info.size_bytes)
            for inode, info in self.files.items()
        }
        return Trace(self.name, records, files)

    def max_inode(self) -> int:
        """Largest inode in the file set (0 for an empty trace)."""
        return max(self.files, default=0)

    def concat(self, other: Trace, *, gap: float = 0.0,
               name: str | None = None) -> Trace:
        """This trace followed by ``other`` after ``gap`` seconds.

        Inode spaces must be disjoint or agree on file sizes; this is how
        the grep-then-make programming scenario (§3.3.1) is assembled.
        """
        for inode, info in other.files.items():
            mine = self.files.get(inode)
            if mine is not None and mine.size_bytes != info.size_bytes:
                raise ValueError(
                    f"inode {inode} has conflicting sizes in concat")
        offset = self.duration + gap
        shifted = other.shifted(offset)
        files = dict(self.files)
        files.update(shifted.files)
        return Trace(name or f"{self.name}+{other.name}",
                     list(self.records) + list(shifted.records), files)

    def merged(self, other: Trace, *, name: str | None = None) -> Trace:
        """Timestamp-interleaved union (concurrent programs, §2.3.4)."""
        for inode, info in other.files.items():
            mine = self.files.get(inode)
            if mine is not None and mine.size_bytes != info.size_bytes:
                raise ValueError(
                    f"inode {inode} has conflicting sizes in merge")
        records = sorted(list(self.records) + list(other.records),
                         key=lambda r: r.timestamp)
        files = dict(self.files)
        files.update(other.files)
        return Trace(name or f"{self.name}|{other.name}", records, files)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        footprint = sum(f.size_bytes for f in self.files.values()) / MB
        return (f"<Trace {self.name!r} records={len(self.records)}"
                f" files={len(self.files)}"
                f" footprint={footprint:.1f}MiB>")
