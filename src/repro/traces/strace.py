"""Parser for the modified-strace collector format.

The paper modified the Linux *strace* utility to intercept file-related
system calls and log "pid, file descriptor, inode number, offset, size,
type, timestamp, and duration" (§3.2).  We define (and parse) a line
format carrying exactly those fields, close to stock strace's
``-ttt -T`` output with the inode/offset annotations the authors added::

    4242 1183900000.123456 read(3) inode=1001 offset=8192 size=4096 = 4096 <0.000213>

i.e. ``pid  epoch-timestamp  op(fd)  inode=N offset=N size=N  = ret  <duration>``.

``open``/``close`` lines carry ``offset=0 size=0``.  Timestamps are
re-based so the first call is at t=0, matching the synthetic traces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from repro.traces.record import FileInfo, OpType, SyscallRecord
from repro.traces.trace import Trace

_LINE_RE = re.compile(
    r"^\s*(?P<pid>\d+)\s+"
    r"(?P<ts>\d+(?:\.\d+)?)\s+"
    r"(?P<op>read|write|open|close)\((?P<fd>\d+)(?:</(?P<path>[^>]*)>)?\)\s+"
    r"inode=(?P<inode>\d+)\s+offset=(?P<offset>\d+)\s+size=(?P<size>\d+)"
    r"\s*=\s*(?P<ret>-?\d+)"
    r"\s*<(?P<dur>\d+(?:\.\d+)?)>\s*$")


class StraceParseError(ValueError):
    """A line did not match the collector format.

    When raised from a multi-line parse, ``lineno`` (1-based) and
    ``snippet`` point at the offending line; both also appear in the
    message.
    """

    def __init__(self, message: str, *, lineno: int | None = None,
                 snippet: str | None = None) -> None:
        self.lineno = lineno
        self.snippet = snippet
        if lineno is not None:
            message = f"line {lineno}: {message}"
            if snippet is not None:
                message += f"  [{snippet}]"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class SkippedLine:
    """One malformed line dropped by a ``skip_malformed`` parse."""

    lineno: int
    snippet: str
    reason: str


def _snippet(line: str, limit: int = 60) -> str:
    return line if len(line) <= limit else line[:limit - 3] + "..."


def parse_strace_line(line: str) -> tuple[SyscallRecord, str | None]:
    """Parse one collector line into a record and an optional path.

    The returned timestamp is the raw (epoch) value; :func:`parse_strace_text`
    re-bases to trace-relative time.  A negative return value (failed
    call) yields a zero-size record.
    """
    m = _LINE_RE.match(line)
    if m is None:
        raise StraceParseError(f"unparseable collector line: {line!r}")
    ret = int(m.group("ret"))
    size = max(0, min(int(m.group("size")), ret)) if ret >= 0 else 0
    op = OpType(m.group("op"))
    if not op.moves_data:
        size = 0
    record = SyscallRecord(
        pid=int(m.group("pid")),
        fd=int(m.group("fd")),
        inode=int(m.group("inode")),
        offset=int(m.group("offset")),
        size=size,
        op=op,
        timestamp=float(m.group("ts")),
        duration=float(m.group("dur")),
    )
    return record, m.group("path")


def parse_strace_text(text: str, *, name: str = "strace",
                      file_sizes: dict[int, int] | None = None,
                      skip_malformed: bool = False
                      ) -> Trace | tuple[Trace, list[SkippedLine]]:
    """Parse a whole collector capture into a :class:`Trace`.

    ``file_sizes`` may supply authoritative sizes; otherwise each file's
    size is inferred as the maximum byte touched.  Blank lines and
    ``#`` comments are skipped.

    With ``skip_malformed=True`` (lossy mode, for real-world captures
    with interleaved noise) malformed lines are dropped instead of
    fatal, and the return value becomes ``(trace, skipped)`` where
    ``skipped`` lists every dropped line with its 1-based number,
    snippet and reason.
    """
    raw: list[tuple[SyscallRecord, str | None]] = []
    skipped: list[SkippedLine] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            raw.append(parse_strace_line(line))
        except StraceParseError as exc:
            if skip_malformed:
                skipped.append(SkippedLine(lineno=lineno,
                                           snippet=_snippet(line),
                                           reason=str(exc)))
                continue
            raise StraceParseError("unparseable collector line",
                                   lineno=lineno,
                                   snippet=_snippet(line)) from exc
    if not raw:
        empty = Trace(name, [], {})
        return (empty, skipped) if skip_malformed else empty
    raw.sort(key=lambda pair: pair[0].timestamp)
    base = raw[0][0].timestamp

    paths: dict[int, str] = {}
    max_touch: dict[int, int] = {}
    records: list[SyscallRecord] = []
    for rec, path in raw:
        if path:
            paths.setdefault(rec.inode, path)
        max_touch[rec.inode] = max(max_touch.get(rec.inode, 0),
                                   rec.end_offset)
        records.append(SyscallRecord(
            pid=rec.pid, fd=rec.fd, inode=rec.inode, offset=rec.offset,
            size=rec.size, op=rec.op,
            timestamp=rec.timestamp - base, duration=rec.duration))

    files: dict[int, FileInfo] = {}
    for inode, touched in max_touch.items():
        size = touched
        if file_sizes and inode in file_sizes:
            size = max(size, file_sizes[inode])
        files[inode] = FileInfo(
            inode=inode,
            path=paths.get(inode, f"inode-{inode}"),
            size_bytes=size)
    trace = Trace(name, records, files)
    return (trace, skipped) if skip_malformed else trace


def parse_strace_file(path: str | Path, *, name: str | None = None,
                      file_sizes: dict[int, int] | None = None) -> Trace:
    """Parse a collector capture from disk."""
    path = Path(path)
    return parse_strace_text(path.read_text(encoding="utf-8"),
                             name=name or path.stem,
                             file_sizes=file_sizes)


def format_strace_line(record: SyscallRecord, *, path: str | None = None,
                       epoch: float = 0.0) -> str:
    """Render a record back into the collector line format."""
    where = f"{record.fd}</{path}>" if path else f"{record.fd}"
    return (f"{record.pid} {epoch + record.timestamp:.6f} "
            f"{record.op.value}({where}) "
            f"inode={record.inode} offset={record.offset} "
            f"size={record.size} = {record.size} <{record.duration:.6f}>")
