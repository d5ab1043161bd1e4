"""Laptop-mode expiry is checked only when a record completes.

The session plans write-back once per record, at the record's
completion, so a page past ``WritebackConfig.max_age`` waits for the
next record to be flushed.  A slower read can therefore pull a flush
*earlier*, and a fault can make a run cheaper without any retry or
failover.  Linux's flusher thread also wakes on a timer, independent
of system calls; this model does not.

The case below is WNIC-only on one 34-page file.  Fault-free, the
4 KiB read issued at 31.015 s completes at 31.419 s, when the page
dirtied at 1.430 s is 29.989 s old: just under 30 s.  Its flush waits
for the next record, at 34.424 s, after the radio has dozed, and pays
a wake-up.  A 1 Mbps rate flap slows that read to complete at
31.449 s, past 30 s, so the flush goes out at once, with the radio
still in CAM: one wake and one doze fewer, 39.181 J against 40.540 J.
Both kernel surfaces give the same numbers.
"""

from __future__ import annotations

import pytest

from repro.core.policies import WnicOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.traces.record import FileInfo, OpType, SyscallRecord
from repro.traces.trace import Trace

FAULTS = FaultSpec(outage_rate=0.0, rate_flap_rate=0.01)
FAULT_SEED = 877_911_413

#: (total energy, wakeups, dozes, flushes as (issue, completion)).
EXPECTED = {
    False: (40.5404112290909, 5, 5,
            [(34.42428290909091, 34.828261818181815)]),
    True: (39.18083312, 4, 4, [(31.449072, 31.482840000000003)]),
}


def _trace() -> Trace:
    """1-byte reads of page 0, one 1-byte write, and a 4,097-byte read
    at 29.503 s; the last read is of byte 4,090."""
    read, write = OpType.READ, OpType.WRITE
    rows = [(0.001, read, 0, 1), (0.501, read, 0, 1),
            (1.001, write, 0, 1), (1.501, read, 0, 1),
            (4.501, read, 0, 1)]
    rows += [(29.501 + k * 0.001, read, 0, 4097 if k == 2 else 1)
             for k in range(8)]
    rows += [(32.508, read, 0, 1), (57.508, read, 4090, 1)]
    records = [SyscallRecord(pid=1, fd=3, inode=1, offset=offset,
                             size=size, op=op, timestamp=ts, duration=0.0)
               for ts, op, offset, size in rows]
    return Trace("flush-timing", records,
                 {1: FileInfo(inode=1, path="f0", size_bytes=139_264)})


class _FlushLog(WnicOnlyPolicy):
    """WNIC-only, noting when each write-back extent was issued and
    when it completed."""

    def __init__(self) -> None:
        super().__init__()
        self.flushes: list[tuple[float, float]] = []

    def on_serviced(self, ctx, source, result) -> None:
        if ctx.op is OpType.WRITE:
            self.flushes.append((ctx.now, result.completion))


@pytest.mark.parametrize("fast_path", [True, False], ids=["plan", "live"])
@pytest.mark.parametrize("faulted", [False, True],
                         ids=["fault-free", "rate-flap"])
def test_a_slower_read_pulls_the_flush_earlier(fast_path, faulted):
    policy = _FlushLog()
    faults = FaultSchedule(FAULTS, seed=FAULT_SEED) if faulted else None
    session = SimulationSession([ProgramSpec(_trace())], policy, seed=1,
                                faults=faults).with_fast_path(fast_path)
    result = session.run()
    assert session.used_fast_path is fast_path
    energy, wakeups, dozes, flushes = EXPECTED[faulted]
    assert result.total_energy == energy
    assert (result.wnic_wakeups, result.wnic_dozes) == (wakeups, dozes)
    assert policy.flushes == flushes
    # Nothing else differs: no residue, no retry, no failover.
    assert result.dirty_pages_at_end == 0
    assert result.fault_retries == result.fault_failovers == {}
