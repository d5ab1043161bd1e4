"""The cost model's cache-filter memo against a fresh filter.

``CostModel.stage_pair`` keeps, per session, every burst the §2.3.2
cache filter changed, keyed by the residency versions of the inodes the
burst reads.  A burst whose read inodes kept their residency must come
back as the very object filtered before; one record that installs or
evicts a page of a read inode must force the burst to be filtered
again, equal to a fresh, memo-less filter.  Both kernel surfaces are
driven through the same records: the PlanCursor versions each inode on
its own, the live kernel path has one coarse counter for all of them.
"""

from __future__ import annotations

import pytest

from repro.core.burst import IOBurst, ProfiledRequest
from repro.core.costmodel import CostModel, _pack
from repro.core.profile import ExecutionProfile
from repro.devices.disk import HardDisk
from repro.devices.wnic import WirelessNic
from repro.kernel.page import PAGE_SIZE
from repro.kernel.path import KernelPath
from repro.sim.plan import PlanCursor, build_plan
from repro.traces.compile import compile_trace
from repro.traces.record import OpType
from tests.conftest import make_trace

FILE_PAGES = 128
#: the far page of inode 1 that only record 2 fetches.
FAR = 100
#: (inode, first page, pages): all reads, one after another.
RECORDS = [
    (1, 0, 4),        # inode 1's head
    (2, 0, 4),        # inode 2 only
    (1, FAR, 1),      # one more page of inode 1
    (3, 0, 64),       # a scan that evicts inodes 1 and 2
]
MEMORY = 24 * PAGE_SIZE


def _read(inode, first, pages):
    return ProfiledRequest(inode=inode, offset=first * PAGE_SIZE,
                           size=pages * PAGE_SIZE, op=OpType.READ)


#: burst 0 reads inode 1 (head and far page), burst 1 inode 2, and a
#: write of inode 1 rides along unfiltered.
PROFILE = ExecutionProfile(
    [IOBurst((_read(1, 0, 4), _read(1, FAR, 1),
              ProfiledRequest(inode=1, offset=0, size=PAGE_SIZE,
                              op=OpType.WRITE)), 0.0, 0.0),
     IOBurst((_read(2, 0, 4),), 0.0, 0.0)],
    [5.0, 0.0])


class _Surfaces:
    """One kernel surface and the cost model that filters against it."""

    def __init__(self, kind: str) -> None:
        trace = make_trace(
            [(inode, first * PAGE_SIZE, pages * PAGE_SIZE, "read", float(t))
             for t, (inode, first, pages) in enumerate(RECORDS)],
            file_sizes={inode: FILE_PAGES * PAGE_SIZE
                        for inode in (1, 2, 3)})
        self.trace = trace
        plan = build_plan(compile_trace(trace), MEMORY, 0)
        self.kernel: KernelPath | PlanCursor = (
            PlanCursor(plan) if kind == "cursor"
            else KernelPath(MEMORY, plan.layout))
        self.model = CostModel(HardDisk(), WirelessNic(), plan.layout)
        self.base = self.model._packed(PROFILE.columns)
        self.next = 0

    def step(self) -> None:
        record = self.trace.records[self.next]
        self.next += 1
        extents = self.kernel.read(record.pid, record.inode, record.offset,
                                   record.size, record.timestamp)
        for extent in extents:
            self.kernel.complete_fetch(extent, record.timestamp)

    def memoised(self):
        return _pack(self.base, 0, 2, self.kernel,
                     self.model._memo(self.base, self.kernel))

    def fresh(self):
        return _pack(self.base, 0, 2, self.kernel)


def _same(stage, fresh):
    return (stage.bursts == fresh.bursts
            and stage.total_bytes == fresh.total_bytes
            and stage.total_requests == fresh.total_requests)


@pytest.mark.parametrize("kind", ["cursor", "live"])
def test_unchanged_inodes_reuse_the_filtered_burst(kind):
    s = _Surfaces(kind)
    s.step()
    first = s.memoised()
    assert _same(first, s.fresh())
    assert first.bursts[0] is not s.base.bursts[0]  # it was filtered
    again = s.memoised()
    assert again.bursts[0] is first.bursts[0]
    s.step()  # installs inode 2 only
    after = s.memoised()
    assert _same(after, s.fresh())
    if kind == "cursor":
        # Per-inode versions: inode 1 kept its residency.
        assert after.bursts[0] is first.bursts[0]
    # Burst 1 reads inode 2, which the record changed.
    assert after.bursts[1] is not first.bursts[1]


@pytest.mark.parametrize("kind", ["cursor", "live"])
@pytest.mark.parametrize("record", [2, 3], ids=["install", "evict"])
def test_one_record_of_a_read_inode_forces_a_refilter(kind, record):
    s = _Surfaces(kind)
    while s.next < record:
        s.step()
    before = s.memoised()
    s.step()
    fresh = s.fresh()
    # The record changed what the filter leaves of burst 0 ...
    assert fresh.bursts[0] != before.bursts[0]
    # ... and the memo saw it.
    assert _same(s.memoised(), fresh)


class _FixedResidency:
    """``share`` of every read resident, at one version forever."""

    def __init__(self, share: float) -> None:
        self.share = share

    def resident_bytes(self, inode: int, offset: int, size: int) -> int:
        return int(size * self.share)

    def residency_version(self, inode: int) -> int:
        return 0


def test_another_oracle_starts_the_memo_afresh():
    """Versions are only comparable within one oracle."""
    s = _Surfaces("cursor")
    half, whole = _FixedResidency(0.5), _FixedResidency(1.0)
    _pack(s.base, 0, 2, half, s.model._memo(s.base, half))
    got = _pack(s.base, 0, 2, whole, s.model._memo(s.base, whole))
    assert _same(got, _pack(s.base, 0, 2, whole))
    assert got.total_requests == 1  # only the write is left
