"""The PlanCursor's dirty overlay against the live cache, record by record.

A tiny cache makes every eviction branch fire: a write run evicts its
own earlier pages, a page dirty before a write is evicted by that
write's earlier pages and then re-dirtied by the same run, and read
fetches evict dirty pages.  After every record the cursor's dirty index
must equal ``TwoQCache._dirty`` in pages, times *and* order, since
laptop mode flushes by the oldest entry.
"""

from __future__ import annotations

from repro.core.policies import WnicOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.system import MobileSystem
from repro.core.telemetry import RecordingSink
from repro.core.workload import ProgramSpec
from repro.kernel.page import PAGE_SIZE
from repro.sim.plan import PlanCursor, build_plan, layout_for
from repro.traces.compile import compile_trace
from tests.conftest import make_trace

#: 8 pages: A1in holds 2, the A1out ghost list 4.
MEMORY = 8 * PAGE_SIZE

#: (inode, first page, pages, op, timestamp, flush after the record?)
SCRIPT = [
    (1, 10, 2, "write", 0.0, False),   # pages 10-11 dirty at t=0
    # 12-page run: page 6's insertion evicts dirty page 10, page 7's
    # page 11, then the run evicts its own pages 0-3; pages 10 and 11
    # come back from the ghost list into Am, dirtied again at t=1.
    (1, 0, 12, "write", 1.0, False),
    (2, 0, 4, "read", 2.0, False),     # fetches evict dirty pages
    (1, 4, 2, "write", 3.0, True),     # resident: dirtied in place; flush
    (1, 8, 4, "write", 4.0, False),    # clean resident pages re-dirtied
    (3, 0, 6, "read", 5.0, False),
    (1, 0, 3, "write", 6.0, False),
    (2, 0, 8, "read", 7.0, False),
]


def test_cursor_dirty_index_tracks_the_cache():
    trace = make_trace([(inode, first * PAGE_SIZE, pages * PAGE_SIZE, op,
                         ts) for inode, first, pages, op, ts, _ in SCRIPT])
    compiled = compile_trace(trace)
    live = MobileSystem(memory_bytes=MEMORY,
                        layout=layout_for([compiled], 0))
    cursor = PlanCursor(build_plan(compiled, MEMORY, 0))
    cache = live.kernel.cache

    saw_read_eviction = False
    for i, (inode, first, pages, op, now, flush) in enumerate(SCRIPT):
        offset, size = first * PAGE_SIZE, pages * PAGE_SIZE
        evictions_before = cache.stats.dirty_evictions
        if op == "read":
            extents = live.kernel.read(100, inode, offset, size, now)
            assert tuple(extents) == cursor.read(100, inode, offset, size,
                                                 now)
            saw_read_eviction |= (cache.stats.dirty_evictions
                                  > evictions_before)
        else:
            forced = live.kernel.write(100, inode, offset, size, now)
            assert forced == cursor.write(100, inode, offset, size, now)
            if i == 1:
                # The 12-page run flushed its own page 0 and page 10,
                # dirty since t=0, then dirtied page 10 again at t=1.
                flushed = {(e.inode, index) for e in forced
                           for index in range(e.start, e.end)}
                assert {(1, 0), (1, 10)} <= flushed
                assert cache._dirty[(1, 10)] == 1.0
        if flush:
            assert (live.kernel.plan_writeback(now, disk_active=True)
                    == cursor.plan_writeback(now, disk_active=True))
        assert list(cursor.cache._dirty.items()) == list(
            cache._dirty.items())
        assert cursor.cache.stats.dirtied == cache.stats.dirtied
        assert (cursor.cache.stats.dirty_evictions
                == cache.stats.dirty_evictions)
        for probe in (1, 2, 3):
            assert (cursor.resident_bytes(probe, 0, 16 * PAGE_SIZE)
                    == live.kernel.resident_bytes(probe, 0, 16 * PAGE_SIZE))
    assert saw_read_eviction


def _read_evicts_dirty_trace():
    # Two dirty pages, then a read whose fetches reclaim both while the
    # disk sleeps (WNIC-only never wakes it, so nothing flushes first).
    return make_trace([(1, 0, 2 * PAGE_SIZE, "write", 0.0),
                       (2, 0, 8 * PAGE_SIZE, "read", 0.1)])


def test_read_fetch_drops_its_dirty_victims_on_both_surfaces():
    """``KernelPath.read`` installs its fetches and drops the dirty pages
    they evict, so such a page is counted in ``dirty_evictions`` and
    never written to a device (DESIGN.md §6).  The live kernel path and
    the plan cursor must agree on that."""
    results = []
    for fast_path in (True, False):
        sink = RecordingSink()
        session = SimulationSession(
            [ProgramSpec(_read_evicts_dirty_trace())], WnicOnlyPolicy(),
            seed=0, memory_bytes=MEMORY, sinks=[sink]
        ).with_fast_path(fast_path)
        results.append(session.run())
        assert session.used_fast_path is fast_path
        stats = session.env.kernel.cache.stats
        assert stats.dirtied == 2
        assert stats.dirty_evictions == 2
        assert session.env.kernel.writeback.flushed_pages == 0
        # Only the read's fetch reached a device.
        assert sum(nbytes for _, _, nbytes, _, _ in sink.services) \
            == 8 * PAGE_SIZE
    assert results[0] == results[1]
