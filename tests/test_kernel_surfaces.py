"""Both kernel surfaces answer every call the replay makes on ``env.kernel``.

``MobileSystem.kernel`` is the live :class:`~repro.kernel.path.KernelPath`
or a :class:`~repro.sim.plan.PlanCursor` over a frozen plan.  The
session, the policies' cost-model queries and the telemetry call it
without knowing which, so the two must not drift apart.  A read
installs its fetches before it returns, exactly as installing each one
after its device transfer would.
"""

import inspect

import pytest

from repro.core.system import MobileSystem
from repro.kernel.cache import CacheStats
from repro.kernel.page import PAGE_SIZE
from repro.kernel.path import KernelPath
from repro.sim.clock import MB
from repro.sim.plan import PlanCursor, build_plan, layout_for
from repro.traces.compile import compile_trace
from tests.conftest import make_trace

#: session: read, write, plan_writeback; the cost model (FlexFetch's
#: cache filter, the oracle): resident_bytes and resident_inodes.
CALLS = ["read", "write", "plan_writeback", "resident_bytes",
         "resident_inodes"]


def _parameters(cls, name):
    return [(p.name, p.kind, p.default) for p in
            inspect.signature(getattr(cls, name)).parameters.values()]


@pytest.mark.parametrize("name", CALLS)
def test_calls_take_the_same_parameters(name):
    assert _parameters(KernelPath, name) == _parameters(PlanCursor, name)


def test_both_surfaces_keep_the_books_the_session_reads():
    """Telemetry reads ``cache.stats``; the session's dirty-page check
    reads the write-back counters and its cache's stats."""
    trace = make_trace([(1, 0, 8192, "read", 0.0),
                        (1, 0, 4096, "write", 1.0)])
    live = MobileSystem(memory_bytes=MB,
                        layout=layout_for([compile_trace(trace)], 0))
    planned = MobileSystem(
        plan=build_plan(compile_trace(trace), MB, 0))
    assert isinstance(live.kernel, KernelPath)
    assert isinstance(planned.kernel, PlanCursor)
    for env in (live, planned):
        kernel = env.kernel
        kernel.read(100, 1, 0, 8192, 0.0)
        kernel.write(100, 1, 0, 4096, 1.0)
        assert isinstance(kernel.cache.stats, CacheStats)
        writeback = kernel.writeback
        assert writeback.cache.stats is kernel.cache.stats
        assert writeback.dirty_count == 1
        assert kernel.plan_writeback(2.0, disk_active=True)
        assert (writeback.flush_count, writeback.flushed_pages) == (1, 1)
        assert kernel.resident_bytes(1, 0, 8192) == 8192
        assert 1 in kernel.resident_inodes()
        assert kernel.resident_inodes().isdisjoint({2, 3})


#: (inode, first page, pages, op) on an 8-page cache (A1in holds 2):
#: the reads' fetches evict the pages the writes dirtied.
LOCKSTEP = [(1, 0, 2, "write"), (2, 0, 8, "read"), (1, 4, 2, "write"),
            (3, 0, 6, "read"), (1, 0, 3, "write"), (2, 0, 8, "read"),
            (1, 8, 4, "write"), (3, 2, 4, "read")]


def _read_then_install(kernel, *args):
    """A read as the replay made it when each fetch was installed after
    its device transfer: the read with its installs held back, then one
    ``insert_run`` per fetch, in the order returned."""
    cache = kernel.cache
    held = []
    cache.insert_run = lambda *run: held.append(run) or []
    try:
        fetches = kernel.read(*args)
    finally:
        del cache.insert_run
    assert held == [(e.inode, e.start, e.end) for e in fetches]
    for extent in fetches:
        cache.insert_run(extent.inode, extent.start, extent.end)
    return fetches


def _cache_state(cache):
    return (list(cache._a1in.items()), list(cache._a1out),
            list(cache._am), list(cache._dirty.items()), cache.stats,
            {inode: bytes(row) for inode, row
             in cache._resident.rows.items()})


def test_read_installs_equal_read_then_insert_run_on_both_surfaces():
    memory = 8 * PAGE_SIZE
    trace = make_trace([(inode, first * PAGE_SIZE, pages * PAGE_SIZE, op,
                         float(t))
                        for t, (inode, first, pages, op)
                        in enumerate(LOCKSTEP)])
    compiled = compile_trace(trace)
    layout = layout_for([compiled], 0)
    live = KernelPath(memory, layout)
    reference = KernelPath(memory, layout)
    cursor = PlanCursor(build_plan(compiled, memory, 0))
    read_evictions = 0
    for t, (inode, first, pages, op) in enumerate(LOCKSTEP):
        args = (100, inode, first * PAGE_SIZE, pages * PAGE_SIZE, float(t))
        if op == "read":
            before = live.cache.stats.dirty_evictions
            fetches = live.read(*args)
            read_evictions += live.cache.stats.dirty_evictions - before
            assert fetches == _read_then_install(reference, *args)
            assert tuple(fetches) == cursor.read(*args)
        else:
            forced = live.write(*args)
            assert forced == reference.write(*args) == cursor.write(*args)
        assert _cache_state(live.cache) == _cache_state(reference.cache)
        assert list(cursor.cache._dirty.items()) == list(
            live.cache._dirty.items())
        assert cursor.cache.stats.dirty_evictions \
            == live.cache.stats.dirty_evictions
        for probe in (1, 2, 3):
            assert cursor.resident_bytes(probe, 0, 16 * PAGE_SIZE) \
                == live.resident_bytes(probe, 0, 16 * PAGE_SIZE)
    assert read_evictions > 0
