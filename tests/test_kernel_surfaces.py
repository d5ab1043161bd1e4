"""Both kernel surfaces answer every call the replay makes on ``env.kernel``.

``MobileSystem.kernel`` is the live :class:`~repro.kernel.path.KernelPath`
or a :class:`~repro.sim.plan.PlanCursor` over a frozen plan.  The
session, the router, the policies' cost-model queries and the telemetry
call it without knowing which, so the two must not drift apart.
"""

import inspect

import pytest

from repro.core.system import MobileSystem
from repro.kernel.cache import CacheStats
from repro.kernel.path import KernelPath
from repro.sim.clock import MB
from repro.sim.plan import PlanCursor, build_plan, layout_for
from repro.traces.compile import compile_trace
from tests.conftest import make_trace

#: session: read, write, plan_writeback; router: complete_fetch; the
#: cost model (FlexFetch's cache filter, the oracle): resident_bytes
#: and resident_inodes.
CALLS = ["read", "write", "complete_fetch", "plan_writeback",
         "resident_bytes", "resident_inodes"]


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
        for extent in kernel.read(100, 1, 0, 8192, 0.0):
            kernel.complete_fetch(extent, 0.0)
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
