"""The PlanCursor's lazy per-inode residency against eager references.

The cursor applies an inode's residency runs only when a query asks
about that inode, so between queries it may lag many records behind.
Small traces under eviction pressure are replayed record by record on
three surfaces — the lazy cursor, an eager reference that applies every
record's runs as the record completes, and the live ``KernelPath`` —
and queried after randomly drawn records.  At every query the three
must agree on ``resident_bytes``, and the cursor and the live kernel
on ``resident_inodes()``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.cache import ResidentRows
from repro.kernel.page import PAGE_SIZE
from repro.kernel.path import KernelPath
from repro.sim.plan import BurstPlan, PlanCursor, build_plan
from repro.traces.compile import compile_trace
from repro.traces.record import OpType
from tests.conftest import make_trace

INODES = (1, 2, 3, 4)
#: an inode no record touches.
STRANGER = 9
FILE_PAGES = 32

_call = st.tuples(st.sampled_from(INODES), st.integers(0, FILE_PAGES - 1),
                  st.integers(1, 8), st.sampled_from(["read", "write"]))


class EagerResidency:
    """Applies each record's runs from the plan as the record completes."""

    def __init__(self, plan: BurstPlan) -> None:
        self.by_record: dict[int, list[tuple[int, int, int, int]]] = {}
        runs = plan.runs
        for inode, k in plan.run_starts.items():
            while runs[k] < plan.record_count:
                self.by_record.setdefault(runs[k], []).append(
                    (inode, runs[k + 1], runs[k + 2], runs[k + 3]))
                k += 4
        self.rows = ResidentRows()

    def complete(self, record: int) -> None:
        for inode, fill, start, end in self.by_record.get(record, ()):
            if fill:
                self.rows.fill(inode, start, end)
            else:
                self.rows.clear(inode, start, end)

    def resident_bytes(self, inode: int, offset: int, size: int) -> int:
        return self.rows.count(
            inode, offset // PAGE_SIZE,
            (offset + size - 1) // PAGE_SIZE + 1) * PAGE_SIZE


def _pages(kernel: KernelPath, inode: int) -> frozenset[int]:
    row = kernel.cache._resident.rows.get(inode, b"")
    return frozenset(index for index, flag in enumerate(row) if flag)


@settings(max_examples=150, deadline=None)
@given(calls=st.lists(_call, min_size=1, max_size=30),
       memory_pages=st.integers(4, 16), data=st.data())
def test_lazy_residency_matches_eager_and_live(calls, memory_pages, data):
    trace = make_trace(
        [(inode, first * PAGE_SIZE,
          min(pages, FILE_PAGES - first) * PAGE_SIZE, op, float(t))
         for t, (inode, first, pages, op) in enumerate(calls)],
        file_sizes={inode: FILE_PAGES * PAGE_SIZE for inode in INODES})
    compiled = compile_trace(trace)
    memory = memory_pages * PAGE_SIZE
    plan = build_plan(compiled, memory, 0)
    cursor = PlanCursor(plan)
    live = KernelPath(memory, plan.layout)
    eager = EagerResidency(plan)
    queries = data.draw(st.sets(st.integers(0, len(trace.records)),
                                min_size=1))

    def query() -> None:
        for inode in INODES + (STRANGER,):
            first = data.draw(st.integers(0, FILE_PAGES - 1))
            size = data.draw(st.integers(1, FILE_PAGES - first)) * PAGE_SIZE
            for offset, length in ((0, FILE_PAGES * PAGE_SIZE),
                                   (first * PAGE_SIZE, size)):
                expected = live.resident_bytes(inode, offset, length)
                assert cursor.resident_bytes(inode, offset, length) \
                    == expected
                assert eager.resident_bytes(inode, offset, length) \
                    == expected
        held = cursor.resident_inodes()
        assert set(held) == set(live.resident_inodes())
        assert {inode for inode in INODES if _pages(live, inode)} <= held

    if 0 in queries:
        query()
    for i, record in enumerate(trace.records):
        args = (record.pid, record.inode, record.offset, record.size,
                record.timestamp)
        if record.op is OpType.READ:
            live.read(*args)
            cursor.read(*args)
        else:
            live.write(*args)
            cursor.write(*args)
        eager.complete(i)
        if i + 1 in queries:
            query()

