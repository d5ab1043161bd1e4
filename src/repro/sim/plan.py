"""Phase 1 of two-phase replay: policy-independent kernel-path planning.

A sweep evaluates the same trace under dozens of (policy, device)
cells, yet every cell used to re-walk the whole kernel path — page
cache, readahead, C-SCAN ordering — even though, for one program,
nothing on that path that decides *which pages are resident* depends
on the policy, the devices or the clock.  Residency is a pure function
of ``(CompiledTrace, memory_bytes, seed)``: the cache is
capacity-driven and picks victims from its 2Q queues alone, readahead
looks only at access patterns, the C-SCAN elevator orders by a layout
placed from the experiment seed, and write-back never moves a page
(a flush only clears dirty bits).  Only two things follow the clock:
which evicted pages are still dirty, and when laptop mode flushes.

:func:`build_plan` runs that walk exactly once, over reads and writes
alike, and freezes it into a :class:`BurstPlan`: the per-record device
extents (already C-SCAN ordered), the net page-residency delta each
record applies to the cache, the ordered victims of every write, the
final cache counters and the placed disk layout.  A
:class:`PlanCursor` replays it and keeps the clock-dependent part — a
dirty index with the cache's exact semantics — live, under the same
:class:`~repro.kernel.writeback.LaptopModeWriteback` the live kernel
uses.  Plans are memoised by trace content digest via
:func:`plan_for`, so one plan per trace per process is shared
copy-on-write across all sweep cells and forked workers — the same
lifecycle as the compile-once trace registry.

The placed disk layout has the same lifecycle one level up:
:func:`layout_for` places the files of an ordered program set once per
seed, and both the plan walk and every live-kernel replay of that set
(several programs, or the fast path turned off) share the one sealed
:class:`~repro.devices.layout.DiskLayout`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, replace

from repro.devices.layout import BLOCK_SIZE, DiskLayout
from repro.kernel.cache import CacheStats, DirtyIndex, ResidentRows
from repro.kernel.page import Extent, PageId, page_runs, runs_from_pages
from repro.kernel.path import KernelPath
from repro.kernel.writeback import LaptopModeWriteback
from repro.traces.compile import CompiledTrace
from repro.units import Bytes, Seconds

#: Compiled op code for READ (see ``repro.traces.compile.OPS_BY_CODE``).
_READ_OP = 0


@dataclass(frozen=True, slots=True)
class BurstPlan:
    """Frozen outcome of one kernel-path walk of a compiled trace.

    Everything here is policy- and device-independent.  ``extents[i]``
    are the device requests read record ``i`` issues, already in the
    order the C-SCAN elevator would hand them to a device (empty for a
    write).  The three ragged columns are flat ``array('q')`` buffers
    with per-record bounds: record ``i`` owns
    ``column[bounds[i]:bounds[i + 1]]``.

    * ``added``/``removed`` hold ``(inode, start, end)`` page runs: the
      *net* residency delta record ``i`` applies to the page cache
      (insertions minus reclaims, so a page appears at most once).
    * ``victims`` holds ``(index, inode, page)`` triples: every page a
      write's insertions reclaimed, in eviction order, tagged with the
      page index of the write whose insertion evicted it.

    ``final_stats`` is the cache counter state after the last record,
    with the dirty counters zeroed (the cursor counts those live), and
    ``layout`` is the disk layout the walk placed the trace's files on.
    """

    digest: str
    memory_bytes: Bytes
    seed: int
    record_count: int
    layout: DiskLayout
    extents: tuple[tuple[Extent, ...], ...]
    added: array[int]
    added_bounds: array[int]
    removed: array[int]
    removed_bounds: array[int]
    victims: array[int]
    victim_bounds: array[int]
    final_stats: CacheStats

    def stats_copy(self) -> CacheStats:
        """A private, mutation-safe copy of the final cache counters."""
        return replace(self.final_stats)


def _pack_runs(out: array[int], pages: Iterable[PageId]) -> None:
    """Append ``pages`` to ``out`` as maximal ``(inode, start, end)``
    runs."""
    for run in page_runs(pages):
        out.extend(run)


def file_table(traces: Iterable[CompiledTrace]) -> dict[int, Bytes]:
    """The union of the traces' file tables, ``inode -> size``.

    In order of first appearance, each inode at the largest size any
    trace declares for it (programs may share a file; strace-derived
    traces size it by its furthest touched byte).  Within a trace the
    order is ascending inode: the compiled file table is stored
    inode-sorted, and layout placement (and therefore every seek time)
    depends on that order.
    """
    table: dict[int, Bytes] = {}
    for trace in traces:
        inodes, sizes = trace.files_view()
        for inode, size in zip(inodes, sizes, strict=True):
            if table.get(inode, -1) < size:
                table[inode] = size
    return table


#: Place-once memo: one sealed layout per ordered program set and seed,
#: keyed by the traces' content digests (which cover their file
#: tables).  Same lifecycle as :data:`_PLAN_MEMO`.
_LAYOUT_MEMO: dict[tuple[tuple[str, ...], int], DiskLayout] = {}


def layout_for(traces: Sequence[CompiledTrace], seed: int) -> DiskLayout:
    """The placed disk layout of ``traces`` (in program order) at
    ``seed``, built once per process and sealed, since every replay of
    the set shares it."""
    key = (tuple(trace.digest for trace in traces), int(seed))
    try:
        return _LAYOUT_MEMO[key]
    except KeyError:
        pass
    layout = DiskLayout(seed)
    table = file_table(traces)
    layout.add_files(table.keys(), table.values())
    layout.seal()
    _LAYOUT_MEMO[key] = layout
    return layout


def build_plan(trace: CompiledTrace, memory_bytes: Bytes,
               seed: int) -> BurstPlan:
    """Walk the kernel path once and freeze it.

    Every single-program trace is plannable: a write's page run and its
    victims are fixed by the record sequence, and only whether a victim
    is still dirty waits for the replay's clock.
    """
    # A private kernel path built exactly as MobileSystem builds the
    # real one — same cache capacity, the same shared layout — with the
    # cache reporting every eviction.
    layout = layout_for((trace,), seed)
    kernel = KernelPath(memory_bytes, layout)
    cache = kernel.cache
    resident = cache._resident
    rows = resident.rows
    evicted: list[tuple[int, PageId]] = []
    cache.victims = evicted

    ops = trace.ops
    pids = memoryview(trace.pids).cast("q")
    inodes = memoryview(trace.inodes).cast("q")
    offsets = memoryview(trace.offsets).cast("q")
    sizes = memoryview(trace.sizes).cast("q")

    extents: list[tuple[Extent, ...]] = []
    added, removed, victims = array("q"), array("q"), array("q")
    added_bounds, removed_bounds, victim_bounds = (
        array("q", [0]), array("q", [0]), array("q", [0]))
    read = kernel.read
    for i in range(trace.record_count):
        inode, offset, size = inodes[i], offsets[i], sizes[i]
        if ops[i] == _READ_OP:
            ordered = tuple(read(pids[i], inode, offset, size, 0.0))
            # The session completes each fetch in service order;
            # residency is time-independent, so installing here
            # reproduces the cache state the replay observes after the
            # record.  (KernelPath.complete_fetch is this insert_run.)
            for extent in ordered:
                cache.insert_run(extent.inode, extent.start, extent.end)
            extents.append(ordered)
            if not evicted:
                for extent in ordered:
                    added.extend((extent.inode, extent.start, extent.end))
            else:
                # Fetched pages were absent before the read and every
                # victim present, and a victim is never fetched back
                # within the same record.
                fetched = {(extent.inode, index) for extent in ordered
                           for index in range(extent.start, extent.end)}
                gone = {page for _, page in evicted}
                _pack_runs(added, fetched - gone)
                _pack_runs(removed, gone - fetched)
        else:
            extents.append(())
            # Residency of the written pages before the write; a victim
            # outside them was resident before it too.
            before: dict[PageId, int] = {}
            if size > 0:
                first = offset // BLOCK_SIZE
                end = (offset + size - 1) // BLOCK_SIZE + 1
                row = resident.row(inode, end)
                for index in range(first, end):
                    before[(inode, index)] = row[index]
                # KernelPath.write's page run, without the flush extents
                # no replay of the plan needs.
                cache.write_run(inode, first, end, 0.0)
            for index, page in evicted:
                victims.extend((index, page[0], page[1]))
                before.setdefault(page, 1)
            # Every page here has a row now: the write installed its
            # own pages, and a victim was resident.
            _pack_runs(added, [page for page, was in before.items()
                               if not was and rows[page[0]][page[1]]])
            _pack_runs(removed, [page for page, was in before.items()
                                 if was and not rows[page[0]][page[1]]])
        evicted.clear()
        added_bounds.append(len(added))
        removed_bounds.append(len(removed))
        victim_bounds.append(len(victims))

    return BurstPlan(
        digest=trace.digest,
        memory_bytes=memory_bytes,
        seed=seed,
        record_count=trace.record_count,
        layout=layout,
        extents=tuple(extents),
        added=added,
        added_bounds=added_bounds,
        removed=removed,
        removed_bounds=removed_bounds,
        victims=victims,
        victim_bounds=victim_bounds,
        final_stats=replace(cache.stats, dirtied=0, dirty_evictions=0,
                            dirty_drops=0))


class PlanCursor:
    """Kernel-path surrogate that replays a :class:`BurstPlan`.

    Stands in for the :class:`~repro.kernel.path.KernelPath` as
    ``env.kernel`` during a fast-path replay, with the same calls:
    ``read`` hands back record ``i``'s precomputed
    extents instead of re-walking cache/readahead/elevator, and
    ``resident_bytes`` answers policy cache-filter queries from the
    plan's residency deltas.  The resident set is materialised lazily —
    policies that never query residency never pay for it — and then
    kept live by applying each record's net delta as it is read or
    written.

    The delta timing matches the real cache exactly at every point the
    replay can observe it: residency is only queried before any read
    (empty), on the tick *before* record ``i`` is serviced (state after
    record ``i-1``), or in the syscall hook *after* it completes (state
    after record ``i``), so applying record ``i``'s whole delta at
    ``read(i)`` is indistinguishable from the page-by-page original.

    Dirty pages replay live, in ``cache``, a
    :class:`~repro.kernel.cache.DirtyIndex` whose counters start from
    the plan's: ``write`` dirties the written pages and pops the
    victims in the order the cache evicted them, and ``read`` pops the
    record's removed pages — the only pages a read's fetches can evict
    dirty — while ``plan_writeback`` runs the live kernel's laptop-mode
    policy over the index.
    """

    __slots__ = ("plan", "cache", "writeback", "_index", "_resident",
                 "_tracking")

    def __init__(self, plan: BurstPlan) -> None:
        self.plan = plan
        self.cache = DirtyIndex(plan.stats_copy())
        self.writeback = LaptopModeWriteback(self.cache)
        self._index = 0
        #: the live cache's residency form: a run applies as one slice
        #: assignment and a range counts in C.
        self._resident = ResidentRows()
        self._tracking = False

    # -- kernel surface ------------------------------------------------
    def read(self, pid: int, inode: int, offset: int, size: Bytes,
             now: Seconds) -> tuple[Extent, ...]:
        i = self._index
        self._index = i + 1
        if self._tracking:
            self._apply_delta(i)
        dirty = self.cache._dirty
        if dirty:
            # A read's fetches evict only pages resident before it, and
            # never fetch one back: its dirty victims are exactly the
            # removed pages still dirty.
            plan = self.plan
            removed = plan.removed
            evicted = 0
            for k in range(plan.removed_bounds[i],
                           plan.removed_bounds[i + 1], 3):
                page_inode = removed[k]
                for index in range(removed[k + 1], removed[k + 2]):
                    if dirty.pop((page_inode, index), None) is not None:
                        evicted += 1
            self.cache.stats.dirty_evictions += evicted
        return self.plan.extents[i]

    def write(self, pid: int, inode: int, offset: int, size: Bytes,
              now: Seconds) -> list[Extent]:
        i = self._index
        self._index = i + 1
        if self._tracking:
            self._apply_delta(i)
        if size == 0:
            return []
        plan = self.plan
        cache = self.cache
        dirty = cache._dirty
        dirty_before = len(dirty)
        flushed: list[PageId] = []
        # Replays TwoQCache._install_run's order: each page is dirtied
        # (keeping an earlier dirtying time), then the victim its
        # insertion reclaimed leaves the index.
        victims = plan.victims
        next_index = offset // BLOCK_SIZE
        for k in range(plan.victim_bounds[i], plan.victim_bounds[i + 1],
                       3):
            step = victims[k]
            for index in range(next_index, step + 1):
                dirty.setdefault((inode, index), now)
            next_index = step + 1
            victim = (victims[k + 1], victims[k + 2])
            if dirty.pop(victim, None) is not None:
                flushed.append(victim)
        for index in range(next_index, (offset + size - 1) // BLOCK_SIZE + 1):
            dirty.setdefault((inode, index), now)
        stats = cache.stats
        stats.dirty_evictions += len(flushed)
        stats.dirtied += len(dirty) - dirty_before + len(flushed)
        return runs_from_pages(flushed) if flushed else []

    def complete_fetch(self, extent: Extent,
                       now: Seconds) -> list[PageId]:
        # The plan already holds the fetch's residency change, and
        # ``read`` already evicted its dirty victims; the live kernel's
        # return value here is discarded by the router either way.
        return []

    def plan_writeback(self, now: Seconds, *,
                       disk_active: bool) -> list[Extent]:
        if not self.cache._dirty:
            return []  # a read-only stretch: nothing can be due
        return self.writeback.plan_flush(now, disk_active=disk_active)

    # -- profile support -----------------------------------------------
    def resident_bytes(self, inode: int, offset: int, size: int) -> Bytes:
        # Inline of pages_of_range (same validation, no Extent built):
        # this is the cache filter's per-request query, the busiest
        # entry point on the cursor.
        if offset < 0 or size < 0:
            raise ValueError("negative offset or size")
        if size == 0:
            return 0
        if not self._tracking:
            self._materialise_residency()
        return self._resident.count(
            inode, offset // 4096, (offset + size - 1) // 4096 + 1) * 4096

    def resident_inodes(self) -> AbstractSet[int]:
        """Inodes outside which :meth:`resident_bytes` is 0: every inode
        with a residency row."""
        if not self._tracking:
            self._materialise_residency()
        return self._resident.inodes()

    def _apply_delta(self, i: int) -> None:
        """Apply record ``i``'s net residency delta."""
        plan = self.plan
        resident = self._resident
        added = plan.added
        for k in range(plan.added_bounds[i], plan.added_bounds[i + 1], 3):
            resident.fill(added[k], added[k + 1], added[k + 2])
        removed = plan.removed
        for k in range(plan.removed_bounds[i],
                       plan.removed_bounds[i + 1], 3):
            resident.clear(removed[k], removed[k + 1], removed[k + 2])

    def _materialise_residency(self) -> None:
        for i in range(self._index):
            self._apply_delta(i)
        self._tracking = True


#: Plan-once memo, the planning sibling of the compile-once trace cache
#: and the worker payload registry: populated in the sweep parent before
#: the pool forks, inherited copy-on-write by every worker.  Keyed by
#: content digest plus the two kernel-path inputs.
_PLAN_MEMO: dict[tuple[str, int, int], BurstPlan] = {}


def plan_key(digest: str, memory_bytes: Bytes, seed: int) -> str:
    """Registry digest under which a plan is staged for workers."""
    return f"burst-plan/{digest}/{int(memory_bytes)}/{int(seed)}"


def plan_for(trace: CompiledTrace, memory_bytes: Bytes,
             seed: int) -> BurstPlan:
    """Memoised :func:`build_plan` — one plan per trace per process."""
    key = (trace.digest, int(memory_bytes), int(seed))
    try:
        return _PLAN_MEMO[key]
    except KeyError:
        pass
    plan = build_plan(trace, memory_bytes, seed)
    # Benign under fork: workers inherit the parent's populated memo
    # copy-on-write and a recomputed entry is value-identical.
    _PLAN_MEMO[key] = plan
    return plan
