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
extents (already C-SCAN ordered), each inode's residency runs indexed
by the record that applies them, the pages each record removes, the
ordered victims of every write, the final cache counters and the
placed disk layout.  A :class:`PlanCursor` replays it and keeps the
clock-dependent part — a dirty index with the cache's exact semantics
— live, under the same
:class:`~repro.kernel.writeback.LaptopModeWriteback` the live kernel
uses.  Residency it keeps lazily, per inode: an inode's runs are
applied only when a cache-filter query asks about that inode, so a
replay pays only for the inodes a policy reads.  Plans are memoised
by trace content digest via :func:`plan_for`, so one plan per trace
per process is shared copy-on-write across all sweep cells and forked
workers — the same lifecycle as the compile-once trace cache.

The placed disk layout has the same lifecycle one level up:
:func:`layout_for` places the files of an ordered program set once per
seed, and both the plan walk and every live-kernel replay of that set
(several programs, or the fast path turned off) share the one
:class:`~repro.devices.layout.DiskLayout`, which never changes once
placed.
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
    write).  The columns are flat ``array('q')`` buffers:

    * ``runs`` holds ``(record, fill, start, end)`` quadruples, grouped
      by inode: the *net* residency delta record ``record`` applies to
      pages ``[start, end)`` of that inode (insertions minus reclaims,
      so a page appears at most once per record), filled when ``fill``
      is 1 and cleared when it is 0.  An inode's runs start at
      ``runs[run_starts[inode]]``, in record order, and end with a
      sentinel whose record is ``record_count``, past every record.
    * ``first_fills`` holds ``(record, inode)`` pairs in record order:
      the record during which the cache first installed a page of the
      inode (and gave it a residency row).
    * ``removed`` holds the ``(inode, start, end)`` runs each record
      clears (its cleared runs in ``runs`` again), with per-record
      bounds: record ``i`` owns
      ``removed[removed_bounds[i]:removed_bounds[i + 1]]``.
    * ``victims`` holds ``(index, inode, page)`` triples with
      per-record bounds: every page a write's insertions reclaimed, in
      eviction order, tagged with the page index of the write whose
      insertion evicted it.

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
    runs: array[int]
    run_starts: dict[int, int]
    first_fills: array[int]
    removed: array[int]
    removed_bounds: array[int]
    victims: array[int]
    victim_bounds: array[int]
    final_stats: CacheStats

    def stats_copy(self) -> CacheStats:
        """A private, mutation-safe copy of the final cache counters."""
        return replace(self.final_stats)


def _index_runs(by_inode: dict[int, array[int]], record: int, fill: int,
                runs: Iterable[tuple[int, int, int]]) -> None:
    """File ``(inode, start, end)`` runs of ``record`` under their
    inodes."""
    for inode, start, end in runs:
        column = by_inode.get(inode)
        if column is None:
            column = by_inode[inode] = array("q")
        column.extend((record, fill, start, end))


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


#: Place-once memo: one layout per ordered program set and seed,
#: keyed by the traces' content digests (which cover their file
#: tables).  Same lifecycle as :data:`_PLAN_MEMO`.
_LAYOUT_MEMO: dict[tuple[tuple[str, ...], int], DiskLayout] = {}


def layout_for(traces: Sequence[CompiledTrace], seed: int) -> DiskLayout:
    """The placed disk layout of ``traces`` (in program order) at
    ``seed``, ``DiskLayout(seed, file_table(traces))``, built once per
    process, since every replay of the set shares it."""
    key = (tuple(trace.digest for trace in traces), int(seed))
    layout = _LAYOUT_MEMO.get(key)
    if layout is None:
        layout = _LAYOUT_MEMO[key] = DiskLayout(seed, file_table(traces))
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
    by_inode: dict[int, array[int]] = {}
    first_fills, removed, victims = array("q"), array("q"), array("q")
    removed_bounds, victim_bounds = array("q", [0]), array("q", [0])
    read = kernel.read
    for i in range(trace.record_count):
        inode, offset, size = inodes[i], offsets[i], sizes[i]
        # A record installs pages of its own inode only, so only that
        # inode can gain a residency row in it.
        fresh = inode not in rows
        if ops[i] == _READ_OP:
            # The read installs its fetches, as in every replay.
            ordered = tuple(read(pids[i], inode, offset, size, 0.0))
            extents.append(ordered)
            filled = [(extent.inode, extent.start, extent.end)
                      for extent in ordered]
            if evicted:
                # Fetched pages were absent before the read and every
                # victim present, and a victim is never fetched back
                # within the same record; only a page fetched and
                # reclaimed within the record is in neither delta, and
                # only a victim of the record's inode can be one.
                gone = {page for _, page in evicted}
                if any(page[0] == inode for page in gone):
                    fetched = {(run[0], index) for run in filled
                               for index in range(run[1], run[2])}
                    filled = page_runs(fetched - gone)
                    gone -= fetched
                cleared = page_runs(gone)
                _index_runs(by_inode, i, 0, cleared)
                for run in cleared:
                    removed.extend(run)
            _index_runs(by_inode, i, 1, filled)
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
            _index_runs(by_inode, i, 1, page_runs(
                [page for page, was in before.items()
                 if not was and rows[page[0]][page[1]]]))
            cleared = page_runs([page for page, was in before.items()
                                 if was and not rows[page[0]][page[1]]])
            _index_runs(by_inode, i, 0, cleared)
            for run in cleared:
                removed.extend(run)
        if fresh and inode in rows:
            first_fills.extend((i, inode))
        evicted.clear()
        removed_bounds.append(len(removed))
        victim_bounds.append(len(victims))

    runs = array("q")
    run_starts: dict[int, int] = {}
    sentinel = (trace.record_count, 0, 0, 0)
    while by_inode:
        run_inode, column = by_inode.popitem()
        run_starts[run_inode] = len(runs)
        runs.extend(column)
        runs.extend(sentinel)

    return BurstPlan(
        digest=trace.digest,
        memory_bytes=memory_bytes,
        seed=seed,
        record_count=trace.record_count,
        layout=layout,
        extents=tuple(extents),
        runs=runs,
        run_starts=run_starts,
        first_fills=first_fills,
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
    plan's residency runs.  Residency is kept per inode and lazily: an
    inode's runs are applied, up to the records read or written so far,
    only when ``resident_bytes`` asks about that inode, so inodes no
    query reads never cost anything, and ``resident_inodes`` grows from
    a pointer into the plan's first fills.

    The run timing matches the real cache exactly at every point the
    replay can observe it: residency is only queried before any read
    (empty), on the tick *before* record ``i`` is serviced (state after
    record ``i-1``), or in the syscall hook *after* it completes (state
    after record ``i``), so applying record ``i``'s whole delta once
    ``read(i)`` has run matches the live kernel, whose ``read``
    installs all of its fetches before it returns.

    Dirty pages replay live, in ``cache``, a
    :class:`~repro.kernel.cache.DirtyIndex` whose counters start from
    the plan's: ``write`` dirties the written pages and pops the
    victims in the order the cache evicted them, and ``read`` pops the
    record's removed pages — the only pages a read's fetches can evict
    dirty — while ``plan_writeback`` runs the live kernel's laptop-mode
    policy over the index.
    """

    __slots__ = ("plan", "cache", "writeback", "_index", "_resident",
                 "_applied", "_held", "_fills")

    def __init__(self, plan: BurstPlan) -> None:
        self.plan = plan
        self.cache = DirtyIndex(plan.stats_copy())
        self.writeback = LaptopModeWriteback(self.cache)
        self._index = 0
        #: the live cache's residency form: a run applies as one slice
        #: assignment and a range counts in C.
        self._resident = ResidentRows()
        #: ``inode -> its next run`` in ``plan.runs``, for each inode a
        #: query has caught up.
        self._applied: dict[int, int] = {}
        #: inodes with a residency row, and the next first fill.
        self._held: set[int] = set()
        self._fills = 0

    # -- kernel surface ------------------------------------------------
    def read(self, pid: int, inode: int, offset: int, size: Bytes,
             now: Seconds) -> tuple[Extent, ...]:
        i = self._index
        self._index = i + 1
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

    def plan_writeback(self, now: Seconds, *,
                       disk_active: bool) -> list[Extent]:
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
        self._catch_up(inode)
        return self._resident.count(
            inode, offset // 4096, (offset + size - 1) // 4096 + 1) * 4096

    def resident_inodes(self) -> AbstractSet[int]:
        """Inodes outside which :meth:`resident_bytes` is 0: every inode
        with a residency row, as on the live cache."""
        fills = self.plan.first_fills
        k, index = self._fills, self._index
        if k < len(fills) and fills[k] < index:
            held = self._held
            while k < len(fills) and fills[k] < index:
                held.add(fills[k + 1])
                k += 2
            self._fills = k
        return self._held

    def _catch_up(self, inode: int) -> None:
        """Apply ``inode``'s runs of the records replayed so far: the
        only place residency changes."""
        k = self._applied.get(inode)
        if k is None:
            k = self.plan.run_starts.get(inode)
            if k is None:
                return
            self._applied[inode] = k
        runs = self.plan.runs
        index = self._index
        if runs[k] < index:
            resident = self._resident
            while runs[k] < index:
                if runs[k + 1]:
                    resident.fill(inode, runs[k + 2], runs[k + 3])
                else:
                    resident.clear(inode, runs[k + 2], runs[k + 3])
                k += 4
            self._applied[inode] = k


#: Plan-once memo, the planning sibling of the compile-once trace
#: cache: a single-program sweep fills it in the parent before the pool
#: forks, and every worker inherits it copy-on-write.  Entries live as
#: long as the process.  Keyed by content digest plus the two
#: kernel-path inputs.
_PLAN_MEMO: dict[tuple[str, int, int], BurstPlan] = {}


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
