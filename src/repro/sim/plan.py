"""Phase 1 of two-phase replay: policy-independent burst planning.

A sweep evaluates the same trace under dozens of (policy, device)
cells, yet every cell used to re-walk the whole kernel path — page
cache, readahead, C-SCAN ordering — even though nothing on that path
depends on the policy or the device specs.  The kernel path is a pure
function of ``(CompiledTrace, memory_bytes, seed)``: the cache is
capacity-driven, readahead looks only at access patterns, and the
C-SCAN elevator orders by a layout placed from the experiment seed.

:func:`build_plan` runs that walk exactly once and freezes the outcome
into a :class:`BurstPlan`: the per-record device extents (already
C-SCAN ordered), the net page-residency delta each record applies to
the cache, the final cache counters, and packed per-record columns
(fetch bytes, cached-vs-miss page splits, think gaps, burst-stage
boundaries) for the vectorized cost kernels.  Plans are memoised by
trace content digest via :func:`plan_for`, so one plan per trace per
process is shared copy-on-write across all sweep cells and forked
workers — the same lifecycle as the compile-once trace registry.

Columns are numpy arrays when numpy is importable, ``array``-module
buffers otherwise; set ``REPRO_NO_NUMPY=1`` before import to force the
fallback (the CI no-numpy leg does).  Both forms hold identical IEEE
doubles/int64s, so downstream consumers are bit-identical either way.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, replace

from repro.core.burst import BURST_THRESHOLD_DEFAULT
from repro.devices.layout import BLOCK_SIZE, DiskLayout
from repro.kernel.cache import CacheStats
from repro.kernel.page import Extent, PageId
from repro.kernel.path import KernelPath
from repro.kernel.scheduler import CScanScheduler
from repro.kernel.vfs import VirtualFileSystem
from repro.traces.compile import CompiledTrace
from repro.units import Bytes, Seconds

# Resolved once at import: the fallback contract is a process-wide
# property, not a per-call switch, so plans built anywhere in the
# process agree on their column representation.
if os.environ.get("REPRO_NO_NUMPY"):
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - numpy ships in the image
        _np = None

#: Compiled op code for READ (see ``repro.traces.compile.OPS_BY_CODE``).
_READ_OP = 0


def _pack_q(values) -> object:
    """Pack ints into an int64 column (numpy or ``array('q')``)."""
    if _np is not None:
        return _np.asarray(list(values), dtype=_np.int64)
    return array("q", values)


def _pack_d(values) -> object:
    """Pack floats into a float64 column (numpy or ``array('d')``)."""
    if _np is not None:
        return _np.asarray(list(values), dtype=_np.float64)
    return array("d", values)


@dataclass(frozen=True, slots=True)
class BurstPlan:
    """Frozen outcome of one kernel-path walk of a compiled trace.

    Everything here is policy- and device-independent.  ``extents[i]``
    are the device requests record ``i`` issues, already in the order
    the C-SCAN elevator would hand them to a device; ``added[i]`` /
    ``removed[i]`` are the *net* page-residency delta the record applies
    to the page cache (insertions minus reclaims, compressed so a page
    touched many times appears at most once).  ``final_stats`` is the
    cache counter state after the last record.

    The packed columns summarise the same walk for batch consumers:
    ``fetch_bytes`` is what each record moves off a device,
    ``hit_pages``/``miss_pages`` split each record's demand pages into
    cached and fetched, ``think_gaps`` mirrors the compiled trace's
    inter-record gaps, and ``stage_bounds`` marks the record indices
    where a new I/O burst begins under the default burst threshold.
    """

    digest: str
    memory_bytes: Bytes
    seed: int
    record_count: int
    extents: tuple[tuple[Extent, ...], ...]
    added: tuple[tuple[PageId, ...], ...]
    removed: tuple[tuple[PageId, ...], ...]
    final_stats: CacheStats
    fetch_bytes: object   # int64 column, one entry per record
    hit_pages: object     # int64 column, demand pages served from cache
    miss_pages: object    # int64 column, demand pages fetched
    think_gaps: object    # float64 column, record_count - 1 entries
    stage_bounds: object  # int64 column, burst-start record indices

    def stats_copy(self) -> CacheStats:
        """A private, mutation-safe copy of the final cache counters."""
        return replace(self.final_stats)


class _RecordingResidency(set):
    """Drop-in for ``TwoQCache._resident`` that logs every mutation.

    The cache only ever calls ``add``/``discard`` (plus containment and
    ``len``), and only transitions state — ``add`` fires on pages that
    were absent, ``discard`` on pages that were present — so the op log
    alternates per page and the net effect of a record is decided by
    its first and last op alone.  Every other mutator raises, so a cache
    change that bypasses the log fails loudly instead of corrupting the
    plan's deltas.
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        super().__init__()
        self.ops: list[tuple[bool, PageId]] = []

    def add(self, page) -> None:
        self.ops.append((True, page))
        super().add(page)

    def discard(self, page) -> None:
        self.ops.append((False, page))
        super().discard(page)

    def _unrecorded(self, *args) -> None:
        raise TypeError("the residency recorder logs only add/discard;"
                        " any other mutation would escape the plan deltas")

    update = difference_update = remove = pop = clear = _unrecorded
    __ior__ = __isub__ = __iand__ = __ixor__ = _unrecorded

    def drain_net_delta(self) -> tuple[tuple[PageId, ...],
                                       tuple[PageId, ...]]:
        """Net (added, removed) pages since the last drain."""
        if not self.ops:
            return (), ()
        first_last: dict[PageId, list[bool]] = {}
        for is_add, page in self.ops:
            entry = first_last.get(page)
            if entry is None:
                first_last[page] = [is_add, is_add]
            else:
                entry[1] = is_add
        self.ops.clear()
        added = tuple(p for p, (f, l) in first_last.items() if f and l)
        removed = tuple(p for p, (f, l) in first_last.items()
                        if not f and not l)
        return added, removed


def build_plan(trace: CompiledTrace, memory_bytes: Bytes,
               seed: int) -> BurstPlan | None:
    """Walk the kernel path once and freeze it; None if not plannable.

    Only all-READ traces are plannable: a write dirties pages whose
    flush timing depends on device state, which is exactly the dynamic
    coupling the plan exists to exclude.
    """
    if any(op != _READ_OP for op in trace.ops):
        return None

    # A private kernel path wired exactly as MobileSystem wires the real
    # one — same cache capacity, same seeded layout, same elevator —
    # with a recording residency set swapped in underneath the cache.
    vfs = VirtualFileSystem(memory_bytes)
    layout = DiskLayout(seed)
    kernel = KernelPath(
        vfs, CScanScheduler(),
        lambda extent: layout.block_of(extent.inode,
                                       extent.start * BLOCK_SIZE))
    inodes_table, sizes_table = trace.files_view()
    for inode, size in zip(inodes_table, sizes_table, strict=True):
        vfs.register_file(inode, size)
        layout.add_file(inode, max(size, 1))
    recorder = _RecordingResidency()
    vfs.cache._resident = recorder

    pids = memoryview(trace.pids).cast("q")
    inodes = memoryview(trace.inodes).cast("q")
    offsets = memoryview(trace.offsets).cast("q")
    sizes = memoryview(trace.sizes).cast("q")
    thinks = memoryview(trace.thinks).cast("d")

    extents: list[tuple[Extent, ...]] = []
    added: list[tuple[PageId, ...]] = []
    removed: list[tuple[PageId, ...]] = []
    fetch_bytes: list[int] = []
    hit_pages: list[int] = []
    miss_pages: list[int] = []
    for i in range(trace.record_count):
        fetch_plan = vfs.read(pids[i], inodes[i], offsets[i],
                              sizes[i], 0.0)
        ordered = kernel.order_for_disk(list(fetch_plan.fetch_extents))
        # The session completes each fetch in service order; residency
        # is time-independent, so completing here reproduces the same
        # cache state the replay will observe after the record.
        for extent in ordered:
            vfs.complete_fetch(extent, 0.0)
        net_added, net_removed = recorder.drain_net_delta()
        extents.append(tuple(ordered))
        added.append(net_added)
        removed.append(net_removed)
        fetch_bytes.append(sum(e.nbytes for e in ordered))
        hit_pages.append(fetch_plan.hit_pages)
        miss_pages.append(fetch_plan.miss_pages)

    bounds = [0] if trace.record_count else []
    bounds.extend(i + 1 for i, gap in enumerate(thinks)
                  if gap >= BURST_THRESHOLD_DEFAULT)
    return BurstPlan(
        digest=trace.digest,
        memory_bytes=memory_bytes,
        seed=seed,
        record_count=trace.record_count,
        extents=tuple(extents),
        added=tuple(added),
        removed=tuple(removed),
        final_stats=replace(vfs.cache.stats),
        fetch_bytes=_pack_q(fetch_bytes),
        hit_pages=_pack_q(hit_pages),
        miss_pages=_pack_q(miss_pages),
        think_gaps=_pack_d(thinks),
        stage_bounds=_pack_q(bounds))


class _CacheView:
    """The slice of the cache surface a finished plan still answers."""

    __slots__ = ("stats",)

    def __init__(self, stats: CacheStats) -> None:
        self.stats = stats


class PlanCursor:
    """Kernel-path surrogate that replays a :class:`BurstPlan`.

    Stands in for *both* ``env.kernel`` and ``env.vfs`` during a
    fast-path replay: ``read`` hands back record ``i``'s precomputed
    extents instead of re-walking cache/readahead/elevator, and
    ``resident_bytes`` answers policy cache-filter queries from the
    plan's residency deltas.  The resident set is materialised lazily —
    policies that never query residency never pay for it — and then
    kept live by applying each record's net delta as it is read.

    The delta timing matches the real cache exactly at every point the
    replay can observe it: residency is only queried before any read
    (empty), on the tick *before* record ``i`` is serviced (state after
    record ``i-1``), or in the syscall hook *after* it completes (state
    after record ``i``), so applying record ``i``'s whole delta at
    ``read(i)`` is indistinguishable from the page-by-page original.
    """

    __slots__ = ("plan", "cache", "_index", "_resident", "_tracking")

    def __init__(self, plan: BurstPlan) -> None:
        self.plan = plan
        self.cache = _CacheView(plan.stats_copy())
        self._index = 0
        self._resident: set[PageId] = set()
        self._tracking = False

    # -- kernel surface ------------------------------------------------
    def read(self, pid: int, inode: int, offset: int, size: Bytes,
             now: Seconds) -> tuple[Extent, ...]:
        i = self._index
        self._index = i + 1
        if self._tracking:
            plan = self.plan
            self._resident.update(plan.added[i])
            self._resident.difference_update(plan.removed[i])
        return self.plan.extents[i]

    def write(self, pid: int, inode: int, offset: int, size: Bytes,
              now: Seconds) -> list[Extent]:
        raise RuntimeError(
            "BurstPlan replay saw a write — plans are only built for"
            " all-READ traces")

    def complete_fetch(self, extent: Extent,
                       now: Seconds) -> list[Extent]:
        # Read fetches never force evictions to a device; the cache
        # bookkeeping they would do is already frozen into the plan.
        return []

    def plan_writeback(self, now: Seconds, *,
                       disk_active: bool) -> list[Extent]:
        return []  # an all-READ trace never dirties a page

    # -- vfs surface ----------------------------------------------------
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
        resident = self._resident
        count = 0
        for index in range(offset // 4096, (offset + size - 1) // 4096 + 1):
            if (inode, index) in resident:
                count += 1
        return count * 4096

    def _materialise_residency(self) -> None:
        plan = self.plan
        resident = self._resident
        for i in range(self._index):
            resident.update(plan.added[i])
            resident.difference_update(plan.removed[i])
        self._tracking = True


#: Plan-once memo, the planning sibling of the compile-once trace cache
#: and the worker payload registry: populated in the sweep parent before
#: the pool forks, inherited copy-on-write by every worker.  Keyed by
#: content digest plus the two kernel-path inputs; unplannable traces
#: memoise ``None`` so the write-op scan runs once, not per cell.
_PLAN_MEMO: dict[tuple[str, int, int], BurstPlan | None] = {}


def plan_key(digest: str, memory_bytes: Bytes, seed: int) -> str:
    """Registry digest under which a plan is staged for workers."""
    return f"burst-plan/{digest}/{int(memory_bytes)}/{int(seed)}"


def plan_for(trace: CompiledTrace, memory_bytes: Bytes,
             seed: int) -> BurstPlan | None:
    """Memoised :func:`build_plan` — one plan per trace per process."""
    key = (trace.digest, int(memory_bytes), int(seed))
    try:
        return _PLAN_MEMO[key]
    except KeyError:
        pass
    plan = build_plan(trace, memory_bytes, seed)
    # Benign under fork: workers inherit the parent's populated memo
    # copy-on-write and a recomputed entry is value-identical.
    _PLAN_MEMO[key] = plan  # repro-lint: ignore[R7]
    return plan
