"""The read/write system-call service path.

:class:`VirtualFileSystem` composes the page cache, readahead, and
write-back modules into the path a traced ``read()``/``write()`` takes in
the simulator:

1. the demand byte range becomes a page extent;
2. readahead may widen it (two-window policy, <= 32 pages);
3. resident pages are subtracted — "applications' requests for data that
   are resident in system buffer cache should not incur accesses to
   storage devices" (§2.1);
4. the remaining miss runs are split at the 128 KB window and returned as
   a :class:`FetchPlan` of device-agnostic extents — routing them to the
   disk or the WNIC is the *policy's* job, which is the whole point of
   the paper;
5. writes dirty pages and return the write-back layer's verdict.

The VFS never touches a device itself; keeping it device-free is what
lets FlexFetch's estimator replay the same logic offline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.cache import TwoQCache
from repro.kernel.page import (
    MAX_READAHEAD_PAGES,
    Extent,
    pages_of_range,
    runs_from_pages,
    split_max_pages,
)
from repro.kernel.readahead import TwoWindowReadahead
from repro.kernel.writeback import LaptopModeWriteback, WritebackConfig
from repro.sim.clock import MB
from repro.units import Bytes, Seconds


@dataclass(frozen=True, slots=True)
class FetchPlan:
    """What one syscall needs from a storage device.

    ``demand_extent`` is the pages the application actually asked for
    (None for zero-byte calls); ``fetch_extents`` are the device requests
    after readahead and cache subtraction (each <= 32 pages);
    ``hit_pages``/``miss_pages`` count the demand pages only.
    """

    demand_extent: Extent | None
    fetch_extents: tuple[Extent, ...]
    hit_pages: int
    miss_pages: int

    @property
    def fully_cached(self) -> bool:
        """True when the syscall needs no device access at all."""
        return not self.fetch_extents

    @property
    def fetch_bytes(self) -> Bytes:
        """Total bytes the device(s) must move for this call."""
        return sum(e.nbytes for e in self.fetch_extents)


@dataclass
class FileMeta:
    """Size bookkeeping for one file."""

    inode: int
    size_bytes: Bytes

    @property
    def pages(self) -> int:
        return -(-self.size_bytes // 4096) if self.size_bytes else 0


class VirtualFileSystem:
    """Cache + readahead + write-back composed into a syscall path.

    Parameters
    ----------
    memory_bytes:
        Page-cache capacity (default 64 MB — a mid-2000s laptop's
        usable buffer-cache share).
    readahead_max_pages:
        Readahead cap, 32 pages (128 KB) per the paper.
    """

    def __init__(self, memory_bytes: Bytes = 64 * MB, *,
                 readahead_max_pages: int = MAX_READAHEAD_PAGES,
                 writeback_config: WritebackConfig | None = None) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.cache = TwoQCache(max(1, memory_bytes // 4096))
        self.readahead = TwoWindowReadahead(max_pages=readahead_max_pages)
        self.writeback = LaptopModeWriteback(self.cache, writeback_config)
        self._files: dict[int, FileMeta] = {}

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def register_file(self, inode: int, size_bytes: Bytes) -> None:
        """Declare a file's size (trace generators call this up front)."""
        if size_bytes < 0:
            raise ValueError("negative file size")
        meta = self._files.get(inode)
        if meta is None:
            self._files[inode] = FileMeta(inode, size_bytes)
        else:
            meta.size_bytes = max(meta.size_bytes, size_bytes)

    def file_size(self, inode: int) -> int:
        """Registered size of ``inode`` (KeyError if unknown)."""
        return self._files[inode].size_bytes

    def known_files(self) -> list[int]:
        """All registered inode numbers."""
        return list(self._files)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read(self, pid: int, inode: int, offset: int, size: int,
             now: Seconds) -> FetchPlan:
        """Service a ``read()`` syscall; returns the device fetch plan.

        The caller must follow up with :meth:`complete_fetch` for each
        extent it actually fetched, which installs the pages.
        """
        meta = self._files.get(inode)
        if meta is None:
            raise KeyError(f"read from unregistered inode {inode}")
        demand = pages_of_range(inode, offset, size)
        if demand is None:
            return FetchPlan(None, (), 0, 0)
        file_pages = max(meta.pages, demand.end)
        widened = self.readahead.plan(pid, inode, demand, file_pages)

        miss_demand, runs = self.cache.scan_window(
            inode, widened.start, widened.end, demand.start, demand.end)
        fetches: list[Extent] = []
        max_pages = self.readahead.max_pages
        for run_start, run_end in runs:
            run = Extent(inode, run_start, run_end - run_start)
            if run.npages <= max_pages:
                fetches.append(run)
            else:
                fetches.extend(split_max_pages(run, max_pages))
        return FetchPlan(demand, tuple(fetches),
                         demand.npages - miss_demand, miss_demand)

    def complete_fetch(self, extent: Extent, now: Seconds) -> list[Extent]:
        """Install fetched pages; returns dirty extents evicted en route."""
        flushed = self.cache.insert_run(extent.inode, extent.start,
                                        extent.end)
        return runs_from_pages(flushed) if flushed else []

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write(self, pid: int, inode: int, offset: int, size: int,
              now: Seconds) -> list[Extent]:
        """Service a ``write()``: dirty the pages, return forced flushes.

        Returns extents evicted-dirty during insertion (they must reach
        a device immediately); deferred write-back is handled separately
        via :meth:`plan_writeback`.
        """
        meta = self._files.get(inode)
        if meta is None:
            self.register_file(inode, offset + size)
            meta = self._files[inode]
        meta.size_bytes = max(meta.size_bytes, offset + size)
        demand = pages_of_range(inode, offset, size)
        if demand is None:
            return []
        flushed = self.cache.write_run(inode, demand.start, demand.end, now)
        return runs_from_pages(flushed) if flushed else []

    def plan_writeback(self, now: Seconds, *, disk_active: bool) -> list[Extent]:
        """Dirty extents due for flushing under laptop-mode policy."""
        return self.writeback.plan_flush(now, disk_active=disk_active)

    # ------------------------------------------------------------------
    # profile support (§2.3.2)
    # ------------------------------------------------------------------
    def resident_bytes(self, inode: int, offset: int, size: int) -> Bytes:
        """Bytes of the range currently resident in the cache.

        FlexFetch's cache filter uses this to drop profiled requests that
        would be buffer-cache hits from its device cost estimates.
        """
        # Inline of pages_of_range (same validation, no Extent built):
        # FlexFetch's cache filter calls this per profiled request.
        if offset < 0 or size < 0:
            raise ValueError("negative offset or size")
        if size == 0:
            return 0
        return self.cache.resident_count(
            inode, offset // 4096, (offset + size - 1) // 4096 + 1) * 4096
