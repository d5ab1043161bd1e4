"""The read/write system-call service path.

:class:`VirtualFileSystem` composes the page cache, readahead, and
write-back modules into the path a traced ``read()``/``write()`` takes in
the simulator:

1. the demand byte range becomes a page range;
2. readahead may widen it (two-window policy, <= 32 pages);
3. resident pages are subtracted — "applications' requests for data that
   are resident in system buffer cache should not incur accesses to
   storage devices" (§2.1);
4. the remaining miss runs are split at the 128 KB window and returned as
   a list of device-agnostic extents — routing them to the disk or the
   WNIC is the *policy's* job, which is the whole point of the paper;
5. writes dirty pages and return the write-back layer's verdict.

Steps 1-4 are one pass over plain ints: one readahead call, one
:meth:`~repro.kernel.cache.TwoQCache.scan_window`, and an
:class:`~repro.kernel.page.Extent` only for each fetch.

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
)
from repro.kernel.readahead import TwoWindowReadahead
from repro.kernel.writeback import LaptopModeWriteback, WritebackConfig
from repro.sim.clock import MB
from repro.units import Bytes, Seconds


@dataclass
class FileMeta:
    """Size bookkeeping for one file."""

    inode: int
    size_bytes: Bytes


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
             now: Seconds) -> list[Extent]:
        """Service a ``read()`` syscall; returns its device fetches.

        The fetches are the non-resident pages of the demand pages plus
        their readahead window, as ascending extents of at most
        ``readahead_max_pages`` pages.  The demand pages count as cache
        hits or misses in ``cache.stats``.  The caller must follow up
        with :meth:`complete_fetch` for each extent it actually fetched,
        which installs the pages.
        """
        meta = self._files.get(inode)
        if meta is None:
            raise KeyError(f"read from unregistered inode {inode}")
        # Inline of pages_of_range (same validation, no Extent built).
        if offset < 0 or size < 0:
            raise ValueError("negative offset or size")
        if size == 0:
            return []
        start = offset // 4096
        end = (offset + size - 1) // 4096 + 1
        readahead = self.readahead
        window_end = readahead.window_end(pid, inode, start, end,
                                          -(-meta.size_bytes // 4096))
        runs = self.cache.scan_window(inode, start, window_end,
                                      start, end)[1]
        fetches: list[Extent] = []
        max_pages = readahead.max_pages
        for run_start, run_end in runs:
            while run_end - run_start > max_pages:
                fetches.append(Extent(inode, run_start, max_pages))
                run_start += max_pages
            fetches.append(Extent(inode, run_start, run_end - run_start))
        return fetches

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
