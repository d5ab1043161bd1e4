"""Simulated Linux I/O path.

The paper's simulator "emulates the policies used for Linux buffer cache
management, including the 2Q-like page replacement algorithm, the
two-window readahead policy that prefetches up to 32 pages, the C-SCAN
I/O request scheduling mechanism, and the asynchronous write-back scheme"
plus laptop mode (§3.1).  Each of those policies has one home here:

* :mod:`repro.kernel.page` — page/extent algebra shared by all of them,
* :mod:`repro.kernel.cache` — the 2Q-like page cache,
* :mod:`repro.kernel.readahead` — two-window readahead (<= 32 pages),
* :mod:`repro.kernel.writeback` — async write-back + laptop mode,
* :mod:`repro.kernel.path` — :class:`~repro.kernel.path.KernelPath`, the
  read/write system-call service path that composes them over the disk
  layout's file table and C-SCAN-orders the device-agnostic fetch
  extents it emits.  The live session and
  :func:`~repro.sim.plan.build_plan` both read through
  ``KernelPath.read``: one walk over ints per read.
"""

from repro.kernel.cache import CacheStats, TwoQCache
from repro.kernel.page import PAGE_SIZE, Extent, PageId, pages_of_range
from repro.kernel.path import KernelPath
from repro.kernel.readahead import ReadaheadState, TwoWindowReadahead
from repro.kernel.writeback import LaptopModeWriteback, WritebackConfig

__all__ = [
    "CacheStats",
    "TwoQCache",
    "PAGE_SIZE",
    "Extent",
    "PageId",
    "pages_of_range",
    "ReadaheadState",
    "TwoWindowReadahead",
    "KernelPath",
    "LaptopModeWriteback",
    "WritebackConfig",
]
