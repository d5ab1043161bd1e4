"""Asynchronous write-back and Linux laptop mode.

The paper's simulator models "the asynchronous write-back scheme" and
"the policies adopted in the Linux laptop mode, such as eager writing
back dirty blocks to active disks and delaying write-back to disks in the
standby mode" (§3.1).  Concretely:

* writes dirty pages in the cache and return immediately;
* dirty pages older than ``max_age`` (default 30 s, the laptop-mode
  ``dirty_expire``) must be flushed even if that spins the disk up;
* whenever the disk is active for other reasons, *all* dirty pages are
  flushed eagerly ("piggy-backing") so the disk can spin down sooner and
  stay down longer.

The manager does not talk to a device itself; it decides *what to flush
when*, and the replay simulator issues the resulting extents to the disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.cache import DirtyIndex
from repro.kernel.page import Extent, runs_from_pages
from repro.units import Seconds


@dataclass(frozen=True, slots=True)
class WritebackConfig:
    """Write-back policy knobs.

    Attributes
    ----------
    max_age:
        Seconds a page may stay dirty before a forced flush (laptop-mode
        ``dirty_expire_centisecs`` default is 30 s).
    eager_on_active:
        Flush everything whenever the disk is already active/idle
        (laptop mode's signature behaviour).
    dirty_limit_pages:
        Safety valve: exceeding this many dirty pages forces a flush
        regardless of disk state.
    """

    max_age: float = 30.0
    eager_on_active: bool = True
    dirty_limit_pages: int = 4096

    def __post_init__(self) -> None:
        if self.max_age <= 0:
            raise ValueError("max_age must be positive")
        if self.dirty_limit_pages <= 0:
            raise ValueError("dirty_limit_pages must be positive")


class LaptopModeWriteback:
    """Decides which dirty pages to flush at each opportunity.

    A stateless policy over a :class:`~repro.kernel.cache.DirtyIndex`
    (the page cache, or a BurstPlan cursor's overlay): the index alone
    records which pages are dirty and since when.
    """

    def __init__(self, cache: DirtyIndex,
                 config: WritebackConfig | None = None) -> None:
        self.cache = cache
        self.config = config or WritebackConfig()
        self.flush_count = 0
        self.flushed_pages = 0

    @property
    def dirty_count(self) -> int:
        return self.cache.dirty_count

    def oldest_dirty_age(self, now: Seconds) -> float:
        """Age of the oldest dirty page (0 if none)."""
        oldest = self.cache.oldest_dirtied_at()
        return 0.0 if oldest is None else now - oldest

    def next_forced_flush(self) -> float | None:
        """Absolute time the oldest dirty page expires, or None."""
        oldest = self.cache.oldest_dirtied_at()
        return None if oldest is None else oldest + self.config.max_age

    def plan_flush(self, now: Seconds, *, disk_active: bool) -> list[Extent]:
        """Extents to flush at ``now``; empty list means nothing due.

        Eager when the disk is active (laptop mode), otherwise only when
        a page exceeded ``max_age`` or the dirty limit tripped — and then
        *everything* goes, to buy the longest possible quiet period.
        """
        oldest = self.cache.oldest_dirtied_at()
        if oldest is None:
            return []
        config = self.config
        if not ((disk_active and config.eager_on_active)
                or now - oldest >= config.max_age
                or self.cache.dirty_count >= config.dirty_limit_pages):
            return []
        # runs_from_pages sorts, so the index's order never shows.
        pages = self.cache.take_dirty()
        self.flush_count += 1
        self.flushed_pages += len(pages)
        return runs_from_pages(pages)
