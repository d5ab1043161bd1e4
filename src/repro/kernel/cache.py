"""2Q-like page cache.

The paper's simulator emulates "the 2Q-like page replacement algorithm"
of the Linux buffer cache.  This module implements the classic simplified
2Q of Johnson & Shasha (VLDB '94), which is the scheme Linux's
active/inactive lists approximate:

* **A1in** — a FIFO of pages seen once, sized ``Kin`` (default 25 % of
  capacity).  First-touch pages go here, so a single scan (grep over a
  source tree) cannot wipe out the hot set.
* **A1out** — a ghost FIFO of page *identities* recently evicted from
  A1in, sized ``Kout`` (default 50 % of capacity, identities only — it
  holds no data).
* **Am** — an LRU of pages re-referenced while in A1out; this is the
  protected hot set.

The cache is the single owner of dirty state: an insertion-ordered index
maps each resident dirty page to the time it was first dirtied since its
last clean (Linux's ``dirtied_when``).  Evicting a dirty page surfaces it
to the caller so the write-back layer can schedule the flush.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.kernel.page import Extent, PageId
from repro.units import Seconds


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    ghost_promotions: int = 0
    dirty_evictions: int = 0
    #: pages that entered the dirty index; each leaves it once, by a
    #: flush (:meth:`TwoQCache.take_dirty`), a dirty eviction or a drop.
    dirtied: int = 0
    dirty_drops: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TwoQCache:
    """Simplified 2Q replacement over :class:`PageId` keys.

    Parameters
    ----------
    capacity_pages:
        Total resident pages (A1in + Am).
    kin_fraction / kout_fraction:
        Sizing of A1in and the A1out ghost list relative to capacity,
        defaulting to the 2Q paper's recommended 25 % / 50 %.
    """

    def __init__(self, capacity_pages: int, *, kin_fraction: float = 0.25,
                 kout_fraction: float = 0.50) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < kin_fraction < 1.0:
            raise ValueError("kin_fraction must be in (0, 1)")
        if kout_fraction <= 0.0:
            raise ValueError("kout_fraction must be positive")
        self.capacity = int(capacity_pages)
        self.kin = max(1, int(self.capacity * kin_fraction))
        self.kout = max(1, int(self.capacity * kout_fraction))
        #: A1in maps each page to Linux's PG_referenced: set on the
        #: first A1in touch, promotion to Am happens on the second.  Keeps
        #: one-touch prefetched pages (and whole sequential scans) out of
        #: the protected set.
        self._a1in: OrderedDict[PageId, bool] = OrderedDict()
        self._a1out: OrderedDict[PageId, None] = OrderedDict()
        self._am: OrderedDict[PageId, None] = OrderedDict()
        #: Union of A1in and Am keys, kept in lockstep so residency
        #: checks (the cost model's hottest query) are one set lookup
        #: instead of two ordered-dict probes.
        self._resident: set[PageId] = set()
        #: Resident dirty page -> first dirtied since its last clean.
        #: The replay clock never runs backwards, so insertion order is
        #: dirtying order and the first entry is the oldest.
        self._dirty: dict[PageId, float] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, page: PageId) -> bool:
        return page in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def is_resident(self, inode: int, index: int) -> bool:
        """O(1) residency check without constructing a :class:`PageId`.

        ``PageId`` is a tuple subclass, so the plain ``(inode, index)``
        tuple hashes and compares equal to the stored key.
        """
        return (inode, index) in self._resident

    def resident_count(self, inode: int, start: int, end: int) -> int:
        """Resident pages of ``inode`` in ``[start, end)`` (O(1) each)."""
        resident = self._resident
        count = 0
        for index in range(start, end):
            if (inode, index) in resident:
                count += 1
        return count

    def resident_fraction(self, extent: Extent) -> float:
        """Fraction of an extent's pages currently resident."""
        hits = self.resident_count(extent.inode, extent.start, extent.end)
        return hits / extent.npages

    def is_dirty(self, page: PageId) -> bool:
        """Whether a resident page is dirty (False if absent)."""
        return page in self._dirty

    def dirty_pages(self) -> list[PageId]:
        """All resident dirty pages, oldest dirtied first (cold path)."""
        dirty = self._dirty
        return sorted(dirty, key=lambda p: (dirty[p], p))

    @property
    def dirty_count(self) -> int:
        """Resident dirty pages (O(1))."""
        return len(self._dirty)

    def oldest_dirtied_at(self) -> float | None:
        """When the oldest dirty page was dirtied, or None (O(1))."""
        for dirtied_at in self._dirty.values():
            return dirtied_at
        return None

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def access(self, page: PageId) -> bool:
        """Record a reference.  Returns True on hit, False on miss.

        A miss does *not* insert the page — the caller fetches it from a
        device and then calls :meth:`insert`.  This split is what lets
        the VFS batch misses into readahead-sized device extents.
        """
        if page in self._am:
            self._am.move_to_end(page)
            self.stats.hits += 1
            return True
        referenced = self._a1in.get(page)
        if referenced is not None:
            # Linux's two-touch promotion: the first A1in reference
            # sets PG_referenced, the second moves the page to the
            # active set.  (Classic 2Q never promotes from A1in, which
            # lets a scan flush a hot set that was re-read before ever
            # being evicted; one-touch promotion would instead let
            # every prefetched-then-read scan page flood Am.)
            if referenced:
                del self._a1in[page]
                self._am[page] = None
            else:
                self._a1in[page] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, page: PageId, *, dirty: bool = False,
               now: Seconds = 0.0) -> list[PageId]:
        """Install a fetched/written page; returns evicted dirty pages.

        Pages whose identity is still in the A1out ghost list go straight
        to Am (they have proven re-reference value); new pages enter A1in.
        Clean evictions vanish silently; dirty ones are returned so the
        write-back layer can flush them.
        """
        if page in self._resident:
            if page in self._am:
                self._am.move_to_end(page)
            if dirty:
                self.mark_dirty(page, now)
            return []
        if page in self._a1out:
            del self._a1out[page]
            self._am[page] = None
            self.stats.ghost_promotions += 1
        else:
            self._a1in[page] = False
        self._resident.add(page)
        self.stats.insertions += 1
        if dirty:
            self._dirty[page] = now
            self.stats.dirtied += 1
        if len(self._resident) > self.capacity:
            return self._reclaim()
        return []

    def insert_run(self, inode: int, start: int, end: int) -> list[PageId]:
        """Batched clean :meth:`insert` of pages ``[start, end)`` of ``inode``.

        Reclaim still runs after every single insertion (so the eviction
        stream is bit-identical to one-at-a-time inserts); the batching
        saves the per-page call and list plumbing on the fetch-completion
        path, where multi-page readahead extents land.  The body is
        :meth:`insert` inlined with the queues bound to locals.
        """
        flushed: list[PageId] = []
        resident = self._resident
        a1in, a1out, am = self._a1in, self._a1out, self._am
        capacity = self.capacity
        stats = self.stats
        for index in range(start, end):
            page = PageId(inode, index)
            if page in resident:
                if page in am:
                    am.move_to_end(page)
                continue
            if page in a1out:
                del a1out[page]
                am[page] = None
                stats.ghost_promotions += 1
            else:
                a1in[page] = False
            resident.add(page)
            stats.insertions += 1
            if len(resident) > capacity:
                evicted = self._reclaim()
                if evicted:
                    flushed.extend(evicted)
        return flushed

    def mark_dirty(self, page: PageId, now: Seconds) -> bool:
        """Mark a resident page dirty; returns False if not resident.

        A page already dirty keeps its first dirtying time.
        """
        if page not in self._resident:
            return False
        if page not in self._dirty:
            self._dirty[page] = now
            self.stats.dirtied += 1
        return True

    def take_dirty(self) -> dict[PageId, float]:
        """Clear every dirty bit at once (a full flush); returns the
        former index, ``page -> dirtied_at`` in dirtying order."""
        dirty, self._dirty = self._dirty, {}
        return dirty

    def drop(self, page: PageId) -> None:
        """Invalidate a page (used by tests and failure injection)."""
        if self._dirty.pop(page, None) is not None:
            self.stats.dirty_drops += 1
        self._a1in.pop(page, None)
        self._am.pop(page, None)
        self._a1out.pop(page, None)
        self._resident.discard(page)

    # ------------------------------------------------------------------
    # replacement
    # ------------------------------------------------------------------
    def _reclaim(self) -> list[PageId]:
        """Evict until within capacity; returns evicted *dirty* pages."""
        flushed: list[PageId] = []
        while len(self._resident) > self.capacity:
            if len(self._a1in) > self.kin or not self._am:
                page, _ = self._a1in.popitem(last=False)
                self._a1out[page] = None
                while len(self._a1out) > self.kout:
                    self._a1out.popitem(last=False)
            else:
                page, _ = self._am.popitem(last=False)
            self._resident.discard(page)
            self.stats.evictions += 1
            if self._dirty.pop(page, None) is not None:
                self.stats.dirty_evictions += 1
                flushed.append(page)
        return flushed

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------
    def queue_sizes(self) -> tuple[int, int, int]:
        """``(len(A1in), len(A1out), len(Am))``."""
        return len(self._a1in), len(self._a1out), len(self._am)
