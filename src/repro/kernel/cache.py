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
(:class:`DirtyIndex`) maps each resident dirty page to the time it was
first dirtied since its last clean (Linux's ``dirtied_when``).  Evicting
a dirty page surfaces it to the caller so the write-back layer can
schedule the flush.

One :meth:`TwoQCache.scan_window` pass serves a read and one install
loop serves fetches and writes, but reclaim still runs after every
insertion: a run can evict its own earlier pages from A1in, and trim a
ghost from A1out that a later page of the same run would have hit, so
evicting once per run would break the 2Q rules.  Queue keys are plain
``(inode, index)`` tuples, equal in hash and value to :class:`PageId`.
Residency itself is kept in :class:`ResidentRows`, one byte per page
in a row per inode, so a probe indexes a ``bytearray`` instead of
hashing a tuple; a BurstPlan cursor keeps its residency the same way.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import KeysView
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


class DirtyIndex:
    """Dirty-page state and the counters that go with it.

    Maps each resident dirty page to the time it was first dirtied
    since its last clean.  The replay clock never runs backwards, so
    insertion order is dirtying order and the first entry is the
    oldest.  Write-back reads only this surface: :class:`TwoQCache` is
    one, and a BurstPlan cursor's dirty overlay is another.
    """

    def __init__(self, stats: CacheStats) -> None:
        self._dirty: dict[PageId, float] = {}
        self.stats = stats

    @property
    def dirty_count(self) -> int:
        """Resident dirty pages (O(1))."""
        return len(self._dirty)

    def oldest_dirtied_at(self) -> float | None:
        """When the oldest dirty page was dirtied, or None (O(1))."""
        for dirtied_at in self._dirty.values():
            return dirtied_at
        return None

    def take_dirty(self) -> dict[PageId, float]:
        """Clear every dirty bit at once (a full flush); returns the
        former index, ``page -> dirtied_at`` in dirtying order."""
        dirty, self._dirty = self._dirty, {}
        return dirty


class ResidentRows:
    """Page residency as one ``bytearray`` row per inode, 1 where the
    page is resident.

    A run is one slice assignment, a range counts in C, and the inodes
    with a row are the only ones that can hold a resident page.  Rows
    grow on demand and are never dropped.  Both kernel surfaces keep
    residency here: :class:`TwoQCache` (whose hot loops index
    :attr:`rows` directly) and the BurstPlan cursor.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, bytearray] = {}

    def row(self, inode: int, end: int) -> bytearray:
        """``inode``'s row, grown to cover pages ``[0, end)``."""
        row = self.rows.get(inode)
        if row is None:
            row = self.rows[inode] = bytearray(end)
        elif len(row) < end:
            row.extend(bytes(end - len(row)))
        return row

    def fill(self, inode: int, start: int, end: int) -> None:
        """Mark pages ``[start, end)`` of ``inode`` resident."""
        self.row(inode, end)[start:end] = b"\x01" * (end - start)

    def clear(self, inode: int, start: int, end: int) -> None:
        """Mark pages ``[start, end)`` of ``inode`` absent."""
        self.row(inode, end)[start:end] = bytes(end - start)

    def count(self, inode: int, start: int, end: int) -> int:
        """Resident pages of ``inode`` in ``[start, end)``."""
        row = self.rows.get(inode)
        return 0 if row is None else row.count(1, start, end)

    def inodes(self) -> KeysView[int]:
        """Inodes with a row: outside them no page is resident."""
        return self.rows.keys()

    def pages(self) -> set[PageId]:
        """Every resident page as an ``(inode, index)`` tuple (cold)."""
        return {(inode, index) for inode, row in self.rows.items()
                for index, flag in enumerate(row) if flag}

    # -- one page at a time (cold paths and reference models) ----------
    def __contains__(self, page: PageId) -> bool:
        inode, index = page
        row = self.rows.get(inode)
        return row is not None and 0 <= index < len(row) and row[index] == 1

    def __len__(self) -> int:
        return sum(row.count(1) for row in self.rows.values())

    def add(self, page: PageId) -> None:
        inode, index = page
        self.row(inode, index + 1)[index] = 1

    def discard(self, page: PageId) -> None:
        inode, index = page
        row = self.rows.get(inode)
        if row is not None and 0 <= index < len(row):
            row[index] = 0


class TwoQCache(DirtyIndex):
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
        #: The union of A1in and Am keys, kept in lockstep as byte rows
        #: so residency checks (the cost model's hottest query, every
        #: probe of a read's window) index bytes.  Every inode a run
        #: has installed pages of has a row.
        self._resident = ResidentRows()
        super().__init__(CacheStats())
        #: When a list, every eviction appends ``(index, victim)``: the
        #: page index whose insertion reclaimed ``victim``.  The plan
        #: compiler records a walk's residency changes through it.
        self.victims: list[tuple[int, PageId]] | None = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, page: PageId) -> bool:
        return page in self._resident

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def resident_count(self, inode: int, start: int, end: int) -> int:
        """Resident pages of ``inode`` in ``[start, end)``."""
        return self._resident.count(inode, start, end)

    def resident_inodes(self) -> KeysView[int]:
        """Every inode a run has installed pages of: a superset of the
        inodes holding a resident page."""
        return self._resident.inodes()

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

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def access(self, page: PageId) -> bool:
        """Record a reference.  Returns True on hit, False on miss.

        A miss does *not* insert the page — the caller fetches it from a
        device and then calls :meth:`insert`.  This split is what lets
        the kernel path batch misses into readahead-sized device extents.
        """
        inode, index = page
        return not self.scan_window(inode, index, index + 1,
                                    index, index + 1)[0]

    def scan_window(self, inode: int, start: int, end: int,
                    demand_start: int, demand_end: int
                    ) -> tuple[int, list[tuple[int, int]]]:
        """One read's pass over ``[start, end)`` of ``inode``.

        Pages in ``[demand_start, demand_end)`` (inside the window) are
        references and count as hits or misses; the readahead pages
        around them are only probed for residency.  Returns the demand
        miss count and the non-resident pages as ascending
        ``(run_start, run_end)`` runs.  Nothing is inserted.
        """
        row = self._resident.rows.get(inode)
        if row is None or row.find(1, start, end) < 0:
            # Nothing resident (a cold read): one C-level probe, and
            # every demand page is a miss.
            misses = demand_end - demand_start
            self.stats.misses += misses
            return misses, [(start, end)] if start < end else []
        if len(row) < end:
            row.extend(bytes(end - len(row)))
        a1in, am = self._a1in, self._am
        missing = [index for index in range(start, demand_start)
                   if not row[index]]
        hits = 0
        for index in range(demand_start, demand_end):
            if not row[index]:
                missing.append(index)
                continue
            page = (inode, index)
            # A resident page is in Am or A1in.  Linux's two-touch
            # promotion: the first A1in reference sets PG_referenced,
            # the second moves the page to the active set.  (Classic 2Q
            # never promotes from A1in, which lets a scan flush a hot
            # set that was re-read before ever being evicted; one-touch
            # promotion would instead let every prefetched-then-read
            # scan page flood Am.)
            if page in am:
                am.move_to_end(page)
            elif a1in[page]:
                del a1in[page]
                am[page] = None
            else:
                a1in[page] = True
            hits += 1
        misses = demand_end - demand_start - hits
        self.stats.hits += hits
        self.stats.misses += misses
        missing += [index for index in range(demand_end, end)
                    if not row[index]]
        runs: list[tuple[int, int]] = []
        if missing:
            run_start = run_end = missing[0]
            for index in missing:
                if index != run_end:
                    runs.append((run_start, run_end))
                    run_start = index
                run_end = index + 1
            runs.append((run_start, run_end))
        return misses, runs

    def insert(self, page: PageId, *, dirty: bool = False,
               now: Seconds = 0.0) -> list[PageId]:
        """Install one page; returns evicted dirty pages.

        A clean insert is a one-page :meth:`insert_run`, a dirty one a
        one-page :meth:`write_run` (a resident page is then only marked
        dirty, with no queue move).
        """
        inode, index = page
        return self._install_run(inode, index, index + 1,
                                 now if dirty else None)

    def insert_run(self, inode: int, start: int, end: int) -> list[PageId]:
        """Install fetched pages ``[start, end)`` of ``inode`` clean.

        A page already resident moves to Am's MRU end if it is in Am.
        Returns the dirty pages evicted en route.
        """
        return self._install_run(inode, start, end, None)

    def write_run(self, inode: int, start: int, end: int,
                  now: Seconds) -> list[PageId]:
        """Dirty pages ``[start, end)`` of ``inode``, installing the
        absent ones; returns the dirty pages evicted en route.

        A page already resident is only marked dirty (keeping its first
        dirtying time), with no queue move.
        """
        return self._install_run(inode, start, end, now)

    def _install_run(self, inode: int, start: int, end: int,
                     dirty_at: float | None) -> list[PageId]:
        """The single install loop behind every insert.

        Pages whose identity is still in the A1out ghost list go straight
        to Am (they have proven re-reference value); new pages enter
        A1in.  Reclaim runs after every insertion, so a run may evict
        its own earlier pages.  Clean evictions vanish silently; dirty
        ones are returned so the write-back layer can flush them.
        """
        rows = self._resident.rows
        row = self._resident.row(inode, end)
        a1in, a1out, am, dirty = self._a1in, self._a1out, self._am, self._dirty
        kin, kout = self.kin, self.kout
        # Only the rare branches count; the rest follows from sizes.
        resident_before, dirty_before = len(a1in) + len(am), len(dirty)
        room = self.capacity - resident_before
        flushed: list[PageId] = []
        victims = self.victims
        skipped = promoted = 0
        for index in range(start, end):
            if row[index]:
                skipped += 1
                page = (inode, index)
                if dirty_at is None:
                    if page in am:
                        am.move_to_end(page)
                elif page not in dirty:
                    dirty[page] = dirty_at
                continue
            page = (inode, index)
            if page in a1out:
                del a1out[page]
                am[page] = None
                promoted += 1
            else:
                a1in[page] = False
            row[index] = 1
            if dirty_at is not None:
                dirty[page] = dirty_at
            if room > 0:
                room -= 1
                continue
            # Reclaim the one page over capacity: A1in's oldest (its
            # identity joins the A1out ghosts) unless A1in is within
            # Kin, else Am's least recently used.
            if len(a1in) > kin or not am:
                victim, _ = a1in.popitem(last=False)
                a1out[victim] = None
                if len(a1out) > kout:
                    a1out.popitem(last=False)
            else:
                victim, _ = am.popitem(last=False)
            rows[victim[0]][victim[1]] = 0
            if victims is not None:
                victims.append((index, victim))
            if dirty.pop(victim, None) is not None:
                flushed.append(victim)
        inserted = end - start - skipped
        stats = self.stats
        stats.insertions += inserted
        stats.ghost_promotions += promoted
        stats.evictions += inserted - (len(a1in) + len(am)
                                       - resident_before)
        stats.dirty_evictions += len(flushed)
        stats.dirtied += len(dirty) - dirty_before + len(flushed)
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

    def drop(self, page: PageId) -> None:
        """Invalidate a page (used by tests and failure injection)."""
        if self._dirty.pop(page, None) is not None:
            self.stats.dirty_drops += 1
        self._a1in.pop(page, None)
        self._am.pop(page, None)
        self._a1out.pop(page, None)
        self._resident.discard(page)

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------
    def queue_sizes(self) -> tuple[int, int, int]:
        """``(len(A1in), len(A1out), len(Am))``."""
        return len(self._a1in), len(self._a1out), len(self._am)
