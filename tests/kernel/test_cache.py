"""Unit and property tests for the 2Q-like page cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.cache import TwoQCache
from repro.kernel.page import PageId
from repro.kernel.writeback import LaptopModeWriteback


def page(i, n):
    return PageId(i, n)


class TestBasics:
    def test_miss_then_insert_then_hit(self):
        c = TwoQCache(16)
        assert not c.access(page(1, 0))
        c.insert(page(1, 0))
        assert c.access(page(1, 0))
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_miss_does_not_insert(self):
        c = TwoQCache(16)
        c.access(page(1, 0))
        assert page(1, 0) not in c
        assert len(c) == 0

    def test_capacity_respected(self):
        c = TwoQCache(8)
        for i in range(20):
            c.insert(page(1, i))
        assert len(c) <= 8

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TwoQCache(0)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            TwoQCache(8, kin_fraction=0.0)
        with pytest.raises(ValueError):
            TwoQCache(8, kout_fraction=0.0)


class TestTwoQBehaviour:
    def test_first_touch_goes_to_a1in(self):
        c = TwoQCache(16)
        c.insert(page(1, 0))
        a1in, a1out, am = c.queue_sizes()
        assert (a1in, am) == (1, 0)

    def test_ghost_promotion_to_am(self):
        c = TwoQCache(8, kin_fraction=0.25)   # kin = 2
        c.insert(page(1, 0))
        # Push enough new pages to evict page(1,0) from A1in to A1out.
        for i in range(1, 12):
            c.insert(page(1, i))
        assert page(1, 0) not in c            # evicted (ghost only)
        c.insert(page(1, 0))                  # re-fetch: ghost hit
        _, _, am = c.queue_sizes()
        assert am >= 1
        assert c.stats.ghost_promotions >= 1

    def test_scan_resistance(self):
        """A long one-touch scan must not evict the re-referenced set."""
        c = TwoQCache(64, kin_fraction=0.25)
        hot = [page(1, i) for i in range(8)]
        # Establish hot set in Am via ghost promotion: fill to capacity
        # so exactly the hot pages fall off A1in into the ghost list.
        for p in hot:
            c.insert(p)
        for i in range(100, 164):             # push them through A1in
            c.insert(page(2, i))
        assert all(p not in c for p in hot)   # evicted, ghosts remain
        for p in hot:
            c.insert(p)                       # ghost hits -> Am
        # Now a large sequential scan (single touch each).
        for i in range(1000, 1400):
            c.access(page(3, i))
            c.insert(page(3, i))
        # Hot set survives the scan.
        assert all(p in c for p in hot)

    def test_am_is_lru(self):
        c = TwoQCache(8, kin_fraction=0.25, kout_fraction=2.0)
        a, b = page(1, 0), page(1, 1)
        for p in (a, b):
            c.insert(p)
        for i in range(10, 20):               # evict both to ghosts
            c.insert(page(2, i))
        for p in (a, b):
            c.insert(p)                       # promote both to Am
        c.access(a)                           # a more recent than b
        # Fill to force Am eviction.
        for i in range(30, 60):
            c.insert(page(3, i))
        if b in c:
            # If anything of the pair was evicted, it must be b first.
            assert a in c


class TestDirtyTracking:
    def test_mark_dirty_and_clean(self):
        c = TwoQCache(8)
        c.insert(page(1, 0))
        assert c.mark_dirty(page(1, 0), now=1.0)
        assert c.is_dirty(page(1, 0))
        assert c.take_dirty() == {page(1, 0): 1.0}
        assert not c.is_dirty(page(1, 0))

    def test_mark_dirty_missing_page(self):
        c = TwoQCache(8)
        assert not c.mark_dirty(page(1, 0), now=1.0)

    def test_dirty_eviction_surfaces_pages(self):
        c = TwoQCache(4, kin_fraction=0.5)
        flushed = []
        for i in range(10):
            flushed += c.insert(page(1, i), dirty=True, now=float(i))
        assert flushed                         # something was evicted dirty
        assert c.stats.dirty_evictions == len(flushed)

    def test_dirty_pages_ordered_by_age(self):
        c = TwoQCache(16)
        c.insert(page(1, 1), dirty=True, now=5.0)
        c.insert(page(1, 0), dirty=True, now=1.0)
        assert c.dirty_pages() == [page(1, 0), page(1, 1)]

    def test_redirtying_keeps_first_dirtied_time(self):
        c = TwoQCache(16)
        wb = LaptopModeWriteback(c)
        c.insert(page(1, 0), dirty=True, now=1.0)
        c.insert(page(1, 1), dirty=True, now=3.0)
        c.insert(page(1, 0), dirty=True, now=5.0)
        assert c.dirty_pages() == [page(1, 0), page(1, 1)]
        assert wb.oldest_dirty_age(10.0) == 9.0

    def test_drop_counts_dirty_pages(self):
        c = TwoQCache(16)
        c.insert(page(1, 0), dirty=True, now=1.0)
        c.insert(page(1, 1))
        c.drop(page(1, 0))
        c.drop(page(1, 1))
        assert not c.is_dirty(page(1, 0))
        assert (c.stats.dirtied, c.stats.dirty_drops) == (1, 1)

    def test_insert_existing_page_can_dirty_it(self):
        c = TwoQCache(16)
        c.insert(page(1, 0))
        c.insert(page(1, 0), dirty=True, now=2.0)
        assert c.is_dirty(page(1, 0))


class TestDropAndResidency:
    def test_drop(self):
        c = TwoQCache(8)
        c.insert(page(1, 0))
        c.drop(page(1, 0))
        assert page(1, 0) not in c

    def test_resident_fraction(self):
        from repro.kernel.page import Extent
        c = TwoQCache(8)
        c.insert(page(1, 0))
        c.insert(page(1, 1))
        assert c.resident_fraction(Extent(1, 0, 4)) == pytest.approx(0.5)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 5),
                              st.integers(0, 60)), max_size=200),
           st.integers(4, 32))
    def test_never_exceeds_capacity_and_stats_consistent(self, ops, cap):
        c = TwoQCache(cap)
        for kind, inode, index in ops:
            p = page(inode, index)
            if kind == 0:
                c.access(p)
            else:
                c.insert(p)
            assert len(c) <= cap
        assert c.stats.accesses == c.stats.hits + c.stats.misses
        assert 0.0 <= c.stats.hit_ratio <= 1.0
