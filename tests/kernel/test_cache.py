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


class _PageAtATimeCache(TwoQCache):
    """Reference model: the 2Q rules applied one page per call, with
    reclaim as a separate pass after each insertion.  A write marks a
    resident page dirty and inserts an absent one dirty."""

    def access(self, page):
        if page in self._am:
            self._am.move_to_end(page)
            self.stats.hits += 1
            return True
        referenced = self._a1in.get(page)
        if referenced is not None:
            if referenced:
                del self._a1in[page]
                self._am[page] = None
            else:
                self._a1in[page] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, page, *, dirty=False, now=0.0):
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
        return self._reclaim()

    def _reclaim(self):
        flushed = []
        while len(self._resident) > self.capacity:
            if len(self._a1in) > self.kin or not self._am:
                victim, _ = self._a1in.popitem(last=False)
                self._a1out[victim] = None
                while len(self._a1out) > self.kout:
                    self._a1out.popitem(last=False)
            else:
                victim, _ = self._am.popitem(last=False)
            self._resident.discard(victim)
            self.stats.evictions += 1
            if self._dirty.pop(victim, None) is not None:
                self.stats.dirty_evictions += 1
                flushed.append(victim)
        return flushed

    def scan_window(self, inode, start, end, demand_start, demand_end):
        missing = []
        misses = 0
        for index in range(start, end):
            if demand_start <= index < demand_end:
                if self.access(page(inode, index)):
                    continue
                misses += 1
            elif page(inode, index) in self._resident:
                continue
            missing.append(index)
        runs = []
        for index in missing:
            if runs and runs[-1][1] == index:
                runs[-1] = (runs[-1][0], index + 1)
            else:
                runs.append((index, index + 1))
        return misses, runs

    def insert_run(self, inode, start, end):
        flushed = []
        for index in range(start, end):
            flushed += self.insert(page(inode, index))
        return flushed

    def write_run(self, inode, start, end, now):
        flushed = []
        for index in range(start, end):
            if page(inode, index) in self:
                self.mark_dirty(page(inode, index), now)
            else:
                flushed += self.insert(page(inode, index), dirty=True,
                                       now=now)
        return flushed


class TestRunLoopsMatchPageAtATime:
    """The run-granular scan and install loop against the page-at-a-time
    reference, at capacities small enough that a run evicts its own
    pages and hits ghosts its own earlier insertions trimmed."""

    _window = st.tuples(st.integers(1, 2), st.integers(0, 30),
                        st.integers(0, 12), st.integers(0, 12),
                        st.integers(0, 12))
    _run = st.tuples(st.integers(1, 2), st.integers(0, 30),
                     st.integers(0, 12))
    _ops = st.lists(st.one_of(
        st.tuples(st.just("scan"), _window),
        st.tuples(st.just("insert_run"), _run),
        st.tuples(st.just("write_run"), _run),
        st.tuples(st.just("access"), _run),
        st.tuples(st.just("drop"), _run),
        st.tuples(st.just("take_dirty"), st.none())), max_size=80)

    @staticmethod
    def _state(c):
        return (list(c._a1in.items()), list(c._a1out), list(c._am),
                list(c._dirty.items()), c._resident.pages(), c.stats)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(4, 16), _ops)
    def test_same_queues_dirty_index_stats_and_results(self, cap, ops):
        run, ref = TwoQCache(cap), _PageAtATimeCache(cap)
        for now, (op, args) in enumerate(ops):
            if op == "scan":
                inode, start, head, demand, tail = args
                call = ("scan_window", inode, start,
                        start + head + demand + tail, start + head,
                        start + head + demand)
            elif op in ("insert_run", "write_run"):
                inode, start, npages = args
                call = (op, inode, start, start + npages)
                if op == "write_run":
                    call += (float(now),)
            elif op in ("access", "drop"):
                call = (op, page(args[0], args[1]))
            else:
                call = (op,)
            got = getattr(run, call[0])(*call[1:])
            want = getattr(ref, call[0])(*call[1:])
            if op == "take_dirty":
                got, want = list(got.items()), list(want.items())
            assert got == want
            assert self._state(run) == self._state(ref)
