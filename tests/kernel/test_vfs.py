"""Unit tests for the kernel path's read/write service path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.layout import DiskLayout
from repro.kernel.page import PAGE_SIZE, Extent, PageId
from repro.kernel.path import KernelPath
from repro.sim.clock import MB
from repro.sim.plan import layout_for
from repro.traces.compile import compile_trace
from tests.conftest import make_trace


def kernel_with_files(files, memory=4 * MB, seed=0):
    """A kernel path whose layout places ``files`` (inode -> bytes)."""
    return KernelPath(memory, DiskLayout(seed, files))


def kernel_with_file(inode=1, size=10 * MB, memory=4 * MB):
    return kernel_with_files({inode: size}, memory)


def counted_read(v, *args, **kwargs):
    """``v.read`` plus the demand hits and misses it added to the cache
    counters: ``(fetches, hits, misses)``."""
    stats = v.cache.stats
    hits, misses = stats.hits, stats.misses
    fetches = v.read(*args, **kwargs)
    return fetches, stats.hits - hits, stats.misses - misses


class TestReadPath:
    def test_cold_read_produces_fetch(self):
        v = kernel_with_file()
        fetches, hits, misses = counted_read(v, 1, 1, 0, 64 * 1024, now=0.0)
        assert fetches
        assert misses == 16
        assert hits == 0
        assert sum(e.nbytes for e in fetches) >= 64 * 1024

    def test_fetch_extents_capped_at_readahead_window(self):
        v = kernel_with_file()
        fetches = v.read(1, 1, 0, 1 * MB, now=0.0)
        assert all(e.npages <= 32 for e in fetches)

    def test_completed_fetch_makes_reread_cached(self):
        v = kernel_with_file()
        v.read(1, 1, 0, 64 * 1024, now=0.0)
        fetches, hits, _ = counted_read(v, 1, 1, 0, 64 * 1024, now=1.0)
        assert fetches == []
        assert hits == 16

    def test_readahead_prefetches_beyond_demand(self):
        v = kernel_with_file()
        v.read(1, 1, 0, 16 * 1024, now=0.0)    # 4 demand pages
        # The next sequential pages are already resident.
        _, hits, _ = counted_read(v, 1, 1, 16 * 1024, 16 * 1024, now=0.1)
        assert hits > 0

    def test_zero_byte_read(self):
        v = kernel_with_file()
        fetches, hits, misses = counted_read(v, 1, 1, 0, 0, now=0.0)
        assert fetches == []
        assert hits == misses == 0   # no demand pages

    def test_unregistered_inode_rejected(self):
        v = KernelPath(64 * MB, DiskLayout(0, {}))
        with pytest.raises(KeyError):
            v.read(1, 99, 0, 4096, now=0.0)

    def test_partial_hit_fetches_only_missing(self):
        v = kernel_with_file()
        v.read(1, 1, 0, 8 * PAGE_SIZE, now=0.0)
        # Random read overlapping cached head and uncached tail.
        fetches, cached_demand, _ = counted_read(
            v, 1, 1, 4 * PAGE_SIZE, 500 * PAGE_SIZE, now=1.0)
        fetched = {p for e in fetches for p in e.pages()}
        # Already-resident demand pages are not fetched again.
        assert cached_demand > 0
        assert all(p.index >= 4 for p in fetched)


class TestWritePath:
    def test_write_dirties_without_device_io(self):
        v = kernel_with_file()
        forced = v.write(1, 1, 0, 64 * 1024, now=0.0)
        assert forced == []
        assert v.writeback.dirty_count == 16

    def test_writeback_plan_flushes_on_active_disk(self):
        v = kernel_with_file()
        v.write(1, 1, 0, 64 * 1024, now=0.0)
        extents = v.plan_writeback(1.0, disk_active=True)
        assert sum(e.npages for e in extents) == 16
        assert v.writeback.dirty_count == 0

    def test_writeback_defers_on_standby_disk(self):
        v = kernel_with_file()
        v.write(1, 1, 0, 64 * 1024, now=0.0)
        assert v.plan_writeback(1.0, disk_active=False) == []

    def test_overwrite_of_cached_page_dirties_it(self):
        v = kernel_with_file()
        v.read(1, 1, 0, PAGE_SIZE, now=0.0)
        v.write(1, 1, 0, 100, now=1.0)
        assert v.cache.is_dirty(PageId(1, 0))


class TestResidency:
    def test_resident_bytes(self):
        v = kernel_with_file()
        assert v.resident_bytes(1, 0, 64 * 1024) == 0
        v.read(1, 1, 0, 64 * 1024, now=0.0)
        assert v.resident_bytes(1, 0, 64 * 1024) == 64 * 1024

    def test_resident_bytes_zero_size(self):
        v = kernel_with_file()
        assert v.resident_bytes(1, 0, 0) == 0


class TestNamespace:
    def test_register_grows_only(self):
        # A later, smaller declaration of a shared inode never shrinks
        # the file in the kernel path's file table.
        big = make_trace([(1, 0, 25 * PAGE_SIZE, "read", 0.0)], pid=100)
        small = make_trace([(1, 0, 2 * PAGE_SIZE, "read", 1.0)], pid=200)
        for order in ((big, small), (small, big)):
            layout = layout_for([compile_trace(t) for t in order], 0)
            assert KernelPath(4 * MB, layout).layout.get(1).nblocks == 25

    def test_negative_size_rejected(self):
        # The layout is the kernel's file table.
        with pytest.raises(ValueError):
            DiskLayout(0, {1: -1})

    def test_bad_memory_size_rejected(self):
        with pytest.raises(ValueError):
            KernelPath(0, DiskLayout(0, {}))


class _ReadModel:
    """Page-at-a-time reference for one kernel read: the two-window
    readahead rules per stream, residency probed one page at a time,
    runs split at the cap and C-SCAN order over the layout."""

    def __init__(self, locate, max_pages=32, min_pages=4):
        self.locate = locate
        self.max_pages, self.min_pages = max_pages, min_pages
        self.streams = {}      # (pid, inode) -> [last_page, next_size]
        self.head = 0

    def read(self, cache, pid, inode, offset, size, file_pages):
        start = offset // PAGE_SIZE
        end = (offset + size - 1) // PAGE_SIZE + 1
        stream = self.streams.setdefault((pid, inode), [None, 0])
        last, size_now = stream
        sequential = (start == 0 if last is None
                      else start in (last, last + 1))
        if sequential:
            size_now = (self.min_pages if size_now == 0
                        else min(2 * size_now, self.max_pages))
            window_end = max(end, min(end + size_now, file_pages))
        else:
            size_now = 0
            window_end = end
        stream[:] = [end - 1, size_now]
        missing = [index for index in range(start, window_end)
                   if PageId(inode, index) not in cache]
        hits = sum(PageId(inode, index) in cache
                   for index in range(start, end))
        runs = []
        for index in missing:
            if runs and runs[-1][1] == index and \
                    runs[-1][1] - runs[-1][0] < self.max_pages:
                runs[-1][1] = index + 1
            else:
                runs.append([index, index + 1])
        fetches = [Extent(inode, a, b - a) for a, b in runs]
        if len(fetches) > 1:
            ahead = sorted((e for e in fetches
                            if self.locate(e) >= self.head),
                           key=self.locate)
            behind = sorted((e for e in fetches
                             if self.locate(e) < self.head),
                            key=self.locate)
            fetches = ahead + behind
            self.head = self.locate(fetches[-1])
        return fetches, hits, size_now


#: one read: (pid, inode, where, start page, byte skew, pages)
_reads = st.lists(st.tuples(
    st.integers(1, 2), st.integers(1, 3),
    st.sampled_from(["next", "next", "next", "same", "random"]),
    st.integers(0, 150), st.integers(0, PAGE_SIZE - 1),
    st.integers(1, 80)), min_size=1, max_size=40)


class TestOnePassRead:
    """``KernelPath.read`` against :class:`_ReadModel`; each read
    installs its fetches, so the next one probes the cache it left."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(16, 200), _reads)
    def test_matches_page_at_a_time_model(self, capacity, reads):
        sizes = {1: 150 * PAGE_SIZE, 2: 40 * PAGE_SIZE + 17,
                 3: 200 * PAGE_SIZE}
        kernel = kernel_with_files(sizes, capacity * PAGE_SIZE, seed=3)
        layout = kernel.layout

        def locate(extent):
            # Disk blocks are page-sized.
            return layout.get(extent.inode).start_block + extent.start

        model = _ReadModel(locate)
        ends = {}
        for pid, inode, where, page, skew, npages in reads:
            file_bytes = sizes[inode]
            if where == "next":
                offset = ends.get((pid, inode), 0)
            elif where == "same":
                offset = max(ends.get((pid, inode), 1) - 1, 0)
            else:
                offset = page * PAGE_SIZE + skew
            offset = min(offset, file_bytes - 1)
            size = min(npages * PAGE_SIZE - skew, file_bytes - offset)
            ends[(pid, inode)] = offset + size
            file_pages = -(-file_bytes // PAGE_SIZE)
            want, want_hits, want_window = model.read(
                kernel.cache, pid, inode, offset, size, file_pages)
            stats = kernel.cache.stats
            hits, accesses = stats.hits, stats.accesses
            got = kernel.read(pid, inode, offset, size, now=0.0)
            assert got == want
            demand = (offset + size - 1) // PAGE_SIZE - offset // PAGE_SIZE
            assert stats.accesses - accesses == demand + 1
            assert stats.hits - hits == want_hits
            assert kernel.readahead.state(pid, inode).next_size == want_window

    def test_window_doubles_to_the_cap_and_resets(self):
        kernel = kernel_with_file()
        windows = []
        for offset in range(0, 6 * 16 * 1024, 16 * 1024):
            kernel.read(1, 1, offset, 16 * 1024, now=0.0)
            windows.append(kernel.readahead.state(1, 1).next_size)
        kernel.read(1, 1, 5 * MB, 16 * 1024, now=0.0)       # random
        windows.append(kernel.readahead.state(1, 1).next_size)
        assert windows == [4, 8, 16, 32, 32, 32, 0]
