"""Kernel-path integration tests: cache + readahead + write-back acting
together through :class:`~repro.kernel.path.KernelPath`, on access
patterns the workloads actually produce.  A read installs its fetches
before it returns, so each read below leaves the cache as a replay
would."""


from repro.kernel.page import PAGE_SIZE
from repro.kernel.writeback import LaptopModeWriteback, WritebackConfig
from repro.sim.clock import MB
from tests.kernel.test_vfs import counted_read, kernel_with_files


class TestSequentialScan:
    def test_device_traffic_close_to_file_size(self):
        """Streaming a file reads each byte from the device once —
        readahead must not multiply traffic."""
        kernel = kernel_with_files({1: 8 * MB}, 32 * MB)
        device_bytes = 0
        offset = 0
        while offset < 8 * MB:
            fetches = kernel.read(1, 1, offset, 64 * 1024, now=offset / 1e6)
            device_bytes += sum(extent.nbytes for extent in fetches)
            offset += 64 * 1024
        assert 8 * MB <= device_bytes <= 8 * MB * 1.05

    def test_steady_state_reads_are_fully_prefetched(self):
        """Once the window is open, most demand reads hit the cache."""
        kernel = kernel_with_files({1: 8 * MB}, 32 * MB)
        hits = 0
        total = 0
        offset = 0
        while offset < 8 * MB:
            _, demand_hits, demand_misses = counted_read(
                kernel, 1, 1, offset, 64 * 1024, now=0.0)
            hits += demand_hits
            total += demand_hits + demand_misses
            offset += 64 * 1024
        assert hits / total > 0.4


class TestWorkingSetResidency:
    def test_hot_set_survives_one_scan(self):
        """make's header files must stay cached through a source scan
        (2Q's scan resistance through the full stack)."""
        hot, scan = 1, 2
        kernel = kernel_with_files({hot: 512 * 1024, scan: 64 * MB}, 16 * MB)
        # Touch the header set several times to promote it.
        for round_ in range(3):
            kernel.read(100 + round_, hot, 0, 512 * 1024, now=0.0)
        # A 64 MB scan through the 16 MB cache.
        offset = 0
        while offset < 64 * MB:
            kernel.read(200, scan, offset, 128 * 1024, now=1.0)
            offset += 128 * 1024
        assert kernel.resident_bytes(hot, 0, 512 * 1024) > 256 * 1024

    def test_capacity_bounded_under_pressure(self):
        kernel = kernel_with_files({1: 64 * MB}, 4 * MB)
        offset = 0
        while offset < 64 * MB:
            kernel.read(1, 1, offset, 128 * 1024, now=0.0)
            offset += 128 * 1024
        assert len(kernel.cache) <= kernel.cache.capacity


class TestWritePathIntegration:
    def test_write_then_read_hits_cache(self):
        kernel = kernel_with_files({5: 256 * 1024}, 16 * MB)
        kernel.write(1, 5, 0, 256 * 1024, now=0.0)
        assert kernel.read(1, 5, 0, 256 * 1024, now=1.0) == []

    def test_dirty_data_flushes_once(self):
        kernel = kernel_with_files({5: 256 * 1024}, 16 * MB)
        kernel.write(1, 5, 0, 256 * 1024, now=0.0)
        first = kernel.plan_writeback(1.0, disk_active=True)
        second = kernel.plan_writeback(2.0, disk_active=True)
        assert sum(e.npages for e in first) == 64
        assert second == []

    def test_rewrite_after_flush_redirties(self):
        kernel = kernel_with_files({5: 4096}, 16 * MB)
        kernel.write(1, 5, 0, 4096, now=0.0)
        kernel.plan_writeback(1.0, disk_active=True)
        kernel.write(1, 5, 0, 4096, now=2.0)
        assert kernel.writeback.dirty_count == 1
        flushed = kernel.plan_writeback(3.0, disk_active=True)
        assert sum(e.npages for e in flushed) == 1

    def test_eviction_under_write_pressure_flushes_dirty(self):
        """Writing far past the cache size forces dirty evictions, all
        of which must surface as immediate flush extents."""
        kernel = kernel_with_files({5: 4 * MB}, 1 * MB)
        kernel.writeback = LaptopModeWriteback(
            kernel.cache, WritebackConfig(max_age=1e9,
                                       dirty_limit_pages=10**6))
        forced_pages = 0
        for i in range(1024):          # 4 MB of writes into 1 MB cache
            forced = kernel.write(1, 5, i * PAGE_SIZE, PAGE_SIZE,
                               now=float(i))
            forced_pages += sum(e.npages for e in forced)
        resident_dirty = len(kernel.cache.dirty_pages())
        assert forced_pages + resident_dirty == 1024


class TestInterleavedStreams:
    def test_two_streams_keep_independent_windows(self):
        """grep's per-file streams: interleaving two sequential readers
        must not destroy either one's readahead."""
        kernel = kernel_with_files({1: 4 * MB, 2: 4 * MB}, 32 * MB)
        hits = {1: 0, 2: 0}
        total = {1: 0, 2: 0}
        for step in range(32):
            for inode in (1, 2):
                offset = step * 128 * 1024
                _, demand_hits, demand_misses = counted_read(
                    kernel, inode, inode, offset, 128 * 1024, now=float(step))
                hits[inode] += demand_hits
                total[inode] += demand_hits + demand_misses
        for inode in (1, 2):
            assert hits[inode] / total[inode] > 0.3, inode
