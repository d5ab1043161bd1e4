"""Kernel-path integration tests: cache + readahead + write-back acting
together through the VFS, on access patterns the workloads actually
produce."""


from repro.kernel.page import PAGE_SIZE
from repro.kernel.vfs import VirtualFileSystem
from repro.kernel.writeback import WritebackConfig
from repro.sim.clock import MB
from tests.kernel.test_vfs import counted_read


def fetch_all(vfs, fetches, now=0.0):
    total = 0
    for extent in fetches:
        vfs.complete_fetch(extent, now)
        total += extent.nbytes
    return total


class TestSequentialScan:
    def test_device_traffic_close_to_file_size(self):
        """Streaming a file reads each byte from the device once —
        readahead must not multiply traffic."""
        vfs = VirtualFileSystem(32 * MB)
        vfs.register_file(1, 8 * MB)
        device_bytes = 0
        offset = 0
        while offset < 8 * MB:
            fetches = vfs.read(1, 1, offset, 64 * 1024, now=offset / 1e6)
            device_bytes += fetch_all(vfs, fetches)
            offset += 64 * 1024
        assert 8 * MB <= device_bytes <= 8 * MB * 1.05

    def test_steady_state_reads_are_fully_prefetched(self):
        """Once the window is open, most demand reads hit the cache."""
        vfs = VirtualFileSystem(32 * MB)
        vfs.register_file(1, 8 * MB)
        hits = 0
        total = 0
        offset = 0
        while offset < 8 * MB:
            fetches, demand_hits, demand_misses = counted_read(
                vfs, 1, 1, offset, 64 * 1024, now=0.0)
            fetch_all(vfs, fetches)
            hits += demand_hits
            total += demand_hits + demand_misses
            offset += 64 * 1024
        assert hits / total > 0.4


class TestWorkingSetResidency:
    def test_hot_set_survives_one_scan(self):
        """make's header files must stay cached through a source scan
        (2Q's scan resistance through the full stack)."""
        vfs = VirtualFileSystem(16 * MB)
        hot = 1
        vfs.register_file(hot, 512 * 1024)
        # Touch the header set several times to promote it.
        for round_ in range(3):
            fetch_all(vfs, vfs.read(100 + round_, hot, 0, 512 * 1024,
                                    now=0.0))
        # A 64 MB scan through the 16 MB cache.
        scan = 2
        vfs.register_file(scan, 64 * MB)
        offset = 0
        while offset < 64 * MB:
            fetch_all(vfs, vfs.read(200, scan, offset, 128 * 1024,
                                    now=1.0), now=1.0)
            offset += 128 * 1024
        assert vfs.resident_bytes(hot, 0, 512 * 1024) > 256 * 1024

    def test_capacity_bounded_under_pressure(self):
        vfs = VirtualFileSystem(4 * MB)
        vfs.register_file(1, 64 * MB)
        offset = 0
        while offset < 64 * MB:
            fetch_all(vfs, vfs.read(1, 1, offset, 128 * 1024, now=0.0))
            offset += 128 * 1024
        assert len(vfs.cache) <= vfs.cache.capacity


class TestWritePathIntegration:
    def test_write_then_read_hits_cache(self):
        vfs = VirtualFileSystem(16 * MB)
        vfs.write(1, 5, 0, 256 * 1024, now=0.0)
        assert vfs.read(1, 5, 0, 256 * 1024, now=1.0) == []

    def test_dirty_data_flushes_once(self):
        vfs = VirtualFileSystem(16 * MB)
        vfs.write(1, 5, 0, 256 * 1024, now=0.0)
        first = vfs.plan_writeback(1.0, disk_active=True)
        second = vfs.plan_writeback(2.0, disk_active=True)
        assert sum(e.npages for e in first) == 64
        assert second == []

    def test_rewrite_after_flush_redirties(self):
        vfs = VirtualFileSystem(16 * MB)
        vfs.write(1, 5, 0, 4096, now=0.0)
        vfs.plan_writeback(1.0, disk_active=True)
        vfs.write(1, 5, 0, 4096, now=2.0)
        assert vfs.writeback.dirty_count == 1
        flushed = vfs.plan_writeback(3.0, disk_active=True)
        assert sum(e.npages for e in flushed) == 1

    def test_eviction_under_write_pressure_flushes_dirty(self):
        """Writing far past the cache size forces dirty evictions, all
        of which must surface as immediate flush extents."""
        vfs = VirtualFileSystem(1 * MB,
                                writeback_config=WritebackConfig(
                                    max_age=1e9,
                                    dirty_limit_pages=10**6))
        forced_pages = 0
        for i in range(1024):          # 4 MB of writes into 1 MB cache
            forced = vfs.write(1, 5, i * PAGE_SIZE, PAGE_SIZE,
                               now=float(i))
            forced_pages += sum(e.npages for e in forced)
        resident_dirty = len(vfs.cache.dirty_pages())
        assert forced_pages + resident_dirty == 1024


class TestInterleavedStreams:
    def test_two_streams_keep_independent_windows(self):
        """grep's per-file streams: interleaving two sequential readers
        must not destroy either one's readahead."""
        vfs = VirtualFileSystem(32 * MB)
        vfs.register_file(1, 4 * MB)
        vfs.register_file(2, 4 * MB)
        hits = {1: 0, 2: 0}
        total = {1: 0, 2: 0}
        for step in range(32):
            for inode in (1, 2):
                offset = step * 128 * 1024
                fetches, demand_hits, demand_misses = counted_read(
                    vfs, inode, inode, offset, 128 * 1024, now=float(step))
                fetch_all(vfs, fetches)
                hits[inode] += demand_hits
                total[inode] += demand_hits + demand_misses
        for inode in (1, 2):
            assert hits[inode] / total[inode] > 0.3, inode
