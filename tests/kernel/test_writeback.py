"""Unit tests for laptop-mode write-back."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.kernel.cache import TwoQCache
from repro.kernel.page import PAGE_SIZE, PageId
from repro.kernel.writeback import LaptopModeWriteback, WritebackConfig
from repro.sim.clock import SimulationError
from tests.conftest import make_trace
from tests.kernel.test_vfs import kernel_with_files


def setup(capacity=64, **cfg):
    cache = TwoQCache(capacity)
    wb = LaptopModeWriteback(cache, WritebackConfig(**cfg) if cfg else None)
    return cache, wb


def dirty(cache, wb, inode, index, now):
    p = PageId(inode, index)
    cache.insert(p, dirty=True, now=now)
    return p


class TestConfig:
    def test_defaults(self):
        cfg = WritebackConfig()
        assert cfg.max_age == 30.0
        assert cfg.eager_on_active

    def test_validation(self):
        with pytest.raises(ValueError):
            WritebackConfig(max_age=0)
        with pytest.raises(ValueError):
            WritebackConfig(dirty_limit_pages=0)


class TestFlushPolicy:
    def test_nothing_dirty_nothing_flushed(self):
        _, wb = setup()
        assert wb.plan_flush(10.0, disk_active=True) == []

    def test_eager_flush_on_active_disk(self):
        cache, wb = setup()
        dirty(cache, wb, 1, 0, now=1.0)
        extents = wb.plan_flush(1.5, disk_active=True)
        assert len(extents) == 1
        assert wb.dirty_count == 0
        assert not cache.is_dirty(PageId(1, 0))

    def test_standby_disk_defers_young_pages(self):
        cache, wb = setup()
        dirty(cache, wb, 1, 0, now=1.0)
        assert wb.plan_flush(5.0, disk_active=False) == []
        assert wb.dirty_count == 1

    def test_age_forces_flush_even_on_standby(self):
        cache, wb = setup(max_age=30.0)
        dirty(cache, wb, 1, 0, now=0.0)
        assert wb.plan_flush(29.0, disk_active=False) == []
        extents = wb.plan_flush(31.0, disk_active=False)
        assert len(extents) == 1

    def test_flush_takes_everything_once_due(self):
        """Laptop mode flushes ALL dirty data to maximise quiet time."""
        cache, wb = setup(max_age=30.0)
        dirty(cache, wb, 1, 0, now=0.0)     # old page
        dirty(cache, wb, 1, 1, now=29.0)    # young page
        extents = wb.plan_flush(31.0, disk_active=False)
        assert sum(e.npages for e in extents) == 2

    def test_dirty_limit_trips(self):
        cache, wb = setup(capacity=256, dirty_limit_pages=4)
        for i in range(4):
            dirty(cache, wb, 1, i, now=1.0)
        extents = wb.plan_flush(1.1, disk_active=False)
        assert sum(e.npages for e in extents) == 4

    def test_contiguous_pages_flush_as_one_extent(self):
        cache, wb = setup()
        for i in range(5):
            dirty(cache, wb, 1, i, now=1.0)
        extents = wb.plan_flush(2.0, disk_active=True)
        assert len(extents) == 1
        assert extents[0].npages == 5


class TestBookkeeping:
    def test_next_forced_flush(self):
        cache, wb = setup(max_age=30.0)
        assert wb.next_forced_flush() is None
        dirty(cache, wb, 1, 0, now=5.0)
        assert wb.next_forced_flush() == pytest.approx(35.0)

    def test_oldest_dirty_age(self):
        cache, wb = setup()
        dirty(cache, wb, 1, 0, now=2.0)
        dirty(cache, wb, 1, 1, now=6.0)
        assert wb.oldest_dirty_age(10.0) == pytest.approx(8.0)

    def test_evicted_dirty_pages_dropped_from_table(self):
        """Pages flushed by cache eviction must not be re-flushed."""
        cache, wb = setup(capacity=4)
        for i in range(10):                  # forces dirty evictions
            cache.insert(PageId(1, i), dirty=True, now=float(i))
        extents = wb.plan_flush(100.0, disk_active=True)
        flushed = {p for e in extents for p in e.pages()}
        assert all(p in cache for p in flushed)

    def test_flush_counters(self):
        cache, wb = setup()
        dirty(cache, wb, 1, 0, now=0.0)
        wb.plan_flush(1.0, disk_active=True)
        assert wb.flush_count == 1
        assert wb.flushed_pages == 1


def _conserved(kernel):
    stats = kernel.cache.stats
    return stats.dirtied == (kernel.writeback.flushed_pages
                             + stats.dirty_evictions + stats.dirty_drops
                             + kernel.writeback.dirty_count)


class TestDirtyIndexModel:
    """The cache's dirty index against a reference built from what the
    kernel path returns: written pages, minus forced-eviction extents,
    minus the pages a read's installs evicted (the cache reports its
    victims), minus flushed extents (residency places a page written
    and evicted by the same write)."""

    MAX_AGE = 10.0
    DIRTY_LIMIT = 6
    FILE_PAGES = 24

    _ops = st.lists(st.one_of(
        # Writes span at most kin (4) pages, so a page a write dirties
        # cannot be pushed out of A1in by that same write.
        st.tuples(st.just("write"), st.integers(1, 2),
                  st.integers(0, FILE_PAGES - 4), st.integers(1, 4)),
        st.tuples(st.just("read"), st.integers(1, 2),
                  st.integers(0, FILE_PAGES - 4), st.integers(1, 4)),
        st.tuples(st.just("flush"), st.booleans())),
        max_size=60)
    _gaps = st.lists(st.sampled_from([0.0, 0.5, 2.0, 7.5, 40.0]),
                     min_size=60, max_size=60)

    @settings(max_examples=150, deadline=None)
    @given(_ops, _gaps)
    def test_index_matches_reference(self, ops, gaps):
        kernel = kernel_with_files({inode: self.FILE_PAGES * PAGE_SIZE
                                 for inode in (1, 2)}, 16 * PAGE_SIZE)
        kernel.writeback = LaptopModeWriteback(
            kernel.cache, WritebackConfig(max_age=self.MAX_AGE,
                                       dirty_limit_pages=self.DIRTY_LIMIT))
        ref: dict[PageId, float] = {}
        now = 0.0
        for op, gap in zip(ops, gaps):
            now += gap
            if op[0] == "write":
                _, inode, start, npages = op
                forced = kernel.write(1, inode, start * PAGE_SIZE,
                                   npages * PAGE_SIZE, now)
                written = {PageId(inode, index)
                           for index in range(start, start + npages)}
                forced_pages = {p for e in forced for p in e.pages()}
                # A forced page was dirty before the write or dirtied by
                # it; either way its eviction cleaned it.
                for page in forced_pages:
                    assert page in ref or page in written
                    ref.pop(page, None)
                # A written page evicted before its own turn comes back
                # dirtied anew; one evicted after its turn (it sat at the
                # A1in tail) stays out.  Residency tells the two apart.
                for page in written:
                    if page in kernel.cache:
                        ref.setdefault(page, now)
                    else:
                        assert page in forced_pages
            elif op[0] == "read":
                _, inode, start, npages = op
                kernel.cache.victims = evicted = []
                kernel.read(1, inode, start * PAGE_SIZE,
                            npages * PAGE_SIZE, now)
                kernel.cache.victims = None
                # A victim was resident before the read, and a read
                # dirties nothing: a dirty one is dropped unwritten.
                for _, page in evicted:
                    ref.pop(page, None)
            else:
                disk_active = op[1]
                due = bool(ref) and (
                    disk_active
                    or now - min(ref.values()) >= self.MAX_AGE
                    or len(ref) >= self.DIRTY_LIMIT)
                flushed = {p for e in kernel.plan_writeback(
                    now, disk_active=disk_active) for p in e.pages()}
                # Laptop mode flushes everything once anything is due.
                assert flushed == (set(ref) if due else set())
                for page in flushed:
                    del ref[page]
            assert set(kernel.cache.dirty_pages()) == set(ref)
            expected = min(ref.values()) + self.MAX_AGE if ref else None
            assert kernel.writeback.next_forced_flush() == expected
            assert _conserved(kernel)


def _write_trace():
    calls = []
    for i in range(40):
        calls.append((1, i * 8192, 8192, "write", i * 0.5))
        calls.append((2, i * 16384, 16384, "read", i * 0.5 + 0.1))
    return make_trace(calls)


class TestSessionConservation:
    @staticmethod
    def _run(fast_path):
        # WNIC-only keeps the disk asleep, so nothing flushes eagerly
        # and the small cache evicts dirty pages instead.
        session = SimulationSession([ProgramSpec(_write_trace())],
                                    WnicOnlyPolicy(), seed=1,
                                    memory_bytes=32 * PAGE_SIZE)
        session.with_fast_path(fast_path).run()
        assert session.used_fast_path is fast_path
        kernel = session.env.kernel
        assert kernel.cache.stats.dirtied > 0
        assert kernel.cache.stats.dirty_evictions > 0
        assert _conserved(kernel)

    def test_event_loop_run_conserves_dirty_pages(self):
        self._run(fast_path=False)

    def test_plan_run_conserves_dirty_pages(self):
        self._run(fast_path=True)

    def test_corrupted_counter_raises(self, monkeypatch):
        real = LaptopModeWriteback.plan_flush

        def overcounting(self, now, *, disk_active):
            extents = real(self, now, disk_active=disk_active)
            if extents:
                self.flushed_pages += 1
            return extents

        monkeypatch.setattr(LaptopModeWriteback, "plan_flush",
                            overcounting)
        session = SimulationSession([ProgramSpec(_write_trace())],
                                    DiskOnlyPolicy(), seed=1)
        with pytest.raises(SimulationError, match="not conserved"):
            session.run()
