"""Unit and property tests for page/extent algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.page import (
    MAX_READAHEAD_PAGES,
    PAGE_SIZE,
    Extent,
    PageId,
    coalesce,
    pages_of_range,
    runs_from_pages,
)
from repro.kernel.readahead import TwoWindowReadahead
from tests.kernel.test_vfs import kernel_with_file


def cold_fetches(npages, max_pages=MAX_READAHEAD_PAGES):
    """Fetches of a cold ``npages`` read at page 1 of a fresh kernel
    path: a first access away from offset 0 opens no readahead window,
    so the fetches are the demand pages split at ``max_pages``."""
    kernel = kernel_with_file(size=(npages + 1) * PAGE_SIZE)
    kernel.readahead = TwoWindowReadahead(min_pages=1, max_pages=max_pages)
    return kernel.read(1, 1, PAGE_SIZE, npages * PAGE_SIZE, now=0.0)


class TestExtent:
    def test_basic_properties(self):
        e = Extent(1, 4, 3)
        assert e.end == 7
        assert e.nbytes == 3 * PAGE_SIZE
        assert list(e.pages()) == [PageId(1, 4), PageId(1, 5), PageId(1, 6)]

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            Extent(1, 0, 0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Extent(1, -1, 1)

    def test_intersects(self):
        assert Extent(1, 0, 4).intersects(Extent(1, 3, 2))
        assert not Extent(1, 0, 4).intersects(Extent(1, 4, 2))
        assert not Extent(1, 0, 4).intersects(Extent(2, 0, 4))

    def test_merge_adjacent(self):
        merged = Extent(1, 0, 4).merge(Extent(1, 4, 2))
        assert merged == Extent(1, 0, 6)

    def test_merge_overlapping(self):
        merged = Extent(1, 0, 4).merge(Extent(1, 2, 5))
        assert merged == Extent(1, 0, 7)

    def test_merge_disjoint_rejected(self):
        with pytest.raises(ValueError):
            Extent(1, 0, 2).merge(Extent(1, 5, 2))
        with pytest.raises(ValueError):
            Extent(1, 0, 2).merge(Extent(2, 2, 2))

    def test_clamp(self):
        assert Extent(1, 0, 10).clamp(4) == Extent(1, 0, 4)
        assert Extent(1, 5, 5).clamp(5) is None
        assert Extent(1, 0, 3).clamp(10) == Extent(1, 0, 3)


class TestPagesOfRange:
    def test_page_aligned(self):
        assert pages_of_range(1, 0, PAGE_SIZE) == Extent(1, 0, 1)
        assert pages_of_range(1, PAGE_SIZE, 2 * PAGE_SIZE) == Extent(1, 1, 2)

    def test_straddles_boundary(self):
        assert pages_of_range(1, PAGE_SIZE - 1, 2) == Extent(1, 0, 2)

    def test_sub_page(self):
        assert pages_of_range(1, 100, 50) == Extent(1, 0, 1)

    def test_zero_size_is_none(self):
        assert pages_of_range(1, 0, 0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pages_of_range(1, -1, 5)


class TestCoalesce:
    def test_merges_adjacent_runs(self):
        out = coalesce([Extent(1, 4, 2), Extent(1, 0, 4)])
        assert out == [Extent(1, 0, 6)]

    def test_keeps_disjoint_runs(self):
        out = coalesce([Extent(1, 0, 2), Extent(1, 8, 2)])
        assert out == [Extent(1, 0, 2), Extent(1, 8, 2)]

    def test_different_files_never_merge(self):
        out = coalesce([Extent(1, 0, 2), Extent(2, 2, 2)])
        assert len(out) == 2

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 50),
                              st.integers(1, 8)), max_size=30))
    def test_coalesce_preserves_page_set(self, raw):
        extents = [Extent(i, s, n) for i, s, n in raw]
        pages_before = {p for e in extents for p in e.pages()}
        out = coalesce(extents)
        pages_after = {p for e in out for p in e.pages()}
        assert pages_before == pages_after
        # Output has no mergeable neighbours.
        for a, b in zip(out, out[1:], strict=False):
            assert not a.adjacent_or_overlapping(b)


class TestRunsFromPages:
    def test_groups_contiguous(self):
        pages = [PageId(1, 0), PageId(1, 1), PageId(1, 3), PageId(2, 4)]
        assert runs_from_pages(pages) == [
            Extent(1, 0, 2), Extent(1, 3, 1), Extent(2, 4, 1)]

    def test_deduplicates(self):
        pages = [PageId(1, 0), PageId(1, 0), PageId(1, 1)]
        assert runs_from_pages(pages) == [Extent(1, 0, 2)]

    @given(st.sets(st.tuples(st.integers(1, 2), st.integers(0, 100)),
                   max_size=50))
    def test_round_trip(self, raw):
        pages = {PageId(i, n) for i, n in raw}
        runs = runs_from_pages(pages)
        assert {p for e in runs for p in e.pages()} == pages

    @staticmethod
    def _reference(pages):
        """One one-page extent per distinct page, each merged into its
        predecessor when they touch."""
        out = []
        for inode, index in sorted(set(pages)):
            if out and out[-1].inode == inode and out[-1].end == index:
                out[-1] = Extent(inode, out[-1].start, out[-1].npages + 1)
            else:
                out.append(Extent(inode, index, 1))
        return out

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 40)),
                    max_size=120))
    def test_matches_the_page_at_a_time_grouping(self, raw):
        """Unordered input with repeats over several inodes, as plain
        tuples (the cache's eviction order) and as PageIds."""
        want = self._reference(raw)
        assert runs_from_pages(raw) == want
        assert runs_from_pages([PageId(*page) for page in raw]) == want


class TestSplitMaxPages:
    """The kernel path's read splits each miss run at the readahead
    cap."""

    def test_within_limit_unchanged(self):
        assert cold_fetches(10) == [Extent(1, 1, 10)]

    def test_splits_at_limit(self):
        out = cold_fetches(70)
        assert out == [Extent(1, 1, 32), Extent(1, 33, 32),
                       Extent(1, 65, 6)]

    def test_max_readahead_is_128kb(self):
        assert MAX_READAHEAD_PAGES * PAGE_SIZE == 128 * 1024

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            TwoWindowReadahead(min_pages=1, max_pages=0)

    @given(st.integers(1, 200), st.integers(1, 64))
    def test_split_preserves_coverage(self, npages, limit):
        parts = cold_fetches(npages, limit)
        assert all(p.npages <= limit for p in parts)
        assert sum(p.npages for p in parts) == npages
        assert parts[0].start == 1
        for a, b in zip(parts, parts[1:], strict=False):
            assert a.end == b.start
