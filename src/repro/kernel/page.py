"""Page and extent algebra.

The kernel path works in 4 KB pages.  A :class:`PageId` names one page of
one file; an :class:`Extent` is a contiguous page run within a file.  The
helpers here convert byte ranges to page runs and merge runs — the
primitive operations the cache, readahead, and write-back modules share.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from typing import NamedTuple
from repro.units import Bytes

#: Page size (bytes) — matches :data:`repro.devices.layout.BLOCK_SIZE`.
PAGE_SIZE: int = 4096

#: The Linux maximum readahead window the paper cites: 128 KB = 32 pages.
MAX_READAHEAD_PAGES: int = 32


class PageId(NamedTuple):
    """Identity of one cached page: ``(inode, page_index)``."""

    inode: int
    index: int


@dataclass(frozen=True, slots=True, order=True)
class Extent:
    """A contiguous run of ``npages`` pages of ``inode`` from ``start``."""

    inode: int
    start: int
    npages: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("negative start page")
        if self.npages <= 0:
            raise ValueError("extent must cover at least one page")

    @property
    def end(self) -> int:
        """One past the last page index."""
        return self.start + self.npages

    @property
    def nbytes(self) -> Bytes:
        """Size of the extent in bytes."""
        return self.npages * PAGE_SIZE

    def pages(self) -> Iterator[PageId]:
        """Yield the PageIds covered, in order."""
        for i in range(self.start, self.end):
            yield PageId(self.inode, i)

    def intersects(self, other: Extent) -> bool:
        """Whether the two extents share any page."""
        return (self.inode == other.inode
                and self.start < other.end and other.start < self.end)

    def adjacent_or_overlapping(self, other: Extent) -> bool:
        """Whether the two extents can merge into one run."""
        return (self.inode == other.inode
                and self.start <= other.end and other.start <= self.end)

    def merge(self, other: Extent) -> Extent:
        """Union of two mergeable extents (ValueError otherwise)."""
        if not self.adjacent_or_overlapping(other):
            raise ValueError(f"cannot merge disjoint extents {self} {other}")
        start = min(self.start, other.start)
        end = max(self.end, other.end)
        return Extent(self.inode, start, end - start)

    def clamp(self, max_end: int) -> Extent | None:
        """Truncate to ``[start, max_end)``; None if nothing remains."""
        end = min(self.end, max_end)
        if end <= self.start:
            return None
        return Extent(self.inode, self.start, end - self.start)


def pages_of_range(inode: int, offset: int, size: int) -> Extent | None:
    """Page extent covering the byte range ``[offset, offset+size)``.

    Zero-byte reads touch no pages and return ``None``.
    """
    if offset < 0 or size < 0:
        raise ValueError("negative offset or size")
    if size == 0:
        return None
    first = offset // PAGE_SIZE
    last = (offset + size - 1) // PAGE_SIZE
    return Extent(inode, first, last - first + 1)


def coalesce(extents: Iterable[Extent]) -> list[Extent]:
    """Merge overlapping/adjacent extents; result sorted by (inode, start)."""
    ordered = sorted(extents)
    out: list[Extent] = []
    for ext in ordered:
        if out and out[-1].adjacent_or_overlapping(ext):
            out[-1] = out[-1].merge(ext)
        else:
            out.append(ext)
    return out


def page_runs(pages: Iterable[PageId]) -> list[tuple[int, int, int]]:
    """Group individual pages into maximal contiguous ``(inode, start,
    end)`` runs, in ``(inode, start)`` order; a repeated page counts
    once."""
    runs: list[tuple[int, int, int]] = []
    run_inode: int | None = None
    run_start = run_end = 0
    for inode, index in sorted(pages):
        if inode == run_inode:
            if index == run_end:
                run_end += 1
                continue
            if index < run_end:
                continue
        if run_inode is not None:
            runs.append((run_inode, run_start, run_end))
        run_inode, run_start, run_end = inode, index, index + 1
    if run_inode is not None:
        runs.append((run_inode, run_start, run_end))
    return runs


def runs_from_pages(pages: Iterable[PageId]) -> list[Extent]:
    """Group individual pages into maximal contiguous extents, one
    :class:`Extent` per run."""
    return [Extent(inode, start, end - start)
            for inode, start, end in page_runs(pages)]
