"""Disk layout: mapping traced files onto block addresses.

Per §3.2, "the blocks of the traced files are sequentially mapped to the
local hard disk with a small random distance between files to simulate a
real layout of files on the disk".  The layout is what makes same-file
sequential runs free of positioning cost while cross-file hops pay the
average seek + rotation, and it is what the C-SCAN scheduler sorts on.

Blocks here are page-sized (4 KB) to match the kernel path; the unit only
needs to be consistent, since transfer times scale with byte counts, not
block counts.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.sim.rng import make_rng
from repro.units import Bytes

#: Block size used throughout the kernel path (Linux page size).
BLOCK_SIZE: int = 4096


def bytes_to_blocks(size_bytes: Bytes) -> int:
    """Number of whole blocks covering ``size_bytes`` (ceil division)."""
    if size_bytes < 0:
        raise ValueError("negative size")
    return -(-size_bytes // BLOCK_SIZE)


@dataclass(frozen=True, slots=True)
class FileExtentMap:
    """Placement of one file: ``nblocks`` starting at ``start_block``."""

    inode: int
    start_block: int
    nblocks: int

    @property
    def end_block(self) -> int:
        """One past the last block of the file."""
        return self.start_block + self.nblocks

    def block_of(self, offset: int) -> int:
        """Absolute block containing byte ``offset`` of the file."""
        if offset < 0:
            raise ValueError("negative offset")
        rel = offset // BLOCK_SIZE
        if rel >= self.nblocks:
            raise ValueError(
                f"offset {offset} beyond file of {self.nblocks} blocks")
        return self.start_block + rel


class DiskLayout:
    """Sequential per-file placement with small random inter-file gaps.

    Files are laid out in the order they are registered (which the trace
    generators do in creation order), matching how a freshly hoarded data
    set lands on a laptop disk.  The gap between consecutive files is
    uniform in ``[0, max_gap_blocks]``.  A layout after :meth:`seal` is
    shared between replays and refuses further placement.
    """

    def __init__(self, seed: int = 0, *, max_gap_blocks: int = 16,
                 capacity_blocks: int | None = None) -> None:
        if max_gap_blocks < 0:
            raise ValueError("negative gap")
        self._rng = make_rng(seed, "disk-layout")
        self._max_gap = int(max_gap_blocks)
        self._capacity = capacity_blocks
        self._next_block = 0
        self._files: dict[int, FileExtentMap] = {}
        self._sealed = False

    def seal(self) -> None:
        """Refuse any further placement: the layout is shared now."""
        self._sealed = True

    def add_file(self, inode: int, size_bytes: Bytes) -> FileExtentMap:
        """Place a file; re-registering the same inode must match size."""
        self.add_files((inode,), (size_bytes,))
        return self._files[inode]

    def add_files(self, inodes: Iterable[int],
                  sizes: Iterable[Bytes]) -> None:
        """Place a file table in order, as :meth:`add_file` would one
        file at a time.

        Each new file but the layout's very first is preceded by a gap
        uniform in ``[0, max_gap_blocks]``.  The gaps come from one
        vectorised draw, which yields the same numbers as one scalar
        draw per file.  A re-registered inode (already placed, or
        earlier in the table) draws nothing and must match its size.
        Every file takes at least one block, empty ones included.
        Nothing is placed if any check fails, or if the layout is
        sealed.
        """
        if self._sealed:
            raise RuntimeError(
                "disk layout is sealed (shared between replays);"
                " place files on a fresh DiskLayout")
        files = self._files
        new: dict[int, int] = {}
        for inode, size_bytes in zip(inodes, sizes, strict=True):
            nblocks = max(1, bytes_to_blocks(size_bytes))
            placed = files.get(inode)
            known = new.setdefault(inode, nblocks) if placed is None \
                else placed.nblocks
            if known != nblocks:
                raise ValueError(
                    f"inode {inode} re-registered with different size")
        gaps: list[int] = self._rng.integers(
            0, self._max_gap + 1, size=max(len(new) - (not files), 0)
        ).tolist()
        if new and not files:
            gaps.insert(0, 0)
        start = self._next_block
        if (self._capacity is not None
                and start + sum(gaps) + sum(new.values()) > self._capacity):
            raise ValueError("disk layout capacity exceeded")
        for (inode, nblocks), gap in zip(new.items(), gaps, strict=True):
            start += gap
            files[inode] = FileExtentMap(inode, start, nblocks)
            start += nblocks
        self._next_block = start

    @property
    def files(self) -> Mapping[int, FileExtentMap]:
        """Live read-only view: inode -> placement, in placement order."""
        return self._files

    def get(self, inode: int) -> FileExtentMap:
        """Extent map for ``inode`` (KeyError if unknown)."""
        return self._files[inode]

    def __contains__(self, inode: int) -> bool:
        return inode in self._files

    def __len__(self) -> int:
        return len(self._files)

    @property
    def used_blocks(self) -> int:
        """High-water block mark of the layout."""
        return self._next_block

    def block_of(self, inode: int, offset: int) -> int:
        """Absolute block of byte ``offset`` in file ``inode``."""
        return self.get(inode).block_of(offset)

    def span(self) -> np.ndarray:
        """(N, 3) array of ``inode, start_block, nblocks`` rows, sorted
        by start block — handy for layout statistics and tests."""
        rows = sorted((f.start_block, f.inode, f.nblocks)
                      for f in self._files.values())
        return np.array([(i, s, n) for s, i, n in rows], dtype=np.int64) \
            if rows else np.empty((0, 3), dtype=np.int64)
