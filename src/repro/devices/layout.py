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

from collections.abc import Mapping
from dataclasses import dataclass

from repro.sim.rng import make_rng
from repro.units import Bytes

#: Block size used throughout the kernel path (Linux page size).
BLOCK_SIZE: int = 4096

#: Largest gap, in blocks, drawn between two consecutive files.
MAX_GAP_BLOCKS: int = 16


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


class DiskLayout:
    """Sequential per-file placement with small random inter-file gaps.

    ``files`` maps inode to size in bytes; the files are placed in its
    order (which the trace generators make creation order), matching
    how a freshly hoarded data set lands on a laptop disk.  Each file
    but the first is preceded by a gap uniform in ``[0, MAX_GAP_BLOCKS]``,
    all drawn at once from the seed's stream, and every file takes at
    least one block, empty ones included.  A layout is placed in full
    when built and never changes afterwards, so replays share it.
    """

    def __init__(self, seed: int, files: Mapping[int, Bytes]) -> None:
        gaps: list[int] = make_rng(seed, "disk-layout").integers(
            0, MAX_GAP_BLOCKS + 1, size=max(len(files) - 1, 0)).tolist()
        start = 0
        placed: dict[int, FileExtentMap] = {}
        # The first file draws no gap; an empty table zips to nothing.
        for (inode, size), gap in zip(files.items(), [0, *gaps],
                                      strict=False):
            nblocks = max(1, bytes_to_blocks(size))
            start += gap
            placed[inode] = FileExtentMap(inode, start, nblocks)
            start += nblocks
        self._files = placed

    @property
    def files(self) -> Mapping[int, FileExtentMap]:
        """Read-only view: inode -> placement, in placement order."""
        return self._files

    def get(self, inode: int) -> FileExtentMap:
        """Extent map for ``inode`` (KeyError if unknown)."""
        return self._files[inode]

    def __contains__(self, inode: int) -> bool:
        return inode in self._files
