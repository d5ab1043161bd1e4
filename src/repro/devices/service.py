"""Device service layer: a uniform front door to the storage devices.

The routing layer above speaks one verb — *transfer this many bytes of
this file now* — and each :class:`DeviceService` translates it into its
device's vocabulary: the disk service maps the file offset to a disk
block through the :class:`~repro.devices.layout.DiskLayout` (so seek
distance is real), the WNIC service picks the radio direction.  The
devices themselves own all spin-up/PSM accounting and the injected
fault paths; the services add no arithmetic of their own.

Keeping the protocol at the byte/offset level (no kernel types) is what
lets this module sit at the bottom of the layer order: ``devices`` never
imports ``kernel`` or ``core``.

``transfer`` is the replay's innermost call, once per device-bound
extent, so the chain below it is positional: the router passes the six
arguments by position, the services pass theirs to the device's
``service`` by position, and the device hands back a NamedTuple built
by position.  The frames themselves stay: the end-to-end benchmark's
tracer times ``DiskService.transfer`` and ``WnicService.transfer``.
"""

from __future__ import annotations

from typing import Protocol

from repro.devices.disk import DiskServiceResult, HardDisk
from repro.devices.layout import BLOCK_SIZE, DiskLayout
from repro.devices.wnic import Direction, WirelessNic, WnicServiceResult
from repro.units import Bytes, Seconds

#: what a device hands back for one serviced request.
ServiceOutcome = DiskServiceResult | WnicServiceResult


class DeviceService(Protocol):
    """One storage backend the router can move an extent on.

    Every implementation keeps exactly this parameter list, names and
    order, with no keyword-only marker: the router calls ``transfer``
    by position.
    """

    def transfer(self, when: Seconds, nbytes: Bytes, inode: int,
                 offset: int, npages: int,
                 direction: Direction) -> ServiceOutcome:
        """Move ``nbytes`` of ``inode`` starting at byte ``offset``.

        ``npages`` is the extent's page count (the disk's block count);
        ``direction`` is the radio direction for network backends (disk
        backends ignore it).  Returns the device's service record, whose
        ``completion``/``energy``/``failed`` fields the router consumes.
        """
        ...


class DiskService:
    """The local hard disk behind the :class:`DeviceService` protocol."""

    def __init__(self, disk: HardDisk, layout: DiskLayout) -> None:
        self.disk = disk
        self.layout = layout
        #: the layout's inode -> placement map.
        self._placed = layout.files

    def transfer(self, when: Seconds, nbytes: Bytes, inode: int,
                 offset: int, npages: int,
                 direction: Direction) -> DiskServiceResult:
        # The file's block of byte ``offset``: an unknown inode raises
        # KeyError, an offset outside the file ValueError.
        placed = self._placed[inode]
        if offset < 0:
            raise ValueError("negative offset")
        rel = offset // BLOCK_SIZE
        if rel >= placed.nblocks:
            raise ValueError(
                f"offset {offset} beyond file of {placed.nblocks} blocks")
        return self.disk.service(when, nbytes, placed.start_block + rel,
                                 npages)


class WnicService:
    """The wireless NIC behind the :class:`DeviceService` protocol."""

    def __init__(self, wnic: WirelessNic) -> None:
        self.wnic = wnic

    def transfer(self, when: Seconds, nbytes: Bytes, inode: int,
                 offset: int, npages: int,
                 direction: Direction) -> WnicServiceResult:
        return self.wnic.service(when, nbytes, direction)
