"""The shared device cost model (§2.2).

"In order to estimate execution times and energy costs for servicing
I/O requests on various data sources, we need to calculate the length of
period of time when a device stays at each power mode.  To this end, we
maintain an on-line simulator for each device to emulate their power
saving policies."

Every (time, energy) what-if number in the reproduction comes from this
module — stage replays for FlexFetch and the clairvoyant oracle,
per-request marginal costs and the ghost-hint investment for BlueFS,
and the §2.3.3 spinning-disk marginal used by the stage audit.  The
policies themselves never touch device arithmetic; they consult the
:class:`CostModel` the :class:`~repro.core.system.MobileSystem` wires
over its live devices.

The on-line simulator here is the device model itself: each estimate
runs the device's own step function (:func:`~repro.devices.disk.disk_step`,
:func:`~repro.devices.wnic.wnic_step`) on a what-if copy of its core,
so it starts from the device's *actual* current power state and charges
every bucket exactly as the live device would.  It replays the stage's
bursts closed-loop: requests within a burst go back-to-back, inter-burst
think times advance the copy's clock and let its DPM policy fire —
which is precisely what charges Disk-only for idle watts between sparse
bursts and the WNIC for CAM/PSM cycling.

The §2.3.2 buffer-cache filter is applied before estimation: profiled
requests whose data is resident in the page cache are shrunk or dropped.

There is one evaluation path (DESIGN.md §16).  A stage — a range of a
profile's precompiled :class:`~repro.core.profile.ProfileColumns`, or
request lists lowered to the same columns — is packed into flat
per-request columns (cache-filtered sizes, direction, disk placement),
then walked through the step.  This module holds no device arithmetic
of its own; the test suite still holds the walk to a literal
clone-and-replay oracle with Hypothesis, which checks the plumbing
around the step (packing, cache filter, placement, thinks, baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from itertools import islice
from typing import Protocol

from repro.core.burst import IOBurst
from repro.core.decision import DataSource
from repro.core.profile import ExecutionProfile, ProfileColumns
from repro.devices.disk import HardDisk, disk_step
from repro.devices.layout import DiskLayout
from repro.devices.wnic import Direction, WirelessNic, wnic_step
from repro.traces.record import OpType
from repro.units import Bytes, Joules, Seconds


@dataclass(frozen=True, slots=True)
class StageEstimate:
    """Estimated cost of servicing a stage from one data source."""

    source: DataSource
    time: Seconds
    energy: Joules
    nbytes: Bytes
    requests: int


@dataclass(frozen=True, slots=True)
class MarginalCost:
    """Estimated (time, energy) of one request given current device state."""

    time: Seconds
    energy: Joules


class ResidencyOracle(Protocol):
    """Anything that can answer 'how much of this range is cached?'."""

    def resident_bytes(self, inode: int, offset: int, size: int) -> Bytes: ...


def replay_stage(source: DataSource,
                 device: HardDisk | WirelessNic,
                 bursts: Sequence[IOBurst],
                 thinks: Sequence[float],
                 *,
                 now: Seconds,
                 layout: DiskLayout | None = None,
                 vfs: ResidencyOracle | None = None,
                 other_device: HardDisk | WirelessNic | None = None,
                 min_duration: Seconds | None = None) -> StageEstimate:
    """Replay a stage through a what-if copy of ``device`` from ``now``.

    ``thinks[i]`` follows ``bursts[i]``; the trailing think is not
    charged (it belongs to the next stage).  The estimate's ``time`` is
    from ``now`` to the completion of the last request plus the enclosed
    thinks; ``energy`` is the copy's consumption over that interval.

    When ``other_device`` is given, its copy is advanced (unused) over
    the same interval and its baseline draw — including any DPM
    transitions its idleness triggers — is added to the estimate.  This
    keeps the disk-vs-network comparison honest: choosing the disk still
    pays the WNIC's PSM idle watts, and choosing the network lets an
    active disk time out and spin down.

    ``min_duration`` extends the measured interval to at least that many
    seconds past ``now`` — the stage-end audit uses it so a stage whose
    requests finished early still charges the serving device's trailing
    idle, exactly as the measured side does.
    """
    if len(bursts) != len(thinks):
        raise ValueError("bursts and thinks must align")
    cols = ProfileColumns(b.requests for b in bursts)
    placed = _placed_blocks(
        cols, layout if isinstance(device, HardDisk) else None)
    pack = _PackedStage(cols, 0, len(bursts), placed, vfs)
    return _replay_packed(source, device, pack, thinks, now=now,
                          other_device=other_device,
                          min_duration=min_duration)


def _placed_blocks(cols: ProfileColumns,
                   layout: DiskLayout | None) -> list[int | None]:
    """Disk block of each request's first page, ``None`` when unplaced.

    Profiled offsets come from a *prior* run and may exceed the current
    file (different data set): an inode the layout does not know, or a
    profiled offset past the current file, falls back to an average
    seek.
    """
    placed: list[int | None] = []
    for inode, offset in zip(cols.inodes, cols.offsets, strict=True):
        block = None
        if layout is not None and inode in layout:
            ext = layout.get(inode)
            rel = offset // 4096
            if rel < ext.nblocks:
                block = ext.start_block + rel
        placed.append(block)
    return placed


class _PackedStage:
    """Device-independent flat columns for one cache-filtered stage.

    One instance serves both sides of a :meth:`CostModel.stage_pair`:
    the §2.3.2 cache filter runs once over the column range, and each
    device's step reads the columns it needs.
    """

    __slots__ = ("counts", "sizes", "blocks", "nblocks", "recv",
                 "total_bytes", "total_requests")

    def __init__(self, cols: ProfileColumns, first: int, stop: int,
                 placed: Sequence[int | None],
                 vfs: ResidencyOracle | None) -> None:
        """Pack bursts ``first:stop`` of ``cols``.

        ``placed`` is :func:`_placed_blocks` of ``cols``; with ``vfs``
        the §2.3.2 cache filter drops fully resident reads and shrinks
        partially resident ones by their resident bytes (an
        approximation that preserves totals).  Writes always dirty
        pages regardless of residency, so they pass unfiltered.
        """
        inodes = cols.inodes
        offsets = cols.offsets
        col_sizes = cols.sizes
        reads = cols.reads
        bounds = cols.bounds
        resident_bytes = vfs.resident_bytes if vfs is not None else None
        counts: list[int] = []
        sizes: list[int] = []
        kept: list[int] = []
        for b in range(first, stop):
            before = len(kept)
            for i in range(bounds[b], bounds[b + 1]):
                size = col_sizes[i]
                if reads[i] and resident_bytes is not None:
                    resident = resident_bytes(inodes[i], offsets[i], size)
                    if resident > 0:
                        size -= resident
                        if size <= 0:
                            continue
                kept.append(i)
                sizes.append(size)
            counts.append(len(kept) - before)
        blocks = [placed[i] for i in kept]
        recv = [reads[i] for i in kept]
        nblocks = [0 if block is None else -(-size // 4096)
                   for block, size in zip(blocks, sizes, strict=True)]
        self.counts = counts
        self.sizes = sizes
        self.blocks = blocks
        self.nblocks = nblocks
        self.recv = recv
        self.total_bytes = sum(sizes)
        self.total_requests = len(sizes)


def _replay_packed(source: DataSource,
                   device: HardDisk | WirelessNic,
                   pack: _PackedStage,
                   thinks: Sequence[float], *,
                   now: Seconds,
                   other_device: HardDisk | WirelessNic | None,
                   min_duration: Seconds | None) -> StageEstimate:
    end_floor = now + min_duration if min_duration is not None else None
    t, energy = _walk(device, pack, thinks, now, end_floor)
    if other_device is not None:
        other_end = t if t >= now else now
        _, other_energy = _walk(other_device, None, (), now, other_end)
        energy += other_energy
    return StageEstimate(source=source, time=max(0.0, t - now),
                         energy=energy, nbytes=pack.total_bytes,
                         requests=pack.total_requests)


def _walk(device: HardDisk | WirelessNic, pack: _PackedStage | None,
          thinks: Sequence[float], now: Seconds,
          end_floor: float | None) -> tuple[float, float]:
    """Replay packed requests through ``device``'s own step, on a
    what-if copy of its core starting at ``now``.

    Requests within a burst go back to back; each think advances the
    copy, so its DPM timeouts fire in between.  Without a ``pack`` the
    copy only idles up to ``end_floor`` (the other device's baseline).
    The copy's spin-down policy is a clone: the live one is never fed
    back to.  Returns ``(end_time, max(0.0, energy_delta))``.
    """
    step: Callable[..., tuple[float, float, float]] = (
        disk_step if isinstance(device, HardDisk) else wnic_step)
    core = device.core.what_if()
    step(core, now)
    e0 = core.total()
    t = now
    if pack is not None:
        requests = zip(pack.sizes, pack.recv, pack.blocks, pack.nblocks,
                       strict=True)
        last = len(pack.counts) - 1
        for b, count in enumerate(pack.counts):
            for size, recv, block, nblocks in islice(requests, count):
                t = step(core, t, size, recv, block, nblocks)[2]
            if b != last:
                t += thinks[b]
                step(core, t)
    if end_floor is not None and end_floor > t:
        t = end_floor
    step(core, t)
    delta = core.total() - e0
    return t, (delta if delta > 0.0 else 0.0)


class CostModel:
    """What-if cost oracle bound to a system's devices and disk layout.

    One instance lives on each
    :class:`~repro.core.system.MobileSystem` (as ``env.cost_model``).
    All estimates run on what-if copies; the live devices are only ever
    *advanced* (idempotent forward in time), never serviced.
    """

    def __init__(self, disk: HardDisk, wnic: WirelessNic,
                 layout: DiskLayout | None = None) -> None:
        self.disk = disk
        self.wnic = wnic
        self.layout = layout
        # Per-device constants, computed once instead of per request.
        # Specs are frozen dataclasses, so these can never go stale; the
        # expressions mirror the spec properties exactly so every float
        # is bit-identical to the recomputed form.
        spec = disk.spec
        self._disk_access_time: Seconds = (spec.avg_seek_time
                                           + spec.avg_rotation_time)
        self._disk_bandwidth_bps = spec.bandwidth_bps
        self._disk_active_above_idle: float = (spec.active_power
                                               - spec.idle_power)
        self._disk_transition_investment: Joules = (spec.spinup_energy
                                                    + spec.spindown_energy)
        #: (columns, layout file count, placed blocks) of the last
        #: profile :meth:`stage_pair` packed.
        self._placed_cache: tuple[ProfileColumns, int,
                                  list[int | None]] | None = None

    # -- stage-granular estimates --------------------------------------
    def stage_estimate(self, source: DataSource,
                       bursts: Sequence[IOBurst],
                       thinks: Sequence[float], *,
                       now: Seconds,
                       vfs: ResidencyOracle | None = None,
                       include_other: bool = True,
                       min_duration: Seconds | None = None,
                       disk: HardDisk | None = None,
                       wnic: WirelessNic | None = None) -> StageEstimate:
        """One scenario's estimate for a stage.

        ``disk``/``wnic`` override the live devices (FlexFetch-static
        estimates from pristine devices, blind to the runtime states);
        ``include_other=False`` drops the idle cross-baseline — the
        stage-end audit compares single-device energies.
        """
        d = disk if disk is not None else self.disk
        w = wnic if wnic is not None else self.wnic
        device: HardDisk | WirelessNic = \
            d if source is DataSource.DISK else w
        other: HardDisk | WirelessNic | None = None
        if include_other:
            other = w if source is DataSource.DISK else d
        return replay_stage(source, device, bursts, thinks, now=now,
                            layout=self.layout, vfs=vfs,
                            other_device=other,
                            min_duration=min_duration)

    def stage_pair(self, profile: ExecutionProfile, first: int, stop: int,
                   *, now: Seconds,
                   vfs: ResidencyOracle | None = None,
                   disk: HardDisk | None = None,
                   wnic: WirelessNic | None = None
                   ) -> tuple[StageEstimate, StageEstimate]:
        """Both scenarios' estimates for bursts ``first:stop`` of
        ``profile``, cross-baselines included.

        The pair is the hot call of FlexFetch's stage loop.  The §2.3.2
        cache filter runs once over the profile's precompiled columns
        and the one :class:`_PackedStage` feeds both walks; disk
        placement comes from :meth:`_placed`, looked up once per
        profile and layout.
        """
        d_dev = disk if disk is not None else self.disk
        w_dev = wnic if wnic is not None else self.wnic
        thinks = profile.thinks[first:stop]
        cols = profile.columns
        pack = _PackedStage(cols, first, stop, self._placed(cols), vfs)
        return (_replay_packed(DataSource.DISK, d_dev, pack, thinks,
                               now=now, other_device=w_dev,
                               min_duration=None),
                _replay_packed(DataSource.NETWORK, w_dev, pack, thinks,
                               now=now, other_device=d_dev,
                               min_duration=None))

    def _placed(self, cols: ProfileColumns) -> list[int | None]:
        """:func:`_placed_blocks` of ``cols`` over this system's layout.

        Computed on the first decision, once every file is registered,
        and kept while the layout holds the same files: ``add_file``
        never moves a placed file, so only a grown layout invalidates.
        """
        layout = self.layout
        nfiles = len(layout) if layout is not None else 0
        cached = self._placed_cache
        if cached is None or cached[0] is not cols or cached[1] != nfiles:
            cached = (cols, nfiles, _placed_blocks(cols, layout))
            self._placed_cache = cached
        return cached[2]

    # -- per-request marginal costs (BlueFS's myopic view) -------------
    def marginal_pair(self, now: Seconds, nbytes: Bytes,
                      op: OpType) -> tuple[MarginalCost, MarginalCost]:
        """(disk, network) marginal cost of one request *right now*.

        Advances the live devices to ``now`` first so a pending DPM
        timeout (spin-down, CAM->PSM) is reflected in the device state
        the estimate starts from.
        """
        self.disk.advance_to(now)
        self.wnic.advance_to(now)
        t_d, e_d = self.disk.estimate_service(nbytes)
        direction = Direction.RECV if op is OpType.READ else Direction.SEND
        t_n, e_n = self.wnic.estimate_service(nbytes, direction=direction)
        return MarginalCost(t_d, e_d), MarginalCost(t_n, e_n)

    def disk_marginal(self, nbytes: Bytes, *,
                      from_state: str | None = None) -> MarginalCost:
        """Marginal disk cost of one request, optionally from a forced
        power state (the ghost-hint counterfactual uses IDLE)."""
        if from_state is None:
            t, e = self.disk.estimate_service(nbytes)
        else:
            t, e = self.disk.estimate_service(nbytes,
                                              from_state=from_state)
        return MarginalCost(t, e)

    # -- one-time investments and marginals ----------------------------
    def disk_transition_investment(self) -> Joules:
        """Energy of one spin-up + spin-down round trip — the
        break-even investment ghost hints must cover (§1.2)."""
        return self._disk_transition_investment

    def spinning_disk_marginal_energy(
            self, sizes: Iterable[Bytes]) -> Joules:
        """Marginal joules of servicing requests on an already-spinning
        disk: service time priced at active-above-idle watts (§2.3.3,
        "almost free" when something else keeps the disk up)."""
        access_time = self._disk_access_time
        bandwidth = self._disk_bandwidth_bps
        active_above_idle = self._disk_active_above_idle
        marginal = 0.0
        for size in sizes:
            marginal += (access_time + size / bandwidth) * active_above_idle
        return marginal
