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
runs the device's own model on a what-if copy of its core, so it starts
from the device's *actual* current power state and charges every
bucket exactly as the live device would.  It replays the stage's bursts
closed-loop: requests within a burst go back-to-back, inter-burst think
times advance the copy's clock and let its DPM policy fire — which is
precisely what charges Disk-only for idle watts between sparse bursts
and the WNIC for CAM/PSM cycling.  A whole stage is one call of the
device's run (:func:`~repro.devices.disk.disk_run`,
:func:`~repro.devices.wnic.wnic_run`), bit for bit its step
(:func:`~repro.devices.disk.disk_step`,
:func:`~repro.devices.wnic.wnic_step`) called request by request: the
step serves thinks and state changes, the run the steady rest of each
burst.

The §2.3.2 buffer-cache filter is applied before estimation: profiled
requests whose data is resident in the page cache are shrunk or dropped.

There is one evaluation path (DESIGN.md §16).  A profile is packed once
per disk layout into the columns residency does not change (placement,
block counts, the read mask, cumulative bytes, each burst's read
inodes); a stage is a range of its bursts, and a decision copies only
the bursts the cache filter changes, querying residency live and only
for the inodes the cache holds.  The layout is placed in full before
any replay and never changes, so a pack never goes stale.  Each cost
model (one per session) memoises each per-request marginal cost under
the devices' power states.
Request columns (the stage audit's observed requests) are placed and
packed directly.
This module holds no device arithmetic of its own; the test suite
still holds the walk to a literal clone-and-replay oracle with
Hypothesis, which checks the plumbing around the devices (packing,
cache filter, placement, thinks, baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from collections.abc import Callable, Iterable, Sequence
from collections.abc import Set as AbstractSet
from typing import NamedTuple, Protocol
from weakref import WeakKeyDictionary

from repro.core.burst import IOBurst
from repro.core.decision import DataSource
from repro.core.profile import ExecutionProfile, ProfileColumns
from repro.devices.disk import HardDisk, disk_run, disk_step
from repro.devices.layout import DiskLayout
from repro.devices.power import PackedBurst
from repro.devices.wnic import Direction, WirelessNic, wnic_run, wnic_step
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
    """Anything that can answer 'how much of this range is cached?'.

    ``resident_inodes()`` is a set of inodes (``isdisjoint``, ``in``)
    outside which ``resident_bytes`` is 0, so the cache filter queries
    no other inode.  Both kernel surfaces answer both.
    """

    def resident_bytes(self, inode: int, offset: int, size: int) -> Bytes: ...

    def resident_inodes(self) -> AbstractSet[int]: ...


class RequestColumns(NamedTuple):
    """A stage's requests as flat columns: request ``i`` reads or
    writes ``sizes[i]`` bytes at ``offsets[i]`` of ``inodes[i]``
    (a read where ``reads[i]``), and burst ``b`` owns requests
    ``bounds[b]:bounds[b + 1]``."""

    inodes: list[int]
    offsets: list[int]
    sizes: list[int]
    reads: list[bool]
    bounds: list[int]


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
    base = _ProfilePack(ProfileColumns(b.requests for b in bursts),
                        layout if isinstance(device, HardDisk) else None)
    pack = _pack(base, 0, len(bursts), vfs)
    return _replay_packed(source, device, pack, thinks, now=now,
                          other_device=other_device,
                          min_duration=min_duration)


def _place(layout: DiskLayout | None, inodes: Sequence[int],
           offsets: Sequence[int], sizes: Sequence[int]
           ) -> tuple[list[int | None], list[int]]:
    """Each request's disk block (``None`` when unplaced) and block
    count (0 when unplaced).

    Profiled offsets come from a *prior* run and may exceed the current
    file (different data set), so an inode the layout does not know, or
    an offset past the current file, falls back to an average seek.
    """
    if layout is None:
        return [None] * len(sizes), [0] * len(sizes)
    blocks: list[int | None] = []
    nblocks: list[int] = []
    for inode, offset, size in zip(inodes, offsets, sizes, strict=True):
        block = None
        if inode in layout:
            ext = layout.get(inode)
            rel = offset // 4096
            if rel < ext.nblocks:
                block = ext.start_block + rel
        blocks.append(block)
        nblocks.append(0 if block is None else -(-size // 4096))
    return blocks, nblocks


class _ProfilePack:
    """The residency-independent columns of a profile, packed once per
    disk layout.

    ``bursts[b]`` is burst ``b`` as a :data:`PackedBurst` over the whole
    profile's columns: its sizes and read mask are the profile's own
    (see :class:`~repro.core.profile.ProfileColumns`), its blocks the
    disk block of each request's first page (see :func:`_place`).
    ``cum_bytes[i]`` is the bytes of the first ``i`` requests, and
    ``read_inodes[b]`` holds the inodes burst ``b`` reads.
    """

    __slots__ = ("inodes", "offsets", "sizes", "reads", "bounds", "blocks",
                 "nblocks", "cum_bytes", "bursts", "read_inodes")

    def __init__(self, cols: ProfileColumns,
                 layout: DiskLayout | None) -> None:
        inodes = cols.inodes
        sizes = cols.sizes
        reads = cols.reads
        blocks, nblocks = _place(layout, inodes, cols.offsets, sizes)
        bounds = cols.bounds
        self.inodes = inodes
        self.offsets = cols.offsets
        self.sizes = sizes
        self.reads = reads
        self.bounds = bounds
        self.blocks = blocks
        self.nblocks = nblocks
        self.cum_bytes = [0, *accumulate(sizes)]
        self.bursts: list[PackedBurst] = [
            (sizes, reads, blocks, nblocks, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])]
        self.read_inodes = [
            tuple({inodes[i]: None for i in range(lo, hi) if reads[i]})
            for lo, hi in zip(bounds, bounds[1:])]


class _PackedStage:
    """One cache-filtered stage: a :data:`PackedBurst` per burst.

    A burst the §2.3.2 filter left alone is the profile's own; only a
    filtered one has fresh lists.  One instance serves both sides of a
    :meth:`CostModel.stage_pair`.
    """

    __slots__ = ("bursts", "total_bytes", "total_requests")

    def __init__(self, bursts: list[PackedBurst], total_bytes: Bytes,
                 total_requests: int) -> None:
        self.bursts = bursts
        self.total_bytes = total_bytes
        self.total_requests = total_requests


def _pack(base: _ProfilePack, first: int, stop: int,
          vfs: ResidencyOracle | None) -> _PackedStage:
    """Bursts ``first:stop`` of ``base`` through the §2.3.2 cache filter.

    With ``vfs`` the filter drops fully resident reads and shrinks
    partially resident ones by their resident bytes (an approximation
    that preserves totals).  Writes always dirty pages regardless of
    residency, so they pass unfiltered.  A burst reading none of the
    inodes ``vfs.resident_inodes()`` names passes whole, and only reads
    of those inodes are queried.
    """
    bounds = base.bounds
    start, end = bounds[first], bounds[stop]
    bursts = base.bursts[first:stop]
    total_bytes = base.cum_bytes[end] - base.cum_bytes[start]
    total_requests = end - start
    if vfs is None:
        return _PackedStage(bursts, total_bytes, total_requests)
    held = vfs.resident_inodes()
    resident_bytes = vfs.resident_bytes
    read_inodes = base.read_inodes
    for b in range(first, stop):
        touched = read_inodes[b]
        if not touched or held.isdisjoint(touched):
            continue
        burst, fewer_bytes, fewer_requests = _filter_burst(
            base, b, held, resident_bytes)
        if burst is not None:
            bursts[b - first] = burst
            total_bytes -= fewer_bytes
            total_requests -= fewer_requests
    return _PackedStage(bursts, total_bytes, total_requests)


def _filter_burst(base: _ProfilePack, b: int,
                  held: AbstractSet[int],
                  resident_bytes: Callable[[int, int, int], Bytes]
                  ) -> tuple[PackedBurst | None, Bytes, int]:
    """Burst ``b`` of ``base`` through the cache filter: the filtered
    burst (``None`` when none of its reads is resident) and the bytes
    and requests the filter took out of it."""
    lo, hi = base.bounds[b], base.bounds[b + 1]
    col_sizes = base.sizes
    inodes, offsets, reads = base.inodes, base.offsets, base.reads
    # Residency of each read of a possibly cached inode: the request's
    # new size, 0 when wholly resident.
    shrunk: dict[int, int] = {}
    for i in range(lo, hi):
        if reads[i] and inodes[i] in held:
            size = col_sizes[i]
            resident = resident_bytes(inodes[i], offsets[i], size)
            if resident > 0:
                shrunk[i] = size - resident if resident < size else 0
    if not shrunk:
        return None, 0, 0
    sizes = col_sizes[lo:hi]
    recv = reads[lo:hi]
    blocks = base.blocks[lo:hi]
    nblocks = base.nblocks[lo:hi]
    fewer_bytes = fewer_requests = 0
    for i in reversed(shrunk):
        k = i - lo
        size = shrunk[i]
        if size:
            fewer_bytes += sizes[k] - size
            sizes[k] = size
            if blocks[k] is not None:
                nblocks[k] = -(-size // 4096)
        else:
            fewer_bytes += sizes[k]
            fewer_requests += 1
            del sizes[k], recv[k], blocks[k], nblocks[k]
    return (sizes, recv, blocks, nblocks, 0, len(sizes)), fewer_bytes, \
        fewer_requests


def _lower(requests: RequestColumns,
           layout: DiskLayout | None) -> _PackedStage:
    """``requests`` as one packed stage, placed on ``layout`` (``None``
    for a WNIC, which ignores placement), unfiltered."""
    sizes, reads, bounds = requests.sizes, requests.reads, requests.bounds
    blocks, nblocks = _place(layout, requests.inodes, requests.offsets,
                             sizes)
    return _PackedStage([(sizes, reads, blocks, nblocks, lo, hi)
                         for lo, hi in zip(bounds, bounds[1:])],
                        sum(sizes), len(sizes))


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

    The whole stage is one call of the device's run
    (:func:`~repro.devices.disk.disk_run`,
    :func:`~repro.devices.wnic.wnic_run`), bit for bit the step served
    request by request: requests within a burst go back to back, and
    each think advances the copy, so its DPM timeouts fire in between.
    Without a ``pack`` the copy only idles up to ``end_floor`` (the
    other device's baseline).  The copy's spin-down policy is a clone:
    the live one is never fed back to.  Returns ``(end_time, max(0.0,
    energy_delta))``.
    """
    step: Callable[..., tuple[float, float, float]]
    run: Callable[..., float]
    if isinstance(device, HardDisk):
        step, run = disk_step, disk_run
    else:
        step, run = wnic_step, wnic_run
    core = device.core.what_if()
    step(core, now)
    e0 = core.total()
    t = now if pack is None else run(core, now, pack.bursts, thinks)
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
    *advanced* (idempotent forward in time), never serviced.  The
    marginal-cost memo of :meth:`marginal_pair` lives here too, so it
    dies with the session.
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
        #: marginal costs by (disk state, WNIC state, bytes, op) and by
        #: (disk state, bytes): pure functions of the frozen specs.
        self._pairs: dict[tuple[str, str, Bytes, OpType],
                          tuple[MarginalCost, MarginalCost]] = {}
        self._disk_marginals: dict[tuple[str, Bytes], MarginalCost] = {}

    # -- stage-granular estimates --------------------------------------
    def stage_estimate(self, source: DataSource,
                       requests: RequestColumns,
                       thinks: Sequence[float], *,
                       now: Seconds,
                       include_other: bool = True,
                       min_duration: Seconds | None = None,
                       disk: HardDisk | None = None,
                       wnic: WirelessNic | None = None) -> StageEstimate:
        """One scenario's estimate for a stage of request columns, with
        ``thinks[b]`` after burst ``b`` (the stage audit's replay).

        ``disk``/``wnic`` override the live devices (estimates from
        pristine devices, blind to the runtime states);
        ``include_other=False`` drops the idle cross-baseline — the
        stage-end audit compares single-device energies.  The requests
        are placed on this system's layout and replayed unfiltered.
        """
        if len(requests.bounds) - 1 != len(thinks):
            raise ValueError("bursts and thinks must align")
        d = disk if disk is not None else self.disk
        w = wnic if wnic is not None else self.wnic
        device: HardDisk | WirelessNic = \
            d if source is DataSource.DISK else w
        other: HardDisk | WirelessNic | None = None
        if include_other:
            other = w if source is DataSource.DISK else d
        pack = _lower(requests, self.layout
                      if source is DataSource.DISK else None)
        return _replay_packed(source, device, pack, thinks, now=now,
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

        The pair is the hot call of FlexFetch's stage loop.  Everything
        residency does not change — placement, block counts, the read
        mask, each burst's read inodes — comes from :meth:`_packed`,
        once per profile and layout.  The §2.3.2 cache filter then runs
        once over the range, and the one :class:`_PackedStage` feeds
        both walks.
        """
        d_dev = disk if disk is not None else self.disk
        w_dev = wnic if wnic is not None else self.wnic
        thinks = profile.thinks[first:stop]
        base = self._packed(profile.columns)
        pack = _pack(base, first, stop, vfs)
        return (_replay_packed(DataSource.DISK, d_dev, pack, thinks,
                               now=now, other_device=w_dev,
                               min_duration=None),
                _replay_packed(DataSource.NETWORK, w_dev, pack, thinks,
                               now=now, other_device=d_dev,
                               min_duration=None))

    def _packed(self, cols: ProfileColumns) -> _ProfilePack:
        """:class:`_ProfilePack` of ``cols`` over this system's layout.

        Kept on the columns for as long as the layout lives, so every
        cost model over one layout — each cell of a plan sweep — shares
        it.  A layout never changes once placed, so neither does its
        pack.
        """
        layout = self.layout
        if layout is None:
            return _ProfilePack(cols, None)
        packs = cols.packed
        if packs is None:
            packs = cols.packed = WeakKeyDictionary()
        pack = packs.get(layout)
        if not isinstance(pack, _ProfilePack):
            pack = packs[layout] = _ProfilePack(cols, layout)
        return pack

    # -- per-request marginal costs (BlueFS's myopic view) -------------
    def marginal_pair(self, now: Seconds, nbytes: Bytes,
                      op: OpType) -> tuple[MarginalCost, MarginalCost]:
        """(disk, network) marginal cost of one request *right now*.

        Advances the live devices to ``now`` first so a pending DPM
        timeout (spin-down, CAM->PSM) is reflected in the device state
        the estimate starts from.  The estimates read only the frozen
        specs and the two power states, so the pair is memoised per
        ``(disk state, WNIC state, nbytes, op)`` for the session.
        """
        disk, wnic = self.disk, self.wnic
        disk.advance_to(now)
        wnic.advance_to(now)
        key = (disk.core.state, wnic.core.state, nbytes, op)
        pair = self._pairs.get(key)
        if pair is None:
            t_d, e_d = disk.estimate_service(nbytes)
            direction = (Direction.RECV if op is OpType.READ
                         else Direction.SEND)
            t_n, e_n = wnic.estimate_service(nbytes, direction=direction)
            pair = self._pairs[key] = (MarginalCost(t_d, e_d),
                                       MarginalCost(t_n, e_n))
        return pair

    def disk_marginal(self, nbytes: Bytes, *,
                      from_state: str | None = None) -> MarginalCost:
        """Marginal disk cost of one request, optionally from a forced
        power state (the ghost-hint counterfactual uses IDLE); memoised
        per ``(state, nbytes)`` like :meth:`marginal_pair`."""
        state = from_state or self.disk.core.state
        key = (state, nbytes)
        cost = self._disk_marginals.get(key)
        if cost is None:
            cost = self._disk_marginals[key] = MarginalCost(
                *self.disk.estimate_service(nbytes, from_state=state))
        return cost

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
