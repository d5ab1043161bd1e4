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

The on-line simulator here emulates a :meth:`clone` of the live device
model (so the estimate starts from the device's *actual* current power
state) replaying the stage's bursts closed-loop: requests within a burst
go back-to-back, inter-burst think times advance the clone's clock and
let its DPM policy fire — which is precisely what charges Disk-only for
idle watts between sparse bursts and the WNIC for CAM/PSM cycling.

The §2.3.2 buffer-cache filter is applied before estimation: profiled
requests whose data is resident in the page cache are shrunk or dropped.

There is one evaluation path (DESIGN.md §16).  A stage — a range of a
profile's precompiled :class:`~repro.core.profile.ProfileColumns`, or
request lists lowered to the same columns — is packed into flat
per-request columns (cache-filtered sizes, disk placement, transfer
seconds), then walked in one tight loop per device that transcribes the
device model's meter arithmetic event-for-event: the disk's fixed or
adaptive spin-down timeout and optional sleep tier, and the WNIC's CAM
path and PSM bulk transfers.  Because float addition is not
associative, the walk accumulates per-bucket energy in the exact same
order the :class:`~repro.sim.metrics.EnergyMeter` would, so it is
bit-identical to literally cloning the device and replaying request by
request — a property the test suite asserts with Hypothesis against
that clone-and-replay oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Protocol

from repro.core.burst import IOBurst
from repro.core.decision import DataSource
from repro.core.profile import ExecutionProfile, ProfileColumns
from repro.devices.disk import DiskState, HardDisk
from repro.devices.layout import DiskLayout
from repro.devices.wnic import Direction, WirelessNic, WnicMode
from repro.traces.record import OpType
from repro.units import (
    ABS_TOLERANCE,
    Bytes,
    BytesPerSecond,
    Joules,
    Seconds,
    transfer_seconds,
)

_TOL = ABS_TOLERANCE
_IDLE = DiskState.IDLE.value
_ACTIVE = DiskState.ACTIVE.value
_STANDBY = DiskState.STANDBY.value
_SLEEP = DiskState.SLEEP.value
_CAM = WnicMode.CAM.value
_PSM = WnicMode.PSM.value


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
    """Replay a stage through a clone of ``device`` starting at ``now``.

    ``thinks[i]`` follows ``bursts[i]``; the trailing think is not
    charged (it belongs to the next stage).  The estimate's ``time`` is
    from ``now`` to the completion of the last request plus the enclosed
    thinks; ``energy`` is the clone's consumption over that interval.

    When ``other_device`` is given, its clone is advanced (unused) over
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
    the §2.3.2 cache filter runs once over the column range, and the
    per-request sizes are converted to transfer seconds per device
    bandwidth on demand.
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

    def transfer_column(self,
                        bandwidth_bps: BytesPerSecond) -> list[float]:
        """Per-request transfer seconds (``size / bandwidth``)."""
        return [transfer_seconds(size, bandwidth_bps)
                for size in self.sizes]


#: shared empty stage for other-device baseline walks.
_NO_REQUESTS: _PackedStage | None = None


def _empty_pack() -> _PackedStage:
    global _NO_REQUESTS
    if _NO_REQUESTS is None:
        _NO_REQUESTS = _PackedStage(ProfileColumns(()), 0, 0, (), None)
    return _NO_REQUESTS


def _replay_packed(source: DataSource,
                   device: HardDisk | WirelessNic,
                   pack: _PackedStage,
                   thinks: Sequence[float], *,
                   now: Seconds,
                   other_device: HardDisk | WirelessNic | None,
                   min_duration: Seconds | None) -> StageEstimate:
    end_floor = now + min_duration if min_duration is not None else None
    transfers = pack.transfer_column(device.spec.bandwidth_bps)
    if isinstance(device, HardDisk):
        t, energy = _disk_walk(device, pack, transfers, thinks, now,
                               end_floor)
    else:
        t, energy = _wnic_walk(device, pack, transfers, thinks, now,
                               end_floor)
    if other_device is not None:
        other_end = t if t >= now else now
        empty = _empty_pack()
        if isinstance(other_device, HardDisk):
            _, other_energy = _disk_walk(other_device, empty, (), (),
                                         now, other_end)
        else:
            _, other_energy = _wnic_walk(other_device, empty, (), (),
                                         now, other_end)
        energy += other_energy
    return StageEstimate(source=source, time=max(0.0, t - now),
                         energy=energy, nbytes=pack.total_bytes,
                         requests=pack.total_requests)


def _disk_walk(device: HardDisk, pack: _PackedStage,
               transfers: Sequence[float], thinks: Sequence[float],
               now: Seconds, end_floor: float | None) -> tuple[float, float]:
    """Replay packed requests against a virtual clone of ``device``.

    Transcribes ``HardDisk.service`` / ``advance_to`` / ``_apply_dpm``
    and the meter's bucket accumulation into plain locals, in the exact
    event order of a cloned device — including the zero-joule
    transition impulses, whose bucket insertions fix the order
    ``EnergyMeter.total`` sums in.  The spin-down policy is cloned (the
    live one is never fed back to), and the sleep tier fires only when
    the spec enables it.  Returns ``(end_time, max(0.0, energy_delta))``.
    """
    spec = device.spec
    idle_power = spec.idle_power
    active_power = spec.active_power
    standby_power = spec.standby_power
    sleep_power = spec.sleep_power
    sleep_timeout = spec.sleep_timeout
    access_time = spec.access_time
    t2t = spec.track_to_track_time
    avg_rotation = spec.avg_rotation_time
    seek_k = (spec.avg_seek_time - t2t) * 1.5
    total_blocks = max(1, spec.capacity_bytes // 4096)
    near = HardDisk.NEAR_SEEK_BLOCKS
    policy = device.spindown_policy.clone()
    timeout = policy.timeout()
    trs = device._transitions
    sd = trs[(_IDLE, _STANDBY)]
    su = trs[(_STANDBY, _ACTIVE)]
    ia = trs[(_IDLE, _ACTIVE)]
    ai = trs[(_ACTIVE, _IDLE)]
    ts = trs[(_STANDBY, _SLEEP)]
    wk = trs[(_SLEEP, _ACTIVE)]

    # clone(): fresh meter at the live meter's clock, current draw.
    meter = device.meter
    m_last = meter.last_time
    m_power = meter.power
    state = device.state
    m_bucket = "disk." + state
    last_activity = device.last_activity
    busy_until = device.busy_until
    head = device._head_position
    quiet_since = device._quiet_since
    energy: dict[str, float] = {}
    get = energy.get

    def _advance_dpm(upto: float) -> None:
        # PowerStateMachine.advance_to + HardDisk._apply_dpm, inlined.
        nonlocal state, m_last, m_power, m_bucket, busy_until, quiet_since
        if upto <= m_last:
            return
        if state == _IDLE:
            deadline = (last_activity if last_activity >= busy_until
                        else busy_until) + timeout
            if upto >= deadline:
                dt = deadline - m_last
                if dt > 0.0 and m_power > _TOL:
                    energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
                if deadline > m_last:
                    m_last = deadline
                energy["disk.spindown"] = \
                    get("disk.spindown", 0.0) + sd.energy
                done = deadline + sd.time
                state = _STANDBY
                # transition window draws nothing; standby power after.
                if done > m_last:
                    m_last = done
                m_power = standby_power
                m_bucket = "disk.standby"
                if done > busy_until:
                    busy_until = done
                quiet_since = done
        if sleep_timeout is not None and state == _STANDBY:
            deadline = (busy_until if busy_until >= last_activity
                        else last_activity) + sleep_timeout
            if upto >= deadline:
                dt = deadline - m_last
                if dt > 0.0 and m_power > _TOL:
                    energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
                if deadline > m_last:
                    m_last = deadline
                energy["disk.to-sleep"] = \
                    get("disk.to-sleep", 0.0) + ts.energy
                done = deadline + ts.time
                state = _SLEEP
                if done > m_last:
                    m_last = done
                m_power = sleep_power
                m_bucket = "disk.sleep"
                if done > busy_until:
                    busy_until = done
        dt = upto - m_last
        if dt > 0.0 and m_power > _TOL:
            energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
        if upto > m_last:
            m_last = upto

    _advance_dpm(now)
    e0 = sum(energy.values())

    t = now
    idx = 0
    counts = pack.counts
    blocks = pack.blocks
    nblocks = pack.nblocks
    n_bursts = len(counts)
    for bi in range(n_bursts):
        for _ in range(counts[bi]):
            block = blocks[idx]
            nb = nblocks[idx]
            transfer = transfers[idx]
            idx += 1
            # service(t, ...): its advance_to(t) is a no-op here — the
            # walk keeps meter.last_time >= t at every request entry.
            start = t if t >= busy_until else busy_until
            dt = start - m_last
            if dt > 0.0 and m_power > _TOL:
                energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
            if start > m_last:
                m_last = start
            if state == _IDLE:
                energy["disk.idle->active"] = \
                    get("disk.idle->active", 0.0) + ia.energy
                done = start + ia.time
                state = _ACTIVE
                if done > m_last:
                    m_last = done
                m_power = active_power
                m_bucket = "disk.active"
                if done > busy_until:
                    busy_until = done
                # service() discards this transition's completion time.
            elif state == _STANDBY or state == _SLEEP:
                # _note_quiet_period_end(start), then the demand
                # spin-up (or, from sleep, the hard-reset wake).
                if quiet_since is not None:
                    policy.observe_quiet_period(
                        max(0.0, start - quiet_since), spec.breakeven_time)
                    quiet_since = None
                    timeout = policy.timeout()
                if state == _STANDBY:
                    energy["disk.spinup"] = \
                        get("disk.spinup", 0.0) + su.energy
                    done = start + su.time
                else:
                    energy["disk.wake"] = get("disk.wake", 0.0) + wk.energy
                    done = start + wk.time
                state = _ACTIVE
                if done > m_last:
                    m_last = done
                m_power = active_power
                m_bucket = "disk.active"
                if done > busy_until:
                    busy_until = done
                start = done
            if block is None or head is None:
                position = access_time
            else:
                distance = block - head
                if distance < 0:
                    distance = -distance
                if distance == 0:
                    position = 0.0
                elif distance <= near:
                    position = t2t
                else:
                    frac = distance / total_blocks
                    if frac > 1.0:
                        frac = 1.0
                    position = t2t + seek_k * frac ** 0.5 + avg_rotation
            first_byte = start + position
            completion = first_byte + transfer
            # set_power(start, active, "disk.active"): advance no-ops.
            m_power = active_power
            m_bucket = "disk.active"
            dt = completion - m_last
            if dt > 0.0 and m_power > _TOL:
                energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
            if completion > m_last:
                m_last = completion
            # transition(completion, IDLE)
            energy["disk.active->idle"] = \
                get("disk.active->idle", 0.0) + ai.energy
            done = completion + ai.time
            state = _IDLE
            if done > m_last:
                m_last = done
            m_power = idle_power
            m_bucket = "disk.idle"
            if done > busy_until:
                busy_until = done
            if completion > last_activity:
                last_activity = completion
            if completion > busy_until:
                busy_until = completion
            if block is not None:
                head = block + nb
            t = completion
        if bi != n_bursts - 1:
            t += thinks[bi]
            _advance_dpm(t)
    if end_floor is not None and end_floor > t:
        t = end_floor
    _advance_dpm(t)
    e1 = sum(energy.values())
    delta = e1 - e0
    return t, (delta if delta > 0.0 else 0.0)


def _wnic_walk(device: WirelessNic, pack: _PackedStage,
               transfers: Sequence[float], thinks: Sequence[float],
               now: Seconds, end_floor: float | None) -> tuple[float, float]:
    """Packed-column twin of :func:`_disk_walk` for the WNIC.

    Transcribes ``WirelessNic.service`` — the CAM path, and with PSM
    bulk transfers enabled ``_service_in_psm`` for small requests that
    find the card in PSM — and the CAM->PSM doze timeout.  Returns
    ``(end_time, max(0.0, energy_delta))``.
    """
    spec = device.spec
    cam_idle = spec.cam_idle_power
    psm_idle = spec.psm_idle_power
    cam_timeout = spec.cam_timeout
    latency = spec.latency
    recv_power = spec.cam_recv_power
    send_power = spec.cam_send_power
    psm_transfers = spec.psm_transfer_enabled
    psm_max = spec.psm_transfer_max_bytes
    psm_bandwidth = spec.bandwidth_bps * spec.psm_bandwidth_factor
    beacon = spec.beacon_interval
    psm_recv_power = spec.psm_recv_power
    psm_send_power = spec.psm_send_power
    trs = device._transitions
    doze = trs[(_CAM, _PSM)]
    wake = trs[(_PSM, _CAM)]

    meter = device.meter
    m_last = meter.last_time
    m_power = meter.power
    state = device.state
    m_bucket = "wnic." + state
    last_activity = device.last_activity
    busy_until = device.busy_until
    energy: dict[str, float] = {}
    get = energy.get

    def _advance_dpm(upto: float) -> None:
        # PowerStateMachine.advance_to + WirelessNic._apply_dpm, inlined.
        nonlocal state, m_last, m_power, m_bucket, busy_until
        if upto <= m_last:
            return
        if state == _CAM:
            deadline = (last_activity if last_activity >= busy_until
                        else busy_until) + cam_timeout
            if upto >= deadline:
                dt = deadline - m_last
                if dt > 0.0 and m_power > _TOL:
                    energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
                if deadline > m_last:
                    m_last = deadline
                energy["wnic.doze"] = get("wnic.doze", 0.0) + doze.energy
                done = deadline + doze.time
                state = _PSM
                if done > m_last:
                    m_last = done
                m_power = psm_idle
                m_bucket = "wnic.psm"
                if done > busy_until:
                    busy_until = done
        dt = upto - m_last
        if dt > 0.0 and m_power > _TOL:
            energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
        if upto > m_last:
            m_last = upto

    _advance_dpm(now)
    e0 = sum(energy.values())

    t = now
    idx = 0
    counts = pack.counts
    recvs = pack.recv
    sizes = pack.sizes
    n_bursts = len(counts)
    for bi in range(n_bursts):
        for _ in range(counts[bi]):
            transfer = transfers[idx]
            is_recv = recvs[idx]
            idx += 1
            start = t if t >= busy_until else busy_until
            dt = start - m_last
            if dt > 0.0 and m_power > _TOL:
                energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
            if start > m_last:
                m_last = start
            if state == _PSM:
                size = sizes[idx - 1]
                if psm_transfers and size <= psm_max:
                    # _service_in_psm: the first byte waits for the next
                    # beacon, the transfer runs at the derated rate, and
                    # the card stays in PSM.
                    first_byte = start + (beacon - start % beacon) + latency
                    completion = first_byte + transfer_seconds(
                        size, psm_bandwidth)
                    dt = first_byte - m_last
                    if dt > 0.0 and m_power > _TOL:
                        energy[m_bucket] = \
                            get(m_bucket, 0.0) + m_power * dt
                    if first_byte > m_last:
                        m_last = first_byte
                    if is_recv:
                        m_power = psm_recv_power
                        m_bucket = "wnic.psm-recv"
                    else:
                        m_power = psm_send_power
                        m_bucket = "wnic.psm-send"
                    dt = completion - m_last
                    if dt > 0.0 and m_power > _TOL:
                        energy[m_bucket] = \
                            get(m_bucket, 0.0) + m_power * dt
                    if completion > m_last:
                        m_last = completion
                    # set_state_power(completion): back to PSM idle draw.
                    m_power = psm_idle
                    m_bucket = "wnic.psm"
                    if completion > last_activity:
                        last_activity = completion
                    if completion > busy_until:
                        busy_until = completion
                    t = completion
                    continue
                # transition(start, CAM, bucket="wnic.wakeup")
                energy["wnic.wakeup"] = \
                    get("wnic.wakeup", 0.0) + wake.energy
                done = start + wake.time
                state = _CAM
                if done > m_last:
                    m_last = done
                m_power = cam_idle
                m_bucket = "wnic.cam"
                if done > busy_until:
                    busy_until = done
                start = done
            first_byte = start + latency
            completion = first_byte + transfer
            # latency waits in CAM idle; transfer at directional power.
            m_power = cam_idle
            m_bucket = "wnic.cam"
            dt = first_byte - m_last
            if dt > 0.0 and m_power > _TOL:
                energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
            if first_byte > m_last:
                m_last = first_byte
            if is_recv:
                m_power = recv_power
                m_bucket = "wnic.recv"
            else:
                m_power = send_power
                m_bucket = "wnic.send"
            dt = completion - m_last
            if dt > 0.0 and m_power > _TOL:
                energy[m_bucket] = get(m_bucket, 0.0) + m_power * dt
            if completion > m_last:
                m_last = completion
            # set_state_power(completion): back to CAM idle draw.
            m_power = cam_idle
            m_bucket = "wnic.cam"
            if completion > last_activity:
                last_activity = completion
            if completion > busy_until:
                busy_until = completion
            t = completion
        if bi != n_bursts - 1:
            t += thinks[bi]
            _advance_dpm(t)
    if end_floor is not None and end_floor > t:
        t = end_floor
    _advance_dpm(t)
    e1 = sum(energy.values())
    delta = e1 - e0
    return t, (delta if delta > 0.0 else 0.0)


class CostModel:
    """What-if cost oracle bound to a system's devices and disk layout.

    One instance lives on each
    :class:`~repro.core.system.MobileSystem` (as ``env.cost_model``).
    All estimates clone; the live devices are only ever *advanced*
    (idempotent forward in time), never serviced.
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
