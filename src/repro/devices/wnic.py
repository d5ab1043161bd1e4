"""Wireless NIC model (802.11b, Cisco Aironet 350 parameters).

Implements the adaptive dynamic power management described in §3.1:

* two modes — **CAM** (continuously aware, radio always on) and **PSM**
  (power saving, radio mostly off with periodic access-point check-ins);
* CAM -> PSM after 800 ms of idleness (0.41 s / 0.53 J);
* PSM -> CAM when traffic is pending (0.40 s / 0.51 J) — the model
  performs all bulk transfers in CAM, matching the card's behaviour of
  waking up "if more than one packet is ready on the access point";
* a transfer costs ``latency + size/bandwidth`` with direction-dependent
  power (recv for reads from the remote server, send for writes).

The *link* bandwidth and latency live on the spec and are what the
paper's figures sweep; the mode machinery is independent of them.

All of that fault-free arithmetic is :func:`wnic_step`, which both
:class:`WirelessNic` and the cost model's §2.2 on-line simulator run;
link outages, rate fallback and aborted transfers live in
:class:`WirelessNic` alone, as what-if copies are blind to faults.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from repro.devices.power import (
    PackedBurst,
    PowerCore,
    PowerStateMachine,
    StateSpec,
    TransitionSpec,
)
from repro.devices.specs import AIRONET_350, WnicSpec
from repro.units import (
    ABS_TOLERANCE,
    Bytes,
    Joules,
    Seconds,
    approx_eq,
    transfer_seconds,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule


class WnicMode(str, Enum):
    """WNIC power modes."""

    CAM = "cam"
    PSM = "psm"


class Direction(str, Enum):
    """Transfer direction relative to the mobile host."""

    RECV = "recv"   # read from remote storage
    SEND = "send"   # write back to remote storage


_TOL = ABS_TOLERANCE

# Plain-string aliases for the hot paths: enum ``.value`` access is a
# descriptor call apiece.
_CAM = WnicMode.CAM.value
_PSM = WnicMode.PSM.value

#: Every energy bucket a WNIC's meter may charge: one per mode, the
#: transfer draws, the mode-switch impulses, and the fault paths'
#: outage waits and aborted transfers.
WNIC_BUCKETS = frozenset({
    "wnic.cam", "wnic.psm", "wnic.recv", "wnic.send", "wnic.psm-recv",
    "wnic.psm-send", "wnic.doze", "wnic.wakeup", "wnic.outage",
    "wnic.recv-aborted", "wnic.send-aborted"})


class WnicServiceResult(NamedTuple):
    """Outcome of one network request (see :class:`DiskServiceResult`).

    ``failed`` marks a fault-injected attempt that timed out waiting for
    the link: no bytes moved, ``energy`` is the wasted wait/abort cost,
    and the caller owns retry or failover.  A NamedTuple built by
    position, as the disk's record is.
    """

    arrival: float
    start: float
    first_byte: float
    completion: float
    energy: Joules
    woke_up: bool
    failed: bool = False


class WnicCore(PowerCore):
    """The WNIC's operating point (see :class:`PowerCore`) and spec."""

    __slots__ = ("spec",)
    spec: WnicSpec


def wnic_step(core: WnicCore, time: float, size: Bytes = -1,
              recv: bool = True, block: int | None = None,
              nblocks: int = 0) -> tuple[float, float, float]:
    """Advance ``core`` to ``time``; with ``size >= 0``, serve a request.

    The advance fires the CAM -> PSM doze once the card has idled
    ``cam_timeout`` in CAM, and integrates the draw up to ``time``.  A
    request then starts at ``max(time, busy_until)``.  With PSM bulk
    transfers enabled, a small request that finds the card in PSM stays
    there: its first byte waits for the next beacon plus the link
    latency and it moves at the derated rate.  Otherwise a card in PSM
    wakes to CAM, waits the latency at CAM idle and transfers at the
    direction's power (``recv``: a read from the server).  ``block`` and
    ``nblocks`` place a disk transfer, which the WNIC ignores.  Returns
    as every step does (see :mod:`repro.devices.power`).
    """
    spec = core.spec
    if time > core._last_time:
        # As in disk_step: no max() call, meter.advance(time) inlined.
        if core.state == _CAM:
            busy, last = core.busy_until, core.last_activity
            deadline = (last if last >= busy else busy) + spec.cam_timeout
            if time >= deadline:
                core.transition(deadline, _PSM, "wnic.doze")
        clock = core._last_time
        if time > clock:
            if core._power > _TOL:
                core._energy[core._bucket] += core._power * (time - clock)
            core._last_time = time
    if size < 0:
        return time, time, time

    energy = core._energy
    busy = core.busy_until
    start = time if time >= busy else busy
    clock = core._last_time
    if start > clock:
        core.advance(start)
        clock = start
    state = core.state
    if (state == _PSM and spec.psm_transfer_enabled
            and size <= spec.psm_transfer_max_bytes):
        # Small-transfer fast path (§1.1 characteristic 1): the card
        # exchanges data at its beacon wake-ups and stays in PSM.
        beacon = spec.beacon_interval
        first_byte = start + (beacon - start % beacon) + spec.latency
        completion = first_byte + size / (
            spec.bandwidth_bps * spec.psm_bandwidth_factor)
        wait_power, wait_bucket = core._power, core._bucket
        if recv:
            busy_power, busy_bucket = spec.psm_recv_power, "wnic.psm-recv"
        else:
            busy_power, busy_bucket = spec.psm_send_power, "wnic.psm-send"
        idle_power, idle_bucket = spec.psm_idle_power, "wnic.psm"
    else:
        if state == _PSM:
            start = core.transition(start, _CAM, "wnic.wakeup")
            clock = core._last_time
        # The latency is spent waiting at CAM idle, the transfer at the
        # direction-dependent power.
        first_byte = start + spec.latency
        # size >= 0 and the spec validates bandwidth > 0, so the plain
        # division is exactly transfer_seconds without the calls.
        completion = first_byte + size / spec.bandwidth_bps
        if recv:
            busy_power, busy_bucket = spec.cam_recv_power, "wnic.recv"
        else:
            busy_power, busy_bucket = spec.cam_send_power, "wnic.send"
        wait_power = idle_power = spec.cam_idle_power
        wait_bucket = idle_bucket = "wnic.cam"
    if first_byte > clock:
        if wait_power > _TOL:
            energy[wait_bucket] += wait_power * (first_byte - clock)
        clock = first_byte
    if completion > clock:
        if busy_power > _TOL:
            energy[busy_bucket] += busy_power * (completion - clock)
        clock = completion
    core._last_time = clock
    core._power = idle_power
    core._bucket = idle_bucket
    if completion > core.busy_until:
        core.busy_until = completion
    if completion > core.last_activity:
        core.last_activity = completion
    return start, first_byte, completion


def wnic_run(core: WnicCore, time: float, bursts: Sequence[PackedBurst],
             thinks: Sequence[float]) -> float:
    """Serve a stage of packed bursts from ``time``, as
    :func:`~repro.devices.disk.disk_run` does for a disk.

    Bit for bit the loop of :func:`wnic_step` calls it stands for.  The
    step serves each think and each request until the card is in its
    steady state, CAM with no advance due, and serves any request whose
    direction's bucket is not yet open (the first write after reads
    opens ``wnic.send``).  The rest of the burst is served here with the
    step's float operations in the step's order, into local
    accumulators.
    """
    energy = core._energy
    spec = core.spec
    latency = spec.latency
    bandwidth = spec.bandwidth_bps
    idle_power = spec.cam_idle_power
    recv_power = spec.cam_recv_power
    send_power = spec.cam_send_power
    charge_idle = idle_power > _TOL
    charge_recv = recv_power > _TOL
    charge_send = send_power > _TOL
    idle_open = recv_open = send_open = False
    last_burst = len(bursts) - 1
    for b, (sizes, recv, blocks, nblocks, lo, hi) in enumerate(bursts):
        while lo < hi:
            if not idle_open:
                idle_open = not charge_idle or "wnic.cam" in energy
            if not recv_open:
                recv_open = not charge_recv or "wnic.recv" in energy
            if not send_open:
                send_open = not charge_send or "wnic.send" in energy
            if (idle_open and core.state == _CAM
                    and core.busy_until <= time <= core._last_time
                    and (recv_open if recv[lo] else send_open)):
                clock = core._last_time
                busy = core.busy_until
                last = core.last_activity
                cam = energy["wnic.cam"] if charge_idle else 0.0
                received = energy["wnic.recv"] if charge_recv \
                    and recv_open else 0.0
                sent = energy["wnic.send"] if charge_send \
                    and send_open else 0.0
                for reading, size in zip(recv[lo:hi], sizes[lo:hi]):
                    if not (recv_open if reading else send_open):
                        break
                    # start = time: the previous completion set
                    # busy_until.
                    first_byte = time + latency
                    completion = first_byte + size / bandwidth
                    if first_byte > clock:
                        if charge_idle:
                            cam += idle_power * (first_byte - clock)
                        clock = first_byte
                    if completion > clock:
                        if reading:
                            if charge_recv:
                                received += recv_power * (completion
                                                          - clock)
                        elif charge_send:
                            sent += send_power * (completion - clock)
                        clock = completion
                    if completion > busy:
                        busy = completion
                    if completion > last:
                        last = completion
                    time = completion
                    lo += 1
                if charge_idle:
                    energy["wnic.cam"] = cam
                if charge_recv and recv_open:
                    energy["wnic.recv"] = received
                if charge_send and send_open:
                    energy["wnic.send"] = sent
                core._last_time = clock
                core._power = idle_power
                core._bucket = "wnic.cam"
                core.busy_until = busy
                core.last_activity = last
                continue
            time = wnic_step(core, time, sizes[lo], recv[lo], blocks[lo],
                             nblocks[lo])[2]
            lo += 1
        if b != last_burst:
            time += thinks[b]
            wnic_step(core, time)
    return time


class WirelessNic(PowerStateMachine):
    """Adaptive-DPM 802.11b NIC.

    Parameters
    ----------
    spec:
        NIC parameters; defaults to the paper's Aironet 350 at 11 Mbps
        with 1 ms link latency.  Use :meth:`WnicSpec.with_link` to sweep.
    initially_psm:
        Whether the card starts in power-saving mode (the experiments do).
    """

    _core_type = WnicCore
    core: WnicCore

    def __init__(self, spec: WnicSpec = AIRONET_350,
                 start_time: Seconds = 0.0, *,
                 initially_psm: bool = True) -> None:
        self.spec = spec
        initial = WnicMode.PSM if initially_psm else WnicMode.CAM
        super().__init__(
            name="wnic",
            states=[
                StateSpec(WnicMode.CAM.value, spec.cam_idle_power),
                StateSpec(WnicMode.PSM.value, spec.psm_idle_power),
            ],
            transitions=[
                TransitionSpec(WnicMode.CAM.value, WnicMode.PSM.value,
                               spec.cam_to_psm_time, spec.cam_to_psm_energy),
                TransitionSpec(WnicMode.PSM.value, WnicMode.CAM.value,
                               spec.psm_to_cam_time, spec.psm_to_cam_energy),
            ],
            initial_state=initial.value,
            start_time=start_time,
        )
        self.core.spec = spec
        #: transfers an outage cut short (diagnostics).
        self.aborted_transfer_count = 0

    @property
    def wakeup_count(self) -> int:
        return self.core.counts["wnic.wakeup"]

    @property
    def doze_count(self) -> int:
        return self.core.counts["wnic.doze"]

    def advance_to(self, time: float) -> None:
        """Advance to ``time``, dozing to PSM if CAM-idle long enough."""
        wnic_step(self.core, time)

    # ------------------------------------------------------------------
    # request service
    # ------------------------------------------------------------------
    def service(self, time: float, size_bytes: Bytes,
                direction: Direction = Direction.RECV) -> WnicServiceResult:
        """Transfer ``size_bytes`` over the link, arriving at ``time``.

        With a fault schedule attached, the transfer is subject to link
        outages (the card waits up to ``network_timeout`` for the AP,
        then reports a failed attempt) and 802.11b rate fallback.
        Positional or keyword: the WNIC service passes ``direction`` by
        position.
        """
        if size_bytes < 0:
            raise ValueError("negative request size")
        core = self.core
        if time > core._last_time:
            # As in HardDisk.service: a no-op advance is skipped.
            wnic_step(core, time)
        busy = core.busy_until
        start = time if time >= busy else busy
        if start > core._last_time:
            # As in HardDisk.service: advance() is a no-op otherwise.
            core.advance(start)
        # sum(energy.values()) inlines meter.total(): with no `upto` the
        # tail term is zero and the sums are bit-identical.
        e_pre = sum(core._energy.values())
        faults = self._faults
        if (faults is not None and faults.affects_network
                and not self._psm_safe(faults, start, size_bytes)):
            return self._service_faulted(faults, time, start,
                                             size_bytes, direction, e_pre)
        in_psm = core.state == _PSM
        start, first_byte, completion = wnic_step(
            core, start, size_bytes, direction is Direction.RECV)
        # Positional, in field order (arrival, start, first_byte,
        # completion, energy, woke_up, failed).
        return WnicServiceResult(
            time, start, first_byte, completion,
            sum(core._energy.values()) - e_pre,
            in_psm and core.state == _CAM)

    # ------------------------------------------------------------------
    # fault-injected service
    # ------------------------------------------------------------------
    def _psm_safe(self, faults: FaultSchedule, start: float,
                  size_bytes: Bytes) -> bool:
        """Whether a request takes the PSM fast path under faults: only
        when no fault can touch its conservative worst-case window."""
        spec = self.spec
        if not (spec.psm_transfer_enabled
                and size_bytes <= spec.psm_transfer_max_bytes
                and self.state == _PSM):
            return False
        bandwidth = spec.bandwidth_bps * spec.psm_bandwidth_factor
        worst = start + spec.beacon_interval + spec.latency \
            + transfer_seconds(size_bytes, bandwidth)
        effective_bps = faults.network_bandwidth(start, spec.bandwidth_bps)
        return (faults.link_available(start)
                and faults.outage_start_within(start, worst) is None
                and approx_eq(effective_bps, spec.bandwidth_bps))

    def _fail_after_timeout(self, faults: FaultSchedule, arrival: float,
                            t: float, woke: bool,
                            e_pre: float) -> WnicServiceResult:
        """The link is down and will not return within the deadline: the
        radio scans in CAM for ``network_timeout`` seconds, burns the
        idle draw, and gives up."""
        deadline = t + faults.spec.network_timeout
        self.core.set_power(t, self.spec.cam_idle_power, "wnic.outage")
        self.core.advance(deadline)
        self.set_state_power(deadline)
        self.note_activity(deadline)
        self.mark_busy_until(deadline)
        return WnicServiceResult(arrival, t, deadline, deadline,
                                 self.core.total() - e_pre, woke, True)

    def _service_faulted(self, faults: FaultSchedule, time: float,
                             start: float, size_bytes: Bytes,
                             direction: Direction,
                             e_pre: float) -> WnicServiceResult:
        """CAM-path transfer under link outages and rate fallback."""
        spec = self.spec
        core = self.core
        woke = core.state == _PSM
        if woke:
            start = core.transition(start, _CAM, "wnic.wakeup")

        if not faults.link_available(start):
            resume = faults.outage_end(start)
            if resume - start > faults.spec.network_timeout:
                return self._fail_after_timeout(faults, time, start, woke,
                                                e_pre)
            # The link returns inside the deadline: wait it out in CAM
            # (the radio keeps scanning for the access point).
            core.set_power(start, spec.cam_idle_power, "wnic.outage")
            core.advance(resume)
            start = resume

        first_byte = start + spec.latency
        bandwidth = faults.network_bandwidth(first_byte, spec.bandwidth_bps)
        completion = first_byte + transfer_seconds(size_bytes, bandwidth)
        busy_power = (spec.cam_recv_power if direction is Direction.RECV
                      else spec.cam_send_power)
        # The link may drop mid-request: bytes moved so far are lost,
        # the card burns its wait deadline, and the attempt fails.
        cut = faults.outage_start_within(start, completion)
        end = completion if cut is None else cut
        core.set_power(start, spec.cam_idle_power, "wnic.cam")
        if end > first_byte:
            core.advance(first_byte)
            core.set_power(first_byte, busy_power,
                           f"wnic.{direction.value}" if cut is None
                           else f"wnic.{direction.value}-aborted")
        core.advance(end)
        if cut is not None:
            self.aborted_transfer_count += 1
            return self._fail_after_timeout(faults, time, cut, woke, e_pre)
        self.set_state_power(completion)
        self.note_activity(completion)
        self.mark_busy_until(completion)
        return WnicServiceResult(time, start, first_byte, completion,
                                 core.total() - e_pre, woke)

    # ------------------------------------------------------------------
    # what-if estimation helpers
    # ------------------------------------------------------------------
    def estimate_service(self, size_bytes: Bytes, *,
                         direction: Direction = Direction.RECV,
                         from_state: str | None = None) -> tuple[float, float]:
        """Pure estimate ``(time, energy)`` of a transfer; no mutation."""
        state = from_state or self.core.state
        spec = self.spec
        if (spec.psm_transfer_enabled
                and size_bytes <= spec.psm_transfer_max_bytes
                and state == _PSM):
            # PSM fast path: expected half-beacon wait + derated rate.
            bandwidth = spec.bandwidth_bps * spec.psm_bandwidth_factor
            transfer = transfer_seconds(size_bytes, bandwidth)
            busy_power = (spec.psm_recv_power
                          if direction is Direction.RECV
                          else spec.psm_send_power)
            t = spec.beacon_interval / 2 + spec.latency + transfer
            e = (spec.beacon_interval / 2 + spec.latency) \
                * spec.psm_idle_power + transfer * busy_power
            return t, e
        t = 0.0
        e = 0.0
        if state == _PSM:
            t += spec.psm_to_cam_time
            e += spec.psm_to_cam_energy
        transfer = transfer_seconds(size_bytes, spec.bandwidth_bps)
        busy_power = (spec.cam_recv_power
                      if direction is Direction.RECV
                      else spec.cam_send_power)
        t += spec.latency + transfer
        e += spec.latency * spec.cam_idle_power
        e += transfer * busy_power
        return t, e
