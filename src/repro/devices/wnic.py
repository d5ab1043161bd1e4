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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.devices.power import PowerStateMachine, StateSpec, TransitionSpec
from repro.devices.specs import AIRONET_350, WnicSpec
from repro.units import Bytes, Joules, Seconds, approx_eq, transfer_seconds

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


# Plain-string aliases and per-direction meter buckets for the hot
# paths: enum ``.value`` access is a descriptor call apiece, and the
# f-string bucket labels allocated per transfer at request rates.
_CAM = WnicMode.CAM.value
_PSM = WnicMode.PSM.value
_DIR_BUCKET = {Direction.RECV: "wnic.recv", Direction.SEND: "wnic.send"}
_PSM_DIR_BUCKET = {Direction.RECV: "wnic.psm-recv",
                   Direction.SEND: "wnic.psm-send"}


@dataclass(frozen=True, slots=True)
class WnicServiceResult:
    """Outcome of one network request (see :class:`DiskServiceResult`).

    ``failed`` marks a fault-injected attempt that timed out waiting for
    the link: no bytes moved, ``energy`` is the wasted wait/abort cost,
    and the caller owns retry or failover.
    """

    arrival: float
    start: float
    first_byte: float
    completion: float
    energy: Joules
    woke_up: bool
    failed: bool = False


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
        self.wakeup_count = 0
        self.doze_count = 0
        #: injected-fault timeline (None = the paper's perfect link).
        self._faults: FaultSchedule | None = None
        #: failed attempts and aborted transfers (diagnostics).
        self.outage_timeout_count = 0
        self.aborted_transfer_count = 0

    def set_fault_schedule(self, faults: FaultSchedule | None) -> None:
        """Attach an injected-fault timeline to this card."""
        self._faults = faults

    def clone(self) -> WirelessNic:
        new = super().clone()
        # What-if clones (FlexFetch's §2.2 online simulators) are blind
        # to the fault schedule: estimation must neither consume fault
        # state nor foresee outages.
        new._faults = None
        return new

    # ------------------------------------------------------------------
    # DPM policy
    # ------------------------------------------------------------------
    def _apply_dpm(self, time: float) -> None:
        """Drop to PSM if CAM-idle past the 800 ms timeout."""
        if self._state != _CAM:
            return
        deadline = max(self._last_activity, self._busy_until) \
            + self.spec.cam_timeout
        if time >= deadline:
            self.meter.advance(deadline)
            self.transition(deadline, _PSM, bucket="wnic.doze")
            self.doze_count += 1

    # ------------------------------------------------------------------
    # request service
    # ------------------------------------------------------------------
    def _psm_eligible(self, size_bytes: Bytes) -> bool:
        """Whether a request can be serviced without leaving PSM."""
        return (self.spec.psm_transfer_enabled
                and size_bytes <= self.spec.psm_transfer_max_bytes
                and self.state == WnicMode.PSM.value)

    def _service_in_psm(self, time: float, size_bytes: Bytes,
                        direction: Direction,
                        e_pre: float) -> WnicServiceResult:
        """Small-transfer fast path: stay in PSM (§1.1 characteristic 1).

        The card exchanges data at its beacon wake-ups: first byte waits
        for the next beacon (up to one ``beacon_interval``) plus the
        link latency, and throughput is derated by
        ``psm_bandwidth_factor``.
        """
        spec = self.spec
        meter = self.meter
        start = max(time, self._busy_until)
        beacon_wait = spec.beacon_interval \
            - (start % spec.beacon_interval)
        first_byte = start + beacon_wait + spec.latency
        bandwidth = spec.bandwidth_bps * spec.psm_bandwidth_factor
        completion = first_byte + transfer_seconds(size_bytes, bandwidth)
        busy_power = (spec.psm_recv_power
                      if direction is Direction.RECV
                      else spec.psm_send_power)
        meter.advance(first_byte)
        meter.set_power(first_byte, busy_power,
                        _PSM_DIR_BUCKET[direction])
        meter.advance(completion)
        self.set_state_power(completion)
        self.note_activity(completion)
        self.mark_busy_until(completion)
        return WnicServiceResult(
            arrival=time, start=start, first_byte=first_byte,
            completion=completion,
            energy=sum(meter._energy.values()) - e_pre,
            woke_up=False)

    def service(self, time: float, size_bytes: Bytes, *,
                direction: Direction = Direction.RECV) -> WnicServiceResult:
        """Transfer ``size_bytes`` over the link, arriving at ``time``.

        With a fault schedule attached, the transfer is subject to link
        outages (the card waits up to ``network_timeout`` for the AP,
        then reports a failed attempt) and 802.11b rate fallback.
        """
        if size_bytes < 0:
            raise ValueError("negative request size")
        self.advance_to(time)
        meter = self.meter
        busy = self._busy_until
        start = time if time >= busy else busy
        meter.advance(start)
        # sum(energy.values()) inlines meter.total(): with no `upto` the
        # tail term is zero and the sums are bit-identical.
        e_pre = sum(meter._energy.values())

        if self._faults is not None and self._faults.affects_network:
            return self._service_with_faults(time, start, size_bytes,
                                             direction, e_pre)

        spec = self.spec
        if (spec.psm_transfer_enabled
                and size_bytes <= spec.psm_transfer_max_bytes
                and self._state == _PSM):
            return self._service_in_psm(time, size_bytes, direction, e_pre)

        woke = False
        if self._state == _PSM:
            start = self.transition(start, _CAM, bucket="wnic.wakeup")
            self.wakeup_count += 1
            woke = True

        first_byte = start + spec.latency
        # size >= 0 and the spec validates bandwidth > 0, so the plain
        # division is exactly transfer_seconds without the calls.
        completion = first_byte + size_bytes / spec.bandwidth_bps
        busy_power = (spec.cam_recv_power
                      if direction is Direction.RECV
                      else spec.cam_send_power)
        # Latency portion is spent waiting in CAM idle; transfer at the
        # direction-dependent power.
        meter.set_power(start, spec.cam_idle_power, "wnic.cam")
        meter.advance(first_byte)
        meter.set_power(first_byte, busy_power, _DIR_BUCKET[direction])
        meter.advance(completion)
        self.set_state_power(completion)
        self.note_activity(completion)
        self.mark_busy_until(completion)
        e1 = sum(meter._energy.values())
        return WnicServiceResult(
            arrival=time, start=start, first_byte=first_byte,
            completion=completion, energy=e1 - e_pre, woke_up=woke)

    # ------------------------------------------------------------------
    # fault-injected service
    # ------------------------------------------------------------------
    def _fail_after_timeout(self, arrival: float, t: float, woke: bool,
                            e_pre: float) -> WnicServiceResult:
        """The link is down and will not return within the deadline: the
        radio scans in CAM for ``network_timeout`` seconds, burns the
        idle draw, and gives up."""
        assert self._faults is not None
        deadline = t + self._faults.spec.network_timeout
        self.meter.set_power(t, self.spec.cam_idle_power, "wnic.outage")
        self.meter.advance(deadline)
        self.set_state_power(deadline)
        self.note_activity(deadline)
        self.mark_busy_until(deadline)
        self.outage_timeout_count += 1
        return WnicServiceResult(
            arrival=arrival, start=t, first_byte=deadline,
            completion=deadline, energy=self.meter.total() - e_pre,
            woke_up=woke, failed=True)

    def _service_with_faults(self, time: float, start: float,
                             size_bytes: Bytes, direction: Direction,
                             e_pre: float) -> WnicServiceResult:
        """CAM-path transfer under link outages and rate fallback."""
        faults = self._faults
        assert faults is not None

        if self._psm_eligible(size_bytes):
            # Take the PSM fast path only when no fault can touch the
            # conservative worst-case transfer window.
            bandwidth = self.spec.bandwidth_bps \
                * self.spec.psm_bandwidth_factor
            worst = start + self.spec.beacon_interval + self.spec.latency \
                + transfer_seconds(size_bytes, bandwidth)
            effective_bps = faults.network_bandwidth(
                start, self.spec.bandwidth_bps)
            if (faults.link_available(start)
                    and faults.outage_start_within(start, worst) is None
                    and approx_eq(effective_bps,
                                  self.spec.bandwidth_bps)):
                return self._service_in_psm(time, size_bytes, direction,
                                            e_pre)

        woke = False
        if self.state == WnicMode.PSM.value:
            start = self.transition(start, WnicMode.CAM.value,
                                    bucket="wnic.wakeup")
            self.wakeup_count += 1
            woke = True

        if not faults.link_available(start):
            resume = faults.outage_end(start)
            if resume - start > self._faults.spec.network_timeout:
                return self._fail_after_timeout(time, start, woke, e_pre)
            # The link returns inside the deadline: wait it out in CAM
            # (the radio keeps scanning for the access point).
            self.meter.set_power(start, self.spec.cam_idle_power,
                                 "wnic.outage")
            self.meter.advance(resume)
            start = resume

        first_byte = start + self.spec.latency
        bandwidth = faults.network_bandwidth(first_byte,
                                             self.spec.bandwidth_bps)
        transfer = transfer_seconds(size_bytes, bandwidth)
        completion = first_byte + transfer
        busy_power = (self.spec.cam_recv_power
                      if direction is Direction.RECV
                      else self.spec.cam_send_power)

        cut = faults.outage_start_within(start, completion)
        if cut is not None:
            # The link drops mid-request: bytes moved so far are lost,
            # the card burns its wait deadline, and the attempt fails.
            self.meter.set_power(start, self.spec.cam_idle_power,
                                 "wnic.cam")
            if cut > first_byte:
                self.meter.advance(first_byte)
                self.meter.set_power(first_byte, busy_power,
                                     f"wnic.{direction.value}-aborted")
            self.meter.advance(cut)
            self.aborted_transfer_count += 1
            return self._fail_after_timeout(time, cut, woke, e_pre)

        self.meter.set_power(start, self.spec.cam_idle_power, "wnic.cam")
        self.meter.advance(first_byte)
        self.meter.set_power(first_byte, busy_power,
                             f"wnic.{direction.value}")
        self.meter.advance(completion)
        self.set_state_power(completion)
        self.note_activity(completion)
        self.mark_busy_until(completion)
        return WnicServiceResult(
            arrival=time, start=start, first_byte=first_byte,
            completion=completion, energy=self.meter.total() - e_pre,
            woke_up=woke)

    # ------------------------------------------------------------------
    # what-if estimation helpers
    # ------------------------------------------------------------------
    def estimate_service(self, size_bytes: Bytes, *,
                         direction: Direction = Direction.RECV,
                         from_state: str | None = None) -> tuple[float, float]:
        """Pure estimate ``(time, energy)`` of a transfer; no mutation."""
        state = from_state or self._state
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
