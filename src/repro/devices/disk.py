"""Hard-disk model.

Implements the four-state laptop disk of §1.1 with the paper's
Hitachi DK23DA parameters (Table 1):

* states **active** (transferring, 2.0 W), **idle** (spinning, 1.6 W),
  **standby** (spun down, 0.15 W), and — optionally, the paper's
  experiments never enter it — **sleep** (electronics off, hard reset
  to wake), enabled by setting ``sleep_timeout`` on the spec;
* timeout-driven spin-down after 20 s of inactivity (Linux laptop-mode
  default), costing 2.94 J over 2.3 s;
* demand spin-up on a request arriving in standby, costing 5.0 J over
  1.6 s — this is why a spun-down disk takes "about one second or more"
  to deliver the first byte (§1.1);
* request service = head positioning (average seek + rotation, skipped
  for transfers sequential with the previous one) + transfer at peak
  bandwidth.

The model is shared by the *real* replay simulator and by FlexFetch's
online what-if estimators (via :meth:`~PowerStateMachine.clone`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.devices.dpm import FixedTimeout, SpindownPolicy
from repro.devices.power import PowerStateMachine, StateSpec, TransitionSpec
from repro.devices.specs import HITACHI_DK23DA, DiskSpec
from repro.units import Bytes, Joules, Seconds, Watts, transfer_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule


class DiskState(str, Enum):
    """Disk power states (paper §1.1)."""

    ACTIVE = "active"
    IDLE = "idle"
    STANDBY = "standby"
    SLEEP = "sleep"


# Plain-string aliases for the hot paths: enum member + ``.value``
# access is a descriptor call apiece, measurable at request rates.
_ACTIVE = DiskState.ACTIVE.value
_IDLE = DiskState.IDLE.value
_STANDBY = DiskState.STANDBY.value
_SLEEP = DiskState.SLEEP.value


@dataclass(frozen=True, slots=True)
class DiskServiceResult:
    """Outcome of one disk request.

    ``energy`` is the marginal joules attributable to this request —
    positioning + transfer + any demand spin-up — *excluding* idle energy
    accrued before arrival (that belongs to the inter-request gap).
    """

    arrival: float
    start: float
    first_byte: float
    completion: float
    energy: Joules
    spun_up: bool
    waited_for_spindown: bool
    #: fault injection: the spin-up retry budget was exhausted; no bytes
    #: moved, ``energy`` is the wasted attempts, the caller owns failover.
    failed: bool = False


class HardDisk(PowerStateMachine):
    """Timeout-DPM laptop hard disk.

    Parameters
    ----------
    spec:
        Disk parameters; defaults to the paper's Hitachi DK23DA.
    start_time:
        Simulation time at construction.
    initially_standby:
        Whether the disk starts spun down (the experiments start with a
        cold disk, which is what gives WNIC its §3.3 edge on the first
        small requests).
    spindown_policy:
        Idle-timeout policy; defaults to the paper's fixed threshold
        (``spec.spindown_timeout``).  Pass an
        :class:`~repro.devices.dpm.AdaptiveTimeout` to study FlexFetch
        over an adapting DPM.
    """

    def __init__(self, spec: DiskSpec = HITACHI_DK23DA,
                 start_time: Seconds = 0.0, *,
                 initially_standby: bool = True,
                 spindown_policy: SpindownPolicy | None = None) -> None:
        self.spec = spec
        initial = DiskState.STANDBY if initially_standby else DiskState.IDLE
        super().__init__(
            name="disk",
            states=[
                StateSpec(DiskState.ACTIVE.value, spec.active_power),
                StateSpec(DiskState.IDLE.value, spec.idle_power),
                StateSpec(DiskState.STANDBY.value, spec.standby_power),
                StateSpec(DiskState.SLEEP.value, spec.sleep_power),
            ],
            transitions=[
                TransitionSpec(DiskState.IDLE.value, DiskState.STANDBY.value,
                               spec.spindown_time, spec.spindown_energy),
                TransitionSpec(DiskState.STANDBY.value,
                               DiskState.ACTIVE.value,
                               spec.spinup_time, spec.spinup_energy),
                TransitionSpec(DiskState.ACTIVE.value, DiskState.IDLE.value,
                               0.0, 0.0),
                TransitionSpec(DiskState.IDLE.value, DiskState.ACTIVE.value,
                               0.0, 0.0),
                TransitionSpec(DiskState.STANDBY.value,
                               DiskState.SLEEP.value, 0.0, 0.0),
                TransitionSpec(DiskState.SLEEP.value,
                               DiskState.ACTIVE.value,
                               spec.wake_time, spec.wake_energy),
            ],
            initial_state=initial.value,
            start_time=start_time,
        )
        self._spindown_policy = spindown_policy \
            or FixedTimeout(spec.spindown_timeout)
        #: ending block address of the last transfer, for sequentiality.
        self._head_position: int | None = None
        #: count of demand spin-ups / timeout spin-downs (diagnostics).
        self.spinup_count = 0
        self.spindown_count = 0
        self.sleep_count = 0
        #: completion time of the last spin-down (quiet-period feedback).
        self._quiet_since: float | None = None
        #: injected-fault timeline (None = spin-ups always succeed).
        self._faults: FaultSchedule | None = None
        #: failed spin-up attempts (diagnostics + energy-bound audits).
        self.spinup_failure_count = 0

    def set_fault_schedule(self, faults: FaultSchedule | None) -> None:
        """Attach an injected-fault timeline to this disk."""
        self._faults = faults

    def clone(self) -> HardDisk:
        new = super().clone()
        # Stateful DPM policies must not share mutable state with
        # what-if clones.
        new._spindown_policy = self._spindown_policy.clone()
        # What-if clones are blind to the fault schedule: estimation
        # must neither consume fault state nor foresee failures.
        new._faults = None
        return new

    @property
    def spindown_policy(self) -> SpindownPolicy:
        return self._spindown_policy

    # ------------------------------------------------------------------
    # DPM policy
    # ------------------------------------------------------------------
    def _apply_dpm(self, time: float) -> None:
        """Fire timeout transitions occurring within (last, time]:
        idle -> standby, and (when enabled) standby -> sleep."""
        if self._state == _IDLE:
            deadline = max(self._last_activity, self._busy_until) \
                + self._spindown_policy.timeout()
            if time >= deadline:
                self.meter.advance(deadline)
                done = self.transition(deadline, _STANDBY,
                                       bucket="disk.spindown")
                self.spindown_count += 1
                self._quiet_since = done
        if self._state == _STANDBY \
                and self.spec.sleep_timeout is not None:
            entered = max(self.busy_until, self.last_activity)
            deadline = entered + self.spec.sleep_timeout
            if time >= deadline:
                self.meter.advance(deadline)
                self.transition(deadline, _SLEEP, bucket="disk.to-sleep")
                self.sleep_count += 1

    def _note_quiet_period_end(self, spinup_time: Seconds) -> None:
        """Feed the quiet-period length back to the spin-down policy."""
        if self._quiet_since is not None:
            quiet = max(0.0, spinup_time - self._quiet_since)
            self._spindown_policy.observe_quiet_period(
                quiet, self.spec.breakeven_time)
            self._quiet_since = None

    def spindown_deadline(self) -> float | None:
        """Absolute time the DPM will spin down, or None if not idle."""
        if self.state != DiskState.IDLE.value:
            return None
        return max(self.last_activity, self.busy_until) \
            + self._spindown_policy.timeout()

    # ------------------------------------------------------------------
    # request service
    # ------------------------------------------------------------------
    #: hops of at most this many 4 KB blocks count as short seeks.
    NEAR_SEEK_BLOCKS = 64

    def positioning_time(self, block: int | None) -> Seconds:
        """Head-positioning cost to reach ``block`` from the current head.

        Distance-dependent, the standard concave seek model:

        * contiguous with the previous transfer -> free (the §2.1
          sequential-burst assumption);
        * within :data:`NEAR_SEEK_BLOCKS` -> track-to-track time only
          (streaming continues within the cylinder group, no rotational
          re-sync) — this is what lets a near-sequential scan over many
          small files finish "in a few seconds" (§3.3.1);
        * otherwise ``t2t + k*sqrt(d/D) + rotation`` with ``k`` chosen
          so a uniformly random hop averages the datasheet seek time
          (E[sqrt(U)] = 2/3).

        ``None`` (unknown location) charges the full average.
        """
        if block is None or self._head_position is None:
            return self.spec.access_time
        distance = abs(block - self._head_position)
        if distance == 0:
            return 0.0
        if distance <= self.NEAR_SEEK_BLOCKS:
            return self.spec.track_to_track_time
        total_blocks = max(1, self.spec.capacity_bytes // 4096)
        frac = min(1.0, distance / total_blocks)
        k = (self.spec.avg_seek_time - self.spec.track_to_track_time) * 1.5
        seek = self.spec.track_to_track_time + k * frac ** 0.5
        return seek + self.spec.avg_rotation_time

    def service(self, time: float, size_bytes: Bytes, *,
                block: int | None = None,
                block_count: int | None = None) -> DiskServiceResult:
        """Service a ``size_bytes`` request arriving at ``time``.

        ``block``/``block_count`` locate the transfer on the platter (in
        512-byte sectors or any consistent unit) purely for sequentiality
        accounting; they do not scale the transfer time, which is
        ``size_bytes / bandwidth``.
        """
        if size_bytes < 0:
            raise ValueError("negative request size")
        self.advance_to(time)
        meter = self.meter
        spec = self.spec
        busy = self._busy_until
        waited = busy > time and self._state == _STANDBY
        # A request that waited on a spin-down is charged from arrival
        # (e0), any other one from its start (e_pre), so e0 is only
        # summed when it is used.  sum(energy.values()) inlines
        # meter.total(): with no `upto` the tail term is zero and the
        # sums are bit-identical.
        e0 = sum(meter._energy.values()) if waited else 0.0
        start = time if time >= busy else busy
        meter.advance(start)
        e_pre = sum(meter._energy.values())

        spun_up = False
        state = self._state
        if state == _SLEEP:
            self._note_quiet_period_end(start)
            start = self.transition(start, _ACTIVE, bucket="disk.wake")
            self.spinup_count += 1
            spun_up = True
        elif state == _STANDBY:
            self._note_quiet_period_end(start)
            if self._faults is not None and self._faults.affects_disk:
                start, gave_up = self._attempt_spinup(start)
                if gave_up:
                    e1 = meter.total()
                    energy = e1 - e0 if waited else e1 - e_pre
                    return DiskServiceResult(
                        arrival=time, start=start, first_byte=start,
                        completion=start, energy=energy, spun_up=False,
                        waited_for_spindown=waited, failed=True)
            else:
                start = self.transition(start, _ACTIVE,
                                        bucket="disk.spinup")
                self.spinup_count += 1
            spun_up = True
        elif state == _IDLE:
            self.transition(start, _ACTIVE)

        position = self.positioning_time(block)
        first_byte = start + position
        # size >= 0 and the spec validates bandwidth > 0, so the plain
        # division is exactly transfer_seconds without the calls.
        completion = first_byte + size_bytes / spec.bandwidth_bps
        meter.set_power(start, spec.active_power, "disk.active")
        meter.advance(completion)
        # Request done: platters keep spinning (idle) until the DPM timer.
        self.transition(completion, _IDLE)
        self.note_activity(completion)
        self.mark_busy_until(completion)
        if block is not None:
            self._head_position = block + (block_count or 0)
        e1 = sum(meter._energy.values())
        energy = e1 - e0 if waited else e1 - e_pre
        return DiskServiceResult(
            arrival=time, start=start, first_byte=first_byte,
            completion=completion, energy=energy, spun_up=spun_up,
            waited_for_spindown=waited)

    def _attempt_spinup(self, t: float) -> tuple[float, bool]:
        """Demand spin-up under an injected failure schedule.

        Bounded retry with exponential backoff: each failed attempt runs
        the motor for a full ``spinup_time`` window, burns the full
        ``spinup_energy``, and leaves the platters in standby; after
        ``spinup_retries`` retries the disk gives up and reports the
        failure.  Returns ``(time, gave_up)`` — on success ``time`` is
        when the disk reaches active, on give-up it is when the final
        attempt ended.
        """
        assert self._faults is not None
        spec = self._faults.spec
        attempts = 0
        while True:
            if not self._faults.next_spinup_fails():
                done = self.transition(t, DiskState.ACTIVE.value,
                                       bucket="disk.spinup")
                self.spinup_count += 1
                return done, False
            # The motor ran the whole spin-up window and never reached
            # speed: the datasheet energy is burned as an impulse, no
            # supplemental draw during the window (as for a successful
            # transition), and the state stays standby.
            self.meter.advance(t)
            self.meter.add_impulse(self.spec.spinup_energy,
                                   "disk.spinup-failed")
            self.meter.set_power(t, 0.0, "disk.spinup-failed")
            failed_at = t + self.spec.spinup_time
            self.meter.advance(failed_at)
            self.set_state_power(failed_at)
            self.note_activity(failed_at)
            self.mark_busy_until(failed_at)
            self.spinup_failure_count += 1
            attempts += 1
            if attempts > spec.spinup_retries:
                return failed_at, True
            t = failed_at + spec.spinup_backoff * (2 ** (attempts - 1))
            self.meter.advance(t)

    def force_spinup(self, time: float) -> float:
        """Spin the disk up without a transfer (BlueFS ghost hint).

        Returns the time the disk reaches the idle (spinning) state; a
        no-op if the disk is already spinning.
        """
        self.advance_to(time)
        if self.state not in (DiskState.STANDBY.value,
                              DiskState.SLEEP.value):
            return time
        # Clamp to the busy horizon exactly as service() does: a hint can
        # arrive timestamped before an in-flight transition (e.g. a failed
        # demand spin-up) has finished, and starting the transition inside
        # that window would let the timeline disagree with the (clamping)
        # energy meter.
        start = max(time, self.busy_until)
        self._note_quiet_period_end(start)
        bucket = ("disk.wake" if self.state == DiskState.SLEEP.value
                  else "disk.spinup")
        ready = self.transition(start, DiskState.ACTIVE.value,
                                bucket=bucket)
        self.spinup_count += 1
        self.transition(ready, DiskState.IDLE.value)
        self.note_activity(ready)
        return ready

    # ------------------------------------------------------------------
    # what-if estimation helpers (FlexFetch §2.2 / BlueFS cost model)
    # ------------------------------------------------------------------
    def estimate_service(self, size_bytes: Bytes, *,
                         sequential: bool = False,
                         from_state: str | None = None) -> tuple[float, float]:
        """Pure estimate ``(time, energy)`` of servicing a request.

        Does not mutate the machine.  ``from_state`` defaults to the
        current state; sequential requests skip the positioning charge.
        """
        state = from_state or self._state
        spec = self.spec
        t = 0.0
        e = 0.0
        if state == _SLEEP:
            t += spec.wake_time
            e += spec.wake_energy
        elif state == _STANDBY:
            t += spec.spinup_time
            e += spec.spinup_energy
        position = 0.0 if sequential else spec.access_time
        transfer = transfer_seconds(size_bytes, spec.bandwidth_bps)
        t += position + transfer
        e += (position + transfer) * spec.active_power
        return t, e

    def keep_alive_power(self) -> Watts:
        """Watts to hold the disk spinning but idle (opportunity cost)."""
        return self.spec.idle_power
