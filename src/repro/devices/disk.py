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

All of that fault-free arithmetic is :func:`disk_step`, which both
:class:`HardDisk` and the cost model's §2.2 on-line simulator run (see
:mod:`repro.devices.power`); injected spin-up failures live in
:class:`HardDisk` alone, as what-if copies are blind to faults.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from repro.devices.dpm import FixedTimeout, SpindownPolicy
from repro.devices.power import (
    PowerCore,
    PowerStateMachine,
    StateSpec,
    TransitionSpec,
)
from repro.devices.specs import HITACHI_DK23DA, DiskSpec
from repro.units import ABS_TOLERANCE, Bytes, Joules, Seconds, Watts, \
    transfer_seconds


class DiskState(str, Enum):
    """Disk power states (paper §1.1)."""

    ACTIVE = "active"
    IDLE = "idle"
    STANDBY = "standby"
    SLEEP = "sleep"


_TOL = ABS_TOLERANCE

# Plain-string aliases for the hot paths: enum member + ``.value``
# access is a descriptor call apiece, measurable at request rates.
_ACTIVE = DiskState.ACTIVE.value
_IDLE = DiskState.IDLE.value
_STANDBY = DiskState.STANDBY.value
_SLEEP = DiskState.SLEEP.value

#: Every energy bucket a disk's meter may charge: one per power state,
#: the transition impulses, and the fault path's failed spin-ups.
DISK_BUCKETS = frozenset({
    "disk.active", "disk.idle", "disk.standby", "disk.sleep",
    "disk.spindown", "disk.spinup", "disk.wake", "disk.to-sleep",
    "disk.idle->active", "disk.active->idle", "disk.spinup-failed"})


class DiskServiceResult(NamedTuple):
    """Outcome of one disk request.

    ``energy`` is the marginal joules attributable to this request —
    positioning + transfer + any demand spin-up — *excluding* idle energy
    accrued before arrival (that belongs to the inter-request gap).

    A NamedTuple rather than a frozen dataclass, for the reason
    :class:`~repro.core.policies.RequestContext` gives: still immutable,
    but one is built per serviced extent, and a positional tuple build
    costs a quarter to a third of a keyword dataclass build.
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


#: hops of at most this many 4 KB blocks count as short seeks.
NEAR_SEEK_BLOCKS = 64


class DiskCore(PowerCore):
    """The disk's operating point (see :class:`PowerCore`) plus its
    spin-down policy and cached timeout, head position and quiet-period
    start.

    ``seek`` holds the spec's seek constants (see
    :func:`_positioning_time`).
    """

    __slots__ = ("spec", "seek", "policy", "timeout", "head", "quiet_since")

    def attach(self, spec: DiskSpec, policy: SpindownPolicy) -> None:
        """Bind the spec and spin-down policy; no transitions yet."""
        self.spec = spec
        self.seek = (spec.access_time, spec.track_to_track_time,
                     (spec.avg_seek_time - spec.track_to_track_time) * 1.5,
                     spec.avg_rotation_time,
                     max(1, spec.capacity_bytes // 4096))
        self.policy = policy
        self.timeout = policy.timeout()
        #: ending block address of the last transfer, for sequentiality.
        self.head: int | None = None
        #: completion time of the last spin-down (quiet-period feedback).
        self.quiet_since: float | None = None

    def what_if(self) -> DiskCore:
        new = super().what_if()
        # Stateful DPM policies must not share mutable state with
        # what-if copies.
        new.policy = self.policy.clone()
        new.timeout = new.policy.timeout()
        return new


def _positioning_time(seek: tuple[float, float, float, float, int],
                      head: int | None, block: int | None) -> Seconds:
    """Head-positioning cost to reach ``block`` from ``head``.

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

    ``None`` (unknown location) charges the full average.  ``seek`` is
    (average access time, t2t, k, average rotation, capacity in blocks).
    """
    if block is None or head is None:
        return seek[0]
    distance = block - head
    if distance < 0:
        distance = -distance
    if distance == 0:
        return 0.0
    if distance <= NEAR_SEEK_BLOCKS:
        return seek[1]
    frac = distance / seek[4]
    if frac > 1.0:
        frac = 1.0
    return seek[1] + seek[2] * frac ** 0.5 + seek[3]


def _end_quiet_period(core: DiskCore, time: float) -> None:
    """Feed the quiet period ending at ``time`` back to the policy."""
    if core.quiet_since is not None:
        core.policy.observe_quiet_period(
            max(0.0, time - core.quiet_since), core.spec.breakeven_time)
        core.quiet_since = None
        core.timeout = core.policy.timeout()


def _spin_up(core: DiskCore, time: float) -> float:
    """End the quiet period and spin up from standby (or wake from
    sleep) at ``time``; returns when the disk is active."""
    _end_quiet_period(core, time)
    return core.transition(
        time, _ACTIVE, "disk.wake" if core.state == _SLEEP else "disk.spinup")


def disk_step(core: DiskCore, time: float, size: Bytes = -1,
              recv: bool = True, block: int | None = None,
              nblocks: int = 0) -> tuple[float, float, float]:
    """Advance ``core`` to ``time``; with ``size >= 0``, serve a request.

    The advance fires the DPM timeouts due by ``time`` — idle ->
    standby once the spin-down policy's timeout has passed since the
    last activity, then (with a sleep tier) standby -> sleep — and
    integrates the draw up to ``time``.  A request then starts at
    ``max(time, busy_until)``: a disk in standby or asleep feeds its
    quiet period back to the policy and spins up (or wakes), an idle
    one switches to active for free; the head positions over
    ``block`` (``None``: unknown, an average seek), ``size`` bytes
    transfer at peak bandwidth, and the disk returns to idle with the
    head ``nblocks`` past ``block``.  ``recv`` is the direction, which
    a disk ignores.  Returns as every step does (see
    :mod:`repro.devices.power`).
    """
    if time > core._last_time:
        # Conditional expressions and the inlined meter.advance(time):
        # this runs on every advance of both the live disk and a copy.
        busy, last = core.busy_until, core.last_activity
        if core.state == _IDLE:
            deadline = (last if last >= busy else busy) + core.timeout
            if time >= deadline:
                core.quiet_since = busy = core.transition(
                    deadline, _STANDBY, "disk.spindown")
        sleep_timeout = core.spec.sleep_timeout
        if sleep_timeout is not None and core.state == _STANDBY:
            deadline = (busy if busy >= last else last) + sleep_timeout
            if time >= deadline:
                core.transition(deadline, _SLEEP, "disk.to-sleep")
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
    if state == _IDLE:
        # Spinning already: a free, instantaneous switch to active (its
        # zero impulse still opens the bucket).
        energy["disk.idle->active"] += 0.0
        if core.timeline is not None:
            core.timeline.record(start, _ACTIVE)
    elif state != _ACTIVE:
        start = _spin_up(core, start)
        clock = core._last_time
    spec = core.spec
    first_byte = start + _positioning_time(core.seek, core.head, block)
    # size >= 0 and the spec validates bandwidth > 0, so the plain
    # division is exactly transfer_seconds without the calls.
    completion = first_byte + size / spec.bandwidth_bps
    if completion > clock:
        active_power = spec.active_power
        if active_power > _TOL:
            energy["disk.active"] += active_power * (completion - clock)
        core._last_time = completion
    # Request done: platters keep spinning (idle) until the DPM timer.
    energy["disk.active->idle"] += 0.0
    core._power = spec.idle_power
    core._bucket = "disk.idle"
    core.state = _IDLE
    if core.timeline is not None:
        core.timeline.record(completion, _IDLE)
    if completion > core.busy_until:
        core.busy_until = completion
    if completion > core.last_activity:
        core.last_activity = completion
    if block is not None:
        core.head = block + nblocks
    return start, first_byte, completion


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

    _core_type = DiskCore
    core: DiskCore

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
                # disk_step charges these two as free and instantaneous.
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
        self.core.attach(spec, spindown_policy
                         or FixedTimeout(spec.spindown_timeout))
        #: failed spin-up attempts (diagnostics + energy-bound audits).
        self.spinup_failure_count = 0

    @property
    def spindown_policy(self) -> SpindownPolicy:
        return self.core.policy

    @property
    def spinup_count(self) -> int:
        """Demand spin-ups, wakes from sleep included."""
        return self.core.counts["disk.spinup"] + self.wake_count

    @property
    def wake_count(self) -> int:
        """The spin-ups that were wakes from sleep."""
        return self.core.counts["disk.wake"]

    @property
    def spindown_count(self) -> int:
        return self.core.counts["disk.spindown"]

    @property
    def sleep_count(self) -> int:
        return self.core.counts["disk.to-sleep"]

    def advance_to(self, time: float) -> None:
        """Advance to ``time``, firing the DPM timeouts due by then."""
        disk_step(self.core, time)

    def spindown_deadline(self) -> float | None:
        """Absolute time the DPM will spin down, or None if not idle."""
        core = self.core
        if core.state != _IDLE:
            return None
        return max(core.last_activity, core.busy_until) + core.timeout

    # ------------------------------------------------------------------
    # request service
    # ------------------------------------------------------------------
    def positioning_time(self, block: int | None) -> Seconds:
        """:func:`_positioning_time` from the current head."""
        return _positioning_time(self.core.seek, self.core.head, block)

    def service(self, time: float, size_bytes: Bytes,
                block: int | None = None,
                block_count: int | None = None) -> DiskServiceResult:
        """Service a ``size_bytes`` request arriving at ``time``.

        ``block``/``block_count`` place the transfer on the platter (in
        512-byte sectors or any consistent unit) purely for sequentiality
        accounting; they do not scale the transfer time, which is
        ``size_bytes / bandwidth``.  Positional or keyword: the disk
        service passes all four by position.
        """
        if size_bytes < 0:
            raise ValueError("negative request size")
        core = self.core
        disk_step(core, time)
        energy = core._energy
        busy = core.busy_until
        state = core.state
        waited = busy > time and state == _STANDBY
        # A request that waited on a spin-down is charged from arrival
        # (e0), any other one from its start (e_pre), so e0 is only
        # summed when it is used.  sum(energy.values()) inlines
        # meter.total(): with no `upto` the tail term is zero and the
        # sums are bit-identical.
        e0 = sum(energy.values()) if waited else 0.0
        start = time if time >= busy else busy
        if start > core._last_time:
            # The guard disk_step inlines: advance() is a no-op
            # otherwise, and this runs once per disk extent.
            core.advance(start)
        e_pre = sum(energy.values())
        failed = False
        if (state == _STANDBY and self._faults is not None
                and self._faults.affects_disk):
            # The quiet period ends at the first attempt.
            _end_quiet_period(core, start)
            start, failed = self._attempt_spinup(start)
        if failed:
            first_byte = completion = start
        else:
            start, first_byte, completion = disk_step(
                core, start, size_bytes, True, block, block_count or 0)
        e1 = sum(energy.values())
        # Positional, in field order (arrival, start, first_byte,
        # completion, energy, spun_up, waited_for_spindown, failed).
        return DiskServiceResult(
            time, start, first_byte, completion,
            e1 - e0 if waited else e1 - e_pre,
            not failed and (state == _STANDBY or state == _SLEEP),
            waited, failed)

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
        core = self.core
        attempts = 0
        while True:
            if not self._faults.next_spinup_fails():
                return _spin_up(core, t), False
            # The motor ran the whole spin-up window and never reached
            # speed: the datasheet energy is burned as an impulse, no
            # supplemental draw during the window (as for a successful
            # transition), and the state stays standby.
            core.advance(t)
            core.add_impulse(self.spec.spinup_energy, "disk.spinup-failed")
            core.set_power(t, 0.0, "disk.spinup-failed")
            failed_at = t + self.spec.spinup_time
            core.advance(failed_at)
            self.set_state_power(failed_at)
            self.note_activity(failed_at)
            self.mark_busy_until(failed_at)
            self.spinup_failure_count += 1
            attempts += 1
            if attempts > spec.spinup_retries:
                return failed_at, True
            t = failed_at + spec.spinup_backoff * (2 ** (attempts - 1))
            core.advance(t)

    def force_spinup(self, time: float) -> float:
        """Spin the disk up without a transfer (BlueFS ghost hint).

        Returns the time the disk reaches the idle (spinning) state; a
        no-op if the disk is already spinning.
        """
        core = self.core
        disk_step(core, time)
        if core.state not in (_STANDBY, _SLEEP):
            return time
        # Clamp to the busy horizon exactly as service() does: a hint can
        # arrive timestamped before an in-flight transition (e.g. a failed
        # demand spin-up) has finished, and starting the transition inside
        # that window would let the timeline disagree with the (clamping)
        # energy meter.
        ready = _spin_up(core, max(time, core.busy_until))
        core.transition(ready, _IDLE)
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
        state = from_state or self.core.state
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
