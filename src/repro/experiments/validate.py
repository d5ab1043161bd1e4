"""Physical-consistency checks on run results.

A trace-driven energy simulator can silently drift (double-charged
transitions, un-metered intervals, residency gaps).  These validators
re-derive each device's energy from its *state residency* and compare
against the meter, and check a handful of structural invariants.  They
are cheap enough to run on every result and are wired into the
integration tests and available to downstream users:

    from repro.experiments.validate import validate_run
    issues = validate_run(result)
    assert not issues
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.telemetry import RunResult
from repro.devices.disk import DISK_BUCKETS
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA, DiskSpec, WnicSpec
from repro.devices.wnic import WNIC_BUCKETS


@dataclass(frozen=True, slots=True)
class Issue:
    """One failed consistency check."""

    check: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.check}] {self.detail}"


def _disk_energy_bounds(result: RunResult,
                        spec: DiskSpec) -> tuple[float, float]:
    """(lower, upper) bound on disk energy from residency + counters.

    Residency x state power gives the baseline; the transition impulses
    add exactly ``count x datasheet energy`` per edge (spin-ups, wakes
    from sleep, spin-downs, failed spin-ups).  During *active*
    residency the draw is exactly ``active_power``; the only slack is
    transition windows, which draw nothing -- hence the lower bound
    subtracts their worst-case share of residency.
    """
    res = result.disk_residency
    base = (res.get("active", 0.0) * spec.active_power
            + res.get("idle", 0.0) * spec.idle_power
            + res.get("standby", 0.0) * spec.standby_power
            + res.get("sleep", 0.0) * spec.sleep_power)
    spinups = result.disk_spinups - result.disk_wakes
    impulses = (spinups * spec.spinup_energy
                + result.disk_wakes * spec.wake_energy
                + result.disk_spindowns * spec.spindown_energy
                # Injected spin-up failures burn the datasheet impulse
                # but never leave standby.
                + result.disk_spinup_failures * spec.spinup_energy)
    # Transition windows are recorded under their destination state's
    # residency but draw zero watts.
    max_window = ((spinups * spec.spinup_time
                   + result.disk_wakes * spec.wake_time)
                  * spec.active_power
                  + result.disk_spindowns * spec.spindown_time
                  * spec.standby_power
                  # Failed spin-up windows sit in standby residency at
                  # zero supplemental draw.
                  + result.disk_spinup_failures * spec.spinup_time
                  * spec.standby_power)
    lo = base + impulses - max_window
    hi = base + impulses
    return lo - 1e-6, hi + 1e-6


def _impulse_books(result: RunResult, disk_spec: DiskSpec,
                   wnic_spec: WnicSpec) -> list[tuple[str, float, float]]:
    """(bucket, charged joules, count x datasheet joules) per impulse
    bucket: each transition edge charges exactly its datasheet energy
    once per counted transition."""
    disk = result.disk_breakdown
    wnic = result.wnic_breakdown
    spinups = result.disk_spinups - result.disk_wakes
    return [
        ("disk.spinup", disk.get("disk.spinup", 0.0),
         spinups * disk_spec.spinup_energy),
        ("disk.wake", disk.get("disk.wake", 0.0),
         result.disk_wakes * disk_spec.wake_energy),
        ("disk.spindown", disk.get("disk.spindown", 0.0),
         result.disk_spindowns * disk_spec.spindown_energy),
        ("disk.spinup-failed", disk.get("disk.spinup-failed", 0.0),
         result.disk_spinup_failures * disk_spec.spinup_energy),
        ("wnic.wakeup", wnic.get("wnic.wakeup", 0.0),
         result.wnic_wakeups * wnic_spec.psm_to_cam_energy),
        ("wnic.doze", wnic.get("wnic.doze", 0.0),
         result.wnic_dozes * wnic_spec.cam_to_psm_energy),
    ]


def validate_run(result: RunResult, *,
                 disk_spec: DiskSpec = HITACHI_DK23DA,
                 wnic_spec: WnicSpec = AIRONET_350) -> list[Issue]:
    """Run every consistency check; returns the (hopefully empty) list."""
    issues: list[Issue] = []

    # -- structural ----------------------------------------------------
    if result.end_time < 0:
        issues.append(Issue("time", f"negative end time {result.end_time}"))
    if result.foreground_time > result.end_time + 1e-6:
        issues.append(Issue(
            "time", "foreground outlives the whole run: "
            f"{result.foreground_time} > {result.end_time}"))
    for name, value in (("disk", result.disk_energy),
                        ("wnic", result.wnic_energy)):
        if value < -1e-9:
            issues.append(Issue("energy", f"negative {name} energy"))
    if abs(result.total_energy
           - (result.disk_energy + result.wnic_energy)) > 1e-6:
        issues.append(Issue("energy", "total != disk + wnic"))

    # -- breakdowns sum to totals ---------------------------------------
    for name, breakdown, total in (
            ("disk", result.disk_breakdown, result.disk_energy),
            ("wnic", result.wnic_breakdown, result.wnic_energy)):
        s = sum(breakdown.values())
        if abs(s - total) > max(1e-6, 1e-9 * max(abs(total), 1.0)):
            issues.append(Issue(
                "breakdown", f"{name} buckets sum to {s:.6f},"
                f" meter says {total:.6f}"))

    # -- residency covers the run ----------------------------------------
    for name, residency in (("disk", result.disk_residency),
                            ("wnic", result.wnic_residency)):
        covered = sum(residency.values())
        if result.end_time > 0 and \
                abs(covered - result.end_time) > 1e-6 * result.end_time \
                + 1e-6:
            issues.append(Issue(
                "residency", f"{name} residency covers {covered:.6f} s"
                f" of a {result.end_time:.6f} s run"))

    # -- every bucket is declared by its device --------------------------
    for name, breakdown, declared in (
            ("disk", result.disk_breakdown, DISK_BUCKETS),
            ("wnic", result.wnic_breakdown, WNIC_BUCKETS)):
        for bucket in breakdown:
            if bucket not in declared:
                issues.append(Issue(
                    "breakdown", f"{name} charged undeclared bucket"
                    f" {bucket!r}"))

    # -- impulse buckets: count x datasheet energy, exactly -----------------
    for bucket, charged, books in _impulse_books(result, disk_spec,
                                                 wnic_spec):
        if abs(charged - books) > 1e-9 * max(abs(books), 1.0):
            issues.append(Issue(
                "impulses", f"{bucket} charged {charged:.9f} J, its"
                f" transition count prices {books:.9f} J"))

    # -- energy re-derivable from residency -------------------------------
    if result.disk_residency:
        lo, hi = _disk_energy_bounds(result, disk_spec)
        if not (lo <= result.disk_energy <= hi):
            issues.append(Issue(
                "conservation",
                f"disk energy {result.disk_energy:.3f} J outside"
                f" residency-derived bounds [{lo:.3f}, {hi:.3f}]"))

    # WNIC residency-derived *lower* bound: idle draws only.
    if result.wnic_residency:
        res = result.wnic_residency
        floor = (res.get("cam", 0.0) * wnic_spec.cam_idle_power
                 + res.get("psm", 0.0) * wnic_spec.psm_idle_power)
        switch_window = (result.wnic_wakeups
                         * wnic_spec.psm_to_cam_time
                         * wnic_spec.cam_idle_power
                         + result.wnic_dozes
                         * wnic_spec.cam_to_psm_time
                         * wnic_spec.cam_idle_power)
        if result.wnic_energy < floor - switch_window - 1e-6:
            issues.append(Issue(
                "conservation",
                f"wnic energy {result.wnic_energy:.3f} J below the"
                f" idle-draw floor {floor:.3f} J"))

    # -- device request accounting -----------------------------------------
    total_routed = sum(result.device_requests.values())
    if total_routed < 0:
        issues.append(Issue("routing", "negative request count"))
    for source, nbytes in result.device_bytes.items():
        if nbytes < 0:
            issues.append(Issue("routing",
                                f"negative bytes for {source}"))
        if nbytes > 0 and result.device_requests.get(source, 0) == 0:
            issues.append(Issue(
                "routing", f"{source} moved {nbytes} bytes with zero"
                " requests"))
    if not 0.0 <= result.cache_hit_ratio <= 1.0:
        issues.append(Issue("cache", "hit ratio outside [0, 1]"))
    return issues
