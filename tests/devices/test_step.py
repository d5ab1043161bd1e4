"""A what-if copy of a device's core steps exactly like the live device.

The live devices run their step (``disk_step``, ``wnic_step``) on their
own core; the cost model runs it on ``PowerCore.what_if`` copies.  These
tests serve the same requests both ways and hold the two to the same
service times, operating point and energy, so a copy that loses part of
the operating point (the head, the quiet period under way, the policy's
timeout, ...) or a live wrapper that charges extra fails here.
"""

from __future__ import annotations

import pytest

from repro.devices.disk import DiskState, HardDisk, disk_step
from repro.devices.dpm import AdaptiveTimeout
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
from repro.devices.wnic import Direction, WirelessNic, wnic_step


def _spun_down_adaptive_disk() -> HardDisk:
    """An adaptive disk that spun down just before t = 0."""
    disk = HardDisk(HITACHI_DK23DA, start_time=-10.0,
                    initially_standby=False,
                    spindown_policy=AdaptiveTimeout(initial=5.0))
    disk.advance_to(0.0)
    assert disk.state == DiskState.STANDBY.value
    return disk


def _asleep_disk() -> HardDisk:
    disk = HardDisk(HITACHI_DK23DA.with_sleep(5.0), start_time=-5.0)
    disk.advance_to(0.0)
    assert disk.state == DiskState.SLEEP.value
    return disk


DISKS = {
    "stock": HardDisk,
    "adaptive": _spun_down_adaptive_disk,
    "asleep": _asleep_disk,
    "adaptive+sleep": lambda: HardDisk(
        HITACHI_DK23DA.with_sleep(5.0),
        spindown_policy=AdaptiveTimeout(initial=5.0)),
}
WNICS = {
    "stock": WirelessNic,
    "psm": lambda: WirelessNic(AIRONET_350.with_psm_transfers()),
}

#: (size, block, think after): back-to-back and sequential requests,
#: far seeks, and thinks long enough for spin-down, sleep and doze.
REQUESTS = [(4096, 100, 0.0), (65536, 101, 0.0), (1 << 20, 90_000, 2.0),
            (8192, None, 40.0), (4096, 500, 0.5), (1 << 20, 510, 60.0),
            (2048, 7, 0.0)]


def _disk_operating_point(core):
    return (core.state, core.busy_until, core.last_activity, core.head,
            core.quiet_since, core.timeout, core.policy.timeout())


def _wnic_operating_point(core):
    return (core.state, core.busy_until, core.last_activity)


def _replay_both(live, copy, serve, step, operating_point):
    e0 = live.energy()
    t = 0.0
    for size, block, think in REQUESTS:
        result = serve(live, t, size, block)
        assert step(copy, t, size, True, block,
                    0 if block is None else -(-size // 4096)) == (
            result.start, result.first_byte, result.completion)
        t = result.completion + think
        live.advance_to(t)
        step(copy, t)
        assert operating_point(copy) == operating_point(live.core)
    assert copy.total() == pytest.approx(live.energy() - e0, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(DISKS))
def test_disk_copy_steps_like_the_live_disk(kind):
    live, twin = DISKS[kind](), DISKS[kind]()
    _replay_both(
        live, twin.core.what_if(),
        lambda d, t, size, block: d.service(
            t, size, block=block,
            block_count=None if block is None else -(-size // 4096)),
        disk_step, _disk_operating_point)


@pytest.mark.parametrize("kind", sorted(WNICS))
def test_wnic_copy_steps_like_the_live_wnic(kind):
    live, twin = WNICS[kind](), WNICS[kind]()
    _replay_both(
        live, twin.core.what_if(),
        lambda w, t, size, block: w.service(t, size,
                                            direction=Direction.RECV),
        wnic_step, _wnic_operating_point)


def test_copy_leaves_the_live_core_alone():
    disk = _spun_down_adaptive_disk()
    before = (_disk_operating_point(disk.core), disk.energy(),
              dict(disk.core.counts))
    copy = disk.core.what_if()
    for size, block, think in REQUESTS:
        disk_step(copy, copy.last_time + think, size, True, block, 1)
    assert copy.policy is not disk.core.policy
    assert (_disk_operating_point(disk.core), disk.energy(),
            dict(disk.core.counts)) == before
