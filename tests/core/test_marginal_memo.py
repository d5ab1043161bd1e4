"""The cost model's marginal-cost memo against fresh estimates.

``CostModel.marginal_pair`` (BlueFS's per-request view) memoises the
(disk, network) pair per ``(disk state, WNIC state, nbytes, op)``, and
``disk_marginal`` the disk's cost per ``(state, nbytes)``, for the life
of the session.  Both estimates are pure functions of the frozen specs
and those keys.  So a memoised answer must equal a fresh
``estimate_service`` from every power state, come back as the same
object for an equal key, and change when a DPM timeout moves either
device between two calls at the same size.
"""

from __future__ import annotations

from collections.abc import Callable

import pytest

from repro.core.costmodel import CostModel, MarginalCost
from repro.devices.disk import DiskState, HardDisk
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
from repro.devices.wnic import Direction, WirelessNic, WnicMode
from repro.traces.record import OpType

SIZES = (0, 1, 4096, 16 << 10, (16 << 10) + 1, 64 << 10, 1 << 20)
OPS = (OpType.READ, OpType.WRITE)


def _active_disk() -> HardDisk:
    disk = HardDisk()
    disk.transition(0.0, DiskState.ACTIVE.value)
    return disk


def _asleep_disk() -> HardDisk:
    disk = HardDisk(HITACHI_DK23DA.with_sleep(5.0), start_time=-5.0)
    disk.advance_to(0.0)
    return disk


#: one disk per power state, each at a clock where no timeout is due.
DISKS: dict[str, Callable[[], HardDisk]] = {
    DiskState.STANDBY.value: HardDisk,
    DiskState.IDLE.value: lambda: HardDisk(initially_standby=False),
    DiskState.ACTIVE.value: _active_disk,
    DiskState.SLEEP.value: _asleep_disk,
}
#: one card per power state, and a dozing one that serves small
#: transfers in PSM.
WNICS: dict[str, Callable[[], WirelessNic]] = {
    WnicMode.PSM.value: WirelessNic,
    WnicMode.CAM.value: lambda: WirelessNic(initially_psm=False),
    "psm-transfers": lambda: WirelessNic(AIRONET_350.with_psm_transfers()),
}


def _fresh_pair(disk: HardDisk, wnic: WirelessNic, nbytes: int,
                op: OpType) -> tuple[MarginalCost, MarginalCost]:
    direction = Direction.RECV if op is OpType.READ else Direction.SEND
    return (MarginalCost(*disk.estimate_service(nbytes)),
            MarginalCost(*wnic.estimate_service(nbytes,
                                                direction=direction)))


@pytest.mark.parametrize("wnic_kind", sorted(WNICS))
@pytest.mark.parametrize("disk_kind", sorted(DISKS))
def test_memoised_pairs_equal_fresh_estimates(disk_kind, wnic_kind):
    disk, wnic = DISKS[disk_kind](), WNICS[wnic_kind]()
    states = (disk.state, wnic.state)
    assert disk.state == disk_kind
    model = CostModel(disk, wnic)
    first: dict[tuple[int, OpType], tuple[MarginalCost, MarginalCost]] = {}
    for _ in range(2):
        for nbytes in SIZES:
            for op in OPS:
                pair = model.marginal_pair(0.0, nbytes, op)
                assert pair == _fresh_pair(disk, wnic, nbytes, op)
                # An equal key returns the very object.
                assert first.setdefault((nbytes, op), pair) is pair
    assert (disk.state, wnic.state) == states


def test_the_direction_matters():
    """A read and a write of one size on an awake card cost differently
    (CAM receive and send draw differently)."""
    model = CostModel(HardDisk(), WirelessNic(initially_psm=False))
    read = model.marginal_pair(0.0, 64 << 10, OpType.READ)
    write = model.marginal_pair(0.0, 64 << 10, OpType.WRITE)
    assert read[0] == write[0]
    assert read[1] != write[1]


@pytest.mark.parametrize("disk_kind", sorted(DISKS))
def test_memoised_disk_marginals_equal_fresh_estimates(disk_kind):
    disk = DISKS[disk_kind]()
    model = CostModel(disk, WirelessNic())
    for _ in range(2):
        for nbytes in SIZES:
            for from_state in (None, *sorted(DISKS)):
                cost = model.disk_marginal(nbytes, from_state=from_state)
                assert cost == MarginalCost(*disk.estimate_service(
                    nbytes, from_state=from_state))
                assert model.disk_marginal(
                    nbytes, from_state=from_state) is cost


def test_a_forced_state_is_its_own_key():
    """The ghost-hint counterfactual (from idle) and the current state
    (standby) at one size are different costs."""
    model = CostModel(HardDisk(), WirelessNic())
    current = model.disk_marginal(4096)
    forced = model.disk_marginal(4096, from_state=DiskState.IDLE.value)
    assert current.energy > forced.energy
    assert model.disk_marginal(4096) is current


def test_a_spin_down_between_calls_changes_the_pair():
    disk = HardDisk(initially_standby=False)
    wnic = WirelessNic()
    model = CostModel(disk, wnic)
    spinning = model.marginal_pair(0.0, 4096, OpType.READ)
    assert (disk.state, wnic.state) == ("idle", "psm")
    later = disk.spindown_deadline() + 1.0
    spun_down = model.marginal_pair(later, 4096, OpType.READ)
    assert (disk.state, wnic.state) == ("standby", "psm")
    assert spun_down != spinning
    assert spun_down[0].energy > spinning[0].energy
    assert spun_down == _fresh_pair(disk, wnic, 4096, OpType.READ)


def test_a_doze_between_calls_changes_the_pair():
    disk = HardDisk()
    wnic = WirelessNic(initially_psm=False)
    model = CostModel(disk, wnic)
    awake = model.marginal_pair(0.0, 4096, OpType.READ)
    assert (disk.state, wnic.state) == ("standby", "cam")
    dozing = model.marginal_pair(5.0, 4096, OpType.READ)
    assert (disk.state, wnic.state) == ("standby", "psm")
    assert dozing != awake
    assert dozing[1].time > awake[1].time
    assert dozing == _fresh_pair(disk, wnic, 4096, OpType.READ)
