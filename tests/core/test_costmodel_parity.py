"""Bitwise parity of the packed burst-cost kernel.

Two independent equivalences keep the packed kernel honest:

* **packed vs object** — ``_replay_requests`` dispatching to the packed
  columns must reproduce ``_replay_object`` (a clone-driven replay of
  the same requests) *exactly*, field for field, bit for bit;
* **profile range vs request lists** — ``CostModel.stage_pair`` over a
  profile's precompiled columns must reproduce the request-list route
  (``filter_cached`` then ``_replay_requests``), on packed devices and
  on the ones the packed walk refuses.

Hypothesis drives both over randomized stages; any drift — a reordered
float reduction, a fused multiply, an off-by-one block placement —
shows up as an exact-inequality counterexample.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.burst import IOBurst, ProfiledRequest
from repro.core.costmodel import (
    CostModel,
    _replay_object,
    _replay_requests,
    filter_cached,
)
from repro.core.decision import DataSource
from repro.core.profile import ExecutionProfile
from repro.devices.disk import HardDisk
from repro.devices.dpm import AdaptiveTimeout
from repro.devices.layout import DiskLayout
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
from repro.devices.wnic import WirelessNic
from repro.traces.record import OpType

INODES = (1, 2, 3)
#: an inode the layout does not know (exercises the average-seek path).
UNPLACED_INODE = 99

_request = st.builds(
    ProfiledRequest,
    inode=st.sampled_from(INODES + (UNPLACED_INODE,)),
    offset=st.integers(0, 1 << 13).map(lambda v: v * 512),
    size=st.integers(1, 1 << 20),
    op=st.sampled_from([OpType.READ, OpType.WRITE]))

_stage = st.lists(st.lists(_request, max_size=5), min_size=1, max_size=5)

_think = st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False)
_now = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


def _layout() -> DiskLayout:
    layout = DiskLayout(seed=0)
    for inode in INODES:
        layout.add_file(inode, 8 << 20)
    return layout


def _thinks_for(stage, data):
    return data.draw(st.lists(_think, min_size=len(stage),
                              max_size=len(stage)))


def _estimate(source, device_factory, stage, thinks, *, now, layout,
              other_factory=None, min_duration=None, use_packed=True):
    replay = _replay_requests if use_packed else _replay_object
    return replay(source, device_factory(), stage, thinks, now=now,
                  layout=layout,
                  other_device=other_factory() if other_factory else None,
                  min_duration=min_duration)


class TestPackedVsObject:
    """The packed kernel is a bit-exact clone of the object replay."""

    @settings(max_examples=200, deadline=None)
    @given(stage=_stage, now=_now, data=st.data())
    def test_disk_stage(self, stage, now, data):
        thinks = _thinks_for(stage, data)
        layout = _layout()
        packed = _estimate(DataSource.DISK, lambda: HardDisk(HITACHI_DK23DA),
                           stage, thinks, now=now, layout=layout)
        obj = _estimate(DataSource.DISK, lambda: HardDisk(HITACHI_DK23DA),
                        stage, thinks, now=now, layout=layout,
                        use_packed=False)
        assert packed == obj

    @settings(max_examples=200, deadline=None)
    @given(stage=_stage, now=_now, data=st.data())
    def test_wnic_stage(self, stage, now, data):
        thinks = _thinks_for(stage, data)
        packed = _estimate(DataSource.NETWORK,
                           lambda: WirelessNic(AIRONET_350),
                           stage, thinks, now=now, layout=None)
        obj = _estimate(DataSource.NETWORK,
                        lambda: WirelessNic(AIRONET_350),
                        stage, thinks, now=now, layout=None,
                        use_packed=False)
        assert packed == obj

    @settings(max_examples=100, deadline=None)
    @given(stage=_stage, now=_now,
           min_duration=st.one_of(st.none(), st.floats(0.0, 200.0)),
           data=st.data())
    def test_disk_with_other_device_and_floor(self, stage, now,
                                              min_duration, data):
        """The other-device baseline and the audit floor ride along."""
        thinks = _thinks_for(stage, data)
        layout = _layout()
        kwargs = dict(now=now, layout=layout,
                      other_factory=lambda: WirelessNic(AIRONET_350),
                      min_duration=min_duration)
        packed = _estimate(DataSource.DISK,
                           lambda: HardDisk(HITACHI_DK23DA),
                           stage, thinks, **kwargs)
        obj = _estimate(DataSource.DISK, lambda: HardDisk(HITACHI_DK23DA),
                        stage, thinks, use_packed=False, **kwargs)
        assert packed == obj


#: a file smaller than the drawn offsets reach (exercises past-EOF).
SMALL_INODE = 4


class FakeResidency:
    """Deterministic residency: per request none, part, all, or more
    than all of it is cached, by a mix of its fields and a salt."""

    def __init__(self, salt: int) -> None:
        self.salt = salt

    def resident_bytes(self, inode: int, offset: int, size: int) -> int:
        mode = (inode * 7919 + offset // 512 + size + self.salt) % 4
        if mode == 0:
            return 0
        if mode == 1:
            return size // 3
        if mode == 2:
            return size
        return size + 4096


def _range_layout() -> DiskLayout:
    layout = _layout()
    layout.add_file(SMALL_INODE, 64 << 10)
    return layout


_profile_request = st.builds(
    ProfiledRequest,
    inode=st.sampled_from(INODES + (SMALL_INODE, UNPLACED_INODE)),
    offset=st.integers(0, 1 << 13).map(lambda v: v * 512),
    size=st.integers(1, 1 << 20),
    op=st.sampled_from([OpType.READ, OpType.WRITE]))

_burst = st.builds(lambda reqs: IOBurst(tuple(reqs), 0.0, 0.0),
                   st.lists(_profile_request, min_size=1, max_size=5))

_DISKS = {
    "stock": lambda: HardDisk(HITACHI_DK23DA),
    "adaptive": lambda: HardDisk(
        HITACHI_DK23DA, spindown_policy=AdaptiveTimeout(initial=5.0)),
}
_WNICS = {
    "stock": lambda: WirelessNic(AIRONET_350),
    "psm": lambda: WirelessNic(AIRONET_350.with_psm_transfers()),
}


class TestProfileRangeVsRequestLists:
    """``stage_pair`` over profile columns is the request-list route."""

    @settings(max_examples=200, deadline=None)
    @given(bursts=st.lists(_burst, min_size=1, max_size=6),
           disk_kind=st.sampled_from(sorted(_DISKS)),
           wnic_kind=st.sampled_from(sorted(_WNICS)),
           salt=st.one_of(st.none(), st.integers(0, 3)),
           now=_now, data=st.data())
    def test_stage_pair(self, bursts, disk_kind, wnic_kind, salt, now,
                        data):
        profile = ExecutionProfile(bursts, _thinks_for(bursts, data))
        first = data.draw(st.integers(0, len(bursts)))
        stop = data.draw(st.integers(first, len(bursts)))
        vfs = FakeResidency(salt) if salt is not None else None
        layout = _range_layout()
        disk, wnic = _DISKS[disk_kind](), _WNICS[wnic_kind]()

        pair = CostModel(disk, wnic, layout).stage_pair(
            profile, first, stop, now=now, vfs=vfs)

        stage = profile.bursts[first:stop]
        thinks = profile.thinks[first:stop]
        request_lists = (filter_cached(stage, vfs) if vfs is not None
                         else [list(b.requests) for b in stage])
        reference = (
            _replay_requests(DataSource.DISK, disk, request_lists, thinks,
                             now=now, layout=layout, other_device=wnic,
                             min_duration=None),
            _replay_requests(DataSource.NETWORK, wnic, request_lists,
                             thinks, now=now, layout=layout,
                             other_device=disk, min_duration=None))
        assert pair == reference
        if disk_kind == wnic_kind == "stock":
            # ... and the packed route is the object oracle's.
            assert pair[0] == _replay_object(
                DataSource.DISK, disk, request_lists, thinks, now=now,
                layout=layout, other_device=wnic, min_duration=None)

    def test_placement_follows_a_grown_layout(self):
        """A file registered after a decision is placed at the next one."""
        near = ProfiledRequest(inode=1, offset=0, size=8192,
                               op=OpType.READ)
        late = ProfiledRequest(inode=UNPLACED_INODE, offset=0, size=8192,
                               op=OpType.READ)
        profile = ExecutionProfile([IOBurst((near, late), 0.0, 0.0)],
                                   [0.0])
        layout = _range_layout()
        model = CostModel(HardDisk(HITACHI_DK23DA),
                          WirelessNic(AIRONET_350), layout)
        before = model.stage_pair(profile, 0, 1, now=0.0)
        layout.add_file(UNPLACED_INODE, 1 << 20)
        after = model.stage_pair(profile, 0, 1, now=0.0)
        fresh = CostModel(HardDisk(HITACHI_DK23DA),
                          WirelessNic(AIRONET_350), layout)
        assert after == fresh.stage_pair(profile, 0, 1, now=0.0)
        assert after != before
