"""Bitwise parity of the packed burst-cost kernel against its oracle.

The cost model has one evaluation path: the packed walks of
``repro.core.costmodel``.  This module keeps the literal
clone-and-replay path — ``_replay_object`` (clone the device, call its
``service`` request by request) behind ``filter_cached`` (the §2.3.2
cache filter over request records) — as the oracle the walks are held
to.  It replays the real device models, so any cost term, bucket or
transition a walk drops or invents shows up as an exact inequality.

Every check runs over one device zoo covering every variant the device
models implement: fixed and adaptive spin-down, the sleep tier
(including a disk already asleep), and PSM bulk transfers.

* **packed vs object** — ``replay_stage`` must reproduce the oracle
  field for field, bit for bit;
* **profile range vs oracle** — ``CostModel.stage_pair`` over a
  profile's precompiled columns must reproduce the oracle over the
  cache-filtered request lists;
* **bucket coverage** — the zoo's fixed stages make the oracle charge
  every non-fault energy bucket, so the parity above is exercised on
  every one of them;
* **whole sessions** — FlexFetch runs with each variant, and a
  two-program run on the live kernel path, are unchanged when the cost
  model (the stage audit's request columns included) is swapped for
  the oracle.

Hypothesis drives the first two over randomized stages; any drift — a
reordered float reduction, a fused multiply, an off-by-one block
placement — shows up as an exact-inequality counterexample.
"""

from __future__ import annotations

from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.burst import IOBurst, ProfiledRequest
from repro.core.costmodel import (
    CostModel,
    ResidencyOracle,
    StageEstimate,
    replay_stage,
)
from repro.core.decision import DataSource
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.profile import ExecutionProfile, profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.devices.disk import DiskState, HardDisk
from repro.devices.dpm import AdaptiveTimeout
from repro.devices.layout import DiskLayout
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
from repro.devices.wnic import Direction, WirelessNic
from repro.traces.record import OpType
from repro.traces.synth import generate_grep, generate_grep_make, generate_make
from repro.units import Seconds


# ----------------------------------------------------------------------
# the oracle: clone the device and replay request by request
# ----------------------------------------------------------------------
def filter_cached(bursts: Sequence[IOBurst],
                  vfs: ResidencyOracle) -> list[list[ProfiledRequest]]:
    """Apply the §2.3.2 cache filter to a stage's bursts.

    Returns, per burst, the requests that would still reach a device:
    fully resident requests vanish, partially resident ones shrink by
    the resident byte count (an approximation that preserves totals).
    Reads only — writes always dirty pages regardless of residency.
    """
    filtered: list[list[ProfiledRequest]] = []
    resident_bytes = vfs.resident_bytes
    for burst in bursts:
        keep: list[ProfiledRequest] = []
        for req in burst.requests:
            if req.op is OpType.READ:
                resident = resident_bytes(req.inode, req.offset, req.size)
                if resident <= 0:
                    # Nothing cached: the request passes through
                    # unchanged, so skip rebuilding an identical record.
                    keep.append(req)
                    continue
                remaining = req.size - resident
                if remaining <= 0:
                    continue
                keep.append(ProfiledRequest(
                    inode=req.inode, offset=req.offset,
                    size=remaining, op=req.op))
            else:
                keep.append(req)
        filtered.append(keep)
    return filtered


def _replay_object(source: DataSource,
                   device: HardDisk | WirelessNic,
                   request_lists: Sequence[Sequence[ProfiledRequest]],
                   thinks: Sequence[float], *,
                   now: Seconds,
                   layout: DiskLayout | None,
                   other_device: HardDisk | WirelessNic | None,
                   min_duration: Seconds | None) -> StageEstimate:
    """The literal clone-and-replay path (and the packed path's oracle)."""
    clone = device.clone()
    clone.advance_to(now)
    e0 = clone.energy(now)

    t = now
    total_bytes = 0
    total_requests = 0
    is_disk = isinstance(clone, HardDisk)
    for i, requests in enumerate(request_lists):
        for req in requests:
            total_bytes += req.size
            total_requests += 1
            if is_disk:
                block = None
                nblocks = None
                if layout is not None and req.inode in layout:
                    # Profiled offsets come from a *prior* run and may
                    # exceed the current file (different data set);
                    # unknown placement falls back to an average seek.
                    ext = layout.get(req.inode)
                    rel = req.offset // 4096
                    if rel < ext.nblocks:
                        block = ext.start_block + rel
                        nblocks = -(-req.size // 4096)
                result = clone.service(t, req.size, block=block,
                                       block_count=nblocks)
            else:
                direction = (Direction.RECV if req.op is OpType.READ
                             else Direction.SEND)
                result = clone.service(t, req.size, direction=direction)
            t = result.completion
        is_last = i == len(request_lists) - 1
        if not is_last:
            t += thinks[i]
            clone.advance_to(t)
    if min_duration is not None:
        t = max(t, now + min_duration)
    clone.advance_to(t)
    e1 = clone.energy(t)
    energy = max(0.0, e1 - e0)
    if other_device is not None:
        other = other_device.clone()
        other.advance_to(now)
        oe0 = other.energy(now)
        other.advance_to(max(t, now))
        energy += max(0.0, other.energy(max(t, now)) - oe0)
    return StageEstimate(source=source, time=max(0.0, t - now),
                         energy=energy,
                         nbytes=total_bytes, requests=total_requests)


def _oracle(source, device, bursts, thinks, *, now, layout=None, vfs=None,
            other_device=None, min_duration=None):
    """The oracle's estimate for a stage of bursts (``replay_stage``'s
    signature)."""
    request_lists = (filter_cached(bursts, vfs) if vfs is not None
                     else [list(b.requests) for b in bursts])
    return _replay_object(source, device, request_lists, thinks, now=now,
                          layout=layout, other_device=other_device,
                          min_duration=min_duration)


def _oracle_stage_pair(self, profile, first, stop, *, now, vfs=None,
                       disk=None, wnic=None):
    """``CostModel.stage_pair`` computed by the oracle."""
    d = disk if disk is not None else self.disk
    w = wnic if wnic is not None else self.wnic
    bursts = profile.bursts[first:stop]
    thinks = profile.thinks[first:stop]
    return (_oracle(DataSource.DISK, d, bursts, thinks, now=now,
                    layout=self.layout, vfs=vfs, other_device=w),
            _oracle(DataSource.NETWORK, w, bursts, thinks, now=now,
                    layout=self.layout, vfs=vfs, other_device=d))


def _oracle_stage_estimate(self, source, requests, thinks, *, now,
                           include_other=True, min_duration=None,
                           disk=None, wnic=None):
    """``CostModel.stage_estimate`` computed by the oracle, from the
    request columns the stage audit hands it."""
    d = disk if disk is not None else self.disk
    w = wnic if wnic is not None else self.wnic
    device = d if source is DataSource.DISK else w
    other = None
    if include_other:
        other = w if source is DataSource.DISK else d
    records = [ProfiledRequest(inode=inode, offset=offset, size=size,
                               op=OpType.READ if read else OpType.WRITE)
               for inode, offset, size, read in zip(
                   requests.inodes, requests.offsets, requests.sizes,
                   requests.reads, strict=True)]
    bounds = requests.bounds
    bursts = [IOBurst(tuple(records[lo:hi]), 0.0, 0.0)
              for lo, hi in zip(bounds, bounds[1:])]
    return _oracle(source, device, bursts, thinks, now=now,
                   layout=self.layout, other_device=other,
                   min_duration=min_duration)


# ----------------------------------------------------------------------
# the device zoo
# ----------------------------------------------------------------------
def _asleep_disk() -> HardDisk:
    """A disk that dropped from standby into sleep at t = 0."""
    disk = HardDisk(HITACHI_DK23DA.with_sleep(5.0), start_time=-5.0)
    disk.advance_to(0.0)
    assert disk.state == DiskState.SLEEP.value
    return disk


def _spun_down_adaptive_disk() -> HardDisk:
    """An adaptive disk that spun down just before t = 0, so the stage
    starts with a quiet period under way."""
    disk = HardDisk(HITACHI_DK23DA, start_time=-10.0,
                    initially_standby=False,
                    spindown_policy=AdaptiveTimeout(initial=5.0))
    disk.advance_to(0.0)
    assert disk.state == DiskState.STANDBY.value
    return disk


_DISKS = {
    "stock": lambda: HardDisk(HITACHI_DK23DA),
    "adaptive": _spun_down_adaptive_disk,
    "sleep": lambda: HardDisk(HITACHI_DK23DA.with_sleep(5.0)),
    "adaptive+sleep": lambda: HardDisk(
        HITACHI_DK23DA.with_sleep(5.0),
        spindown_policy=AdaptiveTimeout(initial=5.0)),
    "asleep": _asleep_disk,
}
_WNICS = {
    "stock": lambda: WirelessNic(AIRONET_350),
    "psm": lambda: WirelessNic(AIRONET_350.with_psm_transfers()),
}

_disk_kind = st.sampled_from(sorted(_DISKS))
_wnic_kind = st.sampled_from(sorted(_WNICS))

INODES = (1, 2, 3)
#: an inode the layout does not know (exercises the average-seek path).
UNPLACED_INODE = 99
#: a file smaller than the drawn offsets reach (exercises past-EOF).
SMALL_INODE = 4

_request = st.builds(
    ProfiledRequest,
    inode=st.sampled_from(INODES + (SMALL_INODE, UNPLACED_INODE)),
    offset=st.integers(0, 1 << 13).map(lambda v: v * 512),
    # small sizes reach the PSM bulk-transfer path (<= 16 KiB)
    size=st.one_of(st.integers(1, 32 << 10), st.integers(1, 1 << 20)),
    op=st.sampled_from([OpType.READ, OpType.WRITE]))

_burst = st.builds(lambda reqs: IOBurst(tuple(reqs), 0.0, 0.0),
                   st.lists(_request, min_size=1, max_size=5))

_stage = st.lists(_burst, min_size=1, max_size=5)

_think = st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False)
_now = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
#: residency salt; ``None`` disables the cache filter.
_salt = st.one_of(st.none(), st.integers(0, 3))


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

    def resident_inodes(self) -> frozenset[int]:
        """Every inode a drawn request reads may hold a resident page."""
        return frozenset(INODES + (SMALL_INODE, UNPLACED_INODE))


def _layout() -> DiskLayout:
    return DiskLayout(0, {**dict.fromkeys(INODES, 8 << 20),
                          SMALL_INODE: 64 << 10})


def _thinks_for(stage, data):
    return data.draw(st.lists(_think, min_size=len(stage),
                              max_size=len(stage)))


def _vfs(salt):
    return FakeResidency(salt) if salt is not None else None


class TestPackedVsObject:
    """The packed kernel is a bit-exact clone of the object replay."""

    @settings(max_examples=300, deadline=None)
    @given(stage=_stage, kind=_disk_kind, salt=_salt, now=_now,
           data=st.data())
    def test_disk_stage(self, stage, kind, salt, now, data):
        thinks = _thinks_for(stage, data)
        disk = _DISKS[kind]()
        kwargs = dict(now=now, layout=_layout(), vfs=_vfs(salt))
        packed = replay_stage(DataSource.DISK, disk, stage, thinks,
                              **kwargs)
        assert packed == _oracle(DataSource.DISK, disk, stage, thinks,
                                 **kwargs)

    @settings(max_examples=300, deadline=None)
    @given(stage=_stage, kind=_wnic_kind, salt=_salt, now=_now,
           data=st.data())
    def test_wnic_stage(self, stage, kind, salt, now, data):
        thinks = _thinks_for(stage, data)
        wnic = _WNICS[kind]()
        kwargs = dict(now=now, vfs=_vfs(salt))
        packed = replay_stage(DataSource.NETWORK, wnic, stage, thinks,
                              **kwargs)
        assert packed == _oracle(DataSource.NETWORK, wnic, stage, thinks,
                                 **kwargs)

    @settings(max_examples=200, deadline=None)
    @given(stage=_stage, disk_kind=_disk_kind, wnic_kind=_wnic_kind,
           now=_now,
           min_duration=st.one_of(st.none(), st.floats(0.0, 200.0)),
           data=st.data())
    def test_disk_with_other_device_and_floor(self, stage, disk_kind,
                                              wnic_kind, now,
                                              min_duration, data):
        """The other-device baseline and the audit floor ride along."""
        thinks = _thinks_for(stage, data)
        disk, wnic = _DISKS[disk_kind](), _WNICS[wnic_kind]()
        for source, device, other in ((DataSource.DISK, disk, wnic),
                                      (DataSource.NETWORK, wnic, disk)):
            kwargs = dict(now=now, layout=_layout(), other_device=other,
                          min_duration=min_duration)
            packed = replay_stage(source, device, stage, thinks, **kwargs)
            assert packed == _oracle(source, device, stage, thinks,
                                     **kwargs)


class TestProfileRangeVsRequestLists:
    """``stage_pair`` over profile columns is the oracle's pair."""

    @settings(max_examples=300, deadline=None)
    @given(bursts=st.lists(_burst, min_size=1, max_size=6),
           disk_kind=_disk_kind, wnic_kind=_wnic_kind, salt=_salt,
           now=_now, data=st.data())
    def test_stage_pair(self, bursts, disk_kind, wnic_kind, salt, now,
                        data):
        profile = ExecutionProfile(bursts, _thinks_for(bursts, data))
        first = data.draw(st.integers(0, len(bursts)))
        stop = data.draw(st.integers(first, len(bursts)))
        model = CostModel(_DISKS[disk_kind](), _WNICS[wnic_kind](),
                          _layout())
        pair = model.stage_pair(profile, first, stop, now=now,
                                vfs=_vfs(salt))
        assert pair == _oracle_stage_pair(model, profile, first, stop,
                                          now=now, vfs=_vfs(salt))


# ----------------------------------------------------------------------
# bucket coverage: the zoo exercises every non-fault energy bucket
# ----------------------------------------------------------------------
_SMALL_READ = ProfiledRequest(inode=1, offset=0, size=4096, op=OpType.READ)
_SMALL_WRITE = ProfiledRequest(inode=1, offset=8192, size=4096,
                               op=OpType.WRITE)
_BIG_READ = ProfiledRequest(inode=2, offset=0, size=1 << 20,
                            op=OpType.READ)
_BIG_WRITE = ProfiledRequest(inode=3, offset=0, size=1 << 20,
                             op=OpType.WRITE)
#: small requests (PSM transfers), large ones (CAM), back-to-back
#: requests (idle->active), then thinks long enough for spin-down,
#: the sleep tier and the CAM->PSM doze.
_FIXED_STAGE = [
    IOBurst((_SMALL_READ, _SMALL_WRITE, _BIG_READ, _BIG_WRITE), 0.0, 0.0),
    IOBurst((_SMALL_READ,), 0.0, 0.0),
    IOBurst((_BIG_READ, _SMALL_WRITE), 0.0, 0.0),
]
_FIXED_THINKS = [40.0, 60.0, 0.0]

_DISK_BUCKETS = {
    "disk." + name for name in (
        "active", "idle", "standby", "sleep", "spindown", "spinup",
        "wake", "to-sleep", "idle->active", "active->idle")}
_WNIC_BUCKETS = {
    "wnic." + name for name in (
        "cam", "psm", "recv", "send", "psm-recv", "psm-send", "doze",
        "wakeup")}


class TestBucketCoverage:
    """The zoo's fixed stages charge every non-fault bucket, and the
    packed walk matches the oracle on each of them."""

    def _spy_clones(self, monkeypatch):
        clones = []
        for cls in (HardDisk, WirelessNic):
            def spy(self, _clone=cls.clone):
                clone = _clone(self)
                clones.append(clone)
                return clone
            monkeypatch.setattr(cls, "clone", spy)
        return clones

    def test_zoo_charges_every_bucket(self, monkeypatch):
        layout = _layout()
        devices = [(DataSource.DISK, make) for make in _DISKS.values()]
        devices += [(DataSource.NETWORK, make) for make in _WNICS.values()]
        charged: set[str] = set()
        for source, make in devices:
            device = make()
            packed = replay_stage(source, device, _FIXED_STAGE,
                                  _FIXED_THINKS, now=0.0, layout=layout)
            with monkeypatch.context() as patch:
                clones = self._spy_clones(patch)
                oracle = _oracle(source, device, _FIXED_STAGE,
                                 _FIXED_THINKS, now=0.0, layout=layout)
            assert packed == oracle
            for clone in clones:
                charged.update(clone.meter.breakdown())
        assert _DISK_BUCKETS <= charged
        assert _WNIC_BUCKETS <= charged

    def test_walk_leaves_the_live_policy_alone(self):
        policy = AdaptiveTimeout(initial=5.0)
        disk = HardDisk(HITACHI_DK23DA, spindown_policy=policy)
        replay_stage(DataSource.DISK, disk, _FIXED_STAGE, _FIXED_THINKS,
                     now=0.0)
        assert policy.timeout() == 5.0
        assert policy.premature_count == policy.profitable_count == 0


# ----------------------------------------------------------------------
# whole sessions: every variant's run is the oracle's run
# ----------------------------------------------------------------------
#: the ablation benches' seed.
SEED = 7

#: session keyword arguments per variant (a fresh policy per run).
_VARIANTS = {
    "adaptive-dpm": lambda: dict(
        spindown_policy=AdaptiveTimeout(initial=20.0)),
    "sleep": lambda: dict(disk_spec=HITACHI_DK23DA.with_sleep(30.0)),
    "psm-transfers": lambda: dict(
        wnic_spec=AIRONET_350.with_psm_transfers()),
}


@pytest.fixture(scope="module")
def grep_make():
    trace = generate_grep_make(SEED)
    return trace, profile_from_trace(trace)


@pytest.fixture(scope="module")
def grep_with_make():
    grep = generate_grep(SEED)
    make = generate_make(SEED).renumbered(grep.max_inode())
    return (grep, make), [profile_from_trace(grep), profile_from_trace(make)]


class TestSessionVsOracle:
    """FlexFetch over each device variant decides and charges exactly
    as it does with the oracle as its cost model."""

    def test_two_programs_on_the_live_kernel_match_oracle(
            self, grep_with_make, monkeypatch):
        """Two programs share the live kernel path, whose one coarse
        residency version keys the cost model's filter memo."""
        traces, profiles = grep_with_make

        def run():
            session = SimulationSession(
                [ProgramSpec(trace) for trace in traces],
                FlexFetchPolicy.for_programs(profiles), seed=SEED)
            result = session.run()
            assert not session.used_fast_path
            return result

        packed = run()
        monkeypatch.setattr(CostModel, "stage_pair", _oracle_stage_pair)
        monkeypatch.setattr(CostModel, "stage_estimate",
                            _oracle_stage_estimate)
        assert run() == packed

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_flexfetch_run_matches_oracle(self, grep_make, monkeypatch,
                                          variant):
        trace, profile = grep_make

        def run():
            return SimulationSession(
                [ProgramSpec(trace)], FlexFetchPolicy(profile),
                seed=SEED, **_VARIANTS[variant]()).run()

        packed = run()
        monkeypatch.setattr(CostModel, "stage_pair", _oracle_stage_pair)
        monkeypatch.setattr(CostModel, "stage_estimate",
                            _oracle_stage_estimate)
        assert run() == packed
