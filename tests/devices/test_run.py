"""A device's run serves a stage exactly as its step does, request by
request.

``disk_run`` and ``wnic_run`` hand every request back to the step until
the device is in its steady state, then serve the rest of the burst
with the step's own float operations.  These properties hold the two to
bit equality on equal cores: the returned time, every ``__slots__``
field (the DPM policy by its state, the residency a live core accrues
by its floats in order), and the energy buckets in order, since
``total()`` sums them in dict order.  The drawn
stages reach every hand-back: bursts that start in standby or asleep,
PSM-sized requests on a dozing card, a first write after reads, and
zero-latency or zero-power specs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import disk, wnic
from repro.devices.disk import HardDisk, disk_run, disk_step
from repro.devices.dpm import AdaptiveTimeout
from repro.devices.power import PackedBurst, PowerCore
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
from repro.devices.wnic import WirelessNic, wnic_run, wnic_step


def _asleep_disk() -> HardDisk:
    asleep = HardDisk(HITACHI_DK23DA.with_sleep(5.0), start_time=-5.0)
    asleep.advance_to(0.0)
    return asleep


DISKS: dict[str, Callable[[], HardDisk]] = {
    "standby": HardDisk,
    "idle": lambda: HardDisk(initially_standby=False),
    "asleep": _asleep_disk,
    "adaptive+sleep": lambda: HardDisk(
        HITACHI_DK23DA.with_sleep(5.0), initially_standby=False,
        spindown_policy=AdaptiveTimeout(initial=5.0)),
    "zero-power": lambda: HardDisk(
        replace(HITACHI_DK23DA, active_power=0.0, idle_power=0.0),
        initially_standby=False),
    "zero-seek": lambda: HardDisk(
        replace(HITACHI_DK23DA, avg_seek_time=0.0, avg_rotation_time=0.0,
                track_to_track_time=0.0), initially_standby=False),
}
WNICS: dict[str, Callable[[], WirelessNic]] = {
    "psm": WirelessNic,
    "cam": lambda: WirelessNic(initially_psm=False),
    "psm-transfers": lambda: WirelessNic(AIRONET_350.with_psm_transfers()),
    "zero-latency": lambda: WirelessNic(
        AIRONET_350.with_link(latency=0.0), initially_psm=False),
    "zero-power": lambda: WirelessNic(
        replace(AIRONET_350, cam_idle_power=0.0, cam_recv_power=0.0,
                cam_send_power=0.0), initially_psm=False),
}

#: (size, read, block): small sizes reach the PSM transfers (<= 16 KiB),
#: nearby blocks the short seeks, ``None`` the average seek.
_request = st.tuples(
    st.one_of(st.integers(1, 16 << 10), st.integers(1, 2 << 20)),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 200), st.integers(0, 1 << 24)))
#: thinks long enough for the doze (0.8 s), the sleep tier (5 s) and a
#: spin-down (5 s adaptive, 20 s fixed).
_think = st.sampled_from([0.0, 0.3, 1.0, 6.0, 25.0])
_stage = st.lists(st.tuples(st.lists(_request, max_size=12), _think),
                  min_size=1, max_size=5)


def _pack(stage: list[tuple[list[tuple[int, bool, int | None]], float]]
          ) -> tuple[list[PackedBurst], list[float]]:
    """The drawn stage as packed bursts over shared columns."""
    sizes: list[int] = []
    recv: list[bool] = []
    blocks: list[int | None] = []
    nblocks: list[int] = []
    bursts: list[PackedBurst] = []
    for requests, _ in stage:
        lo = len(sizes)
        for size, read, block in requests:
            sizes.append(size)
            recv.append(read)
            blocks.append(block)
            nblocks.append(0 if block is None else -(-size // 4096))
        bursts.append((sizes, recv, blocks, nblocks, lo, len(sizes)))
    return bursts, [think for _, think in stage]


def _step_loop(step, core, time, bursts, thinks) -> float:
    """What a run stands for: the step, request by request."""
    last = len(bursts) - 1
    for b, (sizes, recv, blocks, nblocks, lo, hi) in enumerate(bursts):
        for i in range(lo, hi):
            time = step(core, time, sizes[i], recv[i], blocks[i],
                        nblocks[i])[2]
        if b != last:
            time += thinks[b]
            step(core, time)
    return time


def _bits(value: object) -> object:
    """``value`` with every float as its bits and every object as its
    state, so ``==`` is bit equality and dict order counts."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _bits(vars(value)))
    return value


def _state(core: PowerCore) -> list[tuple[str, object]]:
    names = [name for klass in type(core).__mro__
             for name in getattr(klass, "__slots__", ())]
    return [(name, _bits(getattr(core, name))) for name in names]


def _check(device, step, run, bursts, thinks, now, accruing):
    ran, stepped = device.core.what_if(), device.core.what_if()
    if accruing:
        # A live core accrues residency: every request is the step's.
        for core in (ran, stepped):
            core.accrue()
    assert _state(ran) == _state(stepped)
    t_run = run(ran, now, bursts, thinks)
    t_step = _step_loop(step, stepped, now, bursts, thinks)
    assert t_run.hex() == t_step.hex()
    assert _state(ran) == _state(stepped)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(DISKS)), stage=_stage,
       now=st.sampled_from([0.0, 0.5, 30.0]),
       accruing=st.booleans())
def test_disk_run_is_the_step_loop(kind, stage, now, accruing):
    bursts, thinks = _pack(stage)
    _check(DISKS[kind](), disk_step, disk_run, bursts, thinks, now,
           accruing)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(WNICS)), stage=_stage,
       now=st.sampled_from([0.0, 0.5, 30.0]),
       accruing=st.booleans())
def test_wnic_run_is_the_step_loop(kind, stage, now, accruing):
    bursts, thinks = _pack(stage)
    _check(WNICS[kind](), wnic_step, wnic_run, bursts, thinks, now,
           accruing)


def test_long_bursts_accumulate_in_the_step_order():
    """Forty back-to-back requests per burst: regrouping the float sums
    of a bucket would show in its last bits."""
    sizes = [(7919 * k) % (3 << 20) + 1 for k in range(1, 41)]
    stage = [([(size, k % 3 != 0, 1000 * k) for k, size in
               enumerate(sizes)], 1.0)] * 3
    bursts, thinks = _pack(stage)
    for kind in sorted(DISKS):
        _check(DISKS[kind](), disk_step, disk_run, bursts, thinks, 0.0,
               False)
    for kind in sorted(WNICS):
        _check(WNICS[kind](), wnic_step, wnic_run, bursts, thinks, 0.0,
               False)


def test_a_regrouped_bucket_sum_differs_in_the_last_bit():
    """Four 100,000-byte reads 1,000 blocks apart on an idle disk and a
    card in CAM.  Summing this burst's charges apart and adding the sum
    to the open bucket once gives a different last bit than adding them
    one by one, on both devices, so a run that regroups fails here on
    every run, not only when a drawn stage happens to expose it."""
    bursts, thinks = _pack([([(100_000, True, 1000 * k)
                              for k in range(4)], 0.0)])
    _check(DISKS["idle"](), disk_step, disk_run, bursts, thinks, 0.0,
           False)
    _check(WNICS["cam"](), wnic_step, wnic_run, bursts, thinks, 0.0,
           False)


def test_a_steady_burst_leaves_the_step(monkeypatch):
    """Past its first request, a burst on an idle disk and on a card in
    CAM is served without the step (the properties above would also
    hold for a run that only ever called it)."""
    bursts, thinks = _pack([([(4096, True, 10)] * 4, 0.0)])
    for module, device, name, run in (
            (disk, HardDisk(initially_standby=False), "disk_step",
             disk_run),
            (wnic, WirelessNic(initially_psm=False), "wnic_step",
             wnic_run)):
        calls = []
        step = getattr(module, name)

        def counting(*args, _step=step):
            calls.append(args)
            return _step(*args)

        with monkeypatch.context() as patch:
            patch.setattr(module, name, counting)
            run(device.core.what_if(), 0.0, bursts, thinks)
        assert len(calls) == 1
