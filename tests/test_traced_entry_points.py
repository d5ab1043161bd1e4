"""The replay must go through the methods the e2e tracer wraps.

``benchmarks/e2e/tracing.py`` times ``DiskService.transfer``,
``WnicService.transfer`` and both devices' ``advance_to`` from the
outside.  A replay that bypassed them (say, a router calling the device
step directly) would still be correct, but every ``devices.*`` span
would silently read zero.  This test counts the calls on one plain
fault-free FlexFetch run on a :class:`~repro.sim.plan.PlanCursor`
(thunderbird, the workload whose routing sends extents both ways).
"""

from __future__ import annotations

from collections import Counter

from repro.core.flexfetch import FlexFetchPolicy
from repro.core.routing import RequestRouter
from repro.core.session import SimulationSession
from repro.devices.disk import HardDisk
from repro.devices.service import DiskService, WnicService
from repro.devices.wnic import WirelessNic
from repro.sim.plan import PlanCursor
from repro.traces.synth.scenarios import build_scenario

COUNTED = ((DiskService, "transfer"), (WnicService, "transfer"),
           (HardDisk, "advance_to"), (WirelessNic, "advance_to"),
           (RequestRouter, "service"))


def test_every_extent_and_record_crosses_the_traced_methods(monkeypatch):
    calls: Counter[str] = Counter()
    for cls, name in COUNTED:
        def counted(*args, _fn=getattr(cls, name),
                    _key=f"{cls.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    scenario = build_scenario("thunderbird", seed=7)
    session = SimulationSession(list(scenario.programs),
                                FlexFetchPolicy(scenario.profile), seed=7)
    result = session.run()

    assert isinstance(session.env.kernel, PlanCursor)
    assert session.faults is None
    extents = calls["RequestRouter.service"]
    assert extents > 0
    # Both branches of the router ran, and every routed extent was moved
    # by exactly one service call.
    assert calls["DiskService.transfer"] > 0
    assert calls["WnicService.transfer"] > 0
    assert calls["DiskService.transfer"] + calls["WnicService.transfer"] \
        == extents
    # Once per record, plus the session's end-of-run advance.
    assert calls["HardDisk.advance_to"] == result.requests + 1
    assert calls["WirelessNic.advance_to"] == result.requests + 1
