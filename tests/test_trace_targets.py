"""The end-to-end benchmark's tracer must find every span it wraps.

``benchmarks/e2e/tracing.py`` reports a target that no longer exists
as ``calls=0`` instead of failing, so a renamed or deleted method would
silently drop out of the per-layer numbers.  These tests resolve every
target the tracer names, and check that the cost model's estimates run
the device steps on what-if copies instead of the live devices' traced
``advance_to``.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.tracing import SPANS, _sites
from repro.core.bluefs import BlueFSPolicy
from repro.core.burst import IOBurst, ProfiledRequest
from repro.core.costmodel import CostModel, RequestColumns
from repro.core.decision import DataSource
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.oracle import ClairvoyantStagePolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import ExecutionProfile
from repro.devices.disk import HardDisk
from repro.devices.wnic import WirelessNic
from repro.traces.record import OpType

POLICY_CLASSES = (DiskOnlyPolicy, WnicOnlyPolicy, BlueFSPolicy,
                  FlexFetchPolicy, ClairvoyantStagePolicy)

#: targets deleted from the program, whose spans read ``calls=0`` until
#: a benchmark change retargets or drops them: the event loop, and the
#: fetch-completion calls that reads replaced by installing their
#: fetches.
STALE_TARGETS = ("repro.sim.engine:",
                 "repro.kernel.path:KernelPath.complete_fetch",
                 "repro.sim.plan:PlanCursor.complete_fetch")

TARGETS = sorted(
    (span, target) for span, targets in SPANS.items() for target in targets
    if not target.startswith(STALE_TARGETS))


@pytest.mark.parametrize("span,target", TARGETS,
                         ids=[target for _, target in TARGETS])
def test_span_target_resolves(span, target):
    assert _sites(target, POLICY_CLASSES), (
        f"span {span!r}: tracer target {target!r} no longer exists")


def test_stale_targets_are_gone():
    """A target listed as stale must really be missing: the list never
    hides a live span from the check above."""
    stale = [target for targets in SPANS.values() for target in targets
             if target.startswith(STALE_TARGETS)]
    assert len(stale) == 4
    for target in stale:
        assert not _sites(target, POLICY_CLASSES), target


def test_device_and_cost_model_spans_are_traced():
    targets = {target for _, target in TARGETS}
    for name in ("repro.devices.disk:HardDisk.advance_to",
                 "repro.devices.wnic:WirelessNic.advance_to",
                 "repro.devices.service:DiskService.transfer",
                 "repro.devices.service:WnicService.transfer",
                 "repro.core.costmodel:CostModel.stage_pair",
                 "repro.core.costmodel:CostModel.stage_estimate",
                 "repro.core.costmodel:CostModel.marginal_pair",
                 "repro.core.telemetry:build_run_result"):
        assert name in targets


def test_stage_estimates_leave_advance_to_alone(monkeypatch):
    """Estimates step what-if copies, so a traced ``advance_to`` counts
    only the live devices' own advances."""
    calls = []
    for cls in (HardDisk, WirelessNic):
        def spy(self, time, _advance=cls.advance_to):
            calls.append(type(self).__name__)
            _advance(self, time)
        monkeypatch.setattr(cls, "advance_to", spy)
    request = ProfiledRequest(inode=1, offset=0, size=1 << 16,
                              op=OpType.READ)
    bursts = [IOBurst((request, request), 0.0, 0.0), IOBurst((request,),
                                                             0.0, 0.0)]
    profile = ExecutionProfile(bursts, [30.0, 0.0])
    model = CostModel(HardDisk(), WirelessNic())
    model.stage_pair(profile, 0, 2, now=5.0)
    requests = RequestColumns([1, 1, 1], [0, 0, 0], [1 << 16] * 3,
                              [True] * 3, [0, 2, 3])
    model.stage_estimate(DataSource.DISK, requests, [30.0, 0.0], now=5.0,
                         min_duration=100.0)
    assert calls == []
