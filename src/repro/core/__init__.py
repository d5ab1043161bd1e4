"""FlexFetch core: profiling, decision, policies, and the layered replay.

* :mod:`repro.core.burst` — I/O-burst extraction from syscall traces (§2.1).
* :mod:`repro.core.profile` — execution profiles and evaluation stages (§2.2).
* :mod:`repro.core.costmodel` — the shared device cost model every policy
  estimates with (§2.2).
* :mod:`repro.core.decision` — the three data-source rules with the
  user-specified loss rate (§2.2).
* :mod:`repro.core.policies` — the policy interface plus the Disk-only and
  WNIC-only baselines (§3.1).
* :mod:`repro.core.bluefs` — the BlueFS-style reactive policy with ghost
  hints (§1.2, §3.3).
* :mod:`repro.core.flexfetch` — FlexFetch and FlexFetch-static (§2), with
  its tunables in :mod:`repro.core.flexfetch_config` and the stage-end
  audit in :mod:`repro.core.audit`.
* the replay itself is layered: :mod:`repro.core.workload` drivers over
  :mod:`repro.kernel.path` and :mod:`repro.devices.service`, routed by
  :mod:`repro.core.routing`, observed by :mod:`repro.core.telemetry`,
  wired together by :class:`repro.core.session.SimulationSession` over
  the :class:`repro.core.system.MobileSystem` it builds.
"""

from repro.core.burst import (
    BURST_THRESHOLD_DEFAULT,
    IOBurst,
    ProfiledRequest,
    extract_bursts,
)
from repro.core.costmodel import CostModel, MarginalCost, StageEstimate
from repro.core.decision import DataSource, DecisionInputs, decide
from repro.core.flexfetch import FlexFetchConfig, FlexFetchPolicy
from repro.core.oracle import ClairvoyantStagePolicy
from repro.core.bluefs import BlueFSConfig, BlueFSPolicy
from repro.core.policies import DiskOnlyPolicy, Policy, RequestContext, WnicOnlyPolicy
from repro.core.profile import ExecutionProfile, Stage, profile_from_trace
from repro.core.session import SimulationSession
from repro.core.system import MobileSystem
from repro.core.telemetry import MetricsSink, NullSink, RecordingSink, RunResult
from repro.core.workload import ProgramSpec

__all__ = [
    "BURST_THRESHOLD_DEFAULT",
    "IOBurst",
    "ProfiledRequest",
    "extract_bursts",
    "CostModel",
    "MarginalCost",
    "DataSource",
    "DecisionInputs",
    "decide",
    "StageEstimate",
    "FlexFetchConfig",
    "FlexFetchPolicy",
    "ClairvoyantStagePolicy",
    "BlueFSConfig",
    "BlueFSPolicy",
    "DiskOnlyPolicy",
    "Policy",
    "RequestContext",
    "WnicOnlyPolicy",
    "ExecutionProfile",
    "Stage",
    "profile_from_trace",
    "MetricsSink",
    "MobileSystem",
    "NullSink",
    "ProgramSpec",
    "RecordingSink",
    "RunResult",
    "SimulationSession",
]
