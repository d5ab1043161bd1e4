"""Every session input reaches both kernel surfaces.

A single-program :class:`SimulationSession` replays on one of two
kernel surfaces: a BurstPlan cursor (the default) or the live kernel
path (``with_fast_path(False)``).  A constructor parameter that one
surface never consumes — dropped from the ``MobileSystem`` the session
builds, or left out of the ``plan_for`` call — makes runs that vary it
replay identically there.  So every parameter of
``SimulationSession.__init__`` except ``programs``, ``policy`` and
``sinks`` (which are not knobs of the simulated machine) gets a case
with a non-default value, and each case must:

* change the :class:`RunResult` on both surfaces, and
* give the same :class:`RunResult` on both surfaces, field for field.

Every parameter also gets a :func:`run_key` case that must change the
run cache's key, so a run varying it can never hit a stale cached row.

A new parameter fails :func:`test_every_input_has_a_case` and
:func:`test_every_input_has_a_key_case` until it gets both cases here.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core.policies import DiskOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.telemetry import RunResult
from repro.core.workload import ProgramSpec
from repro.devices.dpm import FixedTimeout
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
from repro.experiments.cache import run_key
from repro.experiments.config import ExperimentConfig
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.sim.clock import MB
from tests.conftest import make_trace

_NOT_KNOBS = ("self", "programs", "policy", "sinks")

PARAMS = [name for name in
          inspect.signature(SimulationSession.__init__).parameters
          if name not in _NOT_KNOBS]

#: parameter -> factory of a non-default value that must change the
#: run (a factory because fault schedules and DPM policies are stateful
#: and each session needs a fresh one).
CASES = {
    "disk_spec": lambda: dataclasses.replace(HITACHI_DK23DA,
                                             idle_power=1.2),
    "wnic_spec": lambda: dataclasses.replace(AIRONET_350,
                                             psm_idle_power=0.2),
    "memory_bytes": lambda: 1 * MB,
    "seed": lambda: 5,
    "spindown_policy": lambda: FixedTimeout(5.0),
    "faults": lambda: FaultSchedule(FaultSpec(spinup_fail_prob=0.9),
                                    seed=1),
}

#: parameter -> the ``run_key`` arguments carrying a non-default value
#: of it: specs, memory and seed travel in the ExperimentConfig, the
#: spin-down policy as its description.
KEY_CASES = {
    "disk_spec": lambda: {"config": ExperimentConfig(
        disk_spec=CASES["disk_spec"]())},
    "wnic_spec": lambda: {"wnic_spec": CASES["wnic_spec"]()},
    "memory_bytes": lambda: {"config": ExperimentConfig(
        memory_bytes=CASES["memory_bytes"]())},
    "seed": lambda: {"config": ExperimentConfig(seed=CASES["seed"]())},
    "spindown_policy": lambda: {"spindown": {"timeout": 5.0}},
    "faults": lambda: {"faults": CASES["faults"]()},
}


def _trace():
    """Reads over three files, a 2 MB re-read and a few writes, with
    think gaps both shorter and longer than a 5 s disk timeout."""
    calls = []
    t = 0.0
    for sweep in range(2):
        for i in range(32):
            calls.append((1, i * 65536, 65536, "read", t))
            t += 0.05
        t += 10.0
        for inode in (2, 3):
            calls.append((inode, sweep * 65536, 65536, "read", t))
            t += 0.5
        calls.append((4, sweep * 16384, 16384, "write", t))
        t += 10.0
    return make_trace(calls, file_sizes={1: 2 * MB, 2: MB, 3: MB, 4: MB})


def _run(live: bool, **kwargs: object) -> RunResult:
    session = SimulationSession([ProgramSpec(_trace())], DiskOnlyPolicy(),
                                **kwargs)
    if live:
        session.with_fast_path(False)
    result = session.run()
    assert session.used_fast_path is not live
    return result


def _differing_fields(a: RunResult, b: RunResult) -> list[str]:
    return [f.name for f in dataclasses.fields(RunResult)
            if getattr(a, f.name) != getattr(b, f.name)]


def test_every_input_has_a_case() -> None:
    assert sorted(CASES) == sorted(PARAMS)


@pytest.mark.parametrize("name", PARAMS)
def test_input_changes_the_run_on_both_surfaces(name: str) -> None:
    make = CASES[name]
    assert make() != inspect.signature(
        SimulationSession.__init__).parameters[name].default
    plan = _run(False, **{name: make()})
    live = _run(True, **{name: make()})
    assert _differing_fields(plan, _run(False)), \
        f"{name} does not reach the plan surface"
    assert _differing_fields(live, _run(True)), \
        f"{name} does not reach the live kernel path"
    assert _differing_fields(plan, live) == []


def _key(**overrides: object) -> str:
    args: dict[str, object] = {
        "programs": (ProgramSpec(_trace()).prepared(),),
        "policy_factory": DiskOnlyPolicy,
        "wnic_spec": AIRONET_350,
        "config": ExperimentConfig(),
    }
    args.update(overrides)
    return run_key(**args)


def test_every_input_has_a_key_case() -> None:
    assert sorted(KEY_CASES) == sorted(PARAMS)


@pytest.mark.parametrize("name", PARAMS)
def test_input_changes_the_run_key(name: str) -> None:
    assert _key(**KEY_CASES[name]()) != _key(), \
        f"{name} is not part of run_key's description"
