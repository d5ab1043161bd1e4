"""A sweep cell is a pure function of its job.

The run cache and the parallel executor both assume that the key
:func:`run_key` computes for a cell, and the :class:`RunResult`
:func:`_execute_job` returns for it, depend on the job alone.  One
faulted FlexFetch cell is built, keyed and executed in-process under
four checks:

* ``os.environ`` is swapped for a mapping that records every access,
  and no access may happen;
* no module-level list, dict or set of any ``repro`` module may change,
  except the declared memos;
* the wall clock (``time``, ``datetime``), the global ``random``
  functions, numpy's legacy global RNG and seedless ``default_rng``
  are patched to raise, and none may be called — by that cell or by a
  two-program cell on the live kernel path.  Simulation time comes from
  the replay scheduler and randomness from :mod:`repro.sim.rng`;
* subprocesses under two ``PYTHONHASHSEED`` values must print a
  bit-identical key and ``RunResult``.
"""

from __future__ import annotations

import copy
import dataclasses
import datetime
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from collections.abc import Callable, Iterator, MutableMapping
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.profile import profile_from_trace
from repro.core.telemetry import RunResult
from repro.core.workload import ProgramSpec
from repro.experiments.cache import run_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FlexFetchFactory
from repro.experiments.parallel import SweepJob, _execute_job
from repro.faults import schedule
from repro.faults.schedule import FaultSpec
from tests.conftest import make_trace

REPO_ROOT = Path(__file__).resolve().parents[2]

#: module-level containers a cell may fill: process-wide memos whose
#: entries are pure functions of their keys.
DECLARED_MEMOS = frozenset({
    ("repro.sim.plan", "_PLAN_MEMO"),
    ("repro.sim.plan", "_LAYOUT_MEMO"),
    ("repro.traces.compile", "_COMPILE_CACHE"),
    ("repro.faults.schedule", "_GENERATED"),
})

#: every cell's seed.
SEED = 3
#: the faulted cell's fault processes.
FAULTS = FaultSpec(outage_rate=0.02, rate_flap_rate=0.02,
                   spinup_fail_prob=0.3)


def _trace():
    """Reads over three files and a few writes, with think gaps on
    both sides of the disk and WNIC timeouts."""
    calls = []
    t = 0.0
    for sweep in range(3):
        for i in range(16):
            calls.append((1, i * 65536, 65536, "read", t))
            t += 0.05
        t += 25.0
        for inode in (2, 3):
            calls.append((inode, sweep * 65536, 65536, "read", t))
            t += 0.5
        calls.append((4, sweep * 16384, 16384, "write", t))
        t += 8.0
    return make_trace(calls, name="purity")


def _run(specs: tuple[ProgramSpec, ...],
         faults: FaultSpec | None) -> tuple[str, RunResult]:
    """Build, key and execute one FlexFetch cell, as a sweep worker
    would; the first program is the profiled one."""
    config = ExperimentConfig(seed=SEED)
    factory = FlexFetchFactory(profile=profile_from_trace(_trace()),
                               loss_rate=config.loss_rate,
                               stage_length=config.stage_length)
    job = SweepJob(index=0, curve="FlexFetch", programs=specs,
                   policy_factory=factory,
                   wnic_spec=config.wnic_spec, config=config,
                   faults=faults)
    key = run_key(specs, job.policy_factory, job.wnic_spec, job.config,
                  faults=job.faults)
    return key, _execute_job(job).result


def _cell(faults: FaultSpec = FAULTS) -> tuple[str, RunResult]:
    """The faulted single-program cell."""
    return _run((ProgramSpec(_trace()).prepared(),), faults)


def _two_program_cell() -> tuple[str, RunResult]:
    """Figure 4 in miniature: a disk-pinned, unprofiled background
    program shares the cache, so the cell replays on the live kernel."""
    calls = [(10 + i % 2, (i // 2) * 32768, 32768, "read", i * 3.0)
             for i in range(24)]
    background = make_trace(calls, name="purity-bg", pid=200)
    return _run((ProgramSpec(_trace()).prepared(),
                 ProgramSpec(background, profiled=False,
                             disk_pinned=True).prepared()), None)


def print_cell() -> None:
    """Print the cell's key and result as canonical JSON (subprocess
    entry point)."""
    key, result = _cell()
    print(json.dumps({"key": key, "result": dataclasses.asdict(result)},
                     sort_keys=True))


class _RecordingEnviron(MutableMapping[str, str]):
    """``os.environ`` stand-in that records every access."""

    def __init__(self, backing: MutableMapping[str, str]) -> None:
        self._backing = backing
        self.accesses: list[str] = []

    def __getitem__(self, key: str) -> str:
        self.accesses.append(f"read {key}")
        return self._backing[key]

    def __setitem__(self, key: str, value: str) -> None:
        self.accesses.append(f"write {key}")
        self._backing[key] = value

    def __delitem__(self, key: str) -> None:
        self.accesses.append(f"delete {key}")
        del self._backing[key]

    def __iter__(self) -> Iterator[str]:
        self.accesses.append("iterate")
        return iter(self._backing)

    def __len__(self) -> int:
        self.accesses.append("len")
        return len(self._backing)


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module, so lazily imported ones are in the
    snapshot too."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _module_containers() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for attr, value in sorted(vars(module).items())
        if not attr.startswith("__")
        and isinstance(value, (list, dict, set, bytearray))
        and (name, attr) not in DECLARED_MEMOS
    }


def test_cell_reads_no_environment(monkeypatch: pytest.MonkeyPatch) -> None:
    recorder = _RecordingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", recorder)
    _cell()
    assert recorder.accesses == []


def test_cell_leaves_module_state_unchanged() -> None:
    _import_all_repro_modules()
    before = _module_containers()
    snapshot = {where: copy.copy(value) for where, value in before.items()}
    # Faults no other cell in this process draws, so the declared fault
    # memo grows here.
    generated = schedule._GENERATED
    faults = dataclasses.replace(FAULTS, horizon=FAULTS.horizon + 1.0)
    assert (faults, SEED) not in generated
    _cell(faults)
    assert (faults, SEED) in generated
    after = _module_containers()
    changed = sorted(
        f"{module}.{attr}" for (module, attr), value in before.items()
        if after.get((module, attr)) is not value
        or value != snapshot[(module, attr)])
    assert changed == []


def test_cells_read_no_clock_and_no_global_rng(
        monkeypatch: pytest.MonkeyPatch) -> None:
    calls: list[str] = []

    def forbidden(name: str) -> Callable[..., object]:
        def call(*args: object, **kwargs: object) -> object:
            calls.append(name)
            raise AssertionError(f"{name}() called")
        return call

    class ClocklessDatetime(datetime.datetime):
        now = classmethod(forbidden("datetime.datetime.now"))
        today = classmethod(forbidden("datetime.datetime.today"))
        utcnow = classmethod(forbidden("datetime.datetime.utcnow"))

    for name in ("time", "time_ns", "monotonic", "perf_counter"):
        monkeypatch.setattr(time, name, forbidden(f"time.{name}"))
    monkeypatch.setattr(datetime, "datetime", ClocklessDatetime)
    # The module-level functions of ``random`` are methods of one
    # hidden, shared ``Random`` instance.
    for name, value in list(vars(random).items()):
        if isinstance(getattr(value, "__self__", None), random.Random):
            monkeypatch.setattr(random, name, forbidden(f"random.{name}"))
    for name in np.random.__all__:
        value = getattr(np.random, name)
        if not isinstance(value, type) and name != "default_rng":
            monkeypatch.setattr(np.random, name,
                                forbidden(f"numpy.random.{name}"))
    default_rng = np.random.default_rng

    def seeded_rng(seed: object = None) -> np.random.Generator:
        if seed is None:
            forbidden("numpy.random.default_rng")()
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", seeded_rng)

    faulted_key, _ = _cell()
    live_key, _ = _two_program_cell()
    assert faulted_key and live_key and faulted_key != live_key
    assert calls == []


def test_cell_is_independent_of_hash_seed() -> None:
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(REPO_ROOT / "src"), str(REPO_ROOT)]))
        done = subprocess.run(
            [sys.executable, "-c",
             "from tests.experiments.test_cell_purity import print_cell;"
             " print_cell()"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            check=True, timeout=120)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["key"]
