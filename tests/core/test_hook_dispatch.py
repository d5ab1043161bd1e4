"""The policy hook-dispatch contract, on both kernel surfaces.

The replay resolves a policy's per-record and per-extent hooks
(``on_tick``, ``on_syscall``, ``on_serviced``,
``on_external_disk_request``) once per run, from the policy's class,
and never calls one the class leaves as the :class:`Policy` no-op.
These tests pin both halves of that contract:

* an overriding policy sees one ``on_tick`` per record, one
  ``on_serviced`` per routed extent and one ``on_syscall`` per
  non-empty record of a profiled program;
* skipping a base no-op never changes a result: subclasses that
  override every hook with a no-op replay exactly like the plain
  policy.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core.decision import DataSource
from repro.core.policies import (
    DiskOnlyPolicy,
    Policy,
    RequestContext,
    WnicOnlyPolicy,
    resolve_hook,
)
from repro.core.session import SimulationSession
from repro.core.telemetry import RecordingSink, RunResult
from repro.core.workload import ProgramSpec
from repro.sim.clock import MB
from repro.units import Seconds
from tests.conftest import make_trace

#: the hooks the replay calls per record or per extent.
DISPATCHED_HOOKS = ("on_tick", "on_syscall", "on_serviced",
                    "on_external_disk_request")

SURFACES = pytest.mark.parametrize("live", [False, True],
                                   ids=["plan", "live"])


def _trace(name: str = "fg", inode_base: int = 0):
    """Reads and writes over three files, with a zero-byte read and
    think gaps longer than the disk's spin-down timeout."""
    calls = []
    t = 0.0
    for sweep in range(2):
        for i in range(24):
            calls.append((inode_base + 1, i * 65536, 65536, "read", t))
            t += 0.05
        calls.append((inode_base + 2, 0, 0, "read", t))
        t += 25.0
        calls.append((inode_base + 3, sweep * 16384, 16384, "write", t))
        t += 0.5
    return make_trace(calls, name=name,
                      file_sizes={inode_base + 1: 2 * MB,
                                  inode_base + 2: MB,
                                  inode_base + 3: MB})


class _Recording(DiskOnlyPolicy):
    """Disk-only, counting every dispatched hook call."""

    def __init__(self) -> None:
        super().__init__()
        self.ticks: list[float] = []
        self.serviced: list[tuple[str, DataSource]] = []
        self.syscalls: list[tuple[str, int]] = []
        self.external: list[float] = []

    def on_tick(self, now: Seconds) -> None:
        self.ticks.append(now)

    def on_serviced(self, ctx: RequestContext, source: DataSource,
                    result: Any) -> None:
        self.serviced.append((ctx.program, source))

    def on_syscall(self, ctx: RequestContext, start: float,
                   end: float) -> None:
        self.syscalls.append((ctx.program, ctx.nbytes))

    def on_external_disk_request(self, now: Seconds) -> None:
        self.external.append(now)


def _noop_subclass(base: type[Policy]) -> type[Policy]:
    """``base`` with every dispatched hook overridden by a no-op."""

    def on_tick(self: Policy, now: Seconds) -> None:
        pass

    def on_serviced(self: Policy, ctx: RequestContext,
                    source: DataSource, result: Any) -> None:
        pass

    def on_syscall(self: Policy, ctx: RequestContext, start: float,
                   end: float) -> None:
        pass

    def on_external_disk_request(self: Policy, now: Seconds) -> None:
        pass

    hooks = {"on_tick": on_tick, "on_serviced": on_serviced,
             "on_syscall": on_syscall,
             "on_external_disk_request": on_external_disk_request}
    assert sorted(hooks) == sorted(DISPATCHED_HOOKS)
    return type(f"Noop{base.__name__}", (base,), hooks)


def _run(policy: Policy, specs: list[ProgramSpec], *, live: bool,
         sink: RecordingSink | None = None) -> RunResult:
    session = SimulationSession(specs, policy, seed=3)
    if live:
        session.with_fast_path(False)
    if sink is not None:
        session.add_sink(sink)
    result = session.run()
    assert session.used_fast_path is (not live and len(specs) == 1)
    return result


class TestResolveHook:
    def test_base_noops_resolve_to_none(self) -> None:
        policy = DiskOnlyPolicy()
        for name in DISPATCHED_HOOKS:
            assert resolve_hook(policy, name) is None

    def test_overrides_resolve_to_the_bound_hook(self) -> None:
        policy = _Recording()
        for name in DISPATCHED_HOOKS:
            hook = resolve_hook(policy, name)
            assert hook is not None
            assert hook.__func__ is getattr(_Recording, name)
            assert hook.__self__ is policy


class TestCallCounts:
    @SURFACES
    def test_one_call_per_record_extent_and_profiled_syscall(
            self, live: bool) -> None:
        trace = _trace()
        policy = _Recording()
        sink = RecordingSink()
        result = _run(policy, [ProgramSpec(trace)], live=live, sink=sink)
        records = trace.data_records()
        assert len(policy.ticks) == len(records) == result.requests
        # One extent per sink service event and per route() tally.
        assert len(policy.serviced) == len(sink.services) \
            == sum(policy.routed_requests.values()) > 0
        nonempty = [r.size for r in records if r.size > 0]
        assert len(nonempty) < len(records)
        assert [n for _, n in policy.syscalls] == nonempty
        assert policy.external == []

    def test_unprofiled_program_is_external_and_unobserved(self) -> None:
        fg, bg = _trace("fg"), _trace("bg", inode_base=10)
        policy = _Recording()
        sink = RecordingSink()
        result = _run(policy, [ProgramSpec(fg),
                               ProgramSpec(bg, profiled=False,
                                           disk_pinned=True)],
                      live=True, sink=sink)
        assert len(policy.ticks) == result.requests \
            == len(fg.data_records()) + len(bg.data_records())
        assert len(policy.serviced) == len(sink.services)
        assert {program for program, _ in policy.syscalls} == {"fg"}
        bg_disk = [s for s in sink.services
                   if s[0] == "bg" and s[1] == DataSource.DISK.value]
        assert len(policy.external) == len(bg_disk) > 0


class TestSkippingANoopChangesNothing:
    @SURFACES
    @pytest.mark.parametrize("base", [DiskOnlyPolicy, WnicOnlyPolicy])
    def test_noop_overrides_replay_like_the_plain_policy(
            self, base: type[Policy], live: bool) -> None:
        specs = [ProgramSpec(_trace())]
        plain = _run(base(), specs, live=live)
        noop = _run(_noop_subclass(base)(), specs, live=live)
        assert noop == plain

    @pytest.mark.parametrize("base", [DiskOnlyPolicy, WnicOnlyPolicy])
    def test_noop_overrides_with_a_background_program(
            self, base: type[Policy]) -> None:
        specs = [ProgramSpec(_trace("fg")),
                 ProgramSpec(_trace("bg", inode_base=10), profiled=False,
                             disk_pinned=True)]
        assert _run(_noop_subclass(base)(), specs, live=True) \
            == _run(base(), specs, live=True)

    @SURFACES
    def test_a_base_noop_is_never_called(
            self, live: bool, monkeypatch: pytest.MonkeyPatch) -> None:
        def refuse(*args: Any) -> None:
            raise AssertionError("a base no-op hook was called")

        specs = [ProgramSpec(_trace())]
        expected = _run(DiskOnlyPolicy(), specs, live=live)
        for name in DISPATCHED_HOOKS:
            monkeypatch.setattr(Policy, name, refuse)
        assert _run(DiskOnlyPolicy(), specs, live=live) == expected
