"""Telemetry layer: sinks observe runs without perturbing them.

Sinks are read-only passengers on a replay.  These tests pin the two
contracts that make them safe to attach anywhere:

* a :class:`RecordingSink` sees every hook of a real replay, in
  simulation-time order, with the final :class:`RunResult`;
* a *raising* sink is disabled and reported via
  :attr:`SinkSet.errors` — and the run's numbers are **bit-identical**
  to a sink-free run (error isolation cannot leak into simulation
  state or float evaluation order).
"""

from __future__ import annotations

import pytest

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.telemetry import NullSink, RecordingSink, SinkSet
from repro.core.workload import ProgramSpec
from repro.sim.clock import SimulationError
from repro.traces.synth import generate_grep

SEED = 11


@pytest.fixture(scope="module")
def trace():
    return generate_grep(SEED)


def run(trace, *sinks, policy=None):
    session = SimulationSession([ProgramSpec(trace)],
                                policy or DiskOnlyPolicy(), seed=SEED)
    for sink in sinks:
        session.add_sink(sink)
    return session, session.run()


class TestRecordingSink:
    def test_sees_begin_and_end(self, trace):
        sink = RecordingSink()
        _, result = run(trace, sink)
        assert sink.begins == [("Disk-only", 0.0)]
        assert sink.results == [result]

    def test_records_every_service(self, trace):
        sink = RecordingSink()
        _, result = run(trace, sink)
        # One event per routed device service (cache hits are free and
        # emit nothing).
        assert len(sink.services) == sum(result.device_requests.values())
        for program, source, nbytes, energy, completion in sink.services:
            assert program == trace.name
            assert source == "disk"
            assert nbytes >= 0
            assert energy >= 0.0
            assert 0.0 <= completion <= result.end_time

    def test_records_profiled_syscalls_in_time_order(self, trace):
        sink = RecordingSink()
        _, result = run(trace, sink)
        sized = [r for r in trace.records if r.size > 0]
        assert len(sink.syscalls) == len(sized)
        times = [now for _, _, _, now in sink.syscalls]
        assert times == sorted(times)
        assert times[-1] <= result.end_time

    def test_sources_follow_the_policy(self, trace):
        sink = RecordingSink()
        run(trace, sink, policy=WnicOnlyPolicy())
        assert {source for _, source, _, _, _ in sink.services} \
            == {"network"}


class TestNullSink:
    def test_is_inert(self, trace):
        bare = run(trace)[1]
        with_null = run(trace, NullSink())[1]
        assert with_null == bare


class _Bomb:
    """A sink whose chosen hook raises; every other hook is silent."""

    def __init__(self, hook: str) -> None:
        self.hook = hook
        self.calls = 0

    def _maybe(self, name: str) -> None:
        self.calls += 1
        if name == self.hook:
            raise RuntimeError(f"boom in {name}")

    def on_run_begin(self, policy, now):
        self._maybe("on_run_begin")

    def on_service(self, program, source, nbytes, energy, completion):
        self._maybe("on_service")

    def on_syscall(self, program, op, nbytes, now):
        self._maybe("on_syscall")

    def on_run_end(self, result):
        self._maybe("on_run_end")


class TestErrorIsolation:
    @pytest.mark.parametrize("hook", ["on_run_begin", "on_service",
                                      "on_syscall", "on_run_end"])
    def test_raising_sink_cannot_change_the_result(self, trace, hook):
        bare = run(trace)[1]
        session, broken = run(trace, _Bomb(hook))
        # Bit-identical, not approx: isolation must not perturb float
        # evaluation order.
        assert broken == bare
        assert session.sink_errors == [
            ("_Bomb", hook, f"boom in {hook}")]

    def test_broken_sink_is_disabled_others_keep_recording(self, trace):
        bomb, sink = _Bomb("on_service"), RecordingSink()
        session, result = run(trace, bomb, sink)
        # The bomb died on the first service and saw nothing after it.
        assert bomb.calls == 2  # on_run_begin + the fatal on_service
        assert len(sink.services) == sum(result.device_requests.values())
        assert sink.results == [result]
        assert len(session.sink_errors) == 1


class TestSinkSet:
    def test_fan_out_and_len(self):
        a, b = RecordingSink(), RecordingSink()
        sinks = SinkSet((a,))
        sinks.add(b)
        assert len(sinks) == 2
        sinks.on_run_begin("p", 0.0)
        assert a.begins == b.begins == [("p", 0.0)]

    def test_error_recorded_and_sink_removed(self):
        sinks = SinkSet((_Bomb("on_run_begin"),))
        sinks.on_run_begin("p", 0.0)
        assert len(sinks) == 0
        assert sinks.errors == [
            ("_Bomb", "on_run_begin", "boom in on_run_begin")]
        # Subsequent dispatches are no-ops, not re-raises.
        sinks.on_run_end(None)
        assert len(sinks.errors) == 1


class TestBuilder:
    def test_add_sink_after_run_is_rejected(self, trace):
        session, _ = run(trace)
        with pytest.raises(SimulationError):
            session.add_sink(NullSink())
