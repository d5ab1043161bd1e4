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


# ----------------------------------------------------------------------
# streaming aggregation primitives
# ----------------------------------------------------------------------
class TestP2Quantile:
    def test_small_samples_are_exact_nearest_rank(self):
        from repro.core.telemetry import P2Quantile
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.observe(x)
        assert est.value() == 3.0

    def test_empty_is_nan(self):
        import math

        from repro.core.telemetry import P2Quantile
        assert math.isnan(P2Quantile(0.9).value())

    def test_invalid_quantile_rejected(self):
        from repro.core.telemetry import P2Quantile
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_tracks_known_distribution(self):
        import random

        from repro.core.telemetry import P2Quantile
        rng = random.Random(7)
        est = P2Quantile(0.5)
        values = [rng.uniform(0.0, 100.0) for _ in range(5000)]
        for x in values:
            est.observe(x)
        exact = sorted(values)[2500]
        assert abs(est.value() - exact) < 2.0
        assert est.count == 5000

    def test_deterministic_for_a_given_order(self):
        from repro.core.telemetry import P2Quantile
        xs = [((i * 29) % 97) / 7.0 for i in range(200)]
        a, b = P2Quantile(0.9), P2Quantile(0.9)
        for x in xs:
            a.observe(x)
            b.observe(x)
        assert a.value() == b.value()


class TestStreamingStat:
    def test_exact_moments(self):
        from repro.core.telemetry import StreamingStat
        stat = StreamingStat()
        for x in (2.0, 8.0, 4.0, 6.0):
            stat.observe(x)
        assert stat.count == 4
        assert stat.total == 20.0
        assert stat.minimum == 2.0
        assert stat.maximum == 8.0
        assert stat.mean == 5.0

    def test_as_dict_keys_and_percentiles(self):
        from repro.core.telemetry import StreamingStat
        stat = StreamingStat()
        for x in range(1, 101):
            stat.observe(float(x))
        summary = stat.as_dict()
        assert set(summary) == {"count", "sum", "min", "max", "mean",
                                "p50", "p90"}
        assert abs(summary["p50"] - 50.0) < 3.0
        assert abs(summary["p90"] - 90.0) < 4.0

    def test_empty_stat_has_nan_mean(self):
        import math

        from repro.core.telemetry import StreamingStat
        stat = StreamingStat()
        assert stat.count == 0
        assert math.isnan(stat.mean)
        assert math.isnan(stat.quantile(0.5))
