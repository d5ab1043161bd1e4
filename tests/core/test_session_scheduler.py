"""The session's closed-loop scheduler: which program's record runs next.

:meth:`SimulationSession._replay` keeps one ``(time, seq, program)``
heap.  Every program is seeded at its trace's start time in program
order, and each record schedules its program's next one a think time
after it completes.  Equal times fire in insertion order, so program
order breaks the tie at the start.  These tests pin that order through
the public sink stream of a two-program replay.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.policies import DiskOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.telemetry import RecordingSink
from repro.core.workload import ProgramSpec
from repro.traces.compile import compile_trace
from repro.traces.synth import generate_grep
from repro.traces.trace import Trace

SEED = 11
#: shift the trace off t=0 so seeding at the start time is observable.
START = 5.0


@pytest.fixture(scope="module")
def compiled():
    trace = generate_grep(SEED)
    shifted = [dataclasses.replace(r, timestamp=r.timestamp + START)
               for r in trace.records]
    return compile_trace(Trace(trace.name, shifted, trace.files))


def named(compiled, name):
    return ProgramSpec(dataclasses.replace(compiled, name=name))


def replay(*specs):
    sink = RecordingSink()
    session = SimulationSession(list(specs), DiskOnlyPolicy(), seed=SEED)
    result = session.add_sink(sink).run()
    return session, sink, result


class TestProgramOrder:
    def test_first_records_follow_program_order(self, compiled):
        _, sink, _ = replay(named(compiled, "A"), named(compiled, "B"))
        first = sink.syscalls[:2]
        assert [program for program, _, _, _ in first] == ["A", "B"]
        assert [now for _, _, _, now in first] == [compiled.start_time] * 2
        assert compiled.start_time == START

    def test_swapping_programs_swaps_the_first_records(self, compiled):
        _, sink, _ = replay(named(compiled, "B"), named(compiled, "A"))
        assert [p for p, _, _, _ in sink.syscalls[:2]] == ["B", "A"]

    def test_clock_never_runs_backwards(self, compiled):
        _, sink, _ = replay(named(compiled, "A"), named(compiled, "B"))
        times = [now for _, _, _, now in sink.syscalls]
        assert len(times) == 2 * sum(
            1 for size in memoryview(compiled.sizes).cast("q") if size > 0)
        assert all(a <= b for a, b in zip(times, times[1:]))


class TestEmptyPrograms:
    def test_empty_program_is_skipped(self, compiled):
        empty = ProgramSpec(compile_trace(Trace("idle", [], {})))
        session, sink, result = replay(empty, named(compiled, "A"))
        assert session.programs[0].done
        assert result.requests == compiled.record_count
        assert {program for program, _, _, _ in sink.syscalls} == {"A"}
