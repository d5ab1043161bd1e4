"""Tests for the trace-analysis tool and the parallel-make generator."""

import pytest

from repro.traces.analysis import Distribution, analyze_trace
from repro.traces.synth import generate_mplayer
from repro.traces.synth.make import MakeParams, generate_make
from tests.conftest import make_trace


class TestDistribution:
    def test_of_values(self):
        d = Distribution.of([1.0, 2.0, 3.0, 4.0])
        assert d.count == 4
        assert d.mean == pytest.approx(2.5)
        assert d.p50 == pytest.approx(2.5)
        assert d.maximum == 4.0

    def test_empty(self):
        d = Distribution.of([])
        assert d.count == 0
        assert d.mean == 0.0


class TestAnalyzeTrace:
    def test_structure_of_known_trace(self):
        # Two bursts: dense pair, 30 s gap, single read.
        trace = make_trace([
            (1, 0, 4096, "read", 0.0),
            (1, 4096, 4096, "read", 0.001),
            (1, 8192, 4096, "read", 30.0),
        ])
        a = analyze_trace(trace)
        assert a.burst_count == 2
        assert a.syscalls == 3
        assert a.pids == 1
        assert a.inter_burst_thinks.count == 1
        assert a.inter_burst_thinks.maximum == pytest.approx(30.0,
                                                             abs=0.1)
        assert a.disk_timeout_gaps == 1.0
        assert a.wnic_dozeable_gaps == 1.0

    def test_render_contains_key_lines(self):
        a = analyze_trace(generate_mplayer(seed=3))
        text = a.render()
        assert "trace mplayer" in text
        assert "bursts:" in text
        assert "gap structure" in text

    def test_mplayer_structure_as_documented(self):
        a = analyze_trace(generate_mplayer(seed=3))
        # ~1 MB refill bursts, ~7.5 s gaps, WNIC-dozeable, no disk
        # timeouts — the §3.3.2 premise.
        assert a.burst_bytes.p50 == pytest.approx(1_048_576, rel=0.2)
        assert a.inter_burst_thinks.p50 == pytest.approx(7.5, abs=1.0)
        assert a.wnic_dozeable_gaps > 0.9
        assert a.disk_timeout_gaps == 0.0


class TestParallelMake:
    def test_validation(self):
        with pytest.raises(ValueError):
            MakeParams(jobs=0)

    def test_table3_footprint_preserved(self):
        stats = generate_make(seed=7, params=MakeParams(jobs=4)).stats()
        assert stats.file_count == 2579
        assert stats.footprint_mb == pytest.approx(72.5, abs=0.05)

    def test_multiple_pids(self):
        trace = generate_make(seed=7, params=MakeParams(jobs=4))
        assert len(trace.pids) == 4

    def test_wall_time_compresses(self):
        seq = generate_make(seed=7).stats().duration
        par = generate_make(seed=7,
                            params=MakeParams(jobs=4)).stats().duration
        assert par < seq / 2.0
        assert par > seq / 8.0

    def test_same_record_volume(self):
        seq = generate_make(seed=7)
        par = generate_make(seed=7, params=MakeParams(jobs=4))
        assert len(par) == len(seq)
        assert sum(r.size for r in par.data_records()) == \
            sum(r.size for r in seq.data_records())

    def test_records_time_ordered(self):
        trace = generate_make(seed=7, params=MakeParams(jobs=3))
        timestamps = [r.timestamp for r in trace.records]
        assert timestamps == sorted(timestamps)

    def test_parallel_trace_replays(self):
        from repro.core.policies import DiskOnlyPolicy
        from repro.core.session import SimulationSession
        from repro.core.workload import ProgramSpec
        from repro.experiments.validate import validate_run
        trace = generate_make(seed=7, params=MakeParams(jobs=4))
        result = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                   seed=7).run()
        assert validate_run(result) == []

    def test_deterministic(self):
        a = generate_make(seed=9, params=MakeParams(jobs=4))
        b = generate_make(seed=9, params=MakeParams(jobs=4))
        assert a.records == b.records
