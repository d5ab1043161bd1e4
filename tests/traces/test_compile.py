"""Unit and property tests for compile-once trace lowering."""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import DiskOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.traces.compile import (
    OPS_BY_CODE,
    CompiledTrace,
    StraceSource,
    SyntheticSource,
    TraceSource,
    compile_trace,
)
from repro.traces.record import FileInfo, OpType, SyscallRecord
from repro.traces.trace import Trace
from tests.conftest import make_trace


@st.composite
def workload(draw):
    """A small random but coherent trace (compiles in microseconds)."""
    n_files = draw(st.integers(1, 3))
    files = {i + 1: FileInfo(inode=i + 1, path=f"f{i}",
                             size_bytes=draw(st.integers(1, 256)) * 4096)
             for i in range(n_files)}
    n = draw(st.integers(0, 25))
    records = []
    ts = 0.0
    for _ in range(n):
        inode = draw(st.integers(1, n_files))
        limit = files[inode].size_bytes
        op = draw(st.sampled_from([OpType.READ, OpType.WRITE]))
        offset = draw(st.integers(0, max(0, limit - 4096)))
        size = draw(st.integers(1, min(262144, limit - offset)))
        ts += draw(st.sampled_from([0.001, 0.5, 3.0, 25.0]))
        records.append(SyscallRecord(
            pid=1, fd=3, inode=inode, offset=offset, size=size, op=op,
            timestamp=ts, duration=0.0))
    return Trace("random", records, files)


COMMON = dict(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


class TestLowering:
    @settings(**COMMON)
    @given(workload())
    def test_columns_round_trip_the_data_records(self, trace):
        compiled = compile_trace(trace)
        data = trace.data_records()
        assert compiled.record_count == len(data)
        assert len(compiled) == len(data)
        assert compiled.total_bytes == sum(r.size for r in data)
        driver_view = ProgramSpec(compiled)
        from repro.core.workload import ProgramDriver
        driver = ProgramDriver(driver_view)
        for rec in data:
            i = driver.index
            assert (driver.pids[i], driver.inodes[i], driver.offsets[i],
                    driver.sizes[i], OPS_BY_CODE[driver.ops[i]]) \
                == (rec.pid, rec.inode, rec.offset, rec.size, rec.op)
            driver.advance()
        assert driver.done

    @settings(**COMMON)
    @given(workload())
    def test_thinks_match_the_recorded_gaps_bitwise(self, trace):
        compiled = compile_trace(trace)
        data = trace.data_records()
        thinks = memoryview(compiled.thinks).cast("d")
        assert len(thinks) == max(0, len(data) - 1)
        for i, (cur, nxt) in enumerate(zip(data, data[1:])):
            assert thinks[i] == max(0.0, nxt.timestamp - cur.end_time)
        if data:
            assert compiled.start_time == data[0].timestamp

    @settings(**COMMON)
    @given(workload())
    def test_record_and_prepared_specs_replay_identically(self, trace):
        record_run = SimulationSession(
            [ProgramSpec(trace)], DiskOnlyPolicy(), seed=1).run()
        prepared_run = SimulationSession(
            [ProgramSpec(trace).prepared()], DiskOnlyPolicy(),
            seed=1).run()
        assert record_run == prepared_run

    def test_empty_trace_compiles(self):
        compiled = compile_trace(Trace("empty", [], {}))
        assert compiled.record_count == 0
        assert compiled.start_time == 0.0
        assert compiled.thinks == b""
        assert compiled.file_count == 0

    def test_file_table_is_inode_sorted(self):
        trace = make_trace([(9, 0, 4096, "read", 0.0),
                            (2, 0, 4096, "read", 1.0),
                            (5, 0, 4096, "read", 2.0)])
        inodes, _sizes = compile_trace(trace).files_view()
        assert list(inodes) == [2, 5, 9]


class TestDigest:
    def trace(self, name="t", size=4096):
        return make_trace([(1, 0, size, "read", 0.0),
                           (1, size, size, "read", 1.0)], name=name,
                          file_sizes={1: 4 * size})

    def test_equal_content_equal_digest_across_objects(self):
        assert compile_trace(self.trace()).digest == \
            compile_trace(self.trace()).digest

    def test_content_perturbations_change_digest(self):
        base = compile_trace(self.trace()).digest
        assert compile_trace(self.trace(size=8192)).digest != base
        assert compile_trace(self.trace(name="other")).digest != base

    def test_think_times_participate(self):
        a = make_trace([(1, 0, 4096, "read", 0.0),
                        (1, 4096, 4096, "read", 1.0)])
        b = make_trace([(1, 0, 4096, "read", 0.0),
                        (1, 4096, 4096, "read", 2.0)])
        assert compile_trace(a).digest != compile_trace(b).digest


class TestMemoisation:
    def test_same_object_compiles_once(self):
        trace = make_trace([(1, 0, 4096, "read", 0.0)])
        assert compile_trace(trace) is compile_trace(trace)

    def test_compiling_compiled_is_identity(self):
        compiled = compile_trace(make_trace([(1, 0, 4096, "read", 0.0)]))
        assert compile_trace(compiled) is compiled

    def test_compiled_trace_pickles(self):
        compiled = compile_trace(make_trace([(1, 0, 4096, "read", 0.0)]))
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone == compiled


class TestSources:
    def test_synthetic_source_loads_and_compiles(self):
        source = SyntheticSource("grep", seed=0)
        assert isinstance(source, TraceSource)
        trace = source.load()
        assert trace.records
        assert source.compiled().digest == compile_trace(trace).digest

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic"):
            SyntheticSource("nonesuch").load()

    def test_strace_source_loads_and_compiles(self, tmp_path):
        capture = tmp_path / "session.strace"
        capture.write_text(
            "1 10.0 read(3</f>) inode=1 offset=0 size=4096"
            " = 4096 <0.001>\n"
            "1 12.0 read(3</f>) inode=1 offset=4096 size=4096"
            " = 4096 <0.001>\n", encoding="utf-8")
        source = StraceSource(str(capture))
        assert isinstance(source, TraceSource)
        trace = source.load()
        assert trace.name == "session"
        assert len(trace.records) == 2
        compiled = source.compiled()
        assert compiled.record_count == 2
        assert compiled.digest == compile_trace(trace).digest

    def test_strace_source_skip_malformed(self, tmp_path):
        capture = tmp_path / "noisy.strace"
        capture.write_text(
            "garbage line\n"
            "1 10.0 read(3</f>) inode=1 offset=0 size=4096"
            " = 4096 <0.001>\n", encoding="utf-8")
        strict = StraceSource(str(capture))
        with pytest.raises(Exception):
            strict.load()
        lenient = StraceSource(str(capture), skip_malformed=True)
        assert lenient.compiled().record_count == 1


class TestCompiledTraceIsValue:
    def test_frozen(self):
        compiled = compile_trace(make_trace([(1, 0, 4096, "read", 0.0)]))
        with pytest.raises(AttributeError):
            compiled.name = "other"

    def test_is_a_compiled_trace(self):
        compiled = compile_trace(make_trace([(1, 0, 4096, "read", 0.0)]))
        assert isinstance(compiled, CompiledTrace)
        assert "records=1" in repr(compiled)
