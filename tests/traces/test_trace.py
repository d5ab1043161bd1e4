"""Unit tests for the Trace container."""

import pytest

from repro.traces.record import FileInfo, OpType, SyscallRecord
from repro.traces.trace import Trace
from tests.conftest import make_trace


class TestValidation:
    def test_records_must_be_ordered(self):
        with pytest.raises(ValueError, match="out of order"):
            make_trace([(1, 0, 10, "read", 5.0), (1, 10, 10, "read", 1.0)])

    def test_unknown_inode_rejected(self):
        rec = SyscallRecord(pid=1, fd=3, inode=9, offset=0, size=10,
                            op=OpType.READ, timestamp=0.0)
        with pytest.raises(ValueError, match="unknown inode"):
            Trace("t", [rec], {})

    def test_read_past_eof_rejected(self):
        files = {1: FileInfo(inode=1, path="f", size_bytes=5)}
        rec = SyscallRecord(pid=1, fd=3, inode=1, offset=0, size=10,
                            op=OpType.READ, timestamp=0.0)
        with pytest.raises(ValueError, match="past EOF"):
            Trace("t", [rec], files)

    def test_write_past_declared_size_rejected(self):
        """40 one-second 4 KB appends to a file declared as 4 KB: the
        disk layout has no block past the declared size, so the trace
        is refused at the first write past it (a replay used to crash
        at its first laptop-mode flush)."""
        files = {1: FileInfo(inode=1, path="log", size_bytes=4096)}
        records = [SyscallRecord(pid=1, fd=3, inode=1, offset=i * 4096,
                                 size=4096, op=OpType.WRITE,
                                 timestamp=float(i))
                   for i in range(40)]
        with pytest.raises(ValueError,
                           match="record 1 writes past the declared size"):
            Trace("appends", records, files)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Trace("", [], {})

    def test_empty_trace_ok(self):
        t = Trace("empty", [], {})
        assert t.duration == 0.0
        assert len(t) == 0


class TestStats:
    def test_basic_stats(self, tiny_trace):
        s = tiny_trace.stats()
        assert s.record_count == 3
        assert s.read_bytes == 3 * 4096
        assert s.write_bytes == 0
        assert s.file_count == 1
        assert len(s.think_times) == 2

    def test_think_times(self, tiny_trace):
        s = tiny_trace.stats()
        assert s.think_times[0] == pytest.approx(0.005)
        assert s.think_times[1] == pytest.approx(4.995)

    def test_footprint_in_decimal_mb(self):
        t = make_trace([(1, 0, 10, "read", 0.0)], file_sizes={1: 2_000_000})
        assert t.stats().footprint_mb == pytest.approx(2.0)

    def test_think_percentile(self, sparse_trace):
        s = sparse_trace.stats()
        assert s.think_percentile(50) == pytest.approx(30.0, abs=0.1)

    def test_percentile_of_empty(self):
        t = make_trace([(1, 0, 10, "read", 0.0)])
        assert t.stats().think_percentile(50) == 0.0


class TestComposition:
    def test_shifted(self, tiny_trace):
        shifted = tiny_trace.shifted(10.0)
        assert shifted.records[0].timestamp == pytest.approx(10.0)
        assert len(shifted) == len(tiny_trace)

    def test_shift_below_zero_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.shifted(-100.0)

    def test_concat_orders_and_gaps(self):
        a = make_trace([(1, 0, 10, "read", 0.0)], name="a")
        b = make_trace([(2, 0, 10, "read", 0.0)], name="b")
        c = a.concat(b, gap=5.0)
        assert c.name == "a+b"
        assert len(c) == 2
        assert c.records[1].timestamp >= a.duration + 5.0
        assert set(c.files) == {1, 2}

    def test_concat_conflicting_sizes_rejected(self):
        a = make_trace([(1, 0, 10, "read", 0.0)], file_sizes={1: 10})
        b = make_trace([(1, 0, 99, "read", 0.0)], file_sizes={1: 99})
        with pytest.raises(ValueError, match="conflicting"):
            a.concat(b)

    def test_merged_interleaves(self):
        a = make_trace([(1, 0, 10, "read", 0.0), (1, 10, 10, "read", 10.0)],
                       name="a")
        b = make_trace([(2, 0, 10, "read", 5.0)], name="b")
        m = a.merged(b)
        assert [r.timestamp for r in m.records] == [0.0, 5.0, 10.0]

    def test_renumbered(self):
        a = make_trace([(1, 0, 10, "read", 0.0)])
        r = a.renumbered(100)
        assert set(r.files) == {101}
        assert r.records[0].inode == 101

    def test_max_inode(self):
        a = make_trace([(3, 0, 10, "read", 0.0), (7, 0, 10, "read", 1.0)])
        assert a.max_inode() == 7
        assert Trace("e", [], {}).max_inode() == 0

    def test_data_records_skips_metadata_calls(self):
        files = {1: FileInfo(inode=1, path="f", size_bytes=100)}
        recs = [
            SyscallRecord(pid=1, fd=3, inode=1, offset=0, size=0,
                          op=OpType.OPEN, timestamp=0.0),
            SyscallRecord(pid=1, fd=3, inode=1, offset=0, size=10,
                          op=OpType.READ, timestamp=0.1),
        ]
        t = Trace("t", recs, files)
        assert len(t.data_records()) == 1
