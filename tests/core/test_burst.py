"""Unit and property tests for I/O-burst extraction (§2.1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.burst import (
    BURST_THRESHOLD_DEFAULT,
    MERGE_LIMIT_BYTES,
    IOBurst,
    ProfiledRequest,
    extract_bursts,
)
from repro.core.flexfetch import FlexFetchConfig, FlexFetchPolicy
from repro.core.policies import RequestContext
from repro.core.profile import ExecutionProfile
from repro.traces.record import OpType, SyscallRecord


def rec(inode, offset, size, ts, op=OpType.READ, dur=0.0):
    return SyscallRecord(pid=1, fd=3, inode=inode, offset=offset,
                         size=size, op=op, timestamp=ts, duration=dur)


class TestThreshold:
    def test_default_is_disk_access_time(self):
        assert BURST_THRESHOLD_DEFAULT == pytest.approx(0.020)

    def test_gap_below_threshold_joins_burst(self):
        bursts, thinks = extract_bursts(
            [rec(1, 0, 10, 0.0), rec(1, 10, 10, 0.019)])
        assert len(bursts) == 1
        assert thinks == [0.0]

    def test_gap_at_threshold_splits(self):
        bursts, thinks = extract_bursts(
            [rec(1, 0, 10, 0.0), rec(1, 10, 10, 0.020)])
        assert len(bursts) == 2
        assert thinks[0] == pytest.approx(0.020)

    def test_custom_threshold(self):
        records = [rec(1, 0, 10, 0.0), rec(1, 10, 10, 1.0)]
        bursts, _ = extract_bursts(records, threshold=2.0)
        assert len(bursts) == 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            extract_bursts([], threshold=0.0)

    def test_gap_measured_from_call_end(self):
        # A call lasting 0.1 s followed 0.01 s after it RETURNS.
        bursts, _ = extract_bursts(
            [rec(1, 0, 10, 0.0, dur=0.1), rec(1, 10, 10, 0.11)])
        assert len(bursts) == 1


class TestMerging:
    def test_sequential_same_file_merges(self):
        bursts, _ = extract_bursts(
            [rec(1, 0, 100, 0.0), rec(1, 100, 100, 0.001)])
        assert len(bursts[0].requests) == 1
        assert bursts[0].requests[0].size == 200

    def test_merge_capped_at_128kb(self):
        chunk = 48 * 1024
        records = [rec(1, i * chunk, chunk, i * 0.001) for i in range(5)]
        bursts, _ = extract_bursts(records)
        sizes = [r.size for r in bursts[0].requests]
        assert all(s <= MERGE_LIMIT_BYTES for s in sizes)
        assert sum(sizes) == 5 * chunk

    def test_interleaved_files_do_not_merge(self):
        records = [rec(1, 0, 10, 0.0), rec(2, 0, 10, 0.001),
                   rec(1, 10, 10, 0.002)]
        bursts, _ = extract_bursts(records)
        assert len(bursts[0].requests) == 3

    def test_reads_and_writes_do_not_merge(self):
        records = [rec(1, 0, 10, 0.0),
                   rec(1, 10, 10, 0.001, op=OpType.WRITE)]
        bursts, _ = extract_bursts(records)
        assert len(bursts[0].requests) == 2
        assert bursts[0].read_bytes == 10
        assert bursts[0].write_bytes == 10

    def test_non_contiguous_same_file_does_not_merge(self):
        records = [rec(1, 0, 10, 0.0), rec(1, 100, 10, 0.001)]
        bursts, _ = extract_bursts(records)
        assert len(bursts[0].requests) == 2


class TestEdgeCases:
    def test_empty_input(self):
        assert extract_bursts([]) == ([], [])

    def test_zero_size_calls_skipped(self):
        bursts, _ = extract_bursts([rec(1, 0, 0, 0.0)])
        assert bursts == []

    def test_metadata_calls_skipped(self):
        bursts, _ = extract_bursts([rec(1, 0, 10, 0.0, op=OpType.OPEN)])
        assert bursts == []

    def test_trailing_think_is_zero(self):
        _, thinks = extract_bursts([rec(1, 0, 10, 0.0)])
        assert thinks == [0.0]


class TestIOBurstValidation:
    def test_empty_burst_rejected(self):
        with pytest.raises(ValueError):
            IOBurst(requests=(), start=0.0, end=1.0)

    def test_backwards_burst_rejected(self):
        r = ProfiledRequest(inode=1, offset=0, size=1, op=OpType.READ)
        with pytest.raises(ValueError):
            IOBurst(requests=(r,), start=2.0, end=1.0)

    def test_bad_request_rejected(self):
        with pytest.raises(ValueError):
            ProfiledRequest(inode=1, offset=0, size=0, op=OpType.READ)


def _gap(prev_end, kind, extra):
    """A start time whose gap after ``prev_end`` sits on the threshold's
    edge: one ulp either side of it, exactly on it, or well clear."""
    edge = prev_end + BURST_THRESHOLD_DEFAULT
    if kind == "ulp-below":
        return math.nextafter(edge, -math.inf)
    if kind == "ulp-above":
        return math.nextafter(edge, math.inf)
    if kind == "edge":
        return edge
    return prev_end + extra


class TestFlexFetchBurstClose:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["ulp-below", "edge", "ulp-above", "free"]),
        st.floats(0.0, 0.05),
        # negative durations: the call "ends" before it starts
        st.floats(-0.01, 0.03),
        st.integers(0, 3)), min_size=1, max_size=30))
    def test_policy_closes_where_extract_bursts_splits(self, steps):
        """FlexFetch sees a burst close on exactly the system calls where
        the off-line extractor starts a new burst, zero-size calls and
        ``end < start`` included."""
        policy = FlexFetchPolicy(
            ExecutionProfile([], []),
            FlexFetchConfig(reevaluation_min_interval=0.0))
        closes: list[int] = []

        def on_close(now, *, reason):
            # An empty profile never crosses a burst boundary, so every
            # re-evaluation is a burst close.
            assert reason == "splice"
            closes.append(len(records) - 1)
            policy._last_reevaluation = -math.inf
            return policy.current_source

        policy._decide_from_profile = on_close
        records: list[SyscallRecord] = []
        prev_end = 0.0
        for kind, extra, dur, blocks in steps:
            start = _gap(prev_end, kind, extra)
            end = start + dur
            size = 4096 * blocks
            records.append(rec(1, 0, size, start,
                               dur=max(0.0, end - start)))
            policy.on_syscall(RequestContext(
                now=start, program="p", profiled=True, disk_pinned=False,
                inode=1, offset=0, nbytes=size, op=OpType.READ),
                start, end)
            if size:
                prev_end = max(prev_end, records[-1].end_time)

        def nbursts(k):
            return len(extract_bursts(records[:k])[0])

        splits = [k for k in range(len(records))
                  if 0 < nbursts(k) < nbursts(k + 1)]
        assert closes == splits
        assert policy.observed_bytes == sum(r.size for r in records)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 10_000),
                              st.integers(1, 200_000),
                              st.floats(0, 5, allow_nan=False)),
                    max_size=60))
    def test_bytes_conserved(self, raw):
        ts = 0.0
        records = []
        for inode, offset, size, gap in raw:
            ts += gap
            records.append(rec(inode, offset, size, ts))
        bursts, thinks = extract_bursts(records)
        assert sum(b.nbytes for b in bursts) == sum(r.size for r in records)
        assert len(bursts) == len(thinks)
        # All intra-burst merges respect the 128 KB cap... unless a
        # single syscall already exceeded it.
        for b in bursts:
            for req in b.requests:
                assert req.size <= max(MERGE_LIMIT_BYTES, 200_000)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 2, allow_nan=False), min_size=1,
                    max_size=50))
    def test_burst_count_matches_threshold_crossings(self, gaps):
        ts = 0.0
        records = []
        for gap in gaps:
            ts += gap
            records.append(rec(1, 0, 10, ts))
        bursts, _ = extract_bursts(records, threshold=0.5)
        # Expected: one burst per *realised* timestamp gap >= threshold
        # (computed on the accumulated floats, exactly as the extractor
        # sees them — summing the raw gaps would disagree by one ULP).
        realised = [b.timestamp - a.timestamp
                    for a, b in zip(records, records[1:], strict=False)]
        expected = 1 + sum(1 for g in realised if g >= 0.5)
        assert len(bursts) == expected
