"""Unit and property tests for the disk layout and the disk service's
offset-to-block mapping over it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.layout import (
    BLOCK_SIZE,
    MAX_GAP_BLOCKS,
    DiskLayout,
    bytes_to_blocks,
)
from repro.devices.service import DiskService
from repro.devices.wnic import Direction
from repro.sim.plan import layout_for
from repro.sim.rng import make_rng
from repro.traces.compile import compile_trace
from tests.conftest import make_trace


class TestBytesToBlocks:
    def test_exact(self):
        assert bytes_to_blocks(BLOCK_SIZE * 3) == 3

    def test_rounds_up(self):
        assert bytes_to_blocks(1) == 1
        assert bytes_to_blocks(BLOCK_SIZE + 1) == 2

    def test_zero(self):
        assert bytes_to_blocks(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bytes_to_blocks(-1)


def layout_of(seed, table):
    """A layout placing ``(inode, size)`` pairs in order."""
    return DiskLayout(seed, dict(table))


class TestPlacement:
    def test_sequential_registration(self):
        layout = layout_of(1, [(1, 10 * BLOCK_SIZE), (2, 4 * BLOCK_SIZE)])
        a, b = layout.get(1), layout.get(2)
        assert a.start_block == 0
        a_end = a.start_block + a.nblocks
        assert a_end <= b.start_block <= a_end + MAX_GAP_BLOCKS
        assert list(layout.files) == [1, 2]

    def test_gaps_are_bounded(self):
        layout = layout_of(1, [(inode, BLOCK_SIZE) for inode in range(1, 50)])
        first = layout.get(1)
        prev_end = first.start_block + first.nblocks
        for inode in range(2, 50):
            ext = layout.get(inode)
            gap = ext.start_block - prev_end
            assert 0 <= gap <= MAX_GAP_BLOCKS
            prev_end = ext.start_block + ext.nblocks

    def test_zero_byte_file_still_gets_a_block(self):
        assert layout_of(1, [(1, 0)]).get(1).nblocks == 1

    def test_reregistration_same_size_is_idempotent(self):
        """Two programs declaring one file at one size place it once."""
        a = make_trace([(1, 0, 5 * BLOCK_SIZE, "read", 0.0)], pid=100)
        b = make_trace([(1, 0, 5 * BLOCK_SIZE, "read", 1.0)], pid=200)
        layout = layout_for([compile_trace(a), compile_trace(b)], 1)
        assert len(layout.files) == 1
        assert layout.get(1) == layout_of(1, [(1, 5 * BLOCK_SIZE)]).get(1)

    def test_zero_byte_reregistration_is_idempotent(self):
        """An empty file declared again at one byte keeps its one
        block."""
        a = make_trace([(1, 0, 0, "read", 0.0)], pid=100,
                       file_sizes={1: 0})
        b = make_trace([(1, 0, 1, "read", 1.0)], pid=200,
                       file_sizes={1: 1})
        layout = layout_for([compile_trace(a), compile_trace(b)], 1)
        assert len(layout.files) == 1
        assert layout.get(1) == layout_of(1, [(1, 0)]).get(1)

    def test_zero_byte_file_is_placed_like_a_one_byte_file(self):
        sizes = [0, 3 * BLOCK_SIZE, 0, 1, 0, BLOCK_SIZE]
        a = layout_of(4, enumerate(sizes))
        b = layout_of(4, [(inode, max(size, 1))
                          for inode, size in enumerate(sizes)])
        assert dict(a.files) == dict(b.files)

    def test_deterministic_under_seed(self):
        def build(seed):
            layout = layout_of(seed, [(i, i * BLOCK_SIZE)
                                      for i in range(1, 30)])
            return [f.start_block for f in layout.files.values()]
        assert build(5) == build(5)
        assert build(5) != build(6)


def scalar_placement(seed, table):
    """Reference placement: one scalar gap draw per new file (none for
    the very first), as files were placed one at a time."""
    rng = make_rng(seed, "disk-layout")
    placed, next_block = {}, 0
    for inode, size in table:
        nblocks = max(1, bytes_to_blocks(size))
        if inode in placed:
            assert placed[inode][1] == nblocks
            continue
        gap = int(rng.integers(0, MAX_GAP_BLOCKS + 1)) if placed else 0
        placed[inode] = (next_block + gap, nblocks)
        next_block += gap + nblocks
    return placed


def placement(layout):
    return {inode: (f.start_block, f.nblocks)
            for inode, f in layout.files.items()}


class TestAddFiles:
    """One vectorised gap draw places a table exactly as one scalar
    draw per file does."""

    TABLE = [(inode, (inode * 7919) % 40_000) for inode in range(1, 400)]

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_scalar_draws(self, seed):
        layout = layout_of(seed, self.TABLE)
        assert placement(layout) == scalar_placement(seed, self.TABLE)
        assert list(layout.files) == [inode for inode, _ in self.TABLE]

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_onto_a_non_empty_layout(self, seed):
        """A second program's table goes onto the first's: its first
        file draws a gap, and the draws continue the one stream."""
        head, tail = self.TABLE[:50], self.TABLE[50:]
        traces = [compile_trace(make_trace(
            [(inode, 0, 1, "read", 0.0) for inode, _ in table], pid=pid,
            file_sizes=dict(table)))
            for pid, table in ((100, head), (200, tail))]
        layout = layout_for(traces, seed)
        assert placement(layout) == scalar_placement(seed, self.TABLE)

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_reregistered_inodes_draw_nothing(self, seed):
        """An inode a later program declares again is placed once, at
        its largest size, and draws no gap of its own."""
        first = {1: BLOCK_SIZE, 2: 0, 3: 5 * BLOCK_SIZE}
        # 2 and 3 again (2 larger, 3 smaller), then new inodes.
        second = {2: BLOCK_SIZE, 3: 5 * BLOCK_SIZE - 7,
                  4: 9 * BLOCK_SIZE, 5: 0, 6: 3 * BLOCK_SIZE}
        traces = [compile_trace(make_trace(
            [(inode, 0, 1, "read", float(inode)) for inode in files],
            pid=pid, file_sizes=files))
            for pid, files in ((100, first), (200, second))]
        layout = layout_for(traces, seed)
        want = scalar_placement(seed, [(1, BLOCK_SIZE), (2, BLOCK_SIZE),
                                       (3, 5 * BLOCK_SIZE),
                                       (4, 9 * BLOCK_SIZE), (5, 0),
                                       (6, 3 * BLOCK_SIZE)])
        assert placement(layout) == want

    def test_empty_table_draws_nothing(self):
        layout = DiskLayout(7, {})
        assert len(layout.files) == 0
        assert placement(layout_of(7, [(1, BLOCK_SIZE), (2, BLOCK_SIZE)])) \
            == scalar_placement(7, [(1, BLOCK_SIZE), (2, BLOCK_SIZE)])


class _BlockDisk:
    """Stands in for the disk: a service call returns its block."""

    def service(self, when, nbytes, block, npages):
        return block


def block_of(layout, inode, offset):
    """The disk block ``DiskService.transfer`` sends ``offset`` to."""
    return DiskService(_BlockDisk(), layout).transfer(
        0.0, 1, inode, offset, 1, Direction.RECV)


class TestBlockOf:
    def test_block_of_offsets(self):
        layout = layout_of(1, [(1, 10 * BLOCK_SIZE), (2, BLOCK_SIZE)])
        assert block_of(layout, 1, 0) == 0
        assert block_of(layout, 1, BLOCK_SIZE) == 1
        assert block_of(layout, 1, BLOCK_SIZE - 1) == 0
        assert block_of(layout, 1, 10 * BLOCK_SIZE - 1) == 9
        assert block_of(layout, 2, 0) == layout.get(2).start_block

    def test_offset_past_eof_rejected(self):
        layout = layout_of(1, [(1, BLOCK_SIZE)])
        with pytest.raises(ValueError):
            block_of(layout, 1, 2 * BLOCK_SIZE)
        with pytest.raises(ValueError):
            block_of(layout, 1, -1)

    def test_unknown_inode_raises(self):
        with pytest.raises(KeyError):
            DiskLayout(1, {}).get(99)
        with pytest.raises(KeyError):
            block_of(layout_of(1, [(1, BLOCK_SIZE)]), 99, 0)

    def test_contains(self):
        layout = layout_of(1, [(1, BLOCK_SIZE)])
        assert 1 in layout
        assert 2 not in layout


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1_000_000), min_size=1, max_size=60),
           st.integers(0, 2 ** 31))
    def test_no_two_files_overlap(self, sizes, seed):
        layout = layout_of(seed, enumerate(sizes, start=1))
        # Ordered by start block, each file must end before the next
        # begins.
        extents = sorted(layout.files.values(),
                         key=lambda f: f.start_block)
        for a, b in zip(extents, extents[1:]):
            assert a.start_block + a.nblocks <= b.start_block

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 100_000), min_size=1, max_size=40))
    def test_used_blocks_bounds_everything(self, sizes):
        """The last file placed ends past every block in use."""
        layout = layout_of(3, enumerate(sizes, start=1))
        last = list(layout.files.values())[-1]
        for ext in layout.files.values():
            assert ext.start_block + ext.nblocks \
                <= last.start_block + last.nblocks
