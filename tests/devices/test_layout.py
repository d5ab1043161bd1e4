"""Unit and property tests for the disk layout."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.layout import BLOCK_SIZE, DiskLayout, bytes_to_blocks
from repro.sim.rng import make_rng


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


class TestPlacement:
    def test_sequential_registration(self):
        layout = DiskLayout(seed=1, max_gap_blocks=0)
        a = layout.add_file(1, 10 * BLOCK_SIZE)
        b = layout.add_file(2, 4 * BLOCK_SIZE)
        assert a.start_block == 0
        assert b.start_block == a.end_block    # no gap configured

    def test_gaps_are_bounded(self):
        layout = DiskLayout(seed=1, max_gap_blocks=8)
        prev_end = layout.add_file(1, BLOCK_SIZE).end_block
        for inode in range(2, 50):
            ext = layout.add_file(inode, BLOCK_SIZE)
            gap = ext.start_block - prev_end
            assert 0 <= gap <= 8
            prev_end = ext.end_block

    def test_zero_byte_file_still_gets_a_block(self):
        layout = DiskLayout(seed=1)
        assert layout.add_file(1, 0).nblocks == 1

    def test_reregistration_same_size_is_idempotent(self):
        layout = DiskLayout(seed=1)
        a = layout.add_file(1, 5 * BLOCK_SIZE)
        b = layout.add_file(1, 5 * BLOCK_SIZE)
        assert a == b
        assert len(layout) == 1

    def test_zero_byte_reregistration_is_idempotent(self):
        layout = DiskLayout(seed=1)
        a = layout.add_file(1, 0)
        assert layout.add_file(1, 0) == a
        assert layout.add_file(1, 1) == a     # one block either way
        assert len(layout) == 1
        with pytest.raises(ValueError):
            layout.add_file(1, BLOCK_SIZE + 1)

    def test_zero_byte_file_is_placed_like_a_one_byte_file(self):
        sizes = [0, 3 * BLOCK_SIZE, 0, 1, 0, BLOCK_SIZE]
        a, b = DiskLayout(seed=4), DiskLayout(seed=4)
        for inode, size in enumerate(sizes):
            a.add_file(inode, size)
            b.add_file(inode, max(size, 1))
        assert dict(a.files) == dict(b.files)

    def test_reregistration_different_size_rejected(self):
        layout = DiskLayout(seed=1)
        layout.add_file(1, 5 * BLOCK_SIZE)
        with pytest.raises(ValueError):
            layout.add_file(1, 50 * BLOCK_SIZE)

    def test_capacity_enforced(self):
        layout = DiskLayout(seed=1, max_gap_blocks=0, capacity_blocks=10)
        layout.add_file(1, 8 * BLOCK_SIZE)
        with pytest.raises(ValueError):
            layout.add_file(2, 8 * BLOCK_SIZE)

    def test_deterministic_under_seed(self):
        def build(seed):
            layout = DiskLayout(seed=seed)
            return [layout.add_file(i, i * BLOCK_SIZE).start_block
                    for i in range(1, 30)]
        assert build(5) == build(5)
        assert build(5) != build(6)


def scalar_placement(seed, table, max_gap=16):
    """Reference placement: one scalar gap draw per new file (none for
    the very first), as files were placed one at a time."""
    rng = make_rng(seed, "disk-layout")
    placed, next_block = {}, 0
    for inode, size in table:
        nblocks = max(1, bytes_to_blocks(size))
        if inode in placed:
            assert placed[inode][1] == nblocks
            continue
        gap = int(rng.integers(0, max_gap + 1)) if placed else 0
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
        layout = DiskLayout(seed=seed)
        inodes, sizes = zip(*self.TABLE, strict=True)
        layout.add_files(inodes, sizes)
        assert placement(layout) == scalar_placement(seed, self.TABLE)
        assert list(layout.files) == list(inodes)

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_add_file_loop(self, seed):
        bulk, loop = DiskLayout(seed=seed), DiskLayout(seed=seed)
        inodes, sizes = zip(*self.TABLE, strict=True)
        bulk.add_files(inodes, sizes)
        for inode, size in self.TABLE:
            loop.add_file(inode, size)
        assert placement(bulk) == placement(loop)
        assert bulk.used_blocks == loop.used_blocks

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_onto_a_non_empty_layout(self, seed):
        head, tail = self.TABLE[:50], self.TABLE[50:]
        layout = DiskLayout(seed=seed)
        for inode, size in head:
            layout.add_file(inode, size)
        inodes, sizes = zip(*tail, strict=True)
        layout.add_files(inodes, sizes)
        assert placement(layout) == scalar_placement(seed, self.TABLE)

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_reregistered_inodes_draw_nothing(self, seed):
        layout = DiskLayout(seed=seed)
        layout.add_files([1, 2, 3], [BLOCK_SIZE, 0, 5 * BLOCK_SIZE])
        # 2 and 3 again (same blocks), 2 twice within the table.
        table = [(2, 1), (4, 9 * BLOCK_SIZE), (3, 5 * BLOCK_SIZE - 7),
                 (5, 0), (2, BLOCK_SIZE), (6, 3 * BLOCK_SIZE)]
        inodes, sizes = zip(*table, strict=True)
        layout.add_files(inodes, sizes)
        want = scalar_placement(
            seed, [(1, BLOCK_SIZE), (2, 0), (3, 5 * BLOCK_SIZE)] + table)
        assert placement(layout) == want

    def test_size_mismatch_places_nothing(self):
        layout = DiskLayout(seed=1)
        layout.add_file(1, 5 * BLOCK_SIZE)
        before = placement(layout)
        with pytest.raises(ValueError, match="re-registered"):
            layout.add_files([2, 1], [BLOCK_SIZE, 50 * BLOCK_SIZE])
        with pytest.raises(ValueError, match="re-registered"):
            layout.add_files([2, 2], [BLOCK_SIZE, 9 * BLOCK_SIZE])
        assert placement(layout) == before

    def test_empty_table_draws_nothing(self):
        layout = DiskLayout(seed=7)
        layout.add_files([], [])
        assert len(layout) == 0 and layout.used_blocks == 0
        layout.add_files([1, 2], [BLOCK_SIZE, BLOCK_SIZE])
        assert placement(layout) == scalar_placement(
            7, [(1, BLOCK_SIZE), (2, BLOCK_SIZE)])


class TestBlockOf:
    def test_block_of_offsets(self):
        layout = DiskLayout(seed=1, max_gap_blocks=0)
        layout.add_file(1, 10 * BLOCK_SIZE)
        assert layout.block_of(1, 0) == 0
        assert layout.block_of(1, BLOCK_SIZE) == 1
        assert layout.block_of(1, BLOCK_SIZE - 1) == 0

    def test_offset_past_eof_rejected(self):
        layout = DiskLayout(seed=1)
        layout.add_file(1, BLOCK_SIZE)
        with pytest.raises(ValueError):
            layout.block_of(1, 2 * BLOCK_SIZE)

    def test_unknown_inode_raises(self):
        with pytest.raises(KeyError):
            DiskLayout(seed=1).get(99)

    def test_contains(self):
        layout = DiskLayout(seed=1)
        layout.add_file(1, BLOCK_SIZE)
        assert 1 in layout
        assert 2 not in layout


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1_000_000), min_size=1, max_size=60),
           st.integers(0, 2 ** 31))
    def test_no_two_files_overlap(self, sizes, seed):
        layout = DiskLayout(seed=seed, max_gap_blocks=16)
        for inode, size in enumerate(sizes, start=1):
            layout.add_file(inode, size)
        span = layout.span()
        # span() is ordered by start block: each file must end before
        # the next begins.
        for i in range(len(span) - 1):
            assert span[i][1] + span[i][2] <= span[i + 1][1]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 100_000), min_size=1, max_size=40))
    def test_used_blocks_bounds_everything(self, sizes):
        layout = DiskLayout(seed=3)
        for inode, size in enumerate(sizes, start=1):
            ext = layout.add_file(inode, size)
            assert ext.end_block <= layout.used_blocks
