"""C-SCAN ordering of a read's fetches, through ``KernelPath.read``.

A read's fetches all belong to one file and ascend on the platter.  Each
case lays one file out from block 0 (so a page's index is its block)
and leaves pages missing only at the blocks it names: every missing run
is one fetch, starting at its block.
"""

from hypothesis import given, strategies as st

from repro.kernel.page import PAGE_SIZE
from tests.kernel.test_vfs import kernel_with_file


def cscan_read(blocks, head=0, npages=1):
    """Read the whole file with the elevator at ``head`` and every page
    resident but ``npages`` at each of ``blocks``; returns the fetches
    in dispatch order and the kernel path."""
    missing = sorted({b + k for b in blocks for k in range(npages)})
    file_pages = missing[-1] + 2
    kernel = kernel_with_file(size=file_pages * PAGE_SIZE,
                              memory=file_pages * PAGE_SIZE)
    assert kernel.layout.get(1).start_block == 0
    resident_from = 0
    for index in [*missing, file_pages]:
        if index > resident_from:
            kernel.cache.insert_run(1, resident_from, index)
        resident_from = index + 1
    kernel.head = head
    return kernel.read(1, 1, 0, file_pages * PAGE_SIZE, now=0.0), kernel


def starts(fetches):
    return [e.start for e in fetches]


class TestOrdering:
    def test_ascending_from_head(self):
        fetches, _ = cscan_read([10, 60, 55, 90], head=50)
        assert starts(fetches) == [55, 60, 90, 10]   # sweep up, then wrap

    def test_pure_ascending_when_all_ahead(self):
        fetches, _ = cscan_read([30, 10, 20], head=0)
        assert starts(fetches) == [10, 20, 30]

    def test_wrap_to_lowest(self):
        fetches, _ = cscan_read([10, 5, 40], head=100)
        assert starts(fetches) == [5, 10, 40]

    def test_head_tracks_request_start(self):
        _, kernel = cscan_read([3, 10], head=0, npages=5)
        assert kernel.head == 10

    def test_equal_blocks_dispatch_back_to_back(self):
        """Two fetches of one read never share a block; the tie rule
        left is that a fetch at the head's own block is still ahead of
        it, so it goes in the current sweep."""
        fetches, _ = cscan_read([5, 10], head=10)
        assert starts(fetches) == [10, 5]

    def test_order_convenience(self):
        fetches, kernel = cscan_read([30, 10])
        assert starts(fetches) == [10, 30]
        assert kernel.head == 30


class TestProperties:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
           st.integers(0, 10_000))
    def test_drain_yields_everything_once(self, blocks, head):
        fetches, _ = cscan_read(blocks, head=head)
        pages = [index for e in fetches for index in range(e.start, e.end)]
        assert sorted(pages) == sorted(set(blocks))

    @given(st.lists(st.integers(0, 10_000), min_size=2, max_size=60),
           st.integers(0, 10_000))
    def test_single_direction_change_at_most(self, blocks, head):
        """A C-SCAN sweep goes up, wraps at most once, goes up again."""
        out = starts(cscan_read(blocks, head=head)[0])
        wraps = sum(1 for a, b in zip(out, out[1:], strict=False) if b < a)
        assert wraps <= 1
