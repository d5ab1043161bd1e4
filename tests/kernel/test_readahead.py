"""Unit tests for two-window readahead."""

import pytest

from repro.kernel.readahead import TwoWindowReadahead


class TestSequentialGrowth:
    def test_first_sequential_read_gets_min_window(self):
        ra = TwoWindowReadahead(min_pages=4, max_pages=32)
        end = ra.window_end(1, 10, 0, 2, file_pages=1000)
        # demand 2 pages + 4 ahead
        assert end == 6

    def test_window_doubles_up_to_cap(self):
        ra = TwoWindowReadahead(min_pages=4, max_pages=32)
        start = 0
        sizes = []
        for _ in range(6):
            end = ra.window_end(1, 10, start, start + 4, file_pages=10_000)
            sizes.append(end - start - 4)     # ahead pages
            start += 4
        assert sizes == [4, 8, 16, 32, 32, 32]

    def test_cap_is_32_pages(self):
        ra = TwoWindowReadahead()
        assert ra.max_pages == 32

    def test_clamped_to_file_size(self):
        ra = TwoWindowReadahead(min_pages=4)
        end = ra.window_end(1, 10, 0, 2, file_pages=3)
        assert end <= 3

    def test_sub_page_reads_count_as_sequential(self):
        ra = TwoWindowReadahead(min_pages=4)
        ra.window_end(1, 10, 0, 1, file_pages=100)
        ra.window_end(1, 10, 0, 1, file_pages=100)
        # continuing within the same page is sequential
        st = ra.state(1, 10)
        assert st.sequential_count == 2


class TestRandomCollapse:
    def test_random_read_gets_no_readahead(self):
        ra = TwoWindowReadahead(min_pages=4)
        ra.window_end(1, 10, 0, 4, file_pages=1000)
        end = ra.window_end(1, 10, 500, 502, file_pages=1000)
        assert end == 502
        assert ra.state(1, 10).random_count == 1

    def test_reread_is_random(self):
        ra = TwoWindowReadahead(min_pages=4)
        ra.window_end(1, 10, 0, 8, file_pages=1000)
        end = ra.window_end(1, 10, 0, 8, file_pages=1000)
        assert end == 8       # no ahead window

    def test_window_regrows_after_collapse(self):
        ra = TwoWindowReadahead(min_pages=4)
        ra.window_end(1, 10, 0, 4, file_pages=10_000)
        ra.window_end(1, 10, 500, 502, file_pages=10_000)   # random
        end = ra.window_end(1, 10, 502, 504, file_pages=10_000)
        assert end - 502 - 2 == 4           # back to min window


class TestStreams:
    def test_streams_are_independent(self):
        ra = TwoWindowReadahead(min_pages=4)
        ra.window_end(1, 10, 0, 4, file_pages=1000)
        ra.window_end(1, 10, 4, 8, file_pages=1000)
        # Different pid, same file: fresh stream.
        end = ra.window_end(2, 10, 0, 4, file_pages=1000)
        assert end - 4 == 4

    def test_reset_forgets_stream(self):
        ra = TwoWindowReadahead(min_pages=4)
        ra.window_end(1, 10, 0, 4, file_pages=1000)
        ra.window_end(1, 10, 4, 8, file_pages=1000)
        ra.reset(1, 10)
        end = ra.window_end(1, 10, 8, 12, file_pages=1000)
        # post-reset, offset-8 start is a random probe
        assert end == 12

    def test_non_zero_first_access_is_random_probe(self):
        ra = TwoWindowReadahead(min_pages=4)
        end = ra.window_end(1, 10, 50, 52, file_pages=1000)
        assert end == 52


class TestValidation:
    def test_bad_window_sizes_rejected(self):
        with pytest.raises(ValueError):
            TwoWindowReadahead(min_pages=0)
        with pytest.raises(ValueError):
            TwoWindowReadahead(min_pages=8, max_pages=4)
