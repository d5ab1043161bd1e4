"""Two-window readahead, as in the 2.6-era Linux kernel.

The paper's simulator emulates "the two-window readahead policy that
prefetches up to 32 pages".  Per file stream the kernel keeps a *current
window* (pages the application is consuming) and an *ahead window*
(pages being prefetched behind it).  On detected sequential access the
window doubles up to :data:`~repro.kernel.page.MAX_READAHEAD_PAGES`
(32 pages = 128 KB); a random access collapses the stream back to the
minimum.  This is exactly the mechanism FlexFetch's §2.1 burst model
assumes when it merges sequential requests "into one request of size up
to 128 KB".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.page import MAX_READAHEAD_PAGES


@dataclass(slots=True)
class ReadaheadState:
    """Per-(process, file) stream state.

    ``next_size`` is the size the next ahead window will get and
    ``last_page`` the last page the stream read; the counters tally
    sequential and random reads.
    """

    next_size: int = 0
    last_page: int = -2  # sentinel: nothing read yet
    sequential_count: int = 0
    random_count: int = 0


class TwoWindowReadahead:
    """Computes the readahead window of a read stream.

    Parameters
    ----------
    min_pages:
        Initial readahead size on the first sequential hit (Linux uses
        4 pages = 16 KB).
    max_pages:
        Hard cap — 32 pages (128 KB) per the paper.
    """

    def __init__(self, min_pages: int = 4,
                 max_pages: int = MAX_READAHEAD_PAGES) -> None:
        if min_pages <= 0 or max_pages < min_pages:
            raise ValueError("need 0 < min_pages <= max_pages")
        self.min_pages = min_pages
        self.max_pages = max_pages
        self._streams: dict[tuple[int, int], ReadaheadState] = {}

    def state(self, pid: int, inode: int) -> ReadaheadState:
        """The stream state for ``(pid, inode)`` (created on demand)."""
        st = self._streams.get((pid, inode))
        if st is None:
            st = self._streams[(pid, inode)] = ReadaheadState()
        return st

    def reset(self, pid: int, inode: int) -> None:
        """Forget a stream (file close)."""
        self._streams.pop((pid, inode), None)

    # ------------------------------------------------------------------
    def window_end(self, pid: int, inode: int, start: int, end: int,
                   file_pages: int) -> int:
        """Expand the demand pages ``[start, end)`` by readahead.

        Returns one past the last page the kernel would fetch: the
        demand pages plus any ahead window, which stops at the file's
        last page (``file_pages``) and never cuts the demand.  The fetch
        always starts at ``start``; the caller intersects
        ``[start, window_end)`` with the cache to find what actually
        hits the device.
        """
        st = self._streams.get((pid, inode))
        if st is None:
            st = self._streams[(pid, inode)] = ReadaheadState()
        last_page = st.last_page
        if last_page < -1:
            # First access to the stream: offset-0 reads are treated as
            # sequential starts (open-then-read), others as random probes.
            sequential = start == 0
        else:
            # Sequential = the read starts exactly where the previous one
            # ended (next page), or continues within the last touched
            # page (sub-page sequential reads).  A re-read of an earlier
            # position is a random probe and collapses the window.
            sequential = start == last_page or start == last_page + 1

        fetch_end = end
        if sequential:
            st.sequential_count += 1
            ahead = st.next_size * 2
            if ahead == 0:
                ahead = self.min_pages
            elif ahead > self.max_pages:
                ahead = self.max_pages
            st.next_size = ahead
            # Build/extend the ahead window past the demand pages.
            if file_pages > end:
                fetch_end = end + ahead
                if fetch_end > file_pages:
                    fetch_end = file_pages
        else:
            st.random_count += 1
            st.next_size = 0

        st.last_page = end - 1
        return fetch_end
