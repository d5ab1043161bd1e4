"""Execution profiles and evaluation stages (§2.1-§2.2).

An :class:`ExecutionProfile` is the device-independent record FlexFetch
keeps for a program: alternating I/O bursts and think times.  For
decision making it is segmented into *evaluation stages* — "continuous
I/O bursts, including think times between them, whose length just
exceeds a pre-determined threshold, say 40 seconds" — so the decision
can be re-examined at stage granularity.

The profile also supports the §2.3.1 *splice*: replacing its first N
bursts with the bursts observed in the current run once the observed
byte count passes them, producing the assembled profile on which the
decision rule is re-run.  The decision rule only ever reads the
assembled profile's *upcoming* slice, which is always the old profile's
bursts from ``burst_index_for_bytes(observed)`` on (DESIGN.md §7), so
FlexFetch slices the old profile through :meth:`upcoming_range` and
:meth:`spliced` stays as the reference that equivalence is tested
against.

For the cost model the profile lowers its requests once into flat
:class:`ProfileColumns`, cached on the (immutable) profile.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from weakref import WeakKeyDictionary

from repro.core.burst import (
    BURST_THRESHOLD_DEFAULT,
    IOBurst,
    ProfiledRequest,
    extract_bursts,
)
from repro.traces.record import OpType
from repro.traces.trace import Trace
from repro.units import Bytes, Seconds

#: Default evaluation-stage length (§2.2/§3.1: "40 seconds").
STAGE_LENGTH_DEFAULT: float = 40.0


@dataclass(frozen=True, slots=True)
class Stage:
    """One evaluation stage: a slice of the profile's bursts.

    ``index`` is the stage ordinal; ``first``/``last`` are burst indices
    (inclusive); ``duration`` is the recorded wall length (bursts +
    enclosed thinks); ``nbytes`` the total bytes requested.
    """

    index: int
    first: int
    last: int
    duration: Seconds
    nbytes: Bytes

    @property
    def burst_count(self) -> int:
        return self.last - self.first + 1


class ProfileColumns:
    """Flat per-request columns of a sequence of bursts.

    ``inodes``/``offsets``/``sizes``/``reads`` hold one entry per
    request in burst order; burst ``b`` owns requests
    ``bounds[b]:bounds[b + 1]``.  This is the one input form of the
    cost model's packed walk: profiles lower to it once, request lists
    (the stage audit, ad-hoc estimates) on every call.  ``packed`` is
    the cost model's memo of what it derives from them, per disk layout
    and for as long as that layout lives (see
    :meth:`~repro.core.costmodel.CostModel.stage_pair`).
    """

    __slots__ = ("inodes", "offsets", "sizes", "reads", "bounds", "packed")

    def __init__(self,
                 request_lists: Iterable[Iterable[ProfiledRequest]]
                 ) -> None:
        inodes: list[int] = []
        offsets: list[int] = []
        sizes: list[int] = []
        reads: list[bool] = []
        bounds = [0]
        read = OpType.READ
        for requests in request_lists:
            for req in requests:
                inodes.append(req.inode)
                offsets.append(req.offset)
                sizes.append(req.size)
                reads.append(req.op is read)
            bounds.append(len(sizes))
        self.inodes = inodes
        self.offsets = offsets
        self.sizes = sizes
        self.reads = reads
        self.bounds = bounds
        self.packed: WeakKeyDictionary[object, object] | None = None


class ExecutionProfile:
    """Bursts + think times of one (or several merged) program runs.

    Parameters
    ----------
    bursts / thinks:
        As produced by :func:`~repro.core.burst.extract_bursts`;
        ``thinks[i]`` follows ``bursts[i]`` and the lists match in length.
    name:
        Provenance label (program name).
    """

    def __init__(self, bursts: Sequence[IOBurst], thinks: Sequence[float],
                 *, name: str = "profile") -> None:
        if len(bursts) != len(thinks):
            raise ValueError("bursts and thinks must align")
        self.name = name
        self.bursts: tuple[IOBurst, ...] = tuple(bursts)
        self.thinks: tuple[float, ...] = tuple(thinks)
        # Cumulative requested bytes after each burst, for position lookup.
        cum = []
        total = 0
        for b in self.bursts:
            total += b.nbytes
            cum.append(total)
        self._cum_bytes: list[int] = cum
        self._columns: ProfileColumns | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bursts)

    @property
    def total_bytes(self) -> Bytes:
        return self._cum_bytes[-1] if self._cum_bytes else 0

    @property
    def total_duration(self) -> Seconds:
        """Recorded wall length: bursts plus inter-burst thinks."""
        return (sum(b.duration for b in self.bursts)
                + sum(self.thinks[:-1] if self.thinks else ()))

    def bytes_through(self, burst_index: int) -> int:
        """Cumulative bytes of bursts ``0..burst_index`` inclusive."""
        if not 0 <= burst_index < len(self.bursts):
            raise IndexError(burst_index)
        return self._cum_bytes[burst_index]

    # An index, not a byte count, whatever the name suggests to R2.
    def burst_index_for_bytes(self, nbytes: Bytes) -> int:  # repro-lint: ignore[R2]
        """Index of the first burst whose cumulative bytes reach ``nbytes``.

        Returns ``len(self)`` when ``nbytes`` exceeds the whole profile.
        """
        return bisect.bisect_left(self._cum_bytes, max(0, nbytes) + 1) \
            if nbytes >= 0 else 0

    @property
    def columns(self) -> ProfileColumns:
        """Every request as flat columns, lowered on first use."""
        if self._columns is None:
            self._columns = ProfileColumns(b.requests for b in self.bursts)
        return self._columns

    # ------------------------------------------------------------------
    def stages(self, stage_length: float = STAGE_LENGTH_DEFAULT
               ) -> list[Stage]:
        """Segment into evaluation stages of about ``stage_length`` seconds.

        Bursts (with their trailing thinks) accumulate until the running
        length *just exceeds* the threshold, then a stage closes.  The
        final stage takes whatever remains.
        """
        if stage_length <= 0:
            raise ValueError("stage length must be positive")
        stages: list[Stage] = []
        first = 0
        acc = 0.0
        nbytes = 0
        for i, burst in enumerate(self.bursts):
            acc += burst.duration
            nbytes += burst.nbytes
            is_last = i == len(self.bursts) - 1
            if not is_last:
                acc += self.thinks[i]
            if acc > stage_length or is_last:
                stages.append(Stage(index=len(stages), first=first, last=i,
                                    duration=acc, nbytes=nbytes))
                first = i + 1
                acc = 0.0
                nbytes = 0
        return stages

    def stage_slice(self, stage: Stage) -> tuple[tuple[IOBurst, ...],
                                                 tuple[float, ...]]:
        """The bursts and thinks belonging to one stage."""
        bursts = self.bursts[stage.first:stage.last + 1]
        thinks = self.thinks[stage.first:stage.last + 1]
        return bursts, thinks

    def upcoming_range(self, nbytes_seen: Bytes, horizon: Seconds
                       ) -> tuple[int, int]:
        """Burst indices ``(first, stop)`` of the next ~``horizon``
        seconds of profile after ``nbytes_seen``.

        The decision rules replay this range through the device clones.
        A one-stage horizon is myopic — a one-time cost like the active
        disk's spin-down tail dominates and pins the choice to the
        incumbent device — so callers typically look a couple of stage
        lengths ahead.
        """
        first = stop = self.burst_index_for_bytes(nbytes_seen)
        bursts = self.bursts
        thinks = self.thinks
        n = len(bursts)
        acc = 0.0
        while stop < n:
            acc += bursts[stop].duration + thinks[stop]
            stop += 1
            if acc > horizon:
                break
        return first, stop

    def upcoming_slice(self, nbytes_seen: Bytes, horizon: Seconds
                       ) -> tuple[list[IOBurst], list[float]]:
        """The bursts and thinks of :meth:`upcoming_range`."""
        first, stop = self.upcoming_range(nbytes_seen, horizon)
        return list(self.bursts[first:stop]), list(self.thinks[first:stop])

    # ------------------------------------------------------------------
    def spliced(self, observed_bursts: Sequence[IOBurst],
                observed_thinks: Sequence[float]) -> ExecutionProfile:
        """The §2.3.1 assembled profile.

        The observed (current-run) bursts replace the first N old bursts,
        where N is chosen so the replaced bursts cover at least the
        observed byte count: "whenever the amount just exceeds the amount
        of data requested in the first N I/O bursts, we use the new
        profile for this run to replace the N I/O bursts in the old
        profile".

        Its upcoming slice after the observed bytes is the old profile's
        (``spliced(obs, t).upcoming_slice(b, h) ==
        upcoming_slice(b, h)`` with ``b`` the observed bytes), so the
        policy never builds it; it stays as the reference for that
        equivalence.
        """
        if len(observed_bursts) != len(observed_thinks):
            raise ValueError("observed bursts and thinks must align")
        observed_bytes = sum(b.nbytes for b in observed_bursts)
        n = self.burst_index_for_bytes(observed_bytes)
        bursts = list(observed_bursts) + list(self.bursts[n:])
        thinks = list(observed_thinks) + list(self.thinks[n:])
        return ExecutionProfile(bursts, thinks,
                                name=f"{self.name}+observed")

    def merged_with(self, other: ExecutionProfile) -> ExecutionProfile:
        """Aggregate profile of concurrently running programs (§2.3.4).

        Bursts are interleaved on their recorded timestamps and think
        times recomputed from the merged timeline.
        """
        events = sorted(list(self.bursts) + list(other.bursts),
                        key=lambda b: b.start)
        thinks: list[float] = []
        for cur, nxt in zip(events, events[1:], strict=False):
            thinks.append(max(0.0, nxt.start - cur.end))
        if events:
            thinks.append(0.0)
        return ExecutionProfile(events, thinks,
                                name=f"{self.name}|{other.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ExecutionProfile {self.name!r} bursts={len(self.bursts)}"
                f" bytes={self.total_bytes}"
                f" duration={self.total_duration:.1f}s>")


def profile_from_trace(trace: Trace, *,
                       threshold: float = BURST_THRESHOLD_DEFAULT
                       ) -> ExecutionProfile:
    """Extract an execution profile from a recorded trace (§2.1)."""
    bursts, thinks = extract_bursts(trace.data_records(),
                                    threshold=threshold)
    return ExecutionProfile(bursts, thinks, name=trace.name)
