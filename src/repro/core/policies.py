"""Policy interface and the fixed-source baselines (§3.1).

A *policy* answers one question per device-bound request: disk or
network?  The replay simulator asks via :meth:`Policy.choose` and feeds
back what actually happened via the observation hooks, which is all the
adaptive policies (BlueFS, FlexFetch) need to do their accounting.

The per-record and per-extent hooks (``on_tick``, ``on_syscall``,
``on_serviced``, ``on_external_disk_request``) are resolved once per
run, from the policy's class, by :func:`resolve_hook`: a hook the
class leaves as :class:`Policy`'s no-op is never called.

The two fixed baselines — **Disk-only** and **WNIC-only** — are what the
paper plots alongside FlexFetch and BlueFS in every figure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.core.decision import DataSource
from repro.traces.record import OpType
from repro.units import Bytes, Joules, Seconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


class RequestContext(NamedTuple):
    """Everything a policy may inspect about one device-bound request.

    ``profiled`` distinguishes foreground programs FlexFetch has a
    profile for from background programs (xmms in §3.3.4);
    ``disk_pinned`` marks data that exists *only* on the local disk and
    therefore gives the policy no choice.  A NamedTuple rather than a
    frozen dataclass: still immutable, but one is built per routed
    extent, and tuple construction is less than half the cost.
    """

    now: Seconds
    program: str
    profiled: bool
    disk_pinned: bool
    inode: int
    offset: int
    nbytes: Bytes
    op: OpType


class Policy(ABC):
    """Data-source selection policy."""

    name: str = "policy"

    def __init__(self) -> None:
        self.env: MobileSystem | None = None
        #: per-source request/byte tallies for reporting.
        self.routed_requests = {DataSource.DISK: 0, DataSource.NETWORK: 0}
        self.routed_bytes = {DataSource.DISK: 0, DataSource.NETWORK: 0}

    # ------------------------------------------------------------------
    def attach(self, env: MobileSystem) -> None:
        """Called once by the simulator before the run starts."""
        self.env = env

    def begin_run(self, now: Seconds) -> None:
        """Called at simulation start (after attach)."""

    def end_run(self, now: Seconds) -> None:
        """Called after the last request completes."""

    # ------------------------------------------------------------------
    @abstractmethod
    def choose(self, ctx: RequestContext) -> DataSource:
        """Route one request.  Must be side-effect-light and fast."""

    def route(self, ctx: RequestContext) -> DataSource:
        """Wrapper the simulator calls: applies pinning + tallies."""
        source = DataSource.DISK if ctx.disk_pinned else self.choose(ctx)
        self.routed_requests[source] += 1
        self.routed_bytes[source] += ctx.nbytes
        return source

    # -- observation hooks -------------------------------------------------
    # Override these on the class, not on an instance: the replay reads
    # them from the class once per run (resolve_hook).
    def on_serviced(self, ctx: RequestContext, source: DataSource,
                    result: Any) -> None:
        """A request finished; ``result`` is the device service record.

        Called once per routed extent, after the transfer.  Resolved
        once per run from the class; the base no-op is never called.
        """

    def on_syscall(self, ctx: RequestContext, start: float,
                   end: float) -> None:
        """A profiled program's read/write *system call* completed.

        This is the demand-level stream the paper's profiler records
        (§2.1) — it fires for every data-moving call, including ones
        fully absorbed by the page cache, with the byte count the
        application asked for (not what devices moved).  FlexFetch
        builds its current-run profile and tracks its position in the
        old profile from this stream.  Resolved once per run from the
        class; the base no-op is never called, and the record's
        context is built only when a class overrides it.
        """

    def on_tick(self, now: Seconds) -> None:
        """Called before each syscall is processed (time advances).

        Resolved once per run from the class; the base no-op is never
        called.
        """

    def on_external_disk_request(self, now: Seconds) -> None:
        """A non-profiled program touched the disk (§2.3.3 free-rider).

        Resolved once per run from the class; the base no-op is never
        called.
        """

    # -- fault-injection hooks ---------------------------------------------
    def on_fault(self, now: Seconds, intended: DataSource,
                 cross_energy: Joules, attempts: int) -> None:
        """A request routed to ``intended`` needed fault recovery.

        ``attempts`` counts the failed device attempts in the chain and
        ``cross_energy`` is the joules ultimately spent on the *other*
        device on ``intended``'s behalf (failover waste + service).
        FlexFetch charges this to its stage audit so the next stage's
        decision learns from the failure.
        """

    def on_failover(self, now: Seconds, source: DataSource,
                    fallback: DataSource) -> None:
        """The simulator abandoned ``source`` mid-request for
        ``fallback`` (retry budget exhausted)."""


def resolve_hook(policy: Policy, name: str) -> Callable[..., None] | None:
    """``policy``'s bound ``name`` hook, or None when its class keeps
    the :class:`Policy` no-op.

    Read from the class, so calling the result is exactly calling the
    hook, and skipping a None is exactly skipping a no-op.
    """
    if getattr(type(policy), name) is getattr(Policy, name):
        return None
    hook: Callable[..., None] = getattr(policy, name)
    return hook


class DiskOnlyPolicy(Policy):
    """Always the local hard disk — the hoarding status quo."""

    name = "Disk-only"

    def choose(self, ctx: RequestContext) -> DataSource:
        return DataSource.DISK


class WnicOnlyPolicy(Policy):
    """Always the remote server via the WNIC.

    Requests for disk-pinned data still go to the disk (handled by
    :meth:`Policy.route`), since that data has no remote replica.
    """

    name = "WNIC-only"

    def choose(self, ctx: RequestContext) -> DataSource:
        return DataSource.NETWORK
