"""Clairvoyant reference policy.

Neither the paper nor any practical system can see the future, but an
evaluation harness should know how much headroom is left above
FlexFetch.  :class:`ClairvoyantStagePolicy` decides each evaluation
stage with a *perfect* profile of the run being replayed — the exact
bursts and think times that are about to happen — using the same
estimators, decision rules, and switch hysteresis as FlexFetch, with no
need for auditing (nothing to correct).  The hysteresis matters even
with perfect information: an interesting finding of this harness is
that *greedy* per-stage clairvoyance oscillates on near-break-even
workloads — each switch is justified over its own horizon yet the
sequence of switches is globally wasteful — and a damping term fixes
it.

It is an upper bound for *stage-granular* source selection, which is
the granularity FlexFetch operates at; a finer-grained oracle could do
marginally better by splitting stages.  The gap

    E(FlexFetch) - E(Clairvoyant)

measures what FlexFetch loses to profile error, hysteresis, and
exploration, and is reported by ``benchmarks/test_oracle.py``.
"""

from __future__ import annotations

from repro.core.decision import (
    LOSS_RATE_DEFAULT,
    DataSource,
    DecisionInputs,
    decide,
)
from repro.core.policies import Policy, RequestContext
from repro.core.profile import (
    STAGE_LENGTH_DEFAULT,
    ExecutionProfile,
    profile_from_trace,
)
from repro.traces.trace import Trace
from repro.units import Seconds


class ClairvoyantStagePolicy(Policy):
    """Stage-granular source selection with a perfect profile.

    Parameters
    ----------
    trace:
        The very trace that will be replayed.  The policy extracts its
        true burst/think structure and decides each stage with it.
    loss_rate / stage_length:
        Same semantics as FlexFetch's (§2.2); defaults are the paper's.
    """

    name = "Clairvoyant"

    def __init__(self, trace: Trace, *,
                 loss_rate: float = LOSS_RATE_DEFAULT,
                 stage_length: float = STAGE_LENGTH_DEFAULT,
                 horizon_stages: float = 2.0,
                 hysteresis: float = 0.10) -> None:
        super().__init__()
        if loss_rate < 0:
            raise ValueError("loss rate cannot be negative")
        if stage_length <= 0:
            raise ValueError("stage length must be positive")
        if horizon_stages <= 0:
            raise ValueError("horizon must be positive")
        if hysteresis < 0:
            raise ValueError("hysteresis cannot be negative")
        self.horizon_stages = horizon_stages
        self.hysteresis = hysteresis
        self.profile: ExecutionProfile = profile_from_trace(trace)
        self.loss_rate = loss_rate
        self.stage_length = stage_length
        self.current_source = DataSource.DISK
        self._bytes_seen = 0
        self._stage_start = 0.0
        self._started = False
        self.decision_log: list[tuple[float, DataSource]] = []

    # ------------------------------------------------------------------
    def _decide(self, now: Seconds) -> None:
        assert self.env is not None
        first, stop = self.profile.upcoming_range(
            self._bytes_seen, self.stage_length * self.horizon_stages)
        if first == stop:
            return
        d, n = self.env.cost_model.stage_pair(self.profile, first, stop,
                                              now=now, vfs=self.env.kernel)
        source = decide(
            DecisionInputs(t_disk=d.time, e_disk=d.energy,
                           t_network=n.time, e_network=n.energy),
            loss_rate=self.loss_rate)
        if source != self.current_source and self._started:
            cur_e = d.energy if self.current_source is DataSource.DISK \
                else n.energy
            new_e = d.energy if source is DataSource.DISK else n.energy
            if new_e >= cur_e * (1.0 - self.hysteresis):
                source = self.current_source
        self.current_source = source
        self.decision_log.append((now, self.current_source))
        self._stage_start = now

    # ------------------------------------------------------------------
    def begin_run(self, now: Seconds) -> None:
        self._decide(now)
        self._started = True

    def on_tick(self, now: Seconds) -> None:
        if self._started and now - self._stage_start >= self.stage_length:
            self._decide(now)

    def on_syscall(self, ctx: RequestContext, start: float,
                   end: float) -> None:
        self._bytes_seen += ctx.nbytes

    def choose(self, ctx: RequestContext) -> DataSource:
        return self.current_source
