"""Stage-end audit machinery (§2.3.1, second half).

"At the end of each stage, FlexFetch compares the measured energy
consumption with the estimated consumption if the data were fetched from
the other source."  The counterfactual side of that comparison lives
here: the observed requests of the finished stage are reassembled into a
burst/think structure and replayed on the alternative device through the
shared :class:`~repro.core.costmodel.CostModel`.  During the stage they
are kept as plain tuples, and the audit lowers them straight into the
cost model's request columns, building no request or burst objects.
The policy itself only compares the two joule numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.costmodel import CostModel, RequestColumns
from repro.core.decision import DataSource
from repro.traces.record import OpType
from repro.units import Joules, Seconds

#: one observed request: (inode, offset, size, op, service start,
#: service end).
ObservedRequest = tuple[int, int, int, OpType, float, float]


@dataclass
class StageAccounting:
    """Runtime bookkeeping for the stage in progress."""

    start: float
    source: DataSource
    disk_energy0: float
    wnic_energy0: float
    observed: list[ObservedRequest] = field(default_factory=list)
    #: joules spent on the *other* device on each source's behalf during
    #: fault recovery (failover waste + cross-device service); the audit
    #: charges it to the intended source so its measured energy reflects
    #: what choosing that source actually cost this stage.
    cross_energy: dict[DataSource, float] = field(
        default_factory=lambda: {DataSource.DISK: 0.0,
                                 DataSource.NETWORK: 0.0})

    def observe(self, inode: int, offset: int, size: int, op: OpType,
                start: float, end: float) -> None:
        self.observed.append((inode, offset, size, op, start, end))


def observed_columns(observed: Sequence[ObservedRequest],
                     threshold: Seconds
                     ) -> tuple[RequestColumns, list[float]]:
    """Reassemble observed request timings into burst columns and
    thinks.

    Gaps of at least ``threshold`` between one request's completion and
    the next request's start close a burst, mirroring the off-line
    profile extraction; the trailing think is zero (the stage ended).
    """
    inodes: list[int] = []
    offsets: list[int] = []
    sizes: list[int] = []
    reads: list[bool] = []
    bounds = [0]
    thinks: list[float] = []
    read = OpType.READ
    prev_end = observed[0][5]
    for inode, offset, size, op, start, end in observed:
        gap = start - prev_end
        if inodes and gap >= threshold:
            bounds.append(len(inodes))
            thinks.append(max(0.0, gap))
        inodes.append(inode)
        offsets.append(offset)
        sizes.append(size)
        reads.append(op is read)
        prev_end = max(prev_end, end)
    bounds.append(len(inodes))
    thinks.append(0.0)
    return RequestColumns(inodes, offsets, sizes, reads, bounds), thinks


@dataclass(frozen=True, slots=True)
class AuditOutcome:
    """One stage-end audit's verdict."""

    measured: Joules
    counterfactual: Joules
    #: source to force next stage ("disregarding the profile"), if any.
    override: DataSource | None
    profile_trusted: bool


def audit_stage(cost_model: CostModel, stage: StageAccounting,
                now: Seconds, *, measured: Joules,
                burst_threshold: Seconds, hysteresis: float,
                disk_kept_spinning: bool) -> AuditOutcome | None:
    """Judge a finished stage: did the chosen source beat the other one?

    ``measured`` is the chosen device's metered stage energy (plus any
    cross-device fault-recovery waste charged to it).  Returns ``None``
    when the stage serviced nothing (nothing to learn from); otherwise
    the counterfactual must beat the measured energy by more than the
    ``hysteresis`` margin for the alternative to override the profile.
    """
    alt = stage.source.other
    counterfactual = counterfactual_energy(
        cost_model, stage, alt, now, burst_threshold=burst_threshold,
        disk_kept_spinning=disk_kept_spinning)
    if not stage.observed:
        return None
    if counterfactual < measured * (1.0 - hysteresis):
        # "disk or network, whichever was more energy efficient, will
        # be used in the next stage, disregarding the profile".
        return AuditOutcome(measured, counterfactual, alt, False)
    return AuditOutcome(measured, counterfactual, None, True)


def counterfactual_energy(cost_model: CostModel,
                          stage: StageAccounting,
                          alt: DataSource, now: Seconds, *,
                          burst_threshold: Seconds,
                          disk_kept_spinning: bool) -> Joules:
    """Replay the finished stage's observed requests on ``alt``.

    With ``disk_kept_spinning`` (something else pinned the disk up,
    §2.3.3) a disk counterfactual is "almost free": only the marginal
    service energy above the idle draw counts.  Otherwise the observed
    burst/think structure is replayed on a clone of the alternative
    device.  Cloning from *now* rather than the (unavailable)
    stage-start state yields the same DPM behaviour because the clone's
    state converges after the first burst; the initial-state difference
    is bounded by one mode transition.
    """
    observed = stage.observed
    if not observed:
        return 0.0
    if alt is DataSource.DISK and disk_kept_spinning:
        return cost_model.spinning_disk_marginal_energy(
            obs[2] for obs in observed)
    requests, thinks = observed_columns(observed, burst_threshold)
    est = cost_model.stage_estimate(
        alt, requests, thinks, now=now, include_other=False,
        min_duration=max(0.0, now - stage.start))
    return est.energy
