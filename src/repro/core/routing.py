"""Policy routing layer: disk or network, with fault recovery.

:class:`RequestRouter` sits between the workload/kernel layers (which
produce device-bound extents) and the device service layer (which moves
them).  For every extent it asks the policy under test for a source,
runs the transfer on that source's :class:`DeviceService`, and feeds
the outcome back to the policy's observation hooks.

Under an active fault schedule the router also owns the recovery
state machine — timeout, exponential-backoff retries, mid-stage
failover to the other device, and cooldown windows that keep follow-up
requests off a device that just failed — charging every wasted joule
so the policies' audits can learn from failures.
"""

from __future__ import annotations

from repro.core.decision import DataSource
from repro.core.policies import Policy, RequestContext, resolve_hook
from repro.core.system import MobileSystem
from repro.core.workload import ProgramDriver
from repro.devices.layout import BLOCK_SIZE
from repro.devices.service import ServiceOutcome
from repro.devices.wnic import Direction
from repro.faults.invariants import TOLERANCE, check_service
from repro.faults.schedule import FaultSchedule
from repro.kernel.page import PAGE_SIZE, Extent
from repro.sim.clock import SimulationError
from repro.traces.record import OpType
from repro.units import Seconds

# Module aliases for the per-extent path: an enum member looked up on
# its class costs several times a global load.
_DISK = DataSource.DISK
_READ = OpType.READ
_RECV = Direction.RECV
_SEND = Direction.SEND


class RequestRouter:
    """Routes extents through the policy onto device services."""

    #: circuit breaker on one request's fault-recovery chain; pathological
    #: hand-built schedules aside, the consecutive-spin-up-failure cap in
    #: :class:`FaultSchedule` guarantees success far below this.
    MAX_FAULT_ATTEMPTS = 32

    def __init__(self, env: MobileSystem, policy: Policy, *,
                 faults: FaultSchedule | None = None) -> None:
        self.env = env
        self.policy = policy
        self.faults = faults
        self._disk_service = env.service_for(DataSource.DISK)
        self._wnic_service = env.service_for(DataSource.NETWORK)
        self._complete_fetch = env.kernel.complete_fetch
        #: the policy's per-extent hooks, resolved once from its class;
        #: None where the class keeps the base no-op.
        self._on_serviced = resolve_hook(policy, "on_serviced")
        self._on_external_disk_request = resolve_hook(
            policy, "on_external_disk_request")
        self._avoid_until = {DataSource.DISK: float("-inf"),
                             DataSource.NETWORK: float("-inf")}
        self.fault_retries: dict[str, int] = {}
        self.fault_failovers: dict[str, int] = {}
        self.fault_wasted: dict[str, float] = {}

    # ------------------------------------------------------------------
    # device service
    # ------------------------------------------------------------------
    def _service_extent(self, extent: Extent, source: DataSource,
                        when: Seconds, op: OpType) -> ServiceOutcome:
        """Move one extent on the chosen device, returning its result.

        The fault path's one attempt: the same bound services, called
        by position, as the fault-free branch of :meth:`service`.
        """
        svc = self._disk_service if source is _DISK else self._wnic_service
        npages = extent.npages
        return svc.transfer(when, npages * PAGE_SIZE, extent.inode,
                            extent.start * BLOCK_SIZE, npages,
                            _RECV if op is _READ else _SEND)

    def service(self, prog: ProgramDriver, extent: Extent,
                when: Seconds, op: OpType
                ) -> tuple[DataSource, ServiceOutcome]:
        """Policy-route one extent; returns (actual source, result)."""
        inode = extent.inode
        npages = extent.npages
        offset = extent.start * BLOCK_SIZE
        # Extent.nbytes, computed once: the property is a frame a read.
        nbytes = npages * PAGE_SIZE
        # Positional, in field order (now, program, profiled,
        # disk_pinned, inode, offset, nbytes, op): keywords cost twice
        # as much to build, once per extent.
        ctx = RequestContext(when, prog.name, prog.profiled,
                             prog.disk_pinned, inode, offset, nbytes, op)
        source = self.policy.route(ctx)
        if self.faults is None:
            # Inlined _service_extent: this is the per-extent hot path.
            svc = (self._disk_service if source is _DISK
                   else self._wnic_service)
            result = svc.transfer(when, nbytes, inode, offset, npages,
                                  _RECV if op is _READ else _SEND)
        else:
            source, result = self._service_with_recovery(
                prog, extent, source, when, op, ctx)
        if op is _READ:
            self._complete_fetch(extent, result.completion)
        on_external = self._on_external_disk_request
        if (on_external is not None and not prog.profiled
                and source is _DISK):
            on_external(when)
        on_serviced = self._on_serviced
        if on_serviced is not None:
            on_serviced(ctx, source, result)
        # Every run audits every extent: causal times, non-negative
        # energy.  Inline compares; check_service only builds the error.
        if not (result.arrival - TOLERANCE <= result.start
                <= result.completion + TOLERANCE
                and result.energy >= -TOLERANCE):
            check_service(result, program=prog.name, source=source.value)
        return source, result

    # ------------------------------------------------------------------
    # fault recovery
    # ------------------------------------------------------------------
    def _effective_source(self, intended: DataSource,
                          ctx: RequestContext) -> DataSource:
        """Honour failover cooldowns: avoid a recently failed device."""
        if ctx.disk_pinned:
            return DataSource.DISK
        other = (DataSource.NETWORK if intended is DataSource.DISK
                 else DataSource.DISK)
        if (ctx.now < self._avoid_until[intended]
                and ctx.now >= self._avoid_until[other]):
            return other
        return intended

    def _service_with_recovery(
            self, prog: ProgramDriver, extent: Extent,
            intended: DataSource, when: Seconds, op: OpType,
            ctx: RequestContext,
    ) -> tuple[DataSource, ServiceOutcome]:
        """Service under faults: timeout -> backoff retries -> failover.

        A network fetch that hits an outage times out after
        ``spec.network_timeout`` and is retried with exponential backoff;
        once the retry budget is spent the request fails over mid-stage
        to the disk.  Symmetrically a disk whose spin-up retries are
        exhausted (the device retries internally) fails over to the
        WNIC.  Disk-pinned data has no replica, so it can only back off
        and retry the disk.  Returns ``(actual_source, result)``.
        """
        assert self.faults is not None
        spec = self.faults.spec
        current = self._effective_source(intended, ctx)
        t = when
        attempts_on = {DataSource.DISK: 0, DataSource.NETWORK: 0}
        total_attempts = 0
        cross_energy = 0.0
        while True:
            result = self._service_extent(extent, current, t, op)
            if current is not intended:
                cross_energy += result.energy
            if not result.failed:
                break
            total_attempts += 1
            attempts_on[current] += 1
            self.fault_retries[current.value] = \
                self.fault_retries.get(current.value, 0) + 1
            self.fault_wasted[current.value] = \
                self.fault_wasted.get(current.value, 0.0) + result.energy
            if total_attempts >= self.MAX_FAULT_ATTEMPTS:
                raise SimulationError(
                    f"fault recovery for {prog.name!r} exceeded"
                    f" {self.MAX_FAULT_ATTEMPTS} attempts at"
                    f" t={result.completion:.3f}")
            t = result.completion
            # The disk retries spin-up internally (bounded backoff), so a
            # failed disk service has already spent its budget.
            budget = (spec.network_retries
                      if current is DataSource.NETWORK else 0)
            if attempts_on[current] > budget and not ctx.disk_pinned:
                fallback = (DataSource.DISK
                            if current is DataSource.NETWORK
                            else DataSource.NETWORK)
                self._avoid_until[current] = t + spec.failover_cooldown
                self.fault_failovers[current.value] = \
                    self.fault_failovers.get(current.value, 0) + 1
                self.policy.on_failover(t, current, fallback)
                current = fallback
                attempts_on[current] = 0
            else:
                t += spec.retry_backoff * 2 ** (attempts_on[current] - 1)
        if total_attempts or cross_energy:
            # Tell the policy so its stage-end audit can attribute the
            # retry waste / cross-device service to the intended source.
            self.policy.on_fault(result.completion, intended,
                                 cross_energy, total_attempts)
        if current is not intended:
            # The route() tally charged the intended device; move it.
            self.policy.routed_requests[intended] -= 1
            self.policy.routed_bytes[intended] -= ctx.nbytes
            self.policy.routed_requests[current] += 1
            self.policy.routed_bytes[current] += ctx.nbytes
        return current, result
