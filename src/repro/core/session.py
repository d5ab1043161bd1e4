"""The simulation facade: one object that wires all five layers.

"We built a simulator that is driven by real-life applications'
execution traces...  It simulates the management of two storage devices
(hard disk and wireless interface card) and the buffer cache in the
memory."  :class:`SimulationSession` is that simulator: one closed-loop
scheduler (a ``(time, seq, program)`` heap in
:meth:`SimulationSession._replay`) driving explicit layers:

* **workload** (`repro.core.workload`) — closed-loop
  :class:`ProgramDriver`\\ s replaying recorded traces;
* **kernel** (`repro.kernel.path`) — every syscall walks the
  cache/readahead/write-back path; only misses reach a device.  A
  plan-shaped run swaps in a :class:`~repro.sim.plan.PlanCursor` that
  answers the same calls from a frozen BurstPlan;
* **device services** (`repro.devices.service`) — disk and WNIC behind
  one protocol, owning spin-up/PSM accounting and fault paths;
* **policy routing** (`repro.core.routing`) — the policy under test
  routes each miss extent, with retry/failover recovery under faults;
* **telemetry** (`repro.core.telemetry`) — pluggable metrics sinks and
  the final :class:`RunResult`.

Use it constructor-style::

    result = SimulationSession([ProgramSpec(trace)], policy,
                               seed=7).run()

or builder-style::

    result = (SimulationSession()
              .with_programs(ProgramSpec(trace))
              .with_policy(FlexFetchPolicy(profile))
              .with_seed(7)
              .add_sink(RecordingSink())
              .run())

Replay semantics (unchanged from the original monolithic simulator):
non-profiled, disk-pinned background programs share the disk and the
cache and are reported to the policy as external disk activity;
laptop-mode write-back flushes piggy-back on an active disk and are
asynchronous (they cost device time and energy but never delay the
program).

Every run audits itself (:mod:`repro.faults.invariants`): the router
checks each device service result, and :meth:`SimulationSession.run`
checks exactly-once coverage and meter/residency agreement before it
returns.  Nothing turns the audit off.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from heapq import heapify, heappop, heapreplace

from repro.core.policies import Policy, RequestContext, resolve_hook
from repro.core.routing import RequestRouter
from repro.core.system import MobileSystem
from repro.core.telemetry import (
    MetricsSink,
    RunResult,
    SinkSet,
    build_run_result,
)
from repro.core.workload import ProgramDriver, ProgramSpec
from repro.devices.disk import DiskState
from repro.devices.dpm import SpindownPolicy
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA, DiskSpec, WnicSpec
from repro.faults.invariants import check_coverage, check_result
from repro.faults.schedule import FaultSchedule
from repro.sim.clock import MB, SimulationError
from repro.sim.plan import BurstPlan, plan_for
from repro.traces.compile import OPS_BY_CODE
from repro.traces.record import OpType
from repro.units import Bytes, Seconds

# Module aliases for the per-record path (an enum member looked up on
# its class costs several times a global load).
_READ = OpType.READ
_WRITE = OpType.WRITE
_STANDBY = DiskState.STANDBY.value


class SimulationSession:
    """Builder-style facade over the layered replay simulator."""

    def __init__(self, programs: Sequence[ProgramSpec] | None = None,
                 policy: Policy | None = None, *,
                 disk_spec: DiskSpec = HITACHI_DK23DA,
                 wnic_spec: WnicSpec = AIRONET_350,
                 memory_bytes: Bytes = 64 * MB,
                 seed: int = 0,
                 spindown_policy: SpindownPolicy | None = None,
                 faults: FaultSchedule | None = None,
                 sinks: Iterable[MetricsSink] = ()) -> None:
        self._program_specs: list[ProgramSpec] = list(programs or ())
        self._policy = policy
        self._disk_spec = disk_spec
        self._wnic_spec = wnic_spec
        self._memory_bytes = memory_bytes
        self._seed = seed
        self._spindown_policy = spindown_policy
        self._faults = faults
        self.sinks = SinkSet(tuple(sinks))
        self._request_count = 0
        self._materialised = False
        self._ran = False
        #: the sink set when any sink is attached, else None.  Dispatch
        #: into an empty set still costs a fan-out call per extent, so
        #: the replay loops skip it entirely; resolved once at run()
        #: (sinks cannot be added mid-run, only disabled).
        self._sinks_hot: SinkSet | None = None
        self._fast_path = True
        #: set on materialisation: True when the kernel surface is a
        #: :class:`~repro.sim.plan.BurstPlan` cursor instead of the live
        #: kernel path.
        self.used_fast_path = False

    # ------------------------------------------------------------------
    # builder surface
    # ------------------------------------------------------------------
    def _configure(self) -> None:
        if self._materialised:
            raise SimulationError(
                "session already materialised; configure before run()"
                " or env/policy access")

    def with_programs(self, *programs: ProgramSpec) -> SimulationSession:
        """Add programs to the replay (order is the scheduling order)."""
        self._configure()
        self._program_specs.extend(programs)
        return self

    def with_policy(self, policy: Policy) -> SimulationSession:
        """Set the data-source selection policy under test."""
        self._configure()
        self._policy = policy
        return self

    def with_devices(self, *, disk_spec: DiskSpec | None = None,
                     wnic_spec: WnicSpec | None = None
                     ) -> SimulationSession:
        """Override the disk and/or WNIC hardware specs."""
        self._configure()
        if disk_spec is not None:
            self._disk_spec = disk_spec
        if wnic_spec is not None:
            self._wnic_spec = wnic_spec
        return self

    def with_memory(self, memory_bytes: Bytes) -> SimulationSession:
        """Set the buffer-cache size."""
        self._configure()
        self._memory_bytes = memory_bytes
        return self

    def with_seed(self, seed: int) -> SimulationSession:
        """Set the experiment seed (disk layout placement)."""
        self._configure()
        self._seed = seed
        return self

    def with_spindown_policy(self, policy: SpindownPolicy
                             ) -> SimulationSession:
        """Override the disk's DPM spin-down policy."""
        self._configure()
        self._spindown_policy = policy
        return self

    def with_faults(self, faults: FaultSchedule | None
                    ) -> SimulationSession:
        """Attach a fault schedule."""
        self._configure()
        self._faults = faults
        return self

    def with_fast_path(self, enabled: bool = True) -> SimulationSession:
        """Toggle the BurstPlan fast path (on by default).

        The fast path swaps the live kernel path for a cursor over a
        precomputed kernel-path plan; the scheduler and everything
        behind the kernel are the same either way.  It engages
        whenever the replay has one program (reads or writes, with or
        without faults) and is bit-identical when it does; every run
        is audited the same way on either surface.
        Turning it off forces the live kernel path — parity tests do.
        """
        self._configure()
        self._fast_path = enabled
        return self

    def add_sink(self, sink: MetricsSink) -> SimulationSession:
        """Attach a telemetry sink (any number may ride along)."""
        if self._ran:
            raise SimulationError(
                "session already ran; attach sinks before run()")
        self.sinks.add(sink)
        return self

    @property
    def sink_errors(self) -> list[tuple[str, str, str]]:
        """(sink type, hook, message) for every sink disabled mid-run."""
        return list(self.sinks.errors)

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def _materialise(self) -> None:
        """Build and wire the layers (idempotent)."""
        if self._materialised:
            return
        if not self._program_specs:
            raise ValueError("need at least one program")
        if self._policy is None:
            raise ValueError("need a policy (with_policy or constructor)")
        # Compile-once: record-level specs are lowered here (memoised
        # per trace object), so repeated sessions over the same trace
        # share one CompiledTrace and construction is O(1) in its size.
        self._program_specs = [spec.prepared()
                               for spec in self._program_specs]
        plan = self._burst_plan() if self._fast_path else None
        self.used_fast_path = plan is not None
        self.env = MobileSystem(
            disk_spec=self._disk_spec, wnic_spec=self._wnic_spec,
            memory_bytes=self._memory_bytes, seed=self._seed,
            spindown_policy=self._spindown_policy, plan=plan)
        if plan is None:
            # The live kernel path learns the files; a plan's walk
            # already placed them.
            self.env.register_trace(
                *(spec.trace for spec in self._program_specs))
        self.policy = self._policy
        self.programs = [ProgramDriver(s) for s in self._program_specs]
        # A schedule with nothing scheduled must be a strict no-op: the
        # devices never see it and every float path stays byte-identical.
        self.faults = self._faults \
            if self._faults is not None and self._faults.enabled else None
        if self.faults is not None:
            self.env.disk.set_fault_schedule(self.faults)
            self.env.wnic.set_fault_schedule(self.faults)
        self.router = RequestRouter(self.env, self.policy,
                                    faults=self.faults)
        # Resolved once per session rather than per record: the layer
        # handles _service_record calls, the disk's core (whose state
        # env.disk_active reads through two properties), and the
        # policy's per-record hooks (None where its class keeps the
        # base no-op).
        self._kernel = self.env.kernel
        self._route = self.router.service
        self._advance_disk = self.env.disk.advance_to
        self._advance_wnic = self.env.wnic.advance_to
        self._disk_core = self.env.disk.core
        self._on_tick = resolve_hook(self.policy, "on_tick")
        self._on_syscall = resolve_hook(self.policy, "on_syscall")
        self._materialised = True

    # ------------------------------------------------------------------
    # syscall processing
    # ------------------------------------------------------------------
    def _service_record(self, prog: ProgramDriver,
                        now: Seconds) -> float:
        """Service one record at ``now``; returns its completion time.

        :meth:`_replay` calls it for every record, whichever kernel
        surface is in place: the live kernel path or a
        :class:`~repro.sim.plan.PlanCursor`.
        """
        # Index the compiled columns directly: no object allocation
        # per record.
        i = prog.index
        pid = prog.pids[i]
        inode = prog.inodes[i]
        offset = prog.offsets[i]
        size = prog.sizes[i]
        op = OPS_BY_CODE[prog.ops[i]]
        self._request_count += 1
        kernel = self._kernel
        service = self._route
        sinks = self._sinks_hot
        # Inlined env.advance(now): one frame per record adds up.
        self._advance_disk(now)
        self._advance_wnic(now)
        on_tick = self._on_tick
        if on_tick is not None:
            on_tick(now)

        if op is _READ:
            extents = kernel.read(pid, inode, offset, size, now)
            completion = now
            for extent in extents:
                _source, result = service(prog, extent, completion, _READ)
                completion = result.completion
                if sinks is not None:
                    sinks.on_service(prog.name, _source.value,
                                     extent.nbytes, result.energy,
                                     result.completion)
        else:
            forced = kernel.write(pid, inode, offset, size, now)
            completion = now  # async write-back: write() returns at once
            for extent in forced:
                # Forced evictions must hit a device immediately; they
                # run asynchronously and do not delay the program.
                source, result = service(prog, extent, now, _WRITE)
                if sinks is not None:
                    sinks.on_service(prog.name, source.value,
                                     extent.nbytes, result.energy,
                                     result.completion)

        # Laptop-mode opportunistic flush; env.disk_active inlined.
        flush = kernel.plan_writeback(
            completion, disk_active=self._disk_core.state != _STANDBY)
        for extent in flush:
            source, result = service(prog, extent, completion, _WRITE)
            if sinks is not None:
                sinks.on_service(prog.name, source.value,
                                 extent.nbytes, result.energy,
                                 result.completion)

        if prog.profiled and size > 0:
            # Demand-level observation (§2.1): every data-moving call,
            # cached or not, with the application's byte count.
            on_syscall = self._on_syscall
            if on_syscall is not None:
                # Positional, in field order, as the router builds it.
                on_syscall(RequestContext(now, prog.name, True,
                                          prog.disk_pinned, inode,
                                          offset, size, op),
                           now, completion)
            if sinks is not None:
                sinks.on_syscall(prog.name, op.value, size, now)

        prog.last_completion = completion
        return completion

    # ------------------------------------------------------------------
    # BurstPlan fast path
    # ------------------------------------------------------------------
    def _burst_plan(self) -> BurstPlan | None:
        """The fast path's plan, or None when it must disengage.

        The live kernel path stays in charge only when several
        programs interleave on the shared cache and disk: then which
        pages are resident depends on completion times.  For one
        program it depends only on the trace, the memory size and the
        seed, so reads, writes and faults all ride the plan.  The
        clock-dependent rest — which pages are still dirty and when
        laptop mode flushes — stays live in the cursor, faults act only
        on the devices behind the router, and the router audits every
        service result, all still live in :meth:`_service_record`.
        """
        if len(self._program_specs) != 1:
            return None
        return plan_for(self._program_specs[0].trace,
                        self._memory_bytes, self._seed)

    # ------------------------------------------------------------------
    # the scheduler
    # ------------------------------------------------------------------
    def _replay(self) -> None:
        """Replay every program on one closed-loop scheduler.

        A heap of ``(time, seq, program)`` holds each unfinished
        program's next issue time; ``seq`` is the insertion slot, so
        simultaneous records fire in scheduling order (program order
        at the start).  A record issues at its scheduled time or the
        clock, whichever is later, and its successor follows one
        recorded think time after it completes.
        """
        heap: list[tuple[float, int, ProgramDriver]] = [
            (prog.start_time, seq, prog)
            for seq, prog in enumerate(self.programs) if not prog.done]
        heapify(heap)
        seq = len(self.programs)
        now = 0.0
        while heap:
            t, _, prog = heap[0]
            if t > now:
                now = t
            completion = self._service_record(prog, now)
            think = prog.advance()
            if think is None:
                heappop(heap)
            else:
                heapreplace(heap, (completion + think, seq, prog))
                seq += 1

    # ------------------------------------------------------------------
    def _check_dirty_conservation(self) -> None:
        """Every page that entered the cache's dirty index left it
        exactly once (flush, dirty eviction or drop) or is still there."""
        writeback = self.env.kernel.writeback
        stats = writeback.cache.stats
        left = (writeback.flushed_pages + stats.dirty_evictions
                + stats.dirty_drops + writeback.dirty_count)
        if stats.dirtied != left:
            raise SimulationError(
                f"dirty pages not conserved: {stats.dirtied} dirtied,"
                f" {left} flushed, evicted, dropped or still dirty")

    def run(self) -> RunResult:
        """Replay everything, audit it, and return the accounting."""
        if self._ran:
            raise SimulationError(
                "session already ran; build a fresh SimulationSession"
                " (policies and devices are stateful)")
        self._materialise()
        self._ran = True
        self.policy.attach(self.env)
        self.policy.begin_run(0.0)
        self.sinks.on_run_begin(self.policy.name, 0.0)
        self._sinks_hot = self.sinks if len(self.sinks) else None
        self._replay()
        self._check_dirty_conservation()
        end_time = max((p.last_completion for p in self.programs),
                       default=0.0)
        # Asynchronous flushes and in-flight transitions can commit the
        # devices past the last program completion; the run ends (and
        # energy/residency are measured) once all I/O has settled, so
        # the books balance exactly.
        end_time = max(end_time, self.env.disk.busy_until,
                       self.env.wnic.busy_until)
        self.env.advance(end_time)
        self.policy.end_run(end_time)

        fg_time = max((p.last_completion for p in self.programs
                       if p.spec.profiled), default=0.0)
        result = build_run_result(
            self.env, policy_name=self.policy.name,
            routed_requests={k.value: v for k, v
                             in self.policy.routed_requests.items()},
            routed_bytes={k.value: v for k, v
                          in self.policy.routed_bytes.items()},
            end_time=end_time, foreground_time=fg_time,
            requests=self._request_count,
            fault_retries=self.router.fault_retries,
            fault_failovers=self.router.fault_failovers,
            fault_wasted_energy=self.router.fault_wasted)
        check_coverage(self.programs, self._request_count)
        check_result(result, disk_spec=self.env.disk.spec,
                     wnic_spec=self.env.wnic.spec)
        self.sinks.on_run_end(result)
        return result
