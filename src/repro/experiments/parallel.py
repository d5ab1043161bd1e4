"""Parallel sweep execution under worker supervision.

A figure sweep is an embarrassingly parallel matrix: every (policy x
link point) cell is one independent, deterministic simulation.  The
:class:`ParallelSweepExecutor` fans those cells out over a
:class:`~repro.experiments.supervisor.SupervisedPool`, holds each
completed cell in one index -> point map, and assembles the curves from
it in sweep order once every cell is in, so a parallel run is
**bit-identical** to the serial one — completion order affects only the
interleaving of progress lines, never the results.

Determinism across process boundaries rests on two properties the rest
of the codebase already guarantees:

* every simulation input is an immutable value (specs, compiled traces,
  frozen configs) — no shared mutable state;
* record ordering inside a run is a pure function of that run's
  schedule (per-session tie-break slots in the scheduler heap of
  :class:`~repro.core.session.SimulationSession`), independent of
  whatever else ran in the worker process.

No job crosses a pipe.  The pool stores the job table before it forks
any worker (supervision respawns included), so every worker inherits
the :class:`SweepJob` values — prepared specs, the caller's policy
factories, and the parent-built burst plan in
:data:`repro.sim.plan._PLAN_MEMO` — and is sent only cell indices.

On top of the fan-out the executor layers the resilience story:

* an optional :class:`~repro.experiments.cache.RunCache` — cached cells
  never reach the pool, live results are persisted as they complete,
  and corrupt rows are counted and surfaced in the summary;
* an optional :class:`~repro.experiments.journal.SweepJournal` — every
  completion is fsync'd to an append-only journal, and a resumed
  journal's completed cells are skipped bit-identically;
* a :class:`~repro.experiments.supervisor.RetryPolicy` with per-cell
  wall-clock timeouts, turning worker death and hangs into bounded
  retries instead of a lost sweep;
* ``partial=True`` graceful degradation: exhausted cells become
  placeholder points plus machine-readable :class:`SweepFailure`
  records instead of an all-or-nothing :class:`SweepCellError`.
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Any

from repro.core.telemetry import RunResult
from repro.core.workload import ProgramSpec
from repro.devices.specs import WnicSpec
from repro.experiments.cache import CODE_VERSION_SALT, RunCache, run_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import (
    PolicyFactory,
    ProgramSet,
    SweepPoint,
    build_fault_schedule,
    progress_line,
    run_point,
)
from repro.experiments.supervisor import (
    NO_RETRY,
    CellAttempt,
    CellFailure,
    RetryPolicy,
    SupervisedPool,
)
from repro.faults.chaos import CacheChaos, ChaosInjector, ChaosSpec
from repro.faults.schedule import FaultSpec
from repro.sim.plan import plan_for
from repro.units import BytesPerSecond, Seconds


class SweepCellError(RuntimeError):
    """One sweep cell failed permanently.

    Raised after every other cell has been allowed to finish (and after
    the failing cell's retry budget, if any, was exhausted).  The
    worker's original exception is chained as ``__cause__`` and — since
    cross-process ``__cause__`` loses frame detail — the worker's full
    traceback text is preserved verbatim on :attr:`remote_traceback`.
    """

    def __init__(self, curve: str, wnic_spec: WnicSpec, *,
                 attempts: int = 1,
                 remote_traceback: str | None = None) -> None:
        message = (f"sweep cell failed: policy={curve!r}"
                   f" lat={wnic_spec.latency * 1e3:.0f}ms"
                   f" bw={wnic_spec.bandwidth_bps / 1e6:.1f}MB/s")
        if attempts > 1:
            message += f" after {attempts} attempts"
        super().__init__(message)
        self.curve = curve
        self.wnic_spec = wnic_spec
        self.attempts = attempts
        self.remote_traceback = remote_traceback or ""


@dataclass(frozen=True, slots=True)
class SweepJob:
    """Everything one worker needs to run one sweep cell.

    Workers inherit jobs at fork rather than receiving them pickled, so
    ``programs`` holds the prepared specs themselves and
    ``policy_factory`` is the caller's factory, lambdas included.
    """

    index: int
    curve: str
    programs: tuple[ProgramSpec, ...]
    policy_factory: PolicyFactory
    wnic_spec: WnicSpec
    config: ExperimentConfig
    #: fault *spec*, not schedule: the cell rebuilds its own
    #: (mutable-cursor) schedule from (spec, seed) — the same pair the
    #: cache key hashes.
    faults: FaultSpec | None = None
    #: shadow-verify the cell against the live kernel path
    #: (:mod:`repro.core.shadow`); None defers to ``REPRO_SANITIZE``.
    #: Verification-only — the returned result is bit-identical either
    #: way (a divergence raises), so it stays out of the cache key.
    sanitize: bool | None = None


#: Per-cell profiling sink, armed parent-side before the pool forks
#: (like the job table, workers inherit the value copy-on-write).
#: When set, every executed cell dumps a cProfile capture into it.
_PROFILE_DIR: str | None = None


def enable_profiling(directory: str | os.PathLike[str] | None) -> None:
    """Arm (or with None, disarm) per-cell profiling.

    Must be called in the sweep parent *before* the pool spawns: forked
    workers inherit the armed value, and each cell they execute dumps
    ``cell-<index>-<pid>.prof`` into ``directory``.  The parent merges
    the dumps afterwards with :func:`merged_profile_stats`.
    """
    global _PROFILE_DIR
    _PROFILE_DIR = None if directory is None else os.fspath(directory)


def merged_profile_stats(directory: str | os.PathLike[str]
                         ) -> pstats.Stats | None:
    """Merge every per-cell ``cell-*.prof`` dump under ``directory``.

    Returns None when no dump is readable.  Individual unreadable dumps
    (e.g. a worker killed mid-write by supervision or chaos testing)
    are skipped rather than failing the merge.
    """
    stats: pstats.Stats | None = None
    for path in sorted(Path(directory).glob("cell-*.prof")):
        try:
            if stats is None:
                stats = pstats.Stats(str(path))
            else:
                stats.add(str(path))
        except Exception:  # noqa: BLE001 - partial dump, skip it
            continue
    return stats


def profile_report(stats: pstats.Stats, *, top: int = 25) -> str:
    """Top-``top`` cumulative-time lines of a merged profile, as text."""
    out = StringIO()
    stats.stream = out  # pstats writes to its stream attribute
    stats.sort_stats("cumulative").print_stats(top)
    return out.getvalue()


def _execute_job(job: SweepJob) -> SweepPoint:
    """Run one cell, in a pool worker or in-process."""
    programs = ProgramSet(job.programs)
    schedule = build_fault_schedule(job.faults, job.config.seed)
    if _PROFILE_DIR is None:
        return run_point(programs, job.policy_factory,
                         job.wnic_spec, job.config, faults=schedule,
                         sanitize=job.sanitize)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return run_point(programs, job.policy_factory,
                         job.wnic_spec, job.config, faults=schedule,
                         sanitize=job.sanitize)
    finally:
        profiler.disable()
        profiler.dump_stats(os.path.join(
            _PROFILE_DIR, f"cell-{job.index}-{os.getpid()}.prof"))


@dataclass(frozen=True, slots=True)
class SweepFailure:
    """Machine-readable record of one permanently failed cell."""

    index: int
    curve: str
    latency: Seconds
    bandwidth_bps: BytesPerSecond
    attempts: tuple[CellAttempt, ...]

    def to_json(self) -> dict[str, Any]:
        return {"index": self.index, "curve": self.curve,
                "latency": self.latency,
                "bandwidth_bps": self.bandwidth_bps,
                "attempts": [a.to_json() for a in self.attempts]}


def failure_manifest(failures: Sequence[SweepFailure]) -> dict[str, Any]:
    """The JSON document ``--partial`` sweeps emit alongside results."""
    return {"version": 1, "failed_cells": len(failures),
            "failures": [f.to_json() for f in failures]}


def placeholder_result(curve: str) -> RunResult:
    """The inert row standing in for a failed cell in ``partial`` mode.

    All quantities are NaN/zero so a placeholder can never be mistaken
    for (or averaged into) a real measurement unnoticed; use
    :func:`is_placeholder` to detect one.
    """
    nan = float("nan")
    return RunResult(policy=curve, end_time=nan, foreground_time=nan,
                     disk_energy=nan, wnic_energy=nan, requests=0,
                     device_requests={}, device_bytes={},
                     cache_hit_ratio=nan, disk_spinups=0,
                     disk_spindowns=0, wnic_wakeups=0)


def is_placeholder(result: RunResult) -> bool:
    """Whether a result row is a failed-cell placeholder."""
    return math.isnan(result.end_time) and result.requests == 0


class ParallelSweepExecutor:
    """Run sweep matrices across worker processes, with optional caching,
    journaling, supervision, and graceful degradation.

    Parameters
    ----------
    workers:
        Process count.  ``1`` runs every cell in-process (no pool) —
        the zero-risk fallback path.  Retries apply
        on both paths; timeouts and chaos worker-kill/hang only exist
        on the pool path (the parent cannot SIGKILL itself).
    cache:
        Optional :class:`RunCache`.  Hits skip the simulation entirely;
        live results are stored back as they complete.
    retry:
        :class:`RetryPolicy` for failed/hung/dead cells.  Default
        :data:`~repro.experiments.supervisor.NO_RETRY` keeps the
        historical fail-on-first-error semantics.
    timeout:
        Per-cell wall-clock seconds (pool path only); a cell past its
        deadline has its worker killed and counts as a retryable
        failure.
    journal:
        Optional :class:`SweepJournal`.  Completions already present in
        the journal are skipped (``journal_hits``); new completions are
        appended crash-consistently.
    partial:
        When True, cells that exhaust their retries become placeholder
        points and :class:`SweepFailure` records (``.failures``)
        instead of raising :class:`SweepCellError`.
    chaos:
        Optional :class:`ChaosSpec` for chaos testing: worker
        kill/hang injection on the pool path plus cache-row damage
        after stores.

    Counters ``live_runs``, ``cache_hits`` and ``journal_hits``
    accumulate across calls — the perf harness uses them to prove a
    warm-cache sweep ran zero simulations, and the chaos suite to prove
    a resumed sweep re-ran nothing.  ``retries`` (by reason) and
    ``respawns`` aggregate the supervision activity.
    """

    def __init__(self, workers: int = 1, *,
                 cache: RunCache | None = None,
                 retry: RetryPolicy | None = None,
                 timeout: Seconds | None = None,
                 journal: SweepJournal | None = None,
                 partial: bool = False,
                 chaos: ChaosSpec | None = None,
                 sanitize: bool | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.cache = cache
        self.retry = retry or NO_RETRY
        self.timeout = timeout
        self.journal = journal
        self.partial = partial
        self.chaos = chaos
        #: per-sweep override of the ``REPRO_SANITIZE`` default; rides
        #: into every job (cache-served cells were verified when first
        #: simulated, so a warm sweep re-verifies nothing).
        self.sanitize = sanitize
        self.live_runs = 0
        self.cache_hits = 0
        self.journal_hits = 0
        self.retries: dict[str, int] = {"exception": 0, "timeout": 0,
                                        "worker-died": 0}
        self.respawns = 0
        self.failures: list[SweepFailure] = []
        #: parent-side cache-row damage injector (chaos testing); built
        #: on first use so its decision streams share the sweep seed.
        self.cache_chaos: CacheChaos | None = None

    # ------------------------------------------------------------------
    def run_sweep(self,
                  programs_factory: Callable[[], list[ProgramSpec]],
                  policy_factories: dict[str, PolicyFactory],
                  wnic_specs: Sequence[WnicSpec],
                  config: ExperimentConfig,
                  *, progress: Callable[[str], None] | None = None,
                  faults: FaultSpec | None = None
                  ) -> dict[str, list[SweepPoint]]:
        """Run every policy across every link point.

        Returns ``{policy name: [SweepPoint, ...]}`` with points in
        sweep order regardless of completion order; ``progress`` (if
        given) receives one line per cell, in completion order.
        ``faults`` (a frozen spec, not a schedule) applies the same
        fault processes to every cell and is part of its cache key.
        If any cell fails
        permanently, the remaining cells still run to completion; then
        either the failure with the lowest sweep index is raised as
        :class:`SweepCellError` (with the worker's exception chained and
        its remote traceback attached), or — in ``partial`` mode — the
        failed cells are returned as placeholders and recorded in
        :attr:`failures`.

        A single-program sweep builds its burst plan here, before any
        cell runs: :func:`~repro.sim.plan.plan_for` memoises it
        process-wide, so every serial cell and every forked worker
        reuses that one plan.
        """
        specs = tuple(spec.prepared() for spec in programs_factory())
        if len(specs) == 1:
            plan_for(specs[0].compiled, config.memory_bytes, config.seed)
        self._ensure_cache_chaos(config.seed)
        jobs: list[SweepJob] = []
        for spec in wnic_specs:
            for name, factory in policy_factories.items():
                jobs.append(SweepJob(index=len(jobs), curve=name,
                                     programs=specs,
                                     policy_factory=factory,
                                     wnic_spec=spec, config=config,
                                     faults=faults,
                                     sanitize=self.sanitize))

        keys = self._keys_for(jobs)
        if self.journal is not None:
            assert keys is not None
            self.journal.begin_sweep(
                [keys[job.index] for job in jobs],
                salt=CODE_VERSION_SALT)

        # Journal, cache, serial/pool and placeholder fills each take a
        # disjoint set of indices, so every cell is added exactly once.
        points: dict[int, SweepPoint] = {}
        failures: list[CellFailure] = []
        corrupt_before = self.cache.corrupt_rows if self.cache else 0
        pending = self._drain_journal(jobs, points, progress, keys)
        pending = self._drain_cache(pending, points, progress, keys)
        if pending:
            # Worker-count footgun guard: a pool wider than the pending
            # cell count only spawns idle processes, and a 1-cell pool
            # pays fork overhead for no concurrency — clamp, and
            # fall back to in-process execution for tiny remainders.
            pool_workers = min(self.workers, len(pending))
            if pool_workers <= 1:
                if self.workers > 1 and progress is not None:
                    progress(f"[workers] {len(pending)} pending"
                             f" cell(s); running serially instead of"
                             f" spawning {self.workers} workers")
                self._run_serial(pending, points, failures, progress,
                                 keys)
            else:
                if pool_workers < self.workers and progress is not None:
                    progress(f"[workers] clamped {self.workers} ->"
                             f" {pool_workers} for {len(pending)}"
                             " pending cell(s)")
                self._run_pool(pending, points, failures, progress,
                               keys, config.seed, pool_workers)

        if self.cache is not None and progress is not None:
            corrupt = self.cache.corrupt_rows - corrupt_before
            if corrupt:
                progress(f"[cache] {corrupt} corrupt row(s) fell back"
                         " to live simulation")

        failures.sort(key=lambda f: f.index)
        if failures:
            self._finalise_failures(jobs, failures, points, progress,
                                    keys)
        if self.journal is not None:
            self.journal.end_sweep(
                completed=len(points) - len(failures),
                failed=len(failures))

        curves: dict[str, list[SweepPoint]] = {
            name: [] for name in policy_factories}
        for job in jobs:
            curves[job.curve].append(points[job.index])
        return curves

    # ------------------------------------------------------------------
    def _keys_for(self, jobs: list[SweepJob]) -> dict[int, str] | None:
        """Content keys per cell, when caching or journaling needs them."""
        if self.cache is None and self.journal is None:
            return None
        return {job.index: run_key(job.programs, job.policy_factory,
                                   job.wnic_spec, job.config,
                                   faults=job.faults)
                for job in jobs}

    def _drain_journal(self, jobs: list[SweepJob],
                       points: dict[int, SweepPoint],
                       progress: Callable[[str], None] | None,
                       keys: dict[int, str] | None) -> list[SweepJob]:
        """Fill cells already completed in the journal being resumed."""
        if self.journal is None:
            return list(jobs)
        assert keys is not None
        pending: list[SweepJob] = []
        for job in jobs:
            result = self.journal.replay.completed.get(keys[job.index])
            if result is None:
                pending.append(job)
                continue
            point = SweepPoint(policy=result.policy,
                               latency=job.wnic_spec.latency,
                               bandwidth_bps=job.wnic_spec.bandwidth_bps,
                               result=result)
            points[job.index] = point
            self.journal_hits += 1
            if progress is not None:
                progress(progress_line(point) + " [journal]")
        return pending

    def _drain_cache(self, jobs: list[SweepJob],
                     points: dict[int, SweepPoint],
                     progress: Callable[[str], None] | None,
                     keys: dict[int, str] | None) -> list[SweepJob]:
        """Fill cached cells; return the jobs that must run live."""
        if self.cache is None:
            return list(jobs)
        assert keys is not None
        pending: list[SweepJob] = []
        for job in jobs:
            result = self.cache.get(keys[job.index])
            if result is None:
                pending.append(job)
                continue
            point = SweepPoint(policy=result.policy,
                               latency=job.wnic_spec.latency,
                               bandwidth_bps=job.wnic_spec.bandwidth_bps,
                               result=result)
            points[job.index] = point
            self.cache_hits += 1
            if self.journal is not None:
                self.journal.record_finish(job.index, keys[job.index],
                                           result)
            if progress is not None:
                progress(progress_line(point) + " [cached]")
        return pending

    # ------------------------------------------------------------------
    def _record(self, job: SweepJob, point: SweepPoint,
                points: dict[int, SweepPoint],
                progress: Callable[[str], None] | None,
                keys: dict[int, str] | None) -> None:
        points[job.index] = point
        self.live_runs += 1
        if self.cache is not None:
            assert keys is not None
            path = self.cache.put(keys[job.index], point.result)
            if self.cache_chaos is not None:
                self.cache_chaos.damage(path, job.index)
        if self.journal is not None:
            assert keys is not None
            self.journal.record_finish(job.index, keys[job.index],
                                       point.result)
        if progress is not None:
            progress(progress_line(point))

    def _run_serial(self, pending: list[SweepJob],
                    points: dict[int, SweepPoint],
                    failures: list[CellFailure],
                    progress: Callable[[str], None] | None,
                    keys: dict[int, str] | None) -> None:
        for job in pending:
            attempts: list[CellAttempt] = []
            attempt = 1
            while True:
                if self.journal is not None and keys is not None:
                    self.journal.record_start(job.index,
                                              keys[job.index], attempt)
                try:
                    point = _execute_job(job)
                except Exception as exc:  # noqa: BLE001 - mirrored pool path
                    tb_text = traceback.format_exc()
                    will_retry = attempt <= self.retry.max_retries
                    delay = self.retry.delay(job.config.seed, job.index,
                                             attempt) if will_retry \
                        else 0.0
                    attempts.append(CellAttempt(
                        attempt=attempt, reason="exception",
                        error=repr(exc), traceback=tb_text,
                        delay=delay))
                    if will_retry:
                        self.retries["exception"] += 1
                        time.sleep(delay)
                        attempt += 1
                        continue
                    failures.append(CellFailure(index=job.index,
                                                attempts=attempts,
                                                cause=exc))
                    break
                self._record(job, point, points, progress, keys)
                break

    def _run_pool(self, pending: list[SweepJob],
                  points: dict[int, SweepPoint],
                  failures: list[CellFailure],
                  progress: Callable[[str], None] | None,
                  keys: dict[int, str] | None, seed: int,
                  pool_workers: int) -> None:
        by_index = {job.index: job for job in pending}
        injector = None
        if self.chaos is not None and \
                (self.chaos.kill_prob > 0 or self.chaos.hang_prob > 0):
            injector = ChaosInjector(self.chaos, seed)

        def on_start(index: int, attempt: int) -> None:
            if self.journal is not None and keys is not None:
                self.journal.record_start(index, keys[index], attempt)

        def on_retry(index: int, record: CellAttempt) -> None:
            if progress is not None:
                job = by_index[index]
                progress(f"retrying {job.curve}"
                         f" @ lat={job.wnic_spec.latency * 1e3:.0f}ms"
                         f" (attempt {record.attempt} {record.reason},"
                         f" backoff {record.delay:.2f}s)")

        def on_result(index: int, point: SweepPoint) -> None:
            self._record(by_index[index], point, points, progress, keys)

        pool = SupervisedPool(pool_workers, _execute_job,
                              retry=self.retry, timeout=self.timeout,
                              seed=seed, chaos=injector,
                              on_start=on_start, on_retry=on_retry,
                              on_result=on_result)
        _, cell_failures = pool.run(by_index)
        for reason, count in pool.retries.items():
            self.retries[reason] += count
        self.respawns += pool.respawns
        failures.extend(cell_failures)

    # ------------------------------------------------------------------
    def _finalise_failures(self, jobs: list[SweepJob],
                           failures: list[CellFailure],
                           points: dict[int, SweepPoint],
                           progress: Callable[[str], None] | None,
                           keys: dict[int, str] | None) -> None:
        for failure in failures:
            job = jobs[failure.index]
            if self.journal is not None and keys is not None:
                self.journal.record_fail(
                    failure.index, keys[failure.index],
                    [a.to_json() for a in failure.attempts])
            self.failures.append(SweepFailure(
                index=failure.index, curve=job.curve,
                latency=job.wnic_spec.latency,
                bandwidth_bps=job.wnic_spec.bandwidth_bps,
                attempts=tuple(failure.attempts)))
        if not self.partial:
            first = failures[0]
            job = jobs[first.index]
            raise SweepCellError(
                job.curve, job.wnic_spec,
                attempts=len(first.attempts),
                remote_traceback=first.remote_traceback) from first.cause
        for failure in failures:
            job = jobs[failure.index]
            points[failure.index] = SweepPoint(
                policy=job.curve, latency=job.wnic_spec.latency,
                bandwidth_bps=job.wnic_spec.bandwidth_bps,
                result=placeholder_result(job.curve))
            if progress is not None:
                progress(f"{job.curve}"
                         f" @ lat={job.wnic_spec.latency * 1e3:.0f}ms"
                         f" bw={job.wnic_spec.bandwidth_bps / 1e6:.1f}"
                         f"MB/s FAILED after"
                         f" {len(failure.attempts)} attempt(s)"
                         " [placeholder]")

    # ------------------------------------------------------------------
    def _ensure_cache_chaos(self, seed: int) -> None:
        if self.cache_chaos is not None or self.chaos is None:
            return
        if self.chaos.corrupt_prob > 0 or self.chaos.truncate_prob > 0:
            self.cache_chaos = CacheChaos(self.chaos, seed)

