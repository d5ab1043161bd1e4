"""Worker supervision for sweep execution.

``ProcessPoolExecutor`` treats a dead worker as a fatal
``BrokenProcessPool``: one OOM-killed or hung cell loses a multi-hour
sweep.  :class:`SupervisedPool` replaces it with explicit supervision —
one forked process per worker slot, each owning a private duplex pipe —
so the parent can tell exactly which cell a dying worker was running,
respawn the slot, and retry the cell:

* **worker death** (SIGKILL, OOM, segfault) is detected as EOF on that
  worker's pipe and converted into a retryable attempt failure;
* **hangs** are bounded by a per-cell wall-clock ``timeout``: a worker
  past its deadline is SIGKILLed and its cell retried;
* **retries** follow bounded exponential backoff with seeded jitter —
  the delay sequence is a pure function of ``(seed, cell index,
  attempt)``, so a retried sweep is reproducible given its seed;
* **exceptions** raised by the cell itself travel back over the pipe
  with their full remote traceback text, which survives into failure
  manifests and :class:`~repro.experiments.parallel.SweepCellError`.

Per-worker pipes (instead of shared queues) are a deliberate
crash-consistency choice: a worker SIGKILLed mid-``put`` on a shared
``multiprocessing.Queue`` can leave its feeder lock held and deadlock
every sibling, whereas a dead pipe endpoint is visible to exactly one
reader and poisons nothing else.

The module is deliberately ignorant of sweep semantics — it runs
``(index, job)`` pairs through an ``execute`` callable and reports
results/failures by index.  :mod:`repro.experiments.parallel` layers
the sweep-ordering, caching, and journaling on top.

Workers are **forked** from the parent — both the initial spawn and
every supervision respawn — after ``run()`` has stored the job table,
and each receives that table as a ``Process`` argument, which fork
never pickles.  A worker therefore already holds every job: the pipe
carries only ``(index, attempt)`` down, and the pickled result or
exception back.

Wall-clock reads in this module are supervision-only (deadlines and
backoff sleeps); they never reach simulation results, which stay a pure
function of the job inputs.
"""

from __future__ import annotations

import heapq
import multiprocessing
import pickle
import time
import traceback
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_ready
from typing import Any

from repro.faults.chaos import ChaosInjector
from repro.sim.rng import make_rng
from repro.units import Seconds

#: Attempt-failure reasons, also the keys of ``SupervisedPool.retries``.
FAILURE_REASONS = ("exception", "timeout", "worker-died")


class WorkerCrashError(RuntimeError):
    """A worker process died (signal, OOM, segfault) while running a cell."""

    def __init__(self, exitcode: int | None) -> None:
        detail = f"exit code {exitcode}" if exitcode is not None \
            else "unknown exit code"
        super().__init__(f"sweep worker died mid-cell ({detail})")
        self.exitcode = exitcode


class CellTimeoutError(RuntimeError):
    """A cell exceeded the supervisor's per-cell wall-clock timeout."""

    def __init__(self, timeout: Seconds) -> None:
        super().__init__(
            f"sweep cell exceeded the {timeout:g}s wall-clock timeout;"
            " worker killed")
        self.timeout = timeout


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    ``delay`` for retry *k* (1-based) is ``backoff_base * 2**(k-1)``
    capped at ``backoff_cap``, stretched by up to ``jitter_frac`` using
    a draw from an isolated stream named after the cell and attempt —
    deterministic given the sweep seed, decorrelated across cells.
    """

    max_retries: int = 2
    backoff_base: Seconds = 0.25
    backoff_cap: Seconds = 30.0
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values cannot be negative")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("jitter_frac must be in [0, 1]")

    def delay(self, seed: int, index: int, attempt: int) -> Seconds:
        """Backoff before retrying cell ``index`` after ``attempt`` failed."""
        base = min(self.backoff_base * 2.0 ** (attempt - 1),
                   self.backoff_cap)
        if base <= 0 or self.jitter_frac <= 0:
            return base
        rng = make_rng(seed, f"sweep-backoff-{index}-{attempt}")
        return base * (1.0 + self.jitter_frac * float(rng.random()))


#: Retry policy that fails a cell on its first error (legacy semantics).
NO_RETRY = RetryPolicy(max_retries=0)


@dataclass(frozen=True, slots=True)
class CellAttempt:
    """One failed attempt at one cell, as recorded for manifests."""

    attempt: int
    reason: str          #: one of :data:`FAILURE_REASONS`
    error: str           #: one-line ``repr`` of the failure
    traceback: str       #: remote traceback text ("" when none exists)
    delay: Seconds       #: backoff applied before the next attempt (0 if final)

    def to_json(self) -> dict[str, Any]:
        return {"attempt": self.attempt, "reason": self.reason,
                "error": self.error, "traceback": self.traceback,
                "delay": self.delay}


@dataclass
class CellFailure:
    """A cell that exhausted its retry budget."""

    index: int
    attempts: list[CellAttempt]
    #: the last attempt's exception (reconstructed from the worker when
    #: picklable), kept so callers can chain it as ``__cause__``.
    cause: BaseException | None = None

    @property
    def remote_traceback(self) -> str:
        """The last attempt's traceback text (may be empty)."""
        return self.attempts[-1].traceback if self.attempts else ""


def _send_safe(exc: BaseException) -> BaseException:
    """An exception safe to pickle over the result pipe."""
    try:
        pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - any pickling failure degrades
        return RuntimeError(repr(exc))
    return exc


def _worker_main(conn: Connection,
                 execute: Callable[[Any], Any],
                 chaos: ChaosInjector | None,
                 jobs: Mapping[int, Any]) -> None:
    """Worker slot loop: receive ``(index, attempt)``, run ``jobs[index]``,
    reply, repeat.

    Module-level so the forked child runs no closure state; ``None``
    is the shutdown sentinel.  The chaos injector (if any) perturbs the
    attempt *before* the simulation starts, so an injected SIGKILL or
    stall models a crash mid-cell, never a torn result.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, attempt = message
        try:
            if chaos is not None:
                chaos.perturb(index, attempt)
            result = execute(jobs[index])
        except Exception as exc:  # noqa: BLE001 - shipped to parent
            try:
                conn.send(("error", index, attempt, _send_safe(exc),
                           traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
        else:
            try:
                conn.send(("ok", index, attempt, result))
            except (BrokenPipeError, OSError):
                return


@dataclass
class _Worker:
    """Parent-side view of one worker slot."""

    process: multiprocessing.process.BaseProcess
    conn: Connection
    #: (index, attempt) currently running, or None when idle.
    task: tuple[int, int] | None = None
    #: wall-clock deadline of the running attempt (None = no timeout).
    deadline: float | None = None


@dataclass
class _CellState:
    """Parent-side retry bookkeeping for one cell."""

    attempts: list[CellAttempt] = field(default_factory=list)
    cause: BaseException | None = None


class SupervisedPool:
    """A self-healing worker pool with per-cell retries and timeouts.

    Parameters
    ----------
    workers:
        Worker slot count (>= 1).
    execute:
        Module-level callable run in the worker for each job.
    retry:
        :class:`RetryPolicy`; :data:`NO_RETRY` (the default) preserves
        the historical fail-on-first-error semantics.
    timeout:
        Per-cell wall-clock seconds before a running attempt is killed
        and retried.  ``None`` disables the deadline.
    seed:
        Seed for the deterministic backoff jitter (and for rebuilding
        chaos decisions, which share it with the workers).
    chaos:
        Optional worker-side :class:`ChaosInjector` (chaos testing).
    on_start / on_retry / on_result:
        Parent-side hooks: attempt dispatched, attempt failed but will
        be retried after ``delay``, cell completed.  All run in the
        supervising process.
    """

    #: poll granularity when waiting on backoff timers with idle workers.
    _IDLE_WAIT: float = 0.05

    def __init__(self, workers: int,
                 execute: Callable[[Any], Any], *,
                 retry: RetryPolicy | None = None,
                 timeout: Seconds | None = None,
                 seed: int = 0,
                 chaos: ChaosInjector | None = None,
                 on_start: Callable[[int, int], None] | None = None,
                 on_retry: Callable[[int, CellAttempt], None] | None = None,
                 on_result: Callable[[int, Any], None] | None = None
                 ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.workers = int(workers)
        self.execute = execute
        self.retry = retry or NO_RETRY
        self.timeout = timeout
        self.seed = seed
        self.chaos = chaos
        self.on_start = on_start
        self.on_retry = on_retry
        self.on_result = on_result
        #: failed attempts that were retried, by reason.
        self.retries: dict[str, int] = dict.fromkeys(FAILURE_REASONS, 0)
        #: worker processes replaced after a death or a timeout kill.
        self.respawns = 0

    # ------------------------------------------------------------------
    def run(self, jobs: Mapping[int, Any]
            ) -> tuple[dict[int, Any], list[CellFailure]]:
        """Run every job under supervision.

        Returns ``(results by index, failures)`` where failures are the
        cells that exhausted their retry budget; every other index has a
        result.  Completion order never affects either.
        """
        if not jobs:
            return {}, []
        self._jobs = dict(jobs)
        self._states = {index: _CellState() for index in self._jobs}
        pending: deque[tuple[int, int]] = deque(
            (index, 1) for index in sorted(self._jobs))
        delayed: list[tuple[float, int, int]] = []   # (ready_at, idx, att)
        results: dict[int, Any] = {}
        failures: list[CellFailure] = []
        outstanding = set(self._jobs)
        pool: list[_Worker] = [
            self._spawn() for _ in range(min(self.workers, len(pending)))]
        try:
            while outstanding:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, index, attempt = heapq.heappop(delayed)
                    pending.append((index, attempt))
                for worker in pool:
                    if worker.task is None and pending:
                        self._dispatch(worker, pool, *pending.popleft())
                busy = [w for w in pool if w.task is not None]
                if not busy:
                    if delayed:
                        ahead = delayed[0][0] - now
                        time.sleep(min(max(ahead, 0.0), self._IDLE_WAIT))
                        continue
                    if pending:
                        continue
                    break  # unreachable safety valve
                ready = wait_ready([w.conn for w in busy],
                                   timeout=self._wait_budget(busy, delayed))
                now = time.monotonic()
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    self._on_ready(by_conn[conn], pool, results,
                                   failures, outstanding, delayed, now)
                for worker in list(pool):
                    if worker.task is not None and \
                            worker.deadline is not None and \
                            now >= worker.deadline:
                        self._on_timeout(worker, pool, failures,
                                         outstanding, delayed, now)
        finally:
            self._shutdown(pool)
        failures.sort(key=lambda f: f.index)
        return results, failures

    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_worker_main,
            args=(child_conn, self.execute, self.chaos, self._jobs),
            daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def _replace(self, worker: _Worker, pool: list[_Worker]) -> None:
        """Kill and discard a worker slot, spawning a fresh one."""
        try:
            worker.process.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        worker.process.join()
        worker.conn.close()
        pool[pool.index(worker)] = self._spawn()
        self.respawns += 1

    def _dispatch(self, worker: _Worker, pool: list[_Worker],
                  index: int, attempt: int) -> None:
        if self.on_start is not None:
            self.on_start(index, attempt)
        try:
            worker.conn.send((index, attempt))
        except (BrokenPipeError, OSError):
            # The slot died while idle; replace it and re-queue by
            # retrying the dispatch on the fresh worker.
            self._replace(worker, pool)
            replacement = next(w for w in pool if w.task is None)
            replacement.conn.send((index, attempt))
            worker = replacement
        worker.task = (index, attempt)
        worker.deadline = None if self.timeout is None else \
            time.monotonic() + self.timeout

    def _wait_budget(self, busy: list[_Worker],
                     delayed: list[tuple[float, int, int]]) -> float | None:
        """Seconds to block in ``wait`` before a timer needs service."""
        horizon: float | None = None
        for worker in busy:
            if worker.deadline is not None:
                horizon = worker.deadline if horizon is None \
                    else min(horizon, worker.deadline)
        if delayed:
            horizon = delayed[0][0] if horizon is None \
                else min(horizon, delayed[0][0])
        if horizon is None:
            return None
        return max(horizon - time.monotonic(), 0.0)

    # ------------------------------------------------------------------
    def _on_ready(self, worker: _Worker, pool: list[_Worker],
                  results: dict[int, Any], failures: list[CellFailure],
                  outstanding: set[int],
                  delayed: list[tuple[float, int, int]],
                  now: Seconds) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            task = worker.task
            exitcode = worker.process.exitcode
            self._replace(worker, pool)
            if task is not None:
                index, attempt = task
                self._attempt_failed(
                    index, attempt, "worker-died",
                    WorkerCrashError(exitcode), "", failures,
                    outstanding, delayed, now)
            return
        kind, index, attempt = message[0], message[1], message[2]
        worker.task = None
        worker.deadline = None
        if kind == "ok":
            results[index] = message[3]
            outstanding.discard(index)
            if self.on_result is not None:
                self.on_result(index, message[3])
        else:
            self._attempt_failed(index, attempt, "exception",
                                 message[3], message[4], failures,
                                 outstanding, delayed, now)

    def _on_timeout(self, worker: _Worker, pool: list[_Worker],
                    failures: list[CellFailure], outstanding: set[int],
                    delayed: list[tuple[float, int, int]],
                    now: Seconds) -> None:
        task = worker.task
        self._replace(worker, pool)
        if task is None:  # pragma: no cover - deadline implies a task
            return
        index, attempt = task
        assert self.timeout is not None
        self._attempt_failed(index, attempt, "timeout",
                             CellTimeoutError(self.timeout), "",
                             failures, outstanding, delayed, now)

    def _attempt_failed(self, index: int, attempt: int, reason: str,
                        cause: BaseException, tb_text: str,
                        failures: list[CellFailure], outstanding: set[int],
                        delayed: list[tuple[float, int, int]],
                        now: Seconds) -> None:
        state = self._states[index]
        state.cause = cause
        will_retry = attempt <= self.retry.max_retries
        delay = self.retry.delay(self.seed, index, attempt) \
            if will_retry else 0.0
        record = CellAttempt(attempt=attempt, reason=reason,
                             error=repr(cause), traceback=tb_text,
                             delay=delay)
        state.attempts.append(record)
        if will_retry:
            self.retries[reason] += 1
            heapq.heappush(delayed, (now + delay, index, attempt + 1))
            if self.on_retry is not None:
                self.on_retry(index, record)
        else:
            outstanding.discard(index)
            failures.append(CellFailure(index=index,
                                        attempts=list(state.attempts),
                                        cause=state.cause))

    # ------------------------------------------------------------------
    def _shutdown(self, pool: list[_Worker]) -> None:
        for worker in pool:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in pool:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stragglers
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
