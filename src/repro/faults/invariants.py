"""Runtime invariant checking, on every replay.

Fault injection makes the simulator walk paths the paper's ideal
devices never exercised — aborted transfers, failed spin-ups,
mid-stage failovers — exactly where accounting bugs hide.  Every
:class:`~repro.core.session.SimulationSession` run therefore audits
itself and raises a structured :class:`SimulationInvariantError`
(naming the check and the offending context) the moment one of these
breaks:

* **causal service times** — ``arrival <= start <= completion`` for
  every device service result, and **non-negative service energy**
  (the router compares each extent inline and calls
  :func:`check_service` only to raise);
* **exactly-once servicing** — at the end of the run every program
  finished its trace and the session serviced as many records as the
  traces hold (:func:`check_coverage`); the scheduler services each
  program's records in order, one per step, so the counts suffice;
* **meter vs residency agreement** — the end-of-run result passes every
  :func:`repro.experiments.validate.validate_run` conservation check
  (:func:`check_result`).

Two properties need no runtime check because their producers guarantee
them: the scheduler's clock only moves forward (it advances only to a
later issue time), and a device meter never decreases
(:class:`~repro.sim.metrics.EnergyMeter` rejects negative watts and
impulses, as do the state and transition specs, and charges
``power * dt`` only for ``dt > 0``).  The run's end time is at least
its last completion, which is at least its last issue time, so a run
cannot end before its last event either.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.telemetry import RunResult
    from repro.core.workload import ProgramDriver
    from repro.devices.service import ServiceOutcome

#: Tolerance for float accumulation error in energy/time comparisons.
TOLERANCE = 1e-6


class SimulationInvariantError(RuntimeError):
    """A runtime invariant of the replay was violated.

    Attributes
    ----------
    check:
        Short name of the violated invariant (e.g. ``"service-order"``).
    context:
        The offending event's details (times, energies, record ids).
    """

    def __init__(self, check: str, message: str,
                 context: dict[str, Any] | None = None) -> None:
        self.check = check
        self.context = dict(context or {})
        detail = f" [{self._fmt_context()}]" if self.context else ""
        super().__init__(f"invariant {check!r} violated: {message}{detail}")

    def _fmt_context(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))


def check_service(result: ServiceOutcome, *, program: str,
                  source: str) -> None:
    """Raise unless one device service result is causal and costs >= 0 J."""
    arrival = result.arrival
    start = result.start
    completion = result.completion
    if not arrival - TOLERANCE <= start <= completion + TOLERANCE:
        raise SimulationInvariantError(
            "service-order", "service result times are not causal",
            {"program": program, "source": source, "arrival": arrival,
             "start": start, "completion": completion})
    if not result.energy >= -TOLERANCE:
        raise SimulationInvariantError(
            "energy", "negative service energy",
            {"program": program, "source": source,
             "energy": result.energy})


def check_coverage(programs: Iterable[ProgramDriver],
                   requests: int) -> None:
    """Raise unless ``requests`` covers every program's trace exactly.

    Every driver must have finished, and the session must have
    serviced exactly as many records as the traces hold.
    """
    expected = 0
    for prog in programs:
        if not prog.done:
            raise SimulationInvariantError(
                "exactly-once", "program did not finish its trace",
                {"program": prog.name, "expected": prog.record_count,
                 "next_record": prog.index})
        expected += prog.record_count
    if requests != expected:
        raise SimulationInvariantError(
            "exactly-once",
            "not every trace record was serviced exactly once",
            {"expected": expected, "serviced": requests})


def check_result(result: RunResult, **spec_kwargs: Any) -> None:
    """Raise if ``result`` fails any physical-consistency check.

    Thin wrapper over :func:`repro.experiments.validate.validate_run`
    — the meters, the state residencies, and the routing tallies must
    all agree.  ``spec_kwargs`` (``disk_spec`` / ``wnic_spec``) are
    forwarded.
    """
    # Imported lazily: validate.py imports RunResult from the simulator,
    # which imports this module.
    from repro.experiments.validate import validate_run
    issues = validate_run(result, **spec_kwargs)
    if issues:
        first = issues[0]
        raise SimulationInvariantError(
            first.check, first.detail,
            {"policy": result.policy, "issues": len(issues)})
