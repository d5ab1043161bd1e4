"""Wall-clock comparison of the three sweep execution modes.

Runs the Figure-3 reduced grid (the same cells ``test_fig3.py`` pins to
golden energies) three ways — serial, parallel workers, warm run cache —
asserts all three produce bit-identical curves that match the pinned
golden energies, and writes the fresh report to the git-ignored
``benchmarks/perf/results/BENCH_sweep.json`` (uploaded as a CI
artifact by the perf-smoke job).

The cold cost of a sweep is reported as a **phase breakdown** matching
the two-phase replay pipeline (DESIGN.md §15, §16): lowering the trace
to packed columns (*compile*), freezing its burst structure into a
``BurstPlan`` (*plan*), and running every cell (*evaluate*).  Three
gates apply:

* **serial budget** — the cold serial grid (compile + plan + evaluate)
  must finish within ``BENCH_SERIAL_BUDGET`` seconds (default 3.0);
* **speedup floor** — on a multi-core host, parallel execution must
  beat serial outright (``BENCH_SPEEDUP_FLOOR``, default 1.0), each
  side timed as the best of two uncached runs;
* **baseline** — the committed ``BENCH_sweep.json`` at the repo root
  is the perf baseline, and no run rewrites it: the parallel speedup
  may not regress below ``SPEEDUP_SLACK`` of the recorded one, gated
  only when ``cpu_count`` matches the baseline's;
* **sanitize budget** — a serial sweep under ``sanitize=True`` (which
  re-runs every fast-path cell through the event loop in shadow) must
  stay within ``SANITIZE_BUDGET_FACTOR`` (default 2.2) of the sum of
  both paths run unsanitized, and its curves must be bit-identical.

Worker count comes from ``BENCH_WORKERS`` (default 4) and is clamped to
the host's CPUs — oversubscribed workers only add fork and scheduling
overhead, which is noise, not signal.
"""

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.core.bluefs import BlueFSPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.workload import ProgramSpec
from repro.experiments.cache import RunCache
from repro.experiments.figures import FlexFetchFactory
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import ProgramSet, _build_session
from repro.sim import plan as plan_mod
from repro.sim.plan import plan_for
from repro.traces.compile import compile_trace
from repro.traces.synth import generate_thunderbird
from repro.units import approx_eq

#: The committed baseline; a run only reads it.
BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_sweep.json"
#: Where each run writes its fresh report (git-ignored).
REPORT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_sweep.json"
GOLDEN_PATH = RESULTS_DIR / "golden.json"

# A new measurement may fall to 70% of the recorded speedup before the
# smoke fails — wide enough for shared-runner noise, tight enough to
# catch a per-cell dispatch cost growing back.
SPEEDUP_SLACK = 0.7
#: Cold serial seconds the whole grid must fit in (env-overridable for
#: slower shared runners).
SERIAL_BUDGET_S = float(os.environ.get("BENCH_SERIAL_BUDGET", "3.0"))
#: Parallel must beat serial by at least this factor on multi-core.
SPEEDUP_FLOOR = float(os.environ.get("BENCH_SPEEDUP_FLOOR", "1.0"))
#: A sanitized sweep deliberately runs *both* replay paths per cell
#: (fast + event-loop shadow), so its honest baseline is the sum of
#: both paths run unsanitized.  The budget bounds the sanitizer's own
#: machinery — recording sinks and the bit-level diff — not the cost
#: of the event loop it exists to re-run.
SANITIZE_BUDGET_FACTOR = float(
    os.environ.get("SANITIZE_BUDGET_FACTOR", "2.2"))


@pytest.fixture(scope="module")
def sweep_inputs(bench_config):
    trace = generate_thunderbird(bench_config.seed)
    profile = profile_from_trace(trace)
    policies = {
        "Disk-only": DiskOnlyPolicy,
        "WNIC-only": WnicOnlyPolicy,
        "BlueFS": BlueFSPolicy,
        "FlexFetch": FlexFetchFactory(
            profile=profile,
            loss_rate=bench_config.loss_rate,
            stage_length=bench_config.stage_length),
    }
    panels = {"by_latency": bench_config.latency_points(),
              "by_bandwidth": bench_config.bandwidth_points()}
    return ProgramSet((ProgramSpec(trace).prepared(),)), policies, panels


def _timed_phases(bench_config):
    """Cold per-trace costs: lowering and burst planning, in seconds.

    Uses a freshly generated trace so the compile memo (keyed by Trace
    object identity) cannot hide the work, and evicts the plan memo
    entry so ``plan_for`` actually replays the kernel path.
    """
    raw = generate_thunderbird(bench_config.seed)
    t0 = time.perf_counter()
    compiled = compile_trace(raw)
    compile_s = time.perf_counter() - t0

    key = (compiled.digest, int(bench_config.memory_bytes),
           int(bench_config.seed))
    plan_mod._PLAN_MEMO.pop(key, None)
    t0 = time.perf_counter()
    plan = plan_for(compiled, bench_config.memory_bytes,
                    bench_config.seed)
    plan_s = time.perf_counter() - t0
    assert plan is not None, "fig3 trace must be plannable (all reads)"
    return compile_s, plan_s


def _timed_sweep(executor, programs, policies, panels, config):
    t0 = time.perf_counter()
    curves = {panel: executor.run_sweep(programs, policies, specs, config)
              for panel, specs in panels.items()}
    return curves, time.perf_counter() - t0


def _timed_event_loop(programs, policies, panels, config):
    """Serial wall-clock of the same grid forced onto the event loop —
    the second half of the sanitized leg's baseline."""
    t0 = time.perf_counter()
    for specs in panels.values():
        for wnic_spec in specs:
            for factory in policies.values():
                _build_session(programs, factory(), wnic_spec, config,
                               None).with_fast_path(False).run()
    return time.perf_counter() - t0


def _assert_identical(reference, other, label):
    for panel, curves in reference.items():
        for name, points in curves.items():
            for i, (a, b) in enumerate(
                    zip(points, other[panel][name], strict=True)):
                assert a.result == b.result, \
                    f"{label}: {panel}/{name}[{i}] diverged"


def _assert_matches_golden(curves, bench_config):
    grid = json.loads(GOLDEN_PATH.read_text())["fig3_grid"]
    assert grid["latencies"] == list(bench_config.latency_sweep)
    assert grid["bandwidths_bps"] == list(bench_config.bandwidth_sweep_bps)
    for panel in ("by_latency", "by_bandwidth"):
        for name, want in grid[panel].items():
            got = [p.energy for p in curves[panel][name]]
            for i, (g, w) in enumerate(zip(got, want, strict=True)):
                assert approx_eq(g, w), \
                    f"{panel}/{name}[{i}]: {g} != pinned {w}"


def _load_baseline():
    if not BENCH_PATH.exists():
        return None
    try:
        return json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _gate_against_baseline(report, baseline):
    """Fail only on a speedup regression, never on absolute seconds."""
    if baseline is None:
        return "no baseline recorded"
    if baseline.get("cpu_count") != report["cpu_count"]:
        return (f"baseline cpu_count={baseline.get('cpu_count')} != "
                f"current {report['cpu_count']}; gate skipped")
    recorded = baseline.get("speedup_parallel_vs_serial")
    if not isinstance(recorded, (int, float)) or recorded <= 0:
        return "baseline has no usable speedup"
    floor = recorded * SPEEDUP_SLACK
    measured = report["speedup_parallel_vs_serial"]
    assert measured >= floor, (
        f"parallel speedup regressed: measured {measured:.2f}x < "
        f"{floor:.2f}x (= {SPEEDUP_SLACK} x recorded {recorded:.2f}x)")
    return f"speedup {measured:.2f}x >= floor {floor:.2f}x"


def test_sweep_modes(sweep_inputs, bench_config, tmp_path_factory):
    programs, policies, panels = sweep_inputs
    cells = sum(len(specs) for specs in panels.values()) * len(policies)
    cpu_count = os.cpu_count() or 1
    workers = min(int(os.environ.get("BENCH_WORKERS", "4")), cpu_count)
    cache_dir = tmp_path_factory.mktemp("run-cache")
    baseline = _load_baseline()

    compile_s, plan_s = _timed_phases(bench_config)

    # Best-of-two serial runs: the budget gates the code, not whatever
    # the host's scheduler did to one unlucky run.
    serial_curves, evaluate_s = _timed_sweep(
        ParallelSweepExecutor(1), programs, policies, panels,
        bench_config)
    _assert_matches_golden(serial_curves, bench_config)
    rerun_curves, rerun_s = _timed_sweep(
        ParallelSweepExecutor(1), programs, policies, panels,
        bench_config)
    _assert_identical(serial_curves, rerun_curves, "serial rerun")
    evaluate_s = min(evaluate_s, rerun_s)

    # Sanitized leg: every fast-path cell is re-run through the event
    # loop in shadow and bit-diffed, so the honest baseline is the sum
    # of both unsanitized paths.  The factor gates the sanitizer's own
    # machinery, not the event loop it deliberately re-runs.
    sanitized_curves, sanitized_s = _timed_sweep(
        ParallelSweepExecutor(1, sanitize=True), programs, policies,
        panels, bench_config)
    _assert_identical(serial_curves, sanitized_curves, "sanitized")
    event_loop_s = _timed_event_loop(programs, policies, panels,
                                     bench_config)
    sanitize_factor = sanitized_s / (evaluate_s + event_loop_s)
    assert sanitize_factor <= SANITIZE_BUDGET_FACTOR, (
        f"sanitized sweep took {sanitized_s:.3f}s vs both-path "
        f"baseline {evaluate_s:.3f}s + {event_loop_s:.3f}s: factor "
        f"{sanitize_factor:.2f}x > budget {SANITIZE_BUDGET_FACTOR:.1f}x")

    cold_serial_s = compile_s + plan_s + evaluate_s
    assert cold_serial_s <= SERIAL_BUDGET_S, (
        f"cold serial grid took {cold_serial_s:.3f}s "
        f"(compile {compile_s:.3f} + plan {plan_s:.3f} + evaluate "
        f"{evaluate_s:.3f}) > budget {SERIAL_BUDGET_S:.1f}s")

    # Best-of-two uncached parallel runs, timed the way the serial side
    # is, so one unlucky run on a loaded host cannot fail the floor.
    parallel_s = float("inf")
    for label in ("parallel", "parallel rerun"):
        parallel_curves, elapsed = _timed_sweep(
            ParallelSweepExecutor(workers), programs,
            policies, panels, bench_config)
        _assert_identical(serial_curves, parallel_curves, label)
        parallel_s = min(parallel_s, elapsed)

    speedup = evaluate_s / parallel_s
    if cpu_count >= 2 and workers >= 2:
        assert speedup >= SPEEDUP_FLOOR, (
            f"parallel ({workers} workers on {cpu_count} CPUs) must "
            f"beat serial: {speedup:.2f}x < floor {SPEEDUP_FLOOR:.2f}x")

    # The warm leg needs a populated cache: fill it in a run of its own.
    cold = ParallelSweepExecutor(workers, cache=RunCache(cache_dir))
    cold_curves, _ = _timed_sweep(cold, programs, policies, panels,
                                  bench_config)
    _assert_identical(serial_curves, cold_curves, "cache fill")
    assert cold.live_runs == cells and cold.cache_hits == 0

    warm = ParallelSweepExecutor(workers, cache=RunCache(cache_dir))
    warm_curves, warm_s = _timed_sweep(
        warm, programs, policies, panels, bench_config)
    _assert_identical(serial_curves, warm_curves, "warm cache")
    assert warm.live_runs == 0, "warm rerun must run zero simulations"
    assert warm.cache_hits == cells
    assert warm_s < evaluate_s

    report = {
        "grid": {"figure": "fig3", "cells": cells,
                 "policies": sorted(policies),
                 "latency_points": len(panels["by_latency"]),
                 "bandwidth_points": len(panels["by_bandwidth"])},
        "workers": workers,
        "cpu_count": cpu_count,
        "phases": {
            "compile_seconds": round(compile_s, 3),
            "plan_seconds": round(plan_s, 3),
            "evaluate_seconds": round(evaluate_s, 3),
        },
        "cold_serial_seconds": round(cold_serial_s, 3),
        "serial_budget_seconds": SERIAL_BUDGET_S,
        "serial_seconds": round(evaluate_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "warm_cache_seconds": round(warm_s, 3),
        "speedup_parallel_vs_serial": round(speedup, 2),
        "speedup_warm_cache_vs_serial": round(evaluate_s / warm_s, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "sanitized_seconds": round(sanitized_s, 3),
        "event_loop_seconds": round(event_loop_s, 3),
        "sanitize_factor": round(sanitize_factor, 2),
        "sanitize_budget_factor": SANITIZE_BUDGET_FACTOR,
        "parallel_live_runs": cold.live_runs,
        "warm_live_runs": warm.live_runs,
        "warm_cache_hits": warm.cache_hits,
    }
    verdict = _gate_against_baseline(report, baseline)
    report["baseline_gate"] = verdict
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(f"\nwrote {REPORT_PATH}:")
    print(json.dumps(report, indent=2))
