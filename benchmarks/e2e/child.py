"""One workload in one fresh process: set up, then time cells.

Run by the parent (``python -m benchmarks.e2e``) as::

    python -m benchmarks.e2e.child --role ROLE --workload NAME --seed N
        [--seconds S] [--quick]

and prints one JSON object as its last line of output.  Roles:

``setup``    time the set-up only (one ``setup_s`` sample);
``measure``  set up, then run whole passes over the cells for about
             ``--seconds`` (at least one);
``trace``    set up, run one untraced pass (the base of
             ``trace_overhead``), then one traced pass with a wrapper on
             every layer;
``pin``      set up and run every cell once, returning each result.

Every cell result is checked (see :class:`Checker`); a mismatch or an
exception counts as a failed cell and is never timed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from dataclasses import asdict
from time import perf_counter
from typing import Any

from benchmarks.e2e import HERE, ROOT, SRC

EXPECTED_PATH = HERE / "expected.json"
GOLDEN_PATH = ROOT / "benchmarks" / "results" / "golden.json"


def summarize(result: Any) -> dict[str, Any]:
    """The simulated fields of a cell that ``expected.json`` pins."""
    return {"energy": result.total_energy,
            "disk_energy": result.disk_energy,
            "wnic_energy": result.wnic_energy,
            "end_time": result.end_time,
            "requests": result.requests,
            "cache_hit_ratio": result.cache_hit_ratio,
            "disk_spinups": result.disk_spinups,
            "fault_retries": dict(sorted(result.fault_retries.items()))}


class Checker:
    """Decides whether one cell's output is correct.

    Every seed: the run passes ``validate_run``'s conservation checks,
    services every trace record once, and repeats bit-identically
    across passes and processes.  Seeds pinned in ``expected.json`` (7
    and 11): every field of :func:`summarize` matches.  Fast-path
    workloads at the golden seed: energies also match ``golden.json``
    ``fig3_grid``.
    """

    def __init__(self, prep: Any, *, pinned: bool) -> None:
        from benchmarks.e2e.workloads import MBPS, link_key
        self.prep = prep
        self.seen: dict[str, dict[str, Any]] = {}
        self.expected: dict[str, Any] | None = None
        if pinned and EXPECTED_PATH.exists():
            by_seed = json.loads(EXPECTED_PATH.read_text())
            if str(prep.seed) in by_seed:
                self.expected = by_seed[str(prep.seed)].get(
                    prep.workload.name, {})
        self.golden: dict[str, float] = {}
        if prep.workload.fast_path:
            golden = json.loads(GOLDEN_PATH.read_text())
            grid = golden["fig3_grid"]
            if prep.seed == golden["seed"]:
                for panel, links in (
                        ("by_latency", [(lat, 11 * MBPS)
                                        for lat in grid["latencies"]]),
                        ("by_bandwidth", [(1e-3, bw) for bw
                                          in grid["bandwidths_bps"]])):
                    for policy, energies in grid[panel].items():
                        for (lat, bw), energy in zip(links, energies,
                                                     strict=True):
                            key = f"{link_key(lat, bw)}/{policy}"
                            self.golden[key] = energy

    @property
    def pinned(self) -> bool:
        return self.expected is not None

    def check(self, cell: Any, point: Any) -> list[str]:
        from repro.experiments.validate import validate_run
        from repro.units import approx_eq
        result = point.result
        problems = [str(issue) for issue in validate_run(
            result, disk_spec=self.prep.config.disk_spec,
            wnic_spec=cell.wnic)]
        if result.requests != self.prep.record_count:
            problems.append(f"serviced {result.requests} records of"
                            f" {self.prep.record_count}")
        summary = summarize(result)
        if self.seen.setdefault(cell.key, summary) != summary:
            problems.append("differs from an earlier run of this cell")
        if self.expected is not None:
            want = self.expected.get(cell.key)
            if want is None:
                problems.append("no pinned result")
            elif not _same(summary, want):
                problems.append(f"pinned {want}, got {summary}")
        golden = self.golden.get(cell.key)
        if golden is not None and not approx_eq(result.total_energy, golden):
            problems.append(f"golden energy {golden},"
                            f" got {result.total_energy}")
        return [f"{cell.key}: {p}" for p in problems]


def _same(got: dict[str, Any], want: dict[str, Any]) -> bool:
    from repro.units import approx_eq
    if got.keys() != want.keys():
        return False
    return all(approx_eq(got[k], w) if isinstance(w, float) else got[k] == w
               for k, w in want.items())


def _timed_passes(prep: Any, cells: list[Any], sampler: Any,
                  checker: Checker, *, seconds: float,
                  one_pass: bool) -> dict[str, Any]:
    """Whole passes over ``cells``: after the first, another starts
    only while the previous pass's duration still fits in
    ``seconds``."""
    samples: list[dict[str, Any]] = []
    failures: list[str] = []
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for cell in cells:
            try:
                point, timing = sampler.measure(
                    lambda cell=cell: prep.run(cell))
            except Exception as exc:  # a failed cell is counted, not fatal
                failures.append(f"{cell.key}: {exc!r}")
                continue
            problems = checker.check(cell, point)
            if problems:
                failures.extend(problems)
                continue
            samples.append({"cell": cell.key, "pass": passes,
                            **asdict(timing),
                            "calibrated_s": timing.calibrated_s})
        passes += 1
        now = perf_counter()
        if one_pass or now - start + now - pass_start > seconds:
            break
    return {"passes": passes, "samples": samples, "failures": failures,
            "attempted": passes * len(cells)}


def _traced_pass(prep: Any, cells: list[Any], sampler: Any,
                 checker: Checker) -> dict[str, Any]:
    from benchmarks.e2e.calibration import REF_NOMINAL_S
    from benchmarks.e2e.tracing import SPANS, Tracer
    tracer = Tracer()
    tracer.install({type(factory()) for factory in prep.policies.values()})
    sampler.on_probe = tracer.exclude
    calls = dict.fromkeys(SPANS, 0)
    self_s = dict.fromkeys(SPANS, 0.0)
    records, results, failures = [], [], []
    failed = 0
    traced_cell_s = 0.0
    for cell in cells:
        origin = perf_counter()
        try:
            point, timing = sampler.measure(lambda cell=cell: prep.run(cell))
        except Exception as exc:  # a failed cell is counted, not fatal
            failures.append(f"{cell.key}: {exc!r}")
            failed += 1
            tracer.take_cell(origin)
            continue
        spans = tracer.take_cell(origin)
        problems = checker.check(cell, point)
        failures.extend(problems)
        failed += bool(problems)
        results.append(point.result)
        scale = REF_NOMINAL_S / timing.ref_s
        traced_cell_s += timing.calibrated_s
        for span in spans:
            calls[span["name"]] += span["calls"]
            self_s[span["name"]] += span["self_s"] * scale
        records.append({
            "id": {"workload": prep.workload.name, "pass": 0,
                   "link": cell.link, "policy": cell.policy},
            "ref_s": timing.ref_s, "work_s": timing.work_s,
            "spans": spans})
    sampler.on_probe = None
    service_calls = calls["routing.service"]
    device_bytes = sum(sum(r.device_bytes.values()) for r in results)
    counters = {
        "kernel.cache_hit_ratio": statistics.fmean(
            r.cache_hit_ratio for r in results) if results else 0.0,
        "kernel.read.extents_per_call": (
            tracer.read_extents / calls["kernel.read"]
            if calls["kernel.read"] else 0.0),
        "plan.fast_path_share": tracer.fast_path_runs / len(cells),
        "routing.disk_byte_share": (
            sum(r.device_bytes.get("disk", 0) for r in results)
            / device_bytes if device_bytes else 0.0),
        "routing.retry_ratio": (
            sum(sum(r.fault_retries.values()) for r in results)
            / service_calls if service_calls else 0.0),
        "routing.failovers": sum(sum(r.fault_failovers.values())
                                 for r in results),
        "devices.disk_spinups": sum(r.disk_spinups for r in results),
        "devices.wnic_wakeups": sum(r.wnic_wakeups for r in results),
    }
    return {"calls": calls, "self_s": self_s, "counters": counters,
            "traced_cell_s": traced_cell_s,
            "traced_cells_per_s": (len(records) / traced_cell_s
                                   if traced_cell_s else 0.0),
            "missing": tracer.missing, "failures": failures,
            "attempted": len(cells), "failed": failed, "cells": records}


def run(role: str, workload_name: str, seed: int, seconds: float,
        quick: bool) -> dict[str, Any]:
    from benchmarks.e2e.calibration import Sampler
    from benchmarks.e2e.workloads import (
        WORKLOADS,
        Prepared,
        build_policies,
        compile_programs,
    )
    from repro.experiments.config import ExperimentConfig

    workload = WORKLOADS[workload_name]
    sampler = Sampler()
    setup: dict[str, Any] = {}

    def phase(name: str, fn: Any) -> Any:
        result, timing = sampler.measure(fn)
        setup[name] = {**asdict(timing), "calibrated_s": timing.calibrated_s}
        return result

    traces = phase("synth", lambda: workload.synth(seed))
    programs = phase("compile", lambda: compile_programs(traces))
    policies = phase("profile", lambda: build_policies(
        workload, traces[0][0], ExperimentConfig(seed=seed)))
    prep = Prepared(workload, seed, programs, policies)
    checker = Checker(prep, pinned=role != "pin")
    warm = phase("plan", lambda: prep.run(prep.warmup))
    out: dict[str, Any] = {
        "role": role, "workload": workload_name, "seed": seed,
        "pinned": checker.pinned, "setup": setup,
        "warmup": summarize(warm.result),
        "problems": checker.check(prep.warmup, warm)}
    if role == "setup":
        return out
    cells = prep.cells[:1] if quick else prep.cells
    if role == "pin":
        for cell in cells:
            out["problems"] += checker.check(cell, prep.run(cell))
        out["cells"] = {cell.key: checker.seen[cell.key] for cell in cells}
        return out
    measured = _timed_passes(prep, cells, sampler, checker,
                             seconds=seconds,
                             one_pass=quick or role == "trace")
    out["measure"] = measured
    if role == "trace":
        samples = measured["samples"]
        out["untraced_cells_per_s"] = len(samples) / sum(
            s["calibrated_s"] for s in samples) if samples else 0.0
        out["trace"] = _traced_pass(prep, cells, sampler, checker)
        return out
    if workload.fast_path:
        # Untimed: the shadow sanitizer replays the fast-path cell on
        # the event loop and bit-diffs the two replays.
        try:
            point = prep.run(cells[0], sanitize=True)
        except Exception as exc:  # reported as a failed check
            out["problems"].append(f"{cells[0].key}: sanitize: {exc!r}")
        else:
            out["problems"] += checker.check(cells[0], point)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--role", required=True,
                        choices=("setup", "measure", "trace", "pin"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    out = run(args.role, args.workload, args.seed, args.seconds, args.quick)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
