"""End-to-end benchmark of the replay product.

Usage, from the repository root::

    python -m benchmarks.e2e [--workload NAME ...] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out DIR] [--quick] [--pin]

For each workload (all four by default) the parent runs fresh child
processes one after another, so the benchmark never uses more than one
CPU: two that only time the set-up, then one that sets up again and
times the cells (``--trace``: one that also runs a traced pass).  It
prints a table and then one JSON line per workload::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

untraced with every end-to-end metric, traced with every per-layer
metric.  Artifacts go to ``--out`` (``benchmarks/e2e/results``).
``--pin`` re-pins ``expected.json`` at seeds 7 and 11 instead.
See README.md for the metrics, the workloads and the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

from benchmarks.e2e import HERE, ROOT, SRC
from benchmarks.e2e.calibration import REF_NOMINAL_S
from benchmarks.e2e.tracing import SETUP_PHASES, SPANS, per_layer_metrics

#: (name, unit, better) of the metrics an untraced run reports.
END_TO_END = (("cells_per_s", "1/s", "higher"),
              ("cell_s_p50", "s", "lower"),
              ("cell_s_max", "s", "lower"),
              ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MiB", "lower"))
#: Seconds of cells one run measures unless ``--seconds`` says otherwise
#: (``run_seconds`` in BENCHMARK.json).  Passes are whole, so one pass
#: of an event-loop workload can overrun it on a slow host.
DEFAULT_SECONDS = 15
#: Fresh processes whose set-up time is sampled; setup_s is the median.
SETUP_SAMPLES = 3
#: Seeds ``--pin`` records; 11 is held out from tuning.
PIN_SEEDS = (7, 11)
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150
PIN_TIMEOUT_S = 600


class BenchError(RuntimeError):
    """A child process failed; no result can be reported."""


def _child(role: str, workload: str, seed: int, *, seconds: float = 0.0,
           quick: bool = False, timeout: float) -> dict[str, Any]:
    cmd = [sys.executable, "-m", "benchmarks.e2e.child", "--role", role,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} child of {workload} ran over {timeout}s"
                         ) from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} child of {workload} exited"
                         f" {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_s(child: dict[str, Any], phase: str | None = None) -> float:
    phases = SETUP_PHASES if phase is None else (phase,)
    return sum(child["setup"][p]["calibrated_s"] for p in phases)


def run_workload(workload: str, seed: int, seconds: float, *, trace: bool,
                 quick: bool) -> dict[str, Any]:
    """Every child of one workload; returns the report and artifact."""
    children = [_child("setup", workload, seed, timeout=SETUP_TIMEOUT_S)
                for _ in range(0 if quick else SETUP_SAMPLES - 1)]
    main = _child("trace" if trace else "measure", workload, seed,
                  seconds=seconds, quick=quick, timeout=MEASURE_TIMEOUT_S)
    children.append(main)
    problems = [p for child in children for p in child["problems"]]
    if any(child["warmup"] != main["warmup"] for child in children):
        problems.append("the set-up cell differs between processes")
    measured = main["measure"]
    samples = measured["samples"]
    if not samples:
        raise BenchError(f"{workload}: every cell failed:\n"
                         + "\n".join(measured["failures"][:20]))
    problems += measured["failures"]
    attempted = measured["attempted"]
    failed = attempted - len(samples)
    cal = [s["calibrated_s"] for s in samples]
    by_cell: dict[str, list[float]] = defaultdict(list)
    for s in samples:
        by_cell[s["cell"]].append(s["calibrated_s"])
    report: dict[str, Any] = {
        "workload": workload, "seed": seed, "pinned": main["pinned"],
        "cells": len(by_cell), "passes": measured["passes"],
        "samples": len(samples), "ref_nominal_s": REF_NOMINAL_S,
        "ref_s_median": statistics.median(s["ref_s"] for s in samples),
        "host_s": sum(s["host_s"] for s in samples),
        "calibrated_s": sum(cal),
        "setup_samples_s": [_setup_s(c) for c in children]}
    if trace:
        traced = main["trace"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["failures"]
        total = sum(traced["self_s"].values())
        metrics = {}
        for span in SPANS:
            metrics[f"{span}.calls"] = traced["calls"][span]
            metrics[f"{span}.self_s"] = traced["self_s"][span]
            metrics[f"{span}.self_share"] = (traced["self_s"][span] / total
                                             if total else 0.0)
        for phase in SETUP_PHASES:
            metrics[f"setup.{phase}_s"] = statistics.median(
                _setup_s(c, phase) for c in children)
        metrics.update(traced["counters"])
        metrics["trace_overhead"] = (main["untraced_cells_per_s"]
                                     / traced["traced_cells_per_s"])
        report.update(traced_cell_s=traced["traced_cell_s"],
                      self_s_sum=total, missing=traced["missing"],
                      spans=traced.pop("cells"))
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        metrics = {
            "cells_per_s": len(cal) / sum(cal),
            "cell_s_p50": statistics.median(cal),
            "cell_s_max": max(statistics.median(v)
                              for v in by_cell.values()),
            "setup_s": statistics.median(report["setup_samples_s"]),
            "peak_rss_mb": main["rss_mb"],
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    report.update(
        correct=failed == 0 and not problems, attempted=attempted,
        failed=failed, problems=problems,
        metrics={name: {"value": value, "unit": units[name]}
                 for name, value in metrics.items()},
        children=children)
    return report


def _print_report(report: dict[str, Any]) -> None:
    pinned = "pinned" if report["pinned"] else "unpinned: invariants only"
    print(f"{report['workload']}  seed {report['seed']} ({pinned})  cells"
          f" {report['cells']} x {report['passes']} passes ="
          f" {report['samples']} samples, {report['failed']} of"
          f" {report['attempted']} attempted failed")
    for problem in report["problems"][:20]:
        print(f"  FAILED {problem}")
    for name, metric in report["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  (raw {report['host_s']:.3f} host s, calibrated"
          f" {report['calibrated_s']:.3f} s, median ref_s"
          f" {report['ref_s_median']:.3g} vs nominal"
          f" {report['ref_nominal_s']:g})")
    if "trace_overhead" in report["metrics"]:
        print(f"  trace_overhead"
              f" {report['metrics']['trace_overhead']['value']:.3f}x;"
              f" self times sum to {report['self_s_sum']:.4f} s of"
              f" {report['traced_cell_s']:.4f} s traced cell time")
        for target in report["missing"]:
            print(f"  missing wrapper target (calls=0): {target}")


def pin() -> int:
    """Re-pin every cell of every workload at :data:`PIN_SEEDS`."""
    from benchmarks.e2e.child import EXPECTED_PATH
    from benchmarks.e2e.workloads import WORKLOADS
    expected: dict[str, dict[str, Any]] = {}
    for seed in PIN_SEEDS:
        for workload in WORKLOADS:
            out = _child("pin", workload, seed, timeout=PIN_TIMEOUT_S)
            if out["problems"]:
                print("\n".join(out["problems"]), file=sys.stderr)
                return 1
            expected.setdefault(str(seed), {})[workload] = out["cells"]
            print(f"pinned {len(out['cells'])} cells of {workload}"
                  f" at seed {seed}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1,
                                        sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", nargs="+", action="extend",
                        metavar="NAME", help="default: all four")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=HERE / "results")
    parser.add_argument("--quick", action="store_true",
                        help="one cell per workload, one pass")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"benchmarks.e2e: no program sources at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from benchmarks.e2e.workloads import WORKLOADS
    if args.pin:
        return pin()
    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from"
                     f" {list(WORKLOADS)}")
    args.out.mkdir(parents=True, exist_ok=True)
    spans: dict[str, Any] = {}
    all_correct = True
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds,
                                  trace=bool(args.trace), quick=args.quick)
        except BenchError as exc:
            print(f"benchmarks.e2e: {exc}", file=sys.stderr)
            return 1
        suffix = "-trace" if args.trace else ""
        if args.trace:
            spans[name] = {"seed": args.seed, "cells": report.pop("spans")}
        (args.out / f"{name}-seed{args.seed}{suffix}.json").write_text(
            json.dumps(report, indent=1) + "\n")
        _print_report(report)
        all_correct &= report["correct"]
        print(json.dumps({"correct": report["correct"],
                          "attempted": report["attempted"],
                          "failed": report["failed"],
                          "metrics": report["metrics"]}), flush=True)
    if args.trace:
        (args.out / "spans.json").write_text(json.dumps(spans) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
