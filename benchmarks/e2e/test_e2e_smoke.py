"""Smoke test of the end-to-end benchmark in its ``--quick`` mode.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

``--quick`` runs one cell per workload in one pass, so the whole file
takes about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(out, *args: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--quick",
         "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


@pytest.fixture(scope="module", params=[7, 11], ids=["seed7", "seed11"])
def untraced(request, tmp_path_factory):
    return _bench(tmp_path_factory.mktemp("untraced"),
                  "--seed", str(request.param))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, _bench(out, "--seed", "7", "--trace")


def _assert_declared(results: list[dict], declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert metric["unit"] == units[name], name
            assert isinstance(metric["value"], (int, float)), name


def test_untraced_metrics_are_declared(untraced):
    _assert_declared(untraced, BENCHMARK["end_to_end"])


def test_traced_metrics_are_declared(traced):
    _assert_declared(traced[1], BENCHMARK["per_layer"])


def test_no_cell_fails_at_pinned_seeds(untraced):
    for result in untraced:
        assert result["correct"], result
        assert result["attempted"] >= 1
        assert result["failed"] == 0


def test_self_times_sum_to_traced_cell_time(traced):
    out, results = traced
    assert all(result["correct"] for result in results)
    for workload in WORKLOADS:
        report = json.loads((out / f"{workload}-seed7-trace.json")
                            .read_text())
        assert report["self_s_sum"] == pytest.approx(
            report["traced_cell_s"], rel=0.02), workload
    spans = json.loads((out / "spans.json").read_text())
    assert set(spans) == set(WORKLOADS)


def test_missing_wrapper_target_reports_zero_calls():
    # A span whose class and module are both gone, as after a change
    # that deletes a layer: the traced run still completes.
    script = (
        "import json, sys\n"
        "sys.path.insert(0, 'src')\n"
        "from benchmarks.e2e import child, tracing\n"
        "tracing.SPANS['gone.run'] = ('repro.sim.engine:GoneLoop.run',"
        " 'repro.gone:run')\n"
        "out = child.run('trace', 'reads-fastpath', 7, 0.0, True)\n"
        "print(json.dumps(out['trace']))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          check=False)
    assert proc.returncode == 0, proc.stderr[-3000:]
    trace = json.loads(proc.stdout.splitlines()[-1])
    assert trace["calls"]["gone.run"] == 0
    assert trace["self_s"]["gone.run"] == 0.0
    assert {"repro.sim.engine:GoneLoop.run",
            "repro.gone:run"} <= set(trace["missing"])
    assert trace["calls"]["plan.read"] > 0
