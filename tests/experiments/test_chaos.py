"""Chaos suite for the sweep orchestration layer.

Injects real failures — SIGKILLed workers, stalled cells, damaged cache
rows, a parent process killed mid-sweep — and proves the supervised
executor still produces grids bit-identical to a fault-free serial run.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.workload import ProgramSpec
from repro.experiments.cache import RunCache, RunCacheCorruptionWarning
from repro.experiments.config import ExperimentConfig
from repro.experiments.journal import SweepJournal, load_journal
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    failure_manifest,
    is_placeholder,
    placeholder_result,
)
from repro.experiments.runner import ProgramSet
from repro.experiments.supervisor import RetryPolicy
from repro.faults.chaos import CacheChaos, ChaosInjector, ChaosSpec
from repro.faults.schedule import FaultSpecError
from tests.conftest import make_trace

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Cheap backoff so chaos retries don't slow the suite down.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.01,
                         jitter_frac=0.0)


def small_trace():
    calls = [(1, i * 65536, 65536, "read", i * 1.5) for i in range(8)]
    return make_trace(calls, name="chaos", file_sizes={1: 8 * 65536})


def make_grid():
    """The 4-cell sweep every chaos scenario runs (2 policies x 2 specs)."""
    config = ExperimentConfig(seed=3,
                              latency_sweep=(0.0, 0.010),
                              bandwidth_sweep_bps=(11e6 / 8,))
    programs = ProgramSet((ProgramSpec(small_trace()),))
    factories = {"Disk-only": DiskOnlyPolicy, "WNIC-only": WnicOnlyPolicy}
    return programs, factories, config.latency_points(), config


@pytest.fixture(scope="module")
def golden():
    programs, factories, specs, config = make_grid()
    return ParallelSweepExecutor(1).run_sweep(programs, factories, specs,
                                              config)


def artifacts_dir(tmp_path):
    """Where chaos runs drop their manifests (CI uploads these)."""
    root = os.environ.get("CHAOS_ARTIFACTS_DIR")
    if root:
        path = Path(root)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path


class TestChaosSpec:
    def test_parse(self):
        spec = ChaosSpec.parse("kill-prob=0.5,hang-prob=0.25,"
                               "hang-seconds=2,max-hit-attempts=3")
        assert spec.kill_prob == 0.5
        assert spec.hang_prob == 0.25
        assert spec.hang_seconds == 2.0
        assert spec.max_hit_attempts == 3

    def test_parse_empty_is_inert(self):
        assert not ChaosSpec.parse("").enabled

    @pytest.mark.parametrize("text", [
        "bogus=1", "kill-prob", "kill-prob=fast",
    ])
    def test_parse_rejects_bad_input(self, text):
        with pytest.raises(FaultSpecError):
            ChaosSpec.parse(text)

    @pytest.mark.parametrize("kwargs", [
        {"kill_prob": 1.5},
        {"kill_prob": 0.6, "hang_prob": 0.6},
        {"corrupt_prob": 0.6, "truncate_prob": 0.6},
        {"hang_seconds": 0.0},
        {"max_hit_attempts": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(FaultSpecError):
            ChaosSpec(**kwargs)


class TestInjectorDecisions:
    def test_decisions_are_deterministic(self):
        spec = ChaosSpec(kill_prob=0.5, hang_prob=0.3)
        a = ChaosInjector(spec, seed=7)
        b = ChaosInjector(spec, seed=7)
        plans = [(a.action_for(i, 1), b.action_for(i, 1))
                 for i in range(50)]
        assert all(x == y for x, y in plans)
        assert {x for x, _ in plans} == {"kill", "hang", None}

    def test_attempts_above_cap_run_clean(self):
        injector = ChaosInjector(ChaosSpec(kill_prob=1.0), seed=7)
        assert injector.action_for(0, 1) == "kill"
        assert injector.action_for(0, 2) is None

    def test_cache_damage_actions(self, tmp_path):
        chaos = CacheChaos(ChaosSpec(corrupt_prob=1.0), seed=7)
        row = tmp_path / "row.json"
        row.write_text("{\"ok\": true}")
        assert chaos.damage(row, 0) == "corrupt"
        assert row.read_bytes().startswith(b"\x00chaos")
        assert chaos.injected["corrupt"] == 1

        trunc = CacheChaos(ChaosSpec(truncate_prob=1.0), seed=7)
        row.write_text("x" * 100)
        assert trunc.damage(row, 0) == "truncate"
        assert len(row.read_bytes()) == 50


class TestPlaceholders:
    def test_placeholder_is_detectable_and_inert(self):
        row = placeholder_result("Disk-only")
        assert is_placeholder(row)
        assert row.total_energy != row.total_energy   # NaN propagates

    def test_real_results_are_not_placeholders(self, golden):
        for curve in golden.values():
            assert not any(is_placeholder(p.result) for p in curve)


class TestKillChaos:
    def test_sigkilled_workers_leave_grid_golden(self, golden):
        programs, factories, specs, config = make_grid()
        executor = ParallelSweepExecutor(
            2, retry=FAST_RETRY, chaos=ChaosSpec(kill_prob=1.0))
        got = executor.run_sweep(programs, factories, specs, config)
        assert got == golden
        assert executor.retries["worker-died"] == 4
        assert executor.respawns >= 4

    def test_partial_kill_probability_still_golden(self, golden):
        programs, factories, specs, config = make_grid()
        executor = ParallelSweepExecutor(
            2, retry=FAST_RETRY, chaos=ChaosSpec(kill_prob=0.5))
        got = executor.run_sweep(programs, factories, specs, config)
        assert got == golden
        assert executor.retries["worker-died"] == \
            sum(1 for i in range(4)
                if ChaosInjector(ChaosSpec(kill_prob=0.5),
                                 config.seed).action_for(i, 1) == "kill")


class TestHangChaos:
    def test_hung_cells_time_out_and_grid_stays_golden(self, golden):
        programs, factories, specs, config = make_grid()
        executor = ParallelSweepExecutor(
            2, retry=FAST_RETRY, timeout=2.0,
            chaos=ChaosSpec(hang_prob=1.0, hang_seconds=30.0))
        got = executor.run_sweep(programs, factories, specs, config)
        assert got == golden
        assert executor.retries["timeout"] == 4
        assert executor.respawns >= 4


class TestCacheChaosSweep:
    def test_damaged_rows_are_detected_and_resimulated(self, tmp_path,
                                                       golden):
        programs, factories, specs, config = make_grid()
        # Every stored row is damaged (corrupt or truncated) after the
        # cold sweep persists it.
        cold = ParallelSweepExecutor(
            1, cache=RunCache(tmp_path),
            chaos=ChaosSpec(corrupt_prob=0.5, truncate_prob=0.5))
        assert cold.run_sweep(programs, factories, specs, config) == golden
        assert cold.cache_chaos is not None
        assert sum(cold.cache_chaos.injected.values()) == 4

        warm_cache = RunCache(tmp_path)
        warm = ParallelSweepExecutor(1, cache=warm_cache)
        with pytest.warns(RunCacheCorruptionWarning):
            got = warm.run_sweep(programs, factories, specs, config)
        assert got == golden
        assert warm_cache.corrupt_rows == 4
        assert warm.live_runs == 4 and warm.cache_hits == 0

        # The warm sweep re-wrote intact rows; a third pass hits them.
        third = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        assert third.run_sweep(programs, factories, specs,
                               config) == golden
        assert third.cache_hits == 4 and third.live_runs == 0

    def test_corruption_warning_fires_once_per_cache(self, tmp_path,
                                                     golden):
        import warnings as warnings_mod
        programs, factories, specs, config = make_grid()
        cold = ParallelSweepExecutor(
            1, cache=RunCache(tmp_path), chaos=ChaosSpec(corrupt_prob=1.0))
        cold.run_sweep(programs, factories, specs, config)
        warm = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            warm.run_sweep(programs, factories, specs, config)
        hits = [w for w in caught
                if issubclass(w.category, RunCacheCorruptionWarning)]
        assert len(hits) == 1   # once per cache instance, not per row


class TestPartialMode:
    def test_exhausted_cells_become_placeholders(self, tmp_path, golden):
        programs, factories, specs, config = make_grid()
        executor = ParallelSweepExecutor(
            2, partial=True,
            chaos=ChaosSpec(kill_prob=1.0, max_hit_attempts=9))
        got = executor.run_sweep(programs, factories, specs, config)
        assert len(executor.failures) == 4
        for curve in got.values():
            assert all(is_placeholder(p.result) for p in curve)
        # Grid shape survives: same curves, same sweep order.
        assert {name: [p.latency for p in points]
                for name, points in got.items()} == \
            {name: [p.latency for p in points]
             for name, points in golden.items()}

        manifest = failure_manifest(executor.failures)
        out = artifacts_dir(tmp_path) / "kill-all-manifest.json"
        out.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        assert manifest["version"] == 1
        assert manifest["failed_cells"] == 4
        for entry in manifest["failures"]:
            assert entry["attempts"][0]["reason"] == "worker-died"

    def test_partial_mode_keeps_healthy_cells(self):
        class Boom:
            def __call__(self):
                raise RuntimeError("boom in worker")

        programs, _, specs, config = make_grid()
        factories = {"Disk-only": DiskOnlyPolicy, "Boom": Boom()}
        executor = ParallelSweepExecutor(1, partial=True)
        got = executor.run_sweep(programs, factories, specs, config)
        assert [is_placeholder(p.result) for p in got["Boom"]] == \
            [True, True]
        assert not any(is_placeholder(p.result)
                       for p in got["Disk-only"])
        assert len(executor.failures) == 2
        assert "boom in worker" in \
            executor.failures[0].attempts[-1].traceback


class BoomPolicy:
    """A policy class whose construction always fails, so each of its
    cells fails permanently; as a class it still has a cache key."""

    def __init__(self):
        raise RuntimeError("boom in worker")


def end_record(path):
    """The last ``end`` record of a journal file."""
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    return [r for r in records if r["kind"] == "end"][-1]


class TestEndRecord:
    """The executor's own ``end`` record counts each cell once, whether
    it came from the journal, the cache, a live run or a placeholder."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_failing_cell_ends_with_cells_minus_one(self, tmp_path,
                                                        workers):
        programs, _, specs, config = make_grid()
        factories = {"Disk-only": DiskOnlyPolicy,
                     "WNIC-only": WnicOnlyPolicy, "Boom": BoomPolicy}
        specs = specs[:1]
        cells = len(factories) * len(specs)

        def sweep(journal_path, **kwargs):
            executor = ParallelSweepExecutor(
                workers, partial=True, journal=SweepJournal(journal_path),
                cache=RunCache(tmp_path / "cache"), **kwargs)
            got = executor.run_sweep(programs, factories, specs, config)
            executor.journal.close()
            assert is_placeholder(got["Boom"][0].result)
            assert len(executor.failures) == 1
            assert end_record(journal_path) == {
                "kind": "end", "completed": cells - 1, "failed": 1}
            return executor

        live = sweep(tmp_path / "live.jsonl")
        assert live.live_runs == cells - 1
        resumed = sweep(tmp_path / "live.jsonl")
        assert resumed.journal_hits == cells - 1
        warm = sweep(tmp_path / "warm.jsonl")
        assert warm.cache_hits == cells - 1


_CHILD_SCRIPT = textwrap.dedent("""\
    import os, signal, sys

    from repro.experiments.journal import SweepJournal
    from repro.experiments.parallel import ParallelSweepExecutor
    from tests.experiments.test_chaos import make_grid

    programs, factories, specs, config = make_grid()
    completions = 0

    def progress(line):
        global completions
        completions += 1
        if completions == 2:
            # Die the hard way, mid-sweep, with the journal file open.
            os.kill(os.getpid(), signal.SIGKILL)

    executor = ParallelSweepExecutor(
        1, journal=SweepJournal(sys.argv[1]))
    executor.run_sweep(programs, factories, specs, config,
                       progress=progress)
""")


class TestParentKillAndResume:
    def test_resume_after_parent_sigkill_reproduces_golden(self, tmp_path,
                                                           golden):
        journal_path = tmp_path / "interrupted.jsonl"
        script = tmp_path / "killed_sweep.py"
        script.write_text(_CHILD_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)])
        proc = subprocess.run(
            [sys.executable, str(script), str(journal_path)],
            cwd=REPO_ROOT, env=env, capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        replay = load_journal(journal_path)
        completed = len(replay.completed)
        assert completed >= 2   # both acknowledged cells survived fsync

        programs, factories, specs, config = make_grid()
        resumed = ParallelSweepExecutor(
            1, journal=SweepJournal(journal_path))
        got = resumed.run_sweep(programs, factories, specs, config)
        resumed.journal.close()
        assert got == golden
        assert resumed.journal_hits == completed
        assert resumed.live_runs == 4 - completed
