"""Determinism and failure-path tests for the parallel sweep executor."""

import pytest

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.workload import ProgramSpec
from repro.experiments.cache import RunCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FlexFetchFactory
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    SweepCellError,
    SweepJob,
    _execute_job,
)
from repro.experiments.runner import ProgramSet
from repro.faults.schedule import FaultSpec
from repro.sim import plan as plan_mod
from repro.sim.plan import BurstPlan
from tests.conftest import make_trace


def small_trace():
    calls = [(1, i * 65536, 65536, "read", i * 1.5) for i in range(8)]
    return make_trace(calls, name="par", file_sizes={1: 8 * 65536})


class BoomFactory:
    """Module-level (hence picklable) policy factory that always fails."""

    def __call__(self):
        raise RuntimeError("boom in worker")


@pytest.fixture
def config():
    return ExperimentConfig(seed=3,
                            latency_sweep=(0.0, 0.010),
                            bandwidth_sweep_bps=(11e6 / 8,))


@pytest.fixture
def programs():
    return ProgramSet((ProgramSpec(small_trace()),))


def policies(trace):
    profile = profile_from_trace(trace)
    return {
        "Disk-only": DiskOnlyPolicy,
        "WNIC-only": WnicOnlyPolicy,
        "FlexFetch": FlexFetchFactory(profile=profile, loss_rate=0.25,
                                      stage_length=40.0),
    }


class TestBitIdenticalToSerial:
    def test_workers4_matches_workers1(self, config, programs):
        facts = policies(programs.specs[0].trace)
        specs = config.latency_points()
        serial = ParallelSweepExecutor(1).run_sweep(
            programs, facts, specs, config)
        parallel = ParallelSweepExecutor(4).run_sweep(
            programs, facts, specs, config)
        assert list(serial) == list(parallel)   # curve order
        for name in serial:
            assert len(serial[name]) == len(specs)
            for a, b in zip(serial[name], parallel[name]):
                assert a.latency == b.latency   # sweep order preserved
                assert a.result == b.result     # exact, field by field
                assert a.energy == b.energy
                assert a.time == b.time


class TestProgressMarshalling:
    def test_one_line_per_cell_in_parent(self, config, programs):
        facts = policies(programs.specs[0].trace)
        specs = config.latency_points()
        lines: list[str] = []
        ParallelSweepExecutor(2).run_sweep(
            programs, facts, specs, config, progress=lines.append)
        assert len(lines) == len(facts) * len(specs)
        for name in facts:
            assert sum(name in line for line in lines) == len(specs)


class TestWorkerFailure:
    def test_failed_cell_raises_after_others_complete(self, config,
                                                      programs):
        facts = {"Disk-only": DiskOnlyPolicy,
                 "Boom": BoomFactory(),
                 "WNIC-only": WnicOnlyPolicy}
        executor = ParallelSweepExecutor(2)
        with pytest.raises(SweepCellError) as info:
            executor.run_sweep(programs, facts, config.latency_points(),
                               config)
        assert info.value.curve == "Boom"
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "boom in worker" in str(info.value.__cause__)
        # The healthy cells were not abandoned: 2 policies x 2 points.
        assert executor.live_runs == 4

    def test_serial_path_same_semantics(self, config, programs):
        executor = ParallelSweepExecutor(1)
        with pytest.raises(SweepCellError) as info:
            executor.run_sweep(
                programs, {"Boom": BoomFactory(),
                           "Disk-only": DiskOnlyPolicy},
                [config.wnic_spec], config)
        assert info.value.curve == "Boom"
        assert executor.live_runs == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelSweepExecutor(0)


class TestJobExecution:
    def test_execute_job_matches_direct_run(self, config, programs):
        job = SweepJob(index=0, curve="Disk-only",
                       programs=(programs.specs[0].prepared(),),
                       policy_factory=DiskOnlyPolicy,
                       wnic_spec=config.wnic_spec, config=config)
        direct = ParallelSweepExecutor(1).run_sweep(
            programs, {"Disk-only": DiskOnlyPolicy},
            [config.wnic_spec], config)
        assert _execute_job(job).result == direct["Disk-only"][0].result


class TestInheritedJobs:
    def test_pool_runs_unpicklable_factories(self, config, programs):
        """Workers inherit the job table at fork, so a lambda — which
        cannot be pickled — reaches them intact."""
        profile = profile_from_trace(programs.specs[0].trace)
        facts = {
            "Disk-only": lambda: DiskOnlyPolicy(),
            "FlexFetch": lambda: FlexFetchFactory(
                profile=profile, loss_rate=0.25, stage_length=40.0)(),
        }
        specs = config.latency_points()
        serial = ParallelSweepExecutor(1).run_sweep(
            lambda: list(programs.specs), facts, specs, config)
        pooled = ParallelSweepExecutor(2).run_sweep(
            lambda: list(programs.specs), facts, specs, config)
        assert pooled == serial

    def test_faulted_sweep_plans_in_the_parent(self, config, programs,
                                              monkeypatch):
        """Faulted single-program cells ride the BurstPlan, so the
        sweep builds it in the parent before any cell runs, where
        forked workers inherit it."""
        monkeypatch.setattr(plan_mod, "_PLAN_MEMO", {})
        spec = programs.specs[0].prepared()
        key = (spec.compiled.digest, int(config.memory_bytes),
               int(config.seed))
        seen = []

        def observing_policy():
            seen.append(plan_mod._PLAN_MEMO.get(key))
            return DiskOnlyPolicy()

        ParallelSweepExecutor(1).run_sweep(
            ProgramSet((spec,)), {"Disk-only": observing_policy},
            [config.wnic_spec], config,
            faults=FaultSpec(spinup_fail_prob=0.3))
        assert len(seen) == 1 and isinstance(seen[0], BurstPlan)
        assert plan_mod._PLAN_MEMO[key] is seen[0]


class TestParallelWithCache:
    def test_parallel_cold_then_warm(self, tmp_path, config, programs):
        facts = policies(programs.specs[0].trace)
        specs = config.latency_points()
        cold = ParallelSweepExecutor(2, cache=RunCache(tmp_path))
        first = cold.run_sweep(programs, facts, specs, config)
        assert cold.live_runs == len(facts) * len(specs)
        assert cold.cache_hits == 0
        warm = ParallelSweepExecutor(2, cache=RunCache(tmp_path))
        second = warm.run_sweep(programs, facts, specs, config)
        assert warm.live_runs == 0
        assert warm.cache_hits == len(facts) * len(specs)
        assert second == first

    def test_mixed_hit_miss_grid(self, tmp_path, config, programs):
        """A grid partially covered by the cache fills in the holes."""
        specs = config.latency_points()
        half = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        half.run_sweep(programs, {"Disk-only": DiskOnlyPolicy},
                       [specs[0]], config)
        mixed = ParallelSweepExecutor(2, cache=RunCache(tmp_path))
        curves = mixed.run_sweep(programs,
                                 {"Disk-only": DiskOnlyPolicy}, specs,
                                 config)
        assert mixed.cache_hits == 1
        assert mixed.live_runs == len(specs) - 1
        assert [p.latency for p in curves["Disk-only"]] == \
            [s.latency for s in specs]


class TestWorkerClamp:
    """workers > pending cells must not spawn idle processes."""

    def test_pool_clamped_to_pending_cells(self, config, programs):
        lines = []
        executor = ParallelSweepExecutor(8)
        specs = config.latency_points()          # 2 points x 1 policy
        executor.run_sweep(programs, {"Disk-only": DiskOnlyPolicy},
                           specs, config, progress=lines.append)
        assert any("clamped 8 -> 2" in line for line in lines)

    def test_single_pending_cell_falls_back_to_serial(self, config,
                                                      programs):
        lines = []
        executor = ParallelSweepExecutor(4)
        executor.run_sweep(programs, {"Disk-only": DiskOnlyPolicy},
                           [config.wnic_spec], config,
                           progress=lines.append)
        assert any("running serially" in line for line in lines)
        assert executor.live_runs == 1

    def test_clamped_run_is_bit_identical_to_serial(self, config,
                                                    programs):
        facts = policies(programs.specs[0].trace)
        serial = ParallelSweepExecutor(1).run_sweep(
            programs, facts, [config.wnic_spec], config)
        clamped = ParallelSweepExecutor(16).run_sweep(
            programs, facts, [config.wnic_spec], config)
        assert clamped == serial
