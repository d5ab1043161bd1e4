"""Streaming sweep aggregation: constant-space folds match materialised
results bit-for-bit, serial and parallel."""

import math

import pytest

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ParallelSweepExecutor, _PointStore
from repro.experiments.runner import (
    ProgramSet,
    SweepAggregate,
    SweepPoint,
    run_sweep,
)
from repro.experiments.supervisor import RetryPolicy
from tests.conftest import make_trace


def small_trace():
    calls = [(1, i * 65536, 65536, "read", i * 1.5) for i in range(8)]
    return make_trace(calls, name="stream", file_sizes={1: 8 * 65536})


class BoomFactory:
    """Module-level (hence picklable) policy factory that always fails."""

    def __call__(self):
        raise RuntimeError("boom in worker")


@pytest.fixture
def config():
    return ExperimentConfig(seed=3,
                            latency_sweep=(0.0, 0.010, 0.025),
                            bandwidth_sweep_bps=(11e6 / 8,))


@pytest.fixture
def programs():
    return ProgramSet((ProgramSpec(small_trace()).prepared(),))


FACTS = {"Disk-only": DiskOnlyPolicy, "WNIC-only": WnicOnlyPolicy}


class TestSweepAggregate:
    def test_streamed_serial_matches_materialised_fold(self, config,
                                                       programs):
        specs = config.latency_points()
        curves = run_sweep(programs, FACTS, specs, config)
        streamed = run_sweep(programs, FACTS, specs, config, stream=True)
        assert isinstance(streamed, SweepAggregate)
        assert streamed.cells == len(FACTS) * len(specs)
        assert streamed.failed == 0
        assert streamed.as_dict() == \
            SweepAggregate.from_curves(curves).as_dict()

    def test_streamed_parallel_matches_streamed_serial(self, config,
                                                       programs):
        specs = config.latency_points()
        serial = run_sweep(programs, FACTS, specs, config, stream=True)
        parallel = run_sweep(programs, FACTS, specs, config, stream=True,
                             workers=2)
        assert parallel.as_dict() == serial.as_dict()

    def test_placeholders_counted_failed_not_folded(self, config,
                                                    programs):
        executor = ParallelSweepExecutor(
            1, retry=RetryPolicy(max_retries=0), partial=True)
        aggregate = SweepAggregate(("Disk-only", "Boom"))
        facts = {"Disk-only": DiskOnlyPolicy, "Boom": BoomFactory()}
        specs = config.latency_points()
        executor.run_sweep(programs, facts, specs, config,
                           consumer=aggregate.observe)
        boom = aggregate.curves["Boom"]
        assert boom.cells == len(specs)
        assert boom.failed == len(specs)
        assert boom.energy.count == 0
        good = aggregate.curves["Disk-only"]
        assert good.failed == 0
        assert good.energy.count == len(specs)
        assert not math.isnan(good.energy.mean)

    def test_executor_returns_empty_curves_when_streaming(self, config,
                                                          programs):
        executor = ParallelSweepExecutor(1)
        aggregate = SweepAggregate(FACTS)
        curves = executor.run_sweep(programs, FACTS,
                                    config.latency_points(), config,
                                    consumer=aggregate.observe)
        assert all(points == [] for points in curves.values())
        assert aggregate.cells == len(FACTS) * len(config.latency_points())


class TestPointStore:
    def _point(self, name):
        nan = float("nan")
        from repro.experiments.parallel import placeholder_result
        return SweepPoint(policy=name, latency=nan, bandwidth_bps=nan,
                          result=placeholder_result(name))

    def test_out_of_order_adds_flush_in_sweep_order(self):
        delivered = []
        store = _PointStore(lambda i, curve, p: delivered.append(i))
        store.add(2, "c", self._point("c"))
        store.add(0, "a", self._point("a"))
        assert delivered == [0]          # 1 still missing, 2 buffered
        store.add(1, "b", self._point("b"))
        assert delivered == [0, 1, 2]
        assert store.held == 0           # nothing retained after flush
        assert store.added == 3

    def test_materialised_mode_retains_points(self):
        store = _PointStore(None)
        point = self._point("a")
        store.add(0, "a", point)
        assert store.get(0) is point
        assert store.held == 1

    def test_streamed_sweep_retains_no_points(self, config, programs):
        executor = ParallelSweepExecutor(2)
        seen = []
        real_add = _PointStore.add

        stores = []
        orig_init = _PointStore.__init__

        def spy_init(self, consumer=None):
            orig_init(self, consumer)
            stores.append(self)

        _PointStore.__init__ = spy_init
        try:
            executor.run_sweep(programs, FACTS, config.latency_points(),
                               config,
                               consumer=lambda i, c, p: seen.append(i))
        finally:
            _PointStore.__init__ = orig_init
        assert seen == sorted(seen)
        assert len(seen) == len(FACTS) * len(config.latency_points())
        assert all(store.held == 0 for store in stores)
        assert real_add is _PointStore.add
