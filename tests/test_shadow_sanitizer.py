"""Shadow-execution sanitizer (``repro.core.shadow``).

Three layers of proof:

* **property**: across perturbed Table-3 scenarios (memory size, seed,
  think-time scale) the sanitizer finds zero divergences — the fast
  path really is bit-identical to the event loop, not just on the
  golden grid, and a write trace's cell shadow-diffs clean;
* **detection**: a deliberately broken fast-path kernel (the plan
  cursor lies about residency) raises ``ReplayDivergenceError`` that
  pinpoints the first diverging stage, record and field;
* **plumbing**: ``run_point(sanitize=True)`` returns bit-identical
  results, skips the twin for multi-program cells, hands a faulted
  cell's twin a rewound fault schedule, and the bit comparison itself
  distinguishes what ``==`` cannot.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.shadow as shadow_mod
import repro.sim.plan as plan_mod
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.shadow import (
    ReplayDivergenceError,
    _bit_equal,
    compare_runs,
    run_shadowed,
)
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import standard_policies
from repro.experiments.runner import run_point
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.traces.synth import (
    generate_grep_make,
    generate_grep_make_xmms,
    generate_thunderbird,
)
from repro.traces.trace import Trace
from repro.sim.clock import MB


def _scaled(trace: Trace, scale: float) -> Trace:
    """Stretch/compress every think gap by ``scale`` (> 0 preserves
    record ordering, so the trace stays valid)."""
    records = [replace(r, timestamp=r.timestamp * scale,
                       duration=r.duration * scale)
               for r in trace.records]
    return Trace(f"{trace.name}-x{scale}", records, trace.files)


def _setup(seed: int, think_scale: float):
    config = ExperimentConfig()
    trace = _scaled(generate_thunderbird(seed), think_scale)
    policies = standard_policies(profile_from_trace(trace), config)
    return config, trace, policies


def _session(trace, policy, config, memory_bytes, **kwargs):
    return SimulationSession([ProgramSpec(trace)], policy,
                             disk_spec=config.disk_spec,
                             wnic_spec=config.wnic_spec,
                             memory_bytes=memory_bytes,
                             seed=config.seed, **kwargs)


class TestShadowParity:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(memory_mb=st.sampled_from([16, 32, 64, 128]),
           seed=st.integers(min_value=0, max_value=7),
           think_scale=st.sampled_from([0.5, 1.0, 2.0]),
           policy_index=st.integers(min_value=0, max_value=3))
    def test_zero_divergences_on_perturbed_scenarios(
            self, memory_mb, seed, think_scale, policy_index):
        config, trace, policies = _setup(seed, think_scale)
        name = sorted(policies)[policy_index % len(policies)]
        factory = policies[name]
        memory = memory_mb * MB
        session = _session(trace, factory(), config, memory)
        result = run_shadowed(
            session,
            lambda: _session(trace, factory(), config, memory))
        assert session.used_fast_path, (
            "perturbed scenario unexpectedly fell off the fast path")
        assert math.isfinite(result.end_time)

    def test_all_standard_policies_shadow_clean(self):
        config, trace, policies = _setup(0, 1.0)
        for factory in policies.values():
            session = _session(trace, factory(), config,
                               config.memory_bytes)
            run_shadowed(
                session,
                lambda f=factory: _session(trace, f(), config,
                                           config.memory_bytes))
            assert session.used_fast_path


class TestDivergenceDetection:
    def test_broken_kernel_is_localised(self, monkeypatch):
        """A plan cursor that claims everything is resident flips
        FlexFetch's first routing decision; the sanitizer must name
        the stage (service), the record (0) and the field (source)."""
        config, trace, policies = _setup(0, 1.0)
        factory = policies["FlexFetch"]
        monkeypatch.setattr(
            plan_mod.PlanCursor, "resident_bytes",
            lambda self, inode, offset, size: size)
        # Claiming everything resident, it names every inode as held.
        monkeypatch.setattr(
            plan_mod.PlanCursor, "resident_inodes",
            lambda self: frozenset(self.plan.layout.files))
        session = _session(trace, factory(), config,
                           config.memory_bytes)
        with pytest.raises(ReplayDivergenceError) as excinfo:
            run_shadowed(
                session,
                lambda: _session(trace, factory(), config,
                                 config.memory_bytes))
        err = excinfo.value
        assert err.stage == "service"
        assert err.index == 0
        assert err.field == "source"
        assert err.fast != err.slow
        # both cost breakdowns travel with the error for post-mortem
        assert err.fast_breakdown and err.slow_breakdown
        assert any(k.startswith("disk.") for k in err.fast_breakdown)
        assert str(err.index) in str(err) or "[0]" in str(err)

    def test_unbroken_kernel_raises_nothing(self):
        config, trace, policies = _setup(0, 1.0)
        factory = policies["FlexFetch"]
        session = _session(trace, factory(), config,
                           config.memory_bytes)
        run_shadowed(
            session,
            lambda: _session(trace, factory(), config,
                             config.memory_bytes))
        assert session.used_fast_path


class TestPlumbing:
    def test_run_point_sanitized_is_bit_identical(self):
        config, trace, policies = _setup(0, 1.0)
        factory = policies["FlexFetch"]
        programs = lambda: [ProgramSpec(trace)]  # noqa: E731
        plain = run_point(programs, factory, config.wnic_spec, config,
                          sanitize=False)
        sanitized = run_point(programs, factory, config.wnic_spec,
                              config, sanitize=True)
        assert sanitized.result == plain.result

    def test_event_loop_cells_skip_the_twin(self):
        """A fig4 cell (grep+make beside disk-pinned xmms) interleaves
        two programs on the live kernel path; the sanitizer must not
        build (or run) a shadow twin for it."""
        config = ExperimentConfig()
        fg, bg = generate_grep_make_xmms(config.seed)
        factory = standard_policies(profile_from_trace(fg),
                                    config)["FlexFetch"]
        session = SimulationSession(
            [ProgramSpec(fg),
             ProgramSpec(bg, profiled=False, disk_pinned=True)],
            factory(), disk_spec=config.disk_spec,
            wnic_spec=config.wnic_spec, memory_bytes=config.memory_bytes,
            seed=config.seed)

        def explode() -> SimulationSession:
            raise AssertionError("twin built for an event-loop cell")

        result = run_shadowed(session, explode)
        assert not session.used_fast_path
        assert math.isfinite(result.end_time)

    def test_write_cells_shadow_clean(self):
        """A fig1 cell (grep+make writes) rides the plan, so the
        sanitizer replays its twin on the live kernel and diffs it."""
        config = ExperimentConfig()
        trace = generate_grep_make(config.seed)
        factory = standard_policies(profile_from_trace(trace),
                                    config)["FlexFetch"]
        session = _session(trace, factory(), config, config.memory_bytes)
        result = run_shadowed(
            session,
            lambda: _session(trace, factory(), config,
                             config.memory_bytes))
        assert session.used_fast_path
        assert math.isfinite(result.end_time)

    def test_faulted_twin_replays_the_same_spinup_failures(
            self, monkeypatch):
        """The primary consumes its schedule's spin-up cursor, so the
        twin must get a rewound copy: otherwise its disk never fails a
        spin-up and the diff reports a divergence that is not there."""
        config, trace, policies = _setup(7, 1.0)
        compared = []
        real_compare = shadow_mod.compare_runs

        def counting_compare(*args):
            compared.append(args)
            real_compare(*args)

        monkeypatch.setattr(shadow_mod, "compare_runs", counting_compare)
        point = run_point(
            lambda: [ProgramSpec(trace)], policies["Disk-only"],
            config.wnic_spec, config,
            faults=FaultSchedule(FaultSpec(spinup_fail_prob=0.3),
                                 seed=config.seed),
            sanitize=True)
        assert len(compared) == 1   # fast path taken, twin diffed
        assert point.result.disk_breakdown["disk.spinup-failed"] > 0

    def test_bit_equal_is_stricter_than_eq(self):
        assert _bit_equal(float("nan"), float("nan"))
        assert not _bit_equal(0.0, -0.0)
        assert _bit_equal({"a": [1.0, 2.0]}, {"a": [1.0, 2.0]})
        assert not _bit_equal({"a": 1.0}, {"b": 1.0})

    def test_compare_runs_flags_result_fields(self):
        config, trace, policies = _setup(0, 1.0)
        factory = policies["FlexFetch"]
        a = _session(trace, factory(), config,
                     config.memory_bytes).run()
        b = _session(trace, factory(), config,
                     config.memory_bytes).run()
        compare_runs(a, b)  # identical: no raise
        skewed = replace(b, disk_energy=b.disk_energy + 1e-9)
        with pytest.raises(ReplayDivergenceError) as excinfo:
            compare_runs(a, skewed)
        assert excinfo.value.stage == "result"
        assert excinfo.value.field == "disk_energy"
        assert excinfo.value.index == -1
