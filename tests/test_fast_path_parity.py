"""BurstPlan fast path vs event loop: exact parity and refusal rules.

The session's fast path replays a pre-compiled :class:`BurstPlan` on a
flat clock instead of driving the discrete-event loop.  It is only a
performance shortcut, so for every figure scenario the fast-path result
must equal the event-loop result *field for field* (``RunResult`` is a
plain dataclass; ``==`` compares every float and dict exactly).

Fault schedules ride the plan too: faults act only on the disk and the
WNIC behind the router, which the plan does not freeze.  Every such
session must report ``used_fast_path`` and still match the event loop
field for field.  Every session here, on either path, also runs the
end-of-run audit and the router's per-extent service checks.
Write traces (fig1) ride the plan too: the cursor replays dirty pages
and laptop-mode flushes live.  The fast path stands down only where a
frozen plan cannot express the replay: two programs sharing the cache
(fig4).
"""

from __future__ import annotations

import pytest

from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import standard_policies
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.traces.synth import (
    generate_acroread_profile_run,
    generate_acroread_search_run,
    generate_grep_make,
    generate_grep_make_xmms,
    generate_mplayer,
    generate_thunderbird,
)

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5")


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def figure_setups(config):
    """fig id -> (programs factory, policy factories), mirroring golden."""
    seed = config.seed
    fig1 = generate_grep_make(seed)
    fig2 = generate_mplayer(seed)
    fig3 = generate_thunderbird(seed)
    fg4, bg4 = generate_grep_make_xmms(seed)
    search5 = generate_acroread_search_run(seed)
    stale5 = profile_from_trace(generate_acroread_profile_run(seed))
    return {
        "fig1": (lambda: [ProgramSpec(fig1)],
                 standard_policies(profile_from_trace(fig1), config)),
        "fig2": (lambda: [ProgramSpec(fig2)],
                 standard_policies(profile_from_trace(fig2), config)),
        "fig3": (lambda: [ProgramSpec(fig3)],
                 standard_policies(profile_from_trace(fig3), config)),
        "fig4": (lambda: [ProgramSpec(fg4),
                          ProgramSpec(bg4, profiled=False,
                                      disk_pinned=True)],
                 standard_policies(profile_from_trace(fg4), config,
                                   include_static=True)),
        "fig5": (lambda: [ProgramSpec(search5)],
                 standard_policies(stale5, config,
                                   include_static=True)),
    }


def _session(programs, factory, config, **kwargs):
    return SimulationSession(programs, factory(),
                             disk_spec=config.disk_spec,
                             wnic_spec=config.wnic_spec,
                             memory_bytes=config.memory_bytes,
                             seed=config.seed, **kwargs)


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_fast_path_matches_event_loop(fig_id, config, figure_setups):
    """Exact RunResult equality between the two replay paths."""
    programs, policies = figure_setups[fig_id]
    fast_engaged = []
    for name, factory in policies.items():
        fast = _session(programs(), factory, config)
        slow = _session(programs(), factory, config).with_fast_path(False)
        fast_result = fast.run()
        slow_result = slow.run()
        assert not slow.used_fast_path
        assert fast_result == slow_result, f"{fig_id}/{name} diverged"
        fast_engaged.append(fast.used_fast_path)
    if fig_id == "fig4":
        # fig4 interleaves two programs on the shared cache: residency
        # then depends on completion times, so it needs the live kernel.
        assert not any(fast_engaged)
    else:
        # Every single-program figure, fig1's writes included, must
        # exercise the shortcut.
        assert all(fast_engaged)


def _dirty_books(session):
    """The dirty-page counters a run leaves on its kernel surface."""
    stats = session.env.kernel.cache.stats
    writeback = session.env.kernel.writeback
    return (stats.dirtied, stats.dirty_evictions, writeback.flush_count,
            writeback.flushed_pages, writeback.dirty_count)


@pytest.mark.parametrize("policy_name", ["WNIC-only", "FlexFetch"])
@pytest.mark.parametrize("memory_mb", [1, 4])
def test_fig1_small_cache_parity(memory_mb, policy_name, config,
                                 figure_setups):
    """At the default 64 MB no write ever evicts a dirty page; small
    caches drive the cursor's dirty-eviction branch as well as its
    flushes, and both surfaces must agree on every dirty counter."""
    programs, policies = figure_setups["fig1"]
    factory = policies[policy_name]
    memory = memory_mb * 2**20

    def build():
        return SimulationSession(programs(), factory(),
                                 disk_spec=config.disk_spec,
                                 wnic_spec=config.wnic_spec,
                                 memory_bytes=memory, seed=config.seed)

    fast = build()
    slow = build().with_fast_path(False)
    assert fast.run() == slow.run()
    assert fast.used_fast_path and not slow.used_fast_path
    books = _dirty_books(fast)
    assert books == _dirty_books(slow)
    dirtied, dirty_evictions, _, flushed_pages, _ = books
    assert dirtied > 0 and dirty_evictions > 0 and flushed_pages > 0


#: One spec per fault process, then all three at once.
FAULT_SPECS = {
    "outage": FaultSpec(outage_rate=0.05),
    "rate-flap": FaultSpec(rate_flap_rate=0.02),
    "spinup": FaultSpec(spinup_fail_prob=0.3),
    "all": FaultSpec(outage_rate=0.05, rate_flap_rate=0.02,
                     spinup_fail_prob=0.3),
}

#: The single-program all-read figures: every cell rides the plan.
PLANNED_FIGURES = ("fig2", "fig3", "fig5")


def _assert_rides_plan(fig_id, config, figure_setups, *, faults=None):
    """Every policy of ``fig_id`` takes the fast path and matches its
    event-loop twin exactly.  ``faults`` is a :class:`FaultSpec`; each
    session gets its own schedule, since a run consumes its spin-up
    cursor."""
    programs, policies = figure_setups[fig_id]

    def build(factory):
        schedule = (FaultSchedule(faults, seed=config.seed)
                    if faults is not None else None)
        return _session(programs(), factory, config, faults=schedule)

    for name, factory in policies.items():
        fast = build(factory)
        slow = build(factory).with_fast_path(False)
        fast_result = fast.run()
        slow_result = slow.run()
        assert fast.used_fast_path, f"{fig_id}/{name} left the plan"
        assert not slow.used_fast_path
        assert fast_result == slow_result, f"{fig_id}/{name} diverged"


@pytest.mark.parametrize("fault_id", FAULT_SPECS)
@pytest.mark.parametrize("fig_id", PLANNED_FIGURES)
def test_faulted_session_rides_fast_path(fig_id, fault_id, config,
                                         figure_setups):
    """Faults act on the devices behind the router, not on the plan."""
    _assert_rides_plan(fig_id, config, figure_setups,
                       faults=FAULT_SPECS[fault_id])
