"""Paper-shape integration tests (§3.3).

These replay the five evaluation scenarios at representative link
settings and assert the *qualitative* results the paper reports:
orderings, crossovers, and adaptation wins.  They are the contract the
benchmark figures are expected to satisfy in full.

Each scenario's results are computed once per session (they take a few
seconds each) and shared across assertions.
"""

import pytest

from repro.core.bluefs import BlueFSPolicy
from repro.core.flexfetch import FlexFetchConfig, FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.devices.specs import AIRONET_350
from repro.sim.clock import Mbps
from repro.traces.synth import (
    generate_acroread_profile_run,
    generate_acroread_search_run,
    generate_grep_make,
    generate_grep_make_xmms,
    generate_mplayer,
    generate_thunderbird,
)

SEED = 7


def run(trace_or_programs, policy, *, latency=1e-3, bandwidth_mbps=11.0):
    wnic = AIRONET_350.with_link(latency=latency,
                                 bandwidth_bps=Mbps(bandwidth_mbps))
    programs = (trace_or_programs
                if isinstance(trace_or_programs, list)
                else [ProgramSpec(trace_or_programs)])
    return SimulationSession(programs, policy, wnic_spec=wnic,
                             seed=SEED).run()


# ----------------------------------------------------------------------
# Figure 1 — grep+make
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig1():
    trace = generate_grep_make(SEED)
    profile = profile_from_trace(trace)
    out = {}
    for latency in (0.0, 0.040):
        out[latency] = {
            "disk": run(trace, DiskOnlyPolicy(), latency=latency),
            "wnic": run(trace, WnicOnlyPolicy(), latency=latency),
            "bluefs": run(trace, BlueFSPolicy(), latency=latency),
            "ff": run(trace, FlexFetchPolicy(profile), latency=latency),
        }
    return out


class TestFigure1:
    def test_zero_latency_ordering(self, fig1):
        """Paper: FlexFetch < WNIC-only < Disk-only < BlueFS at 0 ms."""
        r = fig1[0.0]
        assert r["ff"].total_energy < r["wnic"].total_energy
        assert r["wnic"].total_energy < r["disk"].total_energy
        assert r["bluefs"].total_energy >= r["disk"].total_energy * 0.97

    def test_wnic_crosses_disk_with_latency(self, fig1):
        """Paper: WNIC-only increases with latency and exceeds
        Disk-only (in our traces the crossover sits near 35 ms; see
        EXPERIMENTS.md)."""
        assert fig1[0.040]["wnic"].total_energy > \
            fig1[0.040]["disk"].total_energy

    def test_flexfetch_approaches_disk_at_high_latency(self, fig1):
        """Paper: FlexFetch's curve gets 'increasingly close' to
        Disk-only as latency rises."""
        gap_low = fig1[0.0]["disk"].total_energy \
            - fig1[0.0]["ff"].total_energy
        gap_high = fig1[0.040]["disk"].total_energy \
            - fig1[0.040]["ff"].total_energy
        assert gap_high < gap_low
        assert fig1[0.040]["ff"].total_energy <= \
            fig1[0.040]["disk"].total_energy * 1.02

    def test_flexfetch_always_at_or_near_best(self, fig1):
        for latency, r in fig1.items():
            best = min(r["disk"].total_energy, r["wnic"].total_energy)
            assert r["ff"].total_energy <= best * 1.05, latency


# ----------------------------------------------------------------------
# Figure 2 — mplayer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig2():
    trace = generate_mplayer(SEED)
    profile = profile_from_trace(trace)
    out = {"lat": {}, "bw": {}}
    out["lat"][1e-3] = {
        "disk": run(trace, DiskOnlyPolicy()),
        "wnic": run(trace, WnicOnlyPolicy()),
        "bluefs": run(trace, BlueFSPolicy()),
        "ff": run(trace, FlexFetchPolicy(profile)),
    }
    for bw in (1.0, 11.0):
        out["bw"][bw] = {
            "disk": run(trace, DiskOnlyPolicy(), bandwidth_mbps=bw),
            "wnic": run(trace, WnicOnlyPolicy(), bandwidth_mbps=bw),
            "ff": run(trace, FlexFetchPolicy(profile),
                      bandwidth_mbps=bw),
        }
    return out


class TestFigure2:
    def test_flexfetch_tracks_wnic_only(self, fig2):
        """Paper: 'the energy consumption for FlexFetch is almost the
        same as that for WNIC-only'."""
        r = fig2["lat"][1e-3]
        assert r["ff"].total_energy == pytest.approx(
            r["wnic"].total_energy, rel=0.05)

    def test_wnic_halves_disk_energy(self, fig2):
        r = fig2["lat"][1e-3]
        assert r["wnic"].total_energy < r["disk"].total_energy * 0.7

    def test_bluefs_above_disk_only(self, fig2):
        """Paper: 'its energy consumption is even higher than
        Disk-only'."""
        r = fig2["lat"][1e-3]
        assert r["bluefs"].total_energy > r["disk"].total_energy

    def test_low_bandwidth_switches_to_disk(self, fig2):
        """Paper: below 2 Mbps FlexFetch switches to the disk and saves
        'up to 45%' against WNIC-only."""
        r = fig2["bw"][1.0]
        assert r["ff"].total_energy == pytest.approx(
            r["disk"].total_energy, rel=0.05)
        assert r["ff"].total_energy < r["wnic"].total_energy * 0.65

    def test_high_bandwidth_stays_on_network(self, fig2):
        r = fig2["bw"][11.0]
        assert r["ff"].total_energy == pytest.approx(
            r["wnic"].total_energy, rel=0.05)


# ----------------------------------------------------------------------
# Figure 3 — thunderbird
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig3():
    trace = generate_thunderbird(SEED)
    profile = profile_from_trace(trace)
    out = {}
    for latency in (1e-3, 0.020):
        out[latency] = {
            "disk": run(trace, DiskOnlyPolicy(), latency=latency),
            "wnic": run(trace, WnicOnlyPolicy(), latency=latency),
            "bluefs": run(trace, BlueFSPolicy(), latency=latency),
            "ff": run(trace, FlexFetchPolicy(profile), latency=latency),
        }
    return out


class TestFigure3:
    def test_flexfetch_beats_bluefs(self, fig3):
        """Paper: 'FlexFetch consumes 17% less energy than BlueFS for
        most of WNIC latencies we examined'."""
        for latency, r in fig3.items():
            assert r["ff"].total_energy < r["bluefs"].total_energy * 0.95

    def test_wnic_crosses_disk_at_high_latency(self, fig3):
        """Paper: 'for WNIC with latency over 15 msec, WNIC-only
        consumes even more energy than Disk-only'."""
        low = fig3[1e-3]
        high = fig3[0.020]
        assert low["wnic"].total_energy < low["disk"].total_energy
        assert high["wnic"].total_energy > high["disk"].total_energy

    def test_flexfetch_latency_insensitive(self, fig3):
        """Paper: FlexFetch and BlueFS barely move with latency (small
        WNIC share)."""
        a = fig3[1e-3]["ff"].total_energy
        b = fig3[0.020]["ff"].total_energy
        assert abs(a - b) / a < 0.15


# ----------------------------------------------------------------------
# Figure 4 — forced spin-up
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig4():
    fg, bg = generate_grep_make_xmms(SEED)
    profile = profile_from_trace(fg)

    def programs():
        return [ProgramSpec(fg),
                ProgramSpec(bg, profiled=False, disk_pinned=True)]

    return {
        "disk": run(programs(), DiskOnlyPolicy()),
        "static": run(programs(), FlexFetchPolicy(
            profile, FlexFetchConfig(adaptive=False))),
        "ff": run(programs(), FlexFetchPolicy(profile)),
    }


class TestFigure4:
    def test_adaptive_beats_static(self, fig4):
        """Paper: 'FlexFetch substantially avoids the high energy cost
        with FlexFetch-static'."""
        assert fig4["ff"].total_energy < \
            fig4["static"].total_energy * 0.90

    def test_adaptive_rides_the_spun_up_disk(self, fig4):
        """With xmms pinning the disk up, FlexFetch converges on
        Disk-only behaviour (the disk is 'almost free')."""
        assert fig4["ff"].total_energy == pytest.approx(
            fig4["disk"].total_energy, rel=0.05)

    def test_static_wastes_the_wnic(self, fig4):
        assert fig4["static"].wnic_energy > fig4["ff"].wnic_energy * 1.5


# ----------------------------------------------------------------------
# Figure 5 — invalid profile
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig5():
    search = generate_acroread_search_run(SEED)
    stale = profile_from_trace(generate_acroread_profile_run(SEED))
    return {
        "disk": run(search, DiskOnlyPolicy()),
        "bluefs": run(search, BlueFSPolicy()),
        "static": run(search, FlexFetchPolicy(
            stale, FlexFetchConfig(adaptive=False))),
        "ff": run(search, FlexFetchPolicy(stale)),
    }


class TestFigure5:
    def test_adaptive_recovers_from_stale_profile(self, fig5):
        """Paper: FlexFetch consumes ~36% less than FlexFetch-static."""
        assert fig5["ff"].total_energy < fig5["static"].total_energy * 0.7

    def test_one_stage_penalty_vs_bluefs(self, fig5):
        """Paper: FlexFetch pays ~15% over BlueFS for the stage it
        spends discovering the profile is wrong."""
        ratio = fig5["ff"].total_energy / fig5["bluefs"].total_energy
        assert 1.0 < ratio < 1.35

    def test_static_follows_the_bad_profile(self, fig5):
        """The static variant stays on the WNIC the whole run."""
        assert fig5["static"].total_energy > \
            fig5["disk"].total_energy * 1.5
