"""Write-back still pending when a run ends is reported, not charged.

A run ends with whatever its page cache still holds dirty; those pages
are never written back and cost nothing.  ``RunResult.dirty_pages_at_end``
reports them (``PAGE_SIZE`` bytes each).  Figure 1's grep+make at seed
7 with the default configuration dirties 5,092 pages: Disk-only and
FlexFetch write every one back, while WNIC-only and BlueFS end with
1,221 still dirty.  Both kernel surfaces must report the same residue.
"""

from __future__ import annotations

import pytest

from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import standard_policies
from repro.traces.synth import generate_grep_make

CONFIG = ExperimentConfig(seed=7)
#: pages the run dirties, and those still dirty at its end, by policy.
DIRTIED = 5092
RESIDUE = {"Disk-only": 0, "WNIC-only": 1221, "BlueFS": 1221,
           "FlexFetch": 0}


@pytest.fixture(scope="module")
def grep_make():
    trace = generate_grep_make(CONFIG.seed)
    return trace, standard_policies(profile_from_trace(trace), CONFIG)


@pytest.mark.parametrize("fast_path", [True, False], ids=["plan", "live"])
@pytest.mark.parametrize("policy", sorted(RESIDUE))
def test_grep_make_reports_its_residue(grep_make, policy, fast_path):
    trace, policies = grep_make
    session = SimulationSession(
        [ProgramSpec(trace)], policies[policy](),
        disk_spec=CONFIG.disk_spec, wnic_spec=CONFIG.wnic_spec,
        memory_bytes=CONFIG.memory_bytes,
        seed=CONFIG.seed).with_fast_path(fast_path)
    result = session.run()
    assert session.used_fast_path is fast_path
    assert session.env.kernel.cache.stats.dirtied == DIRTIED
    assert result.dirty_pages_at_end == RESIDUE[policy]
