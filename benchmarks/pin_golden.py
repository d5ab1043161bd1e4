"""Pin the reference energy/time numbers to ``results/golden.json``.

Run once against a known-good tree::

    PYTHONPATH=src python benchmarks/pin_golden.py

The file records three sections:

* ``points`` — every figure's workload replayed once per policy at the
  paper's default link settings (the cheap, tier-1-testable subset);
* ``fig3_grid`` — the full reduced-grid Figure 3 sweep the CI benchmark
  smoke job re-checks;
* ``oracle`` — the clairvoyant-headroom energies from
  ``benchmarks/test_oracle.py``.

``tests/test_golden_parity.py`` asserts a fresh
:class:`repro.core.session.SimulationSession` reproduces ``points`` and
``oracle`` within ``repro.units.approx_eq``; the refactor that
introduced the layered architecture was required to be bit-for-bit
behaviour-preserving, and this file is the contract.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
GOLDEN_PATH = RESULTS_DIR / "golden.json"

#: mirrors benchmarks/conftest.py (imported lazily there to keep this
#: script runnable without pytest on the path).
BENCH_LATENCIES = (0.0, 5e-3, 10e-3, 20e-3, 40e-3)
BENCH_BANDWIDTHS = tuple(mb * 1e6 / 8 for mb in (1.0, 2.0, 5.5, 11.0))

ORACLE_SEED = 7


def _result_row(result) -> dict[str, float]:
    return {
        "energy": result.total_energy,
        "disk_energy": result.disk_energy,
        "wnic_energy": result.wnic_energy,
        "time": result.end_time,
    }


def _figure_programs(config):
    """(figure id -> (programs factory, policy factories)) map."""
    from repro.core.profile import profile_from_trace
    from repro.core.workload import ProgramSpec
    from repro.experiments.figures import standard_policies
    from repro.traces.synth import (
        generate_acroread_profile_run,
        generate_acroread_search_run,
        generate_grep_make,
        generate_grep_make_xmms,
        generate_mplayer,
        generate_thunderbird,
    )

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


def pin_points(config) -> dict[str, dict[str, dict[str, float]]]:
    from repro.experiments.runner import run_point

    points: dict[str, dict[str, dict[str, float]]] = {}
    for fig_id, (programs, policies) in _figure_programs(config).items():
        points[fig_id] = {}
        for name, factory in policies.items():
            point = run_point(programs, factory, config.wnic_spec, config)
            points[fig_id][name] = _result_row(point.result)
            print(f"  {fig_id} {name:16s}"
                  f" {point.result.total_energy:9.2f} J")
    return points


def pin_fig3_grid(config) -> dict[str, dict[str, list[float]]]:
    from dataclasses import replace

    from repro.experiments.figures import figure3

    bench = replace(config, latency_sweep=BENCH_LATENCIES,
                    bandwidth_sweep_bps=BENCH_BANDWIDTHS)
    figure = figure3(bench)
    grid = {
        "latencies": list(BENCH_LATENCIES),
        "bandwidths_bps": list(BENCH_BANDWIDTHS),
        "by_latency": {name: [p.energy for p in pts]
                       for name, pts in figure.by_latency.items()},
        "by_bandwidth": {name: [p.energy for p in pts]
                         for name, pts in figure.by_bandwidth.items()},
    }
    print(f"  fig3 grid: {sum(len(v) for v in grid['by_latency'].values()) + sum(len(v) for v in grid['by_bandwidth'].values())} cells")
    return grid


def pin_oracle() -> dict[str, dict[str, float]]:
    from repro.core.flexfetch import FlexFetchPolicy
    from repro.core.oracle import ClairvoyantStagePolicy
    from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
    from repro.core.profile import profile_from_trace
    from repro.core.session import SimulationSession
    from repro.core.workload import ProgramSpec
    from repro.traces.synth import (
        generate_grep_make,
        generate_mplayer,
        generate_thunderbird,
    )

    workloads = {
        "grep+make": generate_grep_make,
        "mplayer": generate_mplayer,
        "thunderbird": generate_thunderbird,
    }
    out: dict[str, dict[str, float]] = {}
    for name, gen in sorted(workloads.items()):
        trace = gen(ORACLE_SEED)
        runs = {
            "Disk-only": DiskOnlyPolicy(),
            "WNIC-only": WnicOnlyPolicy(),
            "FlexFetch": FlexFetchPolicy(profile_from_trace(trace)),
            "Clairvoyant": ClairvoyantStagePolicy(trace),
        }
        out[name] = {}
        for label, policy in runs.items():
            result = SimulationSession([ProgramSpec(trace)], policy,
                                     seed=ORACLE_SEED).run()
            out[name][label] = result.total_energy
            print(f"  oracle {name} {label:12s}"
                  f" {result.total_energy:9.2f} J")
    return out


def main() -> int:
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig()
    print("pinning per-figure default-link points ...")
    points = pin_points(config)
    print("pinning fig3 reduced grid ...")
    fig3_grid = pin_fig3_grid(config)
    print("pinning oracle headroom ...")
    oracle = pin_oracle()
    golden = {
        "seed": config.seed,
        "oracle_seed": ORACLE_SEED,
        "points": points,
        "fig3_grid": fig3_grid,
        "oracle": oracle,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
