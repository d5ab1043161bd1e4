"""Command-line entry point.

::

    flexfetch tables                 # render Tables 1-3
    flexfetch figure fig1            # run + render one figure
    flexfetch figure fig2 --panel a  # latency panel only
    flexfetch all                    # everything (slow)
    flexfetch run mplayer            # single workload, all policies,
                                     # default link settings
    flexfetch run grep+make --faults outage-rate=0.01
    flexfetch faults grep+make       # energy vs wireless outage rate
    flexfetch lint                   # units static analysis
    flexfetch sweep fig3 --journal s.jsonl --retries 3 --timeout 120
    flexfetch sweep fig3 --resume s.jsonl   # skip completed cells
    flexfetch sweep fig3 --partial          # placeholders, exit 3

``python -m repro`` is equivalent.

Exit codes: 0 success, 1 error, 2 usage, 3 partial sweep (some cells
failed after retries; see the failure manifest).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURES, fault_panel, standard_policies
from repro.experiments.parallel import ParallelSweepExecutor, SweepCellError
from repro.experiments.report import (
    fault_panel_to_csv,
    render_fault_panel,
    render_figure,
    render_table,
    sweep_to_csv,
)
from repro.experiments.runner import ProgramSet
from repro.experiments.tables import table1, table2, table3
from repro.faults.invariants import SimulationInvariantError
from repro.faults.schedule import FaultSpec, FaultSpecError
from repro.sim.clock import SimulationError
from repro.traces.io import TraceValidationError, save_trace_csv, \
    save_trace_jsonl
from repro.traces.strace import StraceParseError, format_strace_line
from repro.traces.synth import TABLE3_GENERATORS


def _cmd_tables(args: argparse.Namespace) -> int:
    for table in (table1(), table2(), table3(seed=args.seed)):
        print(render_table(table))
        print()
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    builder = FIGURES.get(args.figure)
    if builder is None:
        print(f"unknown figure {args.figure!r}; choose from"
              f" {sorted(FIGURES)}", file=sys.stderr)
        return 2
    config = ExperimentConfig(seed=args.seed)
    progress = (lambda line: print(f"  {line}", file=sys.stderr)) \
        if args.verbose else None
    cache = None
    if not args.no_cache:
        from repro.experiments.cache import RunCache
        cache = RunCache(args.cache_dir)
    result = builder(config, panels=args.panel, progress=progress,
                     executor=ParallelSweepExecutor(args.workers,
                                                    cache=cache))
    print(render_figure(result))
    if args.svg:
        from repro.experiments.svg import save_figure_svg
        for path in save_figure_svg(result, args.svg):
            print(f"wrote {path}", file=sys.stderr)
    if args.csv:
        if result.by_latency:
            print("# panel (a) CSV")
            print(sweep_to_csv(result.by_latency))
        if result.by_bandwidth:
            print("# panel (b) CSV")
            print(sweep_to_csv(result.by_bandwidth))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    rc = _cmd_tables(args)
    for figure_id in FIGURES:
        args.figure = figure_id
        rc |= _cmd_figure(args)
    return rc


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.traces.synth.scenarios import SCENARIOS, build_scenario
    if args.workload not in SCENARIOS:
        print(f"unknown scenario {args.workload!r}; choose from"
              f" {sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    config = ExperimentConfig(seed=args.seed)
    scenario = build_scenario(args.workload, seed=args.seed)
    fault_spec = FaultSpec.parse(args.faults) if args.faults else None
    total_calls = sum(len(p.trace) for p in scenario.programs)
    print(f"scenario {scenario.name}: {scenario.description}")
    print(f"  {len(scenario.programs)} program(s), {total_calls} calls")
    if fault_spec is not None and fault_spec.enabled:
        print(f"  faults: {args.faults}")
    curves = ParallelSweepExecutor().run_sweep(
        ProgramSet(scenario.programs),
        standard_policies(scenario.profile, config), [config.wnic_spec],
        config, faults=fault_spec)
    for (point,) in curves.values():
        result = point.result
        line = result.summary()
        failovers = sum(result.fault_failovers.values())
        if failovers or result.disk_spinup_failures:
            line += (f"  [failovers={failovers}"
                     f" spinup-failures={result.disk_spinup_failures}]")
        print(" ", line)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.traces.synth.scenarios import SCENARIOS
    if args.workload not in SCENARIOS:
        print(f"unknown scenario {args.workload!r}; choose from"
              f" {sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    try:
        rates = tuple(float(r) for r in args.rates.split(",") if r.strip())
    except ValueError:
        print(f"bad --rates {args.rates!r}; expected comma-separated"
              " numbers", file=sys.stderr)
        return 2
    if not rates or any(r < 0 for r in rates):
        print("--rates needs at least one non-negative rate",
              file=sys.stderr)
        return 2
    base = FaultSpec.parse(args.faults) if args.faults else None
    config = ExperimentConfig(seed=args.seed)
    progress = (lambda line: print(f"  {line}", file=sys.stderr)) \
        if args.verbose else None
    panel = fault_panel(config, scenario=args.workload, rates=rates,
                        base_spec=base, progress=progress)
    print(render_fault_panel(panel))
    if args.csv:
        print("# fault panel CSV")
        print(fault_panel_to_csv(panel))
    return 0


#: Exit code of a ``--partial`` sweep that finished with failed cells.
EXIT_PARTIAL = 3


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Supervised, journaled, resumable figure sweep."""
    import json as _json
    import tempfile

    from repro.experiments.journal import SweepJournal
    from repro.experiments.parallel import (
        enable_profiling,
        failure_manifest,
        merged_profile_stats,
        profile_report,
    )
    from repro.experiments.supervisor import RetryPolicy
    from repro.faults.chaos import ChaosSpec

    builder = FIGURES.get(args.figure)
    if builder is None:
        print(f"unknown figure {args.figure!r}; choose from"
              f" {sorted(FIGURES)}", file=sys.stderr)
        return 2
    if args.resume and args.journal and args.resume != args.journal:
        print("flexfetch: error: --resume and --journal name different"
              " files; pass just --resume", file=sys.stderr)
        return 2

    config = ExperimentConfig(seed=args.seed)
    progress = (lambda line: print(f"  {line}", file=sys.stderr)) \
        if args.verbose else None
    cache = None
    if not args.no_cache:
        from repro.experiments.cache import RunCache
        cache = RunCache(args.cache_dir)
    journal_path = args.resume or args.journal
    journal = SweepJournal(journal_path) if journal_path else None
    chaos = ChaosSpec.parse(args.chaos) if args.chaos else None
    retry = RetryPolicy(max_retries=args.retries,
                        backoff_base=args.backoff)
    executor = ParallelSweepExecutor(
        args.workers, cache=cache, retry=retry, timeout=args.timeout,
        journal=journal, partial=args.partial, chaos=chaos,
        sanitize=True if args.sanitize else None)
    profiling = args.profile or args.profile_out
    profile_dir = None
    if profiling:
        # Armed before the pool forks so workers inherit the setting;
        # each live cell dumps one .prof the parent merges below.
        profile_dir = tempfile.mkdtemp(prefix="flexfetch-profile-")
        enable_profiling(profile_dir)
    try:
        result = builder(config, panels=args.panel, progress=progress,
                         executor=executor)
    finally:
        if profiling:
            enable_profiling(None)
        if journal is not None:
            journal.close()
    print(render_figure(result))

    if profiling:
        assert profile_dir is not None
        stats = merged_profile_stats(profile_dir)
        if stats is None:
            print("profile: no cells ran live (all cached/journaled);"
                  " nothing to report", file=sys.stderr)
        else:
            print(profile_report(stats, top=args.profile_top), end="")
            if args.profile_out:
                stats.dump_stats(args.profile_out)
                print(f"merged profile written to {args.profile_out}",
                      file=sys.stderr)

    cells = executor.live_runs + executor.cache_hits + \
        executor.journal_hits + len(executor.failures)
    summary = (f"sweep {args.figure}: {cells} cells"
               f" ({executor.live_runs} live, {executor.cache_hits}"
               f" cached, {executor.journal_hits} journal)"
               f" retries={sum(executor.retries.values())}"
               f" respawns={executor.respawns}")
    if cache is not None and cache.corrupt_rows:
        summary += f" corrupt-cache-rows={cache.corrupt_rows}"
    if executor.failures:
        summary += f" FAILED={len(executor.failures)}"
    print(summary, file=sys.stderr)

    if executor.failures:
        manifest_path = args.manifest or (
            f"{journal_path}.failures.json" if journal_path
            else "sweep-failures.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            _json.dump(failure_manifest(executor.failures), fh,
                       indent=1, sort_keys=True)
        print(f"failure manifest written to {manifest_path}",
              file=sys.stderr)
        return EXIT_PARTIAL
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    gen = TABLE3_GENERATORS.get(args.workload)
    if gen is None:
        print(f"unknown workload {args.workload!r}; choose from"
              f" {sorted(TABLE3_GENERATORS)}", file=sys.stderr)
        return 2
    trace = gen(seed=args.seed)
    if args.format == "jsonl":
        save_trace_jsonl(trace, args.out)
    elif args.format == "csv":
        save_trace_csv(trace, args.out)
    else:  # strace collector text
        with open(args.out, "w", encoding="utf-8") as fh:
            paths = {i: f.path for i, f in trace.files.items()}
            for rec in trace.records:
                fh.write(format_strace_line(
                    rec, path=paths.get(rec.inode),
                    epoch=1_183_900_000.0) + "\n")
    stats = trace.stats()
    print(f"wrote {args.out}: {stats.record_count} records,"
          f" {stats.file_count} files,"
          f" {stats.footprint_mb:.1f} MB footprint")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import main as lint_main
    return lint_main(list(args.paths))


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.traces.analysis import analyze_trace
    from repro.traces.synth.scenarios import SCENARIOS, build_scenario
    if args.workload not in SCENARIOS:
        print(f"unknown scenario {args.workload!r}; choose from"
              f" {sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    scenario = build_scenario(args.workload, seed=args.seed)
    for spec in scenario.programs:
        print(analyze_trace(spec.trace).render())
        flags = []
        if not spec.profiled:
            flags.append("non-profiled")
        if spec.disk_pinned:
            flags.append("disk-pinned")
        if flags:
            print(f"  ({', '.join(flags)})")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexfetch",
        description="FlexFetch (ICPP 2007) reproduction harness")
    parser.add_argument("--seed", type=int, default=7,
                        help="experiment seed (default 7)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="render Tables 1-3")

    def add_sweep_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for sweep cells"
                       " (default 1 = in-process)")
        p.add_argument("--no-cache", action="store_true",
                       help="always simulate; skip the run cache")
        p.add_argument("--cache-dir", default="benchmarks/results/cache",
                       metavar="DIR",
                       help="run-cache directory"
                       " (default benchmarks/results/cache)")

    p_fig = sub.add_parser("figure", help="run one figure")
    p_fig.add_argument("figure", choices=sorted(FIGURES))
    p_fig.add_argument("--panel", default="ab", choices=["a", "b", "ab"],
                       help="which panel(s) to run")
    p_fig.add_argument("--csv", action="store_true",
                       help="also dump CSV data")
    p_fig.add_argument("--verbose", action="store_true",
                       help="per-point progress on stderr")
    p_fig.add_argument("--svg", metavar="DIR",
                       help="also write SVG charts into DIR")
    add_sweep_flags(p_fig)

    p_all = sub.add_parser("all", help="run every table and figure")
    p_all.add_argument("--panel", default="ab", choices=["a", "b", "ab"])
    p_all.add_argument("--csv", action="store_true")
    p_all.add_argument("--verbose", action="store_true")
    p_all.add_argument("--svg", metavar="DIR",
                       help="also write SVG charts into DIR")
    add_sweep_flags(p_all)

    from repro.traces.synth.scenarios import SCENARIOS
    p_run = sub.add_parser("run",
                           help="one scenario, all policies, default link")
    p_run.add_argument("workload", choices=sorted(SCENARIOS))
    p_run.add_argument("--faults", metavar="SPEC",
                       help="inject faults, e.g."
                       " 'outage-rate=0.01,spinup-fail-prob=0.2'")

    p_faults = sub.add_parser(
        "faults", help="energy of all policies vs wireless outage rate")
    p_faults.add_argument("workload", choices=sorted(SCENARIOS))
    p_faults.add_argument("--rates", default="0,0.002,0.005,0.01,0.02",
                          help="comma-separated outage rates (1/s)")
    p_faults.add_argument("--faults", metavar="SPEC",
                          help="base fault spec the rate sweep overrides")
    p_faults.add_argument("--csv", action="store_true",
                          help="also dump CSV data")
    p_faults.add_argument("--verbose", action="store_true",
                          help="per-point progress on stderr")

    p_sweep = sub.add_parser(
        "sweep",
        help="supervised figure sweep: retries, timeouts, journaling,"
             " resume, graceful degradation")
    p_sweep.add_argument("figure", choices=sorted(FIGURES))
    p_sweep.add_argument("--panel", default="ab",
                         choices=["a", "b", "ab"],
                         help="which panel(s) to run")
    p_sweep.add_argument("--verbose", action="store_true",
                         help="per-point progress on stderr")
    add_sweep_flags(p_sweep)
    p_sweep.add_argument("--journal", metavar="FILE",
                         help="append-only crash-consistent journal of"
                              " completed cells (JSONL)")
    p_sweep.add_argument("--resume", metavar="FILE",
                         help="resume from an existing journal,"
                              " skipping completed cells bit-identically")
    p_sweep.add_argument("--retries", type=int, default=2, metavar="K",
                         help="retry budget per cell (default 2)")
    p_sweep.add_argument("--backoff", type=float, default=0.25,
                         metavar="S",
                         help="base retry backoff seconds, doubled per"
                              " attempt (default 0.25)")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         metavar="S",
                         help="per-cell wall-clock timeout in seconds;"
                              " hung workers are killed and the cell"
                              " retried (needs --workers > 1)")
    p_sweep.add_argument("--partial", action="store_true",
                         help="finish the sweep despite permanently"
                              " failed cells (placeholder points, a"
                              " failure manifest, exit code 3)")
    p_sweep.add_argument("--manifest", metavar="FILE",
                         help="failure-manifest path (default"
                              " <journal>.failures.json or"
                              " sweep-failures.json)")
    p_sweep.add_argument("--sanitize", action="store_true",
                         help="shadow-verify every live fast-path cell"
                              " against the live kernel path at the bit"
                              " level (same as REPRO_SANITIZE=1; divergence"
                              " raises ReplayDivergenceError)")
    p_sweep.add_argument("--chaos", metavar="SPEC",
                         help="fault injection for the orchestrator,"
                              " e.g. 'kill-prob=0.5,corrupt-prob=0.3'"
                              " (chaos testing)")
    p_sweep.add_argument("--profile", action="store_true",
                         help="cProfile every live cell in its worker;"
                              " print a merged top-N cumulative report"
                              " after the sweep")
    p_sweep.add_argument("--profile-out", metavar="FILE",
                         help="also dump the merged profile as a pstats"
                              " file (implies --profile)")
    p_sweep.add_argument("--profile-top", type=int, default=25,
                         metavar="N",
                         help="rows in the merged profile report"
                              " (default 25)")

    p_inspect = sub.add_parser(
        "inspect", help="burst/think structure report of a scenario")
    p_inspect.add_argument("workload", choices=sorted(SCENARIOS))

    p_lint = sub.add_parser(
        "lint", help="run the repo's units static analyzer")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")

    p_trace = sub.add_parser(
        "trace", help="synthesise a workload trace and write it to disk")
    p_trace.add_argument("workload", choices=sorted(TABLE3_GENERATORS))
    p_trace.add_argument("--out", required=True,
                         help="output file path")
    p_trace.add_argument("--format", default="jsonl",
                         choices=["jsonl", "csv", "strace"],
                         help="on-disk format (default jsonl)")
    return parser


#: Failure modes every subcommand turns into exit code 1 with a
#: one-line diagnostic instead of a traceback.
_USER_ERRORS = (TraceValidationError, StraceParseError, FaultSpecError,
                SimulationInvariantError, SimulationError, ValueError,
                OSError)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (console script ``flexfetch``)."""
    args = build_parser().parse_args(argv)
    handlers = {
        "tables": _cmd_tables,
        "figure": _cmd_figure,
        "all": _cmd_all,
        "run": _cmd_run,
        "faults": _cmd_faults,
        "trace": _cmd_trace,
        "inspect": _cmd_inspect,
        "lint": _cmd_lint,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except SweepCellError as exc:
        # A permanently failed sweep cell: show the worker's remote
        # traceback (the chained __cause__ lost its frames crossing the
        # process boundary) before the one-line diagnostic.
        if exc.remote_traceback:
            print(exc.remote_traceback, file=sys.stderr, end="")
        print(f"flexfetch: error: {exc}", file=sys.stderr)
        return 1
    except _USER_ERRORS as exc:
        message = str(exc).splitlines()[0] if str(exc) else \
            type(exc).__name__
        print(f"flexfetch: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
