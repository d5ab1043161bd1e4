"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXIT_PARTIAL, build_parser, main
from repro.core.policies import DiskOnlyPolicy
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURES, FigureResult
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import ProgramSet
from tests.conftest import make_trace


class _BoomFactory:
    """Policy factory that always fails (sweep failure-path tests)."""

    def __call__(self):
        raise RuntimeError("boom in worker")


def _tiny_figure(factories):
    """A FIGURES-compatible builder over a 1x2 grid of tiny cells."""

    def build(config, *, panels="ab", progress=None, executor=None):
        tiny = ExperimentConfig(seed=config.seed,
                                latency_sweep=(0.0, 0.010),
                                bandwidth_sweep_bps=(11e6 / 8,))
        trace = make_trace([(1, 0, 65536, "read", 0.0),
                            (1, 65536, 65536, "read", 2.0)],
                           name="tiny", file_sizes={1: 2 * 65536})
        result = FigureResult(figure_id="tiny", title="tiny sweep",
                              workload="tiny")
        result.by_latency = (executor or ParallelSweepExecutor()).run_sweep(
            ProgramSet((ProgramSpec(trace),)), factories,
            tiny.latency_points(), tiny, progress=progress)
        return result

    return build


class TestParser:
    def test_tables_command(self):
        args = build_parser().parse_args(["tables"])
        assert args.command == "tables"

    def test_figure_command(self):
        args = build_parser().parse_args(
            ["figure", "fig2", "--panel", "a", "--csv"])
        assert args.figure == "fig2"
        assert args.panel == "a"
        assert args.csv

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_run_command(self):
        args = build_parser().parse_args(["run", "xmms"])
        assert args.workload == "xmms"

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "42", "tables"])
        assert args.seed == 42

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_tables_output(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Hitachi" in out
        assert "Cisco Aironet 350" in out
        assert "thunderbird" in out

    def test_run_workload(self, capsys):
        assert main(["run", "xmms"]) == 0
        out = capsys.readouterr().out
        assert "Disk-only" in out
        assert "FlexFetch" in out
        assert "J" in out


class TestTraceExport:
    def test_jsonl_export(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert main(["trace", "xmms", "--out", str(out)]) == 0
        from repro.traces.io import load_trace_jsonl
        trace = load_trace_jsonl(out)
        assert trace.name == "xmms"
        assert "wrote" in capsys.readouterr().out

    def test_csv_export(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["trace", "xmms", "--out", str(out),
                     "--format", "csv"]) == 0
        from repro.traces.io import load_trace_csv
        assert len(load_trace_csv(out)) > 0

    def test_strace_export_parses_back(self, tmp_path):
        out = tmp_path / "x.strace"
        assert main(["trace", "xmms", "--out", str(out),
                     "--format", "strace"]) == 0
        from repro.traces.strace import parse_strace_file
        trace = parse_strace_file(out)
        assert len(trace) > 0


class TestInspect:
    def test_inspect_scenario(self, capsys):
        assert main(["inspect", "mplayer"]) == 0
        out = capsys.readouterr().out
        assert "trace mplayer" in out
        assert "gap structure" in out

    def test_inspect_composite(self, capsys):
        assert main(["inspect", "grep+make+xmms"]) == 0
        out = capsys.readouterr().out
        assert "disk-pinned" in out


class TestFaultFlags:
    def test_run_accepts_fault_flags(self):
        args = build_parser().parse_args(
            ["run", "xmms", "--faults", "outage-rate=0.01"])
        assert args.faults == "outage-rate=0.01"

    def test_faults_subcommand(self):
        args = build_parser().parse_args(
            ["faults", "xmms", "--rates", "0,0.01", "--csv"])
        assert args.command == "faults"
        assert args.rates == "0,0.01"
        assert args.csv

    def test_faulted_run_executes(self, capsys):
        assert main(["run", "xmms", "--faults",
                     "outage-rate=0.01,spinup-fail-prob=0.2"]) == 0
        out = capsys.readouterr().out
        assert "FlexFetch" in out


class TestSweepCommand:
    def test_sweep_parser_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["sweep", "fig3", "--panel", "a", "--workers", "2",
             "--journal", str(tmp_path / "j.jsonl"), "--retries", "3",
             "--backoff", "0.5", "--timeout", "120", "--partial",
             "--chaos", "kill-prob=0.5",
             "--manifest", str(tmp_path / "m.json")])
        assert args.command == "sweep"
        assert args.figure == "fig3"
        assert args.retries == 3
        assert args.backoff == 0.5
        assert args.timeout == 120.0
        assert args.partial
        assert args.chaos == "kill-prob=0.5"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fig1"])
        assert args.retries == 2
        assert args.backoff == 0.25
        assert args.timeout is None
        assert not args.partial
        assert args.journal is None and args.resume is None

    def test_sweep_runs_and_journals(self, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.setitem(FIGURES, "tiny", _tiny_figure(
            {"Disk-only": DiskOnlyPolicy}))
        journal = tmp_path / "sweep.jsonl"
        assert main(["sweep", "tiny", "--no-cache",
                     "--journal", str(journal)]) == 0
        captured = capsys.readouterr()
        assert "tiny sweep" in captured.out
        assert "2 cells (2 live, 0 cached, 0 journal)" in captured.err
        from repro.experiments.journal import load_journal
        assert len(load_journal(journal).completed) == 2

    def test_sweep_resume_skips_completed(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setitem(FIGURES, "tiny", _tiny_figure(
            {"Disk-only": DiskOnlyPolicy}))
        journal = tmp_path / "sweep.jsonl"
        assert main(["sweep", "tiny", "--no-cache",
                     "--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "tiny", "--no-cache",
                     "--resume", str(journal)]) == 0
        captured = capsys.readouterr()
        assert captured.out == first   # bit-identical rendering
        assert "2 cells (0 live, 0 cached, 2 journal)" in captured.err

    def test_sweep_partial_exits_3_with_manifest(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setitem(FIGURES, "tiny", _tiny_figure(
            {"Disk-only": DiskOnlyPolicy, "Boom": _BoomFactory()}))
        manifest = tmp_path / "failures.json"
        assert main(["sweep", "tiny", "--no-cache", "--partial",
                     "--retries", "1", "--backoff", "0.01",
                     "--manifest", str(manifest)]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "FAILED=2" in captured.err
        assert str(manifest) in captured.err
        payload = json.loads(manifest.read_text())
        assert payload["failed_cells"] == 2
        for entry in payload["failures"]:
            assert entry["curve"] == "Boom"
            assert len(entry["attempts"]) == 2   # initial + 1 retry
            assert "boom in worker" in entry["attempts"][0]["traceback"]

    def test_sweep_failure_shows_remote_traceback(self, capsys,
                                                  monkeypatch):
        monkeypatch.setitem(FIGURES, "tiny", _tiny_figure(
            {"Boom": _BoomFactory()}))
        assert main(["sweep", "tiny", "--no-cache",
                     "--retries", "0"]) == 1
        err = capsys.readouterr().err
        assert "boom in worker" in err          # the remote traceback
        assert "flexfetch: error: sweep cell failed" in err

    def test_sweep_retries_recover_flaky_cells(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setitem(FIGURES, "tiny", _tiny_figure(
            {"Disk-only": DiskOnlyPolicy}))
        assert main(["sweep", "tiny", "--cache-dir",
                     str(tmp_path / "cache"), "--chaos",
                     "corrupt-prob=1.0"]) == 0
        capsys.readouterr()
        # Warm pass over chaos-damaged rows: corrupt rows surface in the
        # summary and every cell re-simulates.
        assert main(["sweep", "tiny", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        err = capsys.readouterr().err
        assert "corrupt-cache-rows=2" in err
        assert "2 live" in err


class TestExitCodes:
    """Every failure path exits nonzero with a one-line message —
    never a raw traceback."""

    def test_unknown_workload_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "nope"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_fault_spec_exits_1(self, capsys):
        assert main(["run", "xmms", "--faults", "bogus=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("flexfetch: error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_unwritable_output_exits_1(self, capsys):
        assert main(["trace", "xmms", "--out",
                     "/nonexistent-dir/x.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("flexfetch: error:")
        assert "Traceback" not in err

    def test_faults_unknown_workload_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["faults", "nope"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_faults_bad_rates_exits_2(self, capsys):
        assert main(["faults", "xmms", "--rates", "fast,slow"]) == 2
        assert "--rates" in capsys.readouterr().err

    def test_faults_negative_rate_exits_2(self, capsys):
        assert main(["faults", "xmms", "--rates", "-0.5"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_sweep_conflicting_journal_flags_exit_2(self, tmp_path,
                                                    capsys):
        assert main(["sweep", "fig1", "--no-cache",
                     "--journal", str(tmp_path / "a.jsonl"),
                     "--resume", str(tmp_path / "b.jsonl")]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_sweep_bad_chaos_spec_exits_1(self, capsys):
        assert main(["sweep", "fig1", "--no-cache",
                     "--chaos", "bogus=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("flexfetch: error:")
        assert "Traceback" not in err

    def test_trace_validation_error_is_one_line(self, capsys):
        """A TraceValidationError escaping a handler becomes the
        standard one-line stderr message, not a traceback."""
        from unittest import mock
        from repro.traces.io import TraceValidationError
        with mock.patch("repro.cli._cmd_tables",
                        side_effect=TraceValidationError(3, "size is NaN")):
            assert main(["tables"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("flexfetch: error:")
        assert "record 3" in err
        assert "Traceback" not in err
