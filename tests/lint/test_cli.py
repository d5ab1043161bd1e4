"""CLI behaviour of ``python -m repro.lint`` and ``flexfetch lint``."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main as flexfetch_main
from repro.lint.runner import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: an R2 violation; it only counts inside a ``repro`` package tree.
R2_BAD = ("from repro.units import Joules, Seconds\n\n\n"
          "def late(end_time: Seconds, total_energy: Joules) -> bool:\n"
          "    return end_time > total_energy\n")


def _in_package(tmp_path: Path, source: str) -> Path:
    path = tmp_path / "repro" / "core" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text(source, encoding="utf-8")
    return path


def test_clean_tree_exits_zero(capsys: pytest.CaptureFixture[str]) -> None:
    assert lint_main([str(REPO_ROOT / "src" / "repro" / "units.py")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 findings" in captured.err


def test_findings_exit_one(tmp_path: Path,
                           capsys: pytest.CaptureFixture[str]) -> None:
    bad = _in_package(tmp_path, R2_BAD)
    assert lint_main([str(bad)]) == 1
    captured = capsys.readouterr()
    assert "R2(unit-discipline)" in captured.out
    assert "1 finding" in captured.err


def test_missing_path_is_a_usage_error(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert lint_main([str(tmp_path / "nope")]) == 2
    assert "no such paths" in capsys.readouterr().err


def test_flexfetch_lint_subcommand(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    good = tmp_path / "good.py"
    good.write_text("X = 1\n", encoding="utf-8")
    assert flexfetch_main(["lint", str(good)]) == 0
    bad = _in_package(tmp_path, R2_BAD)
    assert flexfetch_main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "R2" in out
