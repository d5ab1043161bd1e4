"""CLI behaviour of ``python -m repro.lint`` and ``flexfetch lint``."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main as flexfetch_main
from repro.lint import RULES
from repro.lint.runner import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: an R1 violation; it only counts inside a ``repro`` package tree.
R1_BAD = "import time\n\nSTAMP = time.time()\n"


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
    bad = _in_package(tmp_path, R1_BAD)
    assert lint_main([str(bad)]) == 1
    captured = capsys.readouterr()
    assert "R1(determinism)" in captured.out
    assert "1 finding" in captured.err


def test_select_restricts_rules(tmp_path: Path,
                                capsys: pytest.CaptureFixture[str]) -> None:
    bad = _in_package(tmp_path, R1_BAD)
    assert lint_main([str(bad), "--select", "R3"]) == 0
    capsys.readouterr()


def test_unknown_rule_is_a_usage_error(
        capsys: pytest.CaptureFixture[str]) -> None:
    # R42 must stay unassigned.
    assert lint_main([str(REPO_ROOT / "src"), "--select", "R42"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert lint_main([str(tmp_path / "nope")]) == 2
    assert "no such paths" in capsys.readouterr().err


def test_list_rules_prints_the_catalogue(
        capsys: pytest.CaptureFixture[str]) -> None:
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split(" ", 1)[0] for line in out.splitlines()
            if not line.startswith(" ")] == list(RULES)
    assert list(RULES) == ["R1", "R2", "R3", "R5", "E1"]
    assert RULES["R2"].name in out


def test_flexfetch_lint_subcommand(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    good = tmp_path / "good.py"
    good.write_text("X = 1\n", encoding="utf-8")
    assert flexfetch_main(["lint", str(good)]) == 0
    bad = _in_package(tmp_path, R1_BAD)
    assert flexfetch_main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "R1" in out
