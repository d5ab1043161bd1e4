"""The shipped tree must satisfy its own analyzer (acceptance gate)."""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, package_relative

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_src_tree_is_clean() -> None:
    findings = lint_paths([REPO_ROOT / "src"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_package_relative_recognises_both_layouts() -> None:
    assert package_relative(
        Path("src/repro/core/session.py")) == \
        ("repro", "core", "session.py")
    assert package_relative(
        Path("/site-packages/repro/sim/rng.py")) == \
        ("repro", "sim", "rng.py")
    assert package_relative(Path("tests/core/test_x.py")) is None


def test_pycache_is_gitignored() -> None:
    gitignore = (REPO_ROOT / ".gitignore").read_text(
        encoding="utf-8").splitlines()
    assert "__pycache__/" in gitignore
