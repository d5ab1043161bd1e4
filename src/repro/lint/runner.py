"""File discovery, orchestration, and CLI for :mod:`repro.lint`.

Invocation forms (all equivalent)::

    python -m repro.lint src/
    flexfetch lint src/
    from repro.lint import lint_paths; lint_paths(["src"])

Each file is parsed once and checked in isolation by R2 when it
lies inside the ``repro`` package (:func:`repro.lint.rules.run_rules`).
Findings are ordered by (path, line, col, rule, message), so output is
deterministic.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, run_rules
from repro.lint.suppressions import parse_suppressions

#: directory names never descended into.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".mypy_cache", ".ruff_cache", ".venv",
    "build", "dist",
})


def package_relative(path: Path) -> tuple[str, ...] | None:
    """Path relative to the ``repro`` package root, if inside it.

    Recognises both a source checkout (``.../src/repro/...``) and a
    bare package directory (``.../repro/...``).
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return tuple(parts[i:])
    return None


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS or part.startswith(".")
                           for part in sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(
                f"not a Python file or directory: {path}")


def lint_source(source: str, *, path: str = "<string>",
                package_rel: tuple[str, ...] | None = None
                ) -> list[Finding]:
    """Lint source text; the workhorse behind every entry point.

    ``package_rel`` positions the snippet for rule scoping; default is
    *outside* the package, where no rule applies.  Pass e.g.
    ``("repro", "core", "x.py")`` to lint as if inside the simulator.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1, rule="E1",
                        message=f"syntax error: {exc.msg}")]
    suppressions = parse_suppressions(source)
    ctx = FileContext(path=path, package_rel=package_rel)
    return [f for f in run_rules(tree, ctx) if suppressions.allows(f)]


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one file from disk."""
    p = Path(path)
    source = p.read_text(encoding="utf-8")
    return lint_source(source, path=str(p),
                       package_rel=package_relative(p))


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint files and directory trees, in (path, line, col) order."""
    findings = [finding for path in iter_python_files(paths)
                for finding in lint_file(path)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return findings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="FlexFetch repo static analyzer: unit discipline."
                    " Suppress with '# repro-lint: ignore[R2]'.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (``python -m repro.lint``)."""
    args = build_parser().parse_args(argv)
    paths = [p for p in args.paths if Path(p).exists()]
    if not paths:
        print("repro.lint: no such paths:"
              f" {', '.join(map(str, args.paths))}", file=sys.stderr)
        return 2
    try:
        findings = lint_paths(paths)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if not args.quiet:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro.lint: {len(findings)} {noun}", file=sys.stderr)
    return 1 if findings else 0
