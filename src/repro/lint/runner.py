"""Collect files, run checks per file, filter suppressions.

The runner is the programmatic surface behind the CLI::

    from repro.lint import run_lint
    report = run_lint(["src"])
    assert not report.violations

Module-scoped checks run per file, serially: CPython 3.11's AST
constructor is not safe to call from several threads at once, and
parsing holds the GIL, so threads would not overlap it.  Project-scoped
checks (oracle pairing) run once over the parsed set afterwards.  The
``tests/`` directory consulted by cross-file checks is discovered by
walking up from the first linted path to the nearest ancestor holding a
``tests/`` directory or a ``pyproject.toml`` (override with
``tests_root=``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.base import Check, ModuleContext, ProjectContext, Violation
from repro.lint.registry import all_checks

__all__ = ["LintReport", "run_lint", "collect_files", "find_tests_root"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build", "dist"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    files: int = 0
    checks: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, object]:
        return {
            "files": self.files,
            "checks": list(self.checks),
            "violations": [v.as_dict() for v in self.violations],
            "ok": self.ok,
        }


def collect_files(paths: Sequence[str | os.PathLike[str]]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files pass through verbatim)."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            candidates: Iterable[Path] = [path]
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for p in candidates:
            rp = p.resolve()
            if rp not in seen:
                seen.add(rp)
                out.append(p)
    return out


def find_tests_root(paths: Sequence[str | os.PathLike[str]]) -> Path | None:
    """Nearest ``tests/`` directory above (or beside) the linted paths."""
    if not paths:
        return None
    start = Path(paths[0]).resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        tests = candidate / "tests"
        if tests.is_dir():
            return tests
        if (candidate / "pyproject.toml").is_file():
            return tests if tests.is_dir() else None
    return None


def _relpath(path: Path, roots: Sequence[Path]) -> str:
    resolved = path.resolve()
    for root in roots:
        try:
            return resolved.relative_to(root).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def _load_tests(tests_root: Path | None) -> list[tuple[str, str]]:
    if tests_root is None or not tests_root.is_dir():
        return []
    out = []
    for p in sorted(tests_root.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in p.parts):
            continue
        try:
            out.append((str(p), p.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            continue
    return out


def _selected_checks(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> list[Check]:
    registry = all_checks()
    wanted = set(registry)
    if select:
        wanted = {c.upper() for c in select}
        unknown = wanted - set(registry)
        if unknown:
            raise KeyError(
                f"unknown check(s) {sorted(unknown)}; "
                f"choose from {sorted(registry)}"
            )
    if ignore:
        wanted -= {c.upper() for c in ignore}
    return [registry[cid] for cid in sorted(wanted)]


def run_lint(
    paths: Sequence[str | os.PathLike[str]],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    tests_root: str | os.PathLike[str] | None = None,
) -> LintReport:
    """Lint ``paths`` with the selected checks; returns a :class:`LintReport`.

    ``select``/``ignore`` take check ids (``["RPR002", ...]``);
    ``tests_root`` overrides the discovered ``tests/`` directory.
    """
    active = _selected_checks(select, ignore)
    files = collect_files(paths)
    roots = [Path(p).resolve() for p in paths if Path(p).is_dir()]
    if tests_root is not None:
        tests_dir: Path | None = Path(tests_root)
    else:
        tests_dir = find_tests_root(paths)
    tests = _load_tests(tests_dir)

    module_checks = [c for c in active if c.scope == "module"]
    project_checks = [c for c in active if c.scope == "project"]
    violations: list[Violation] = []
    contexts: list[ModuleContext] = []

    def analyse(path: Path) -> tuple[ModuleContext | None, list[Violation]]:
        try:
            source = path.read_text(encoding="utf-8")
            ctx = ModuleContext(str(path), _relpath(path, roots), source)
        except (OSError, UnicodeDecodeError, SyntaxError) as err:
            line = getattr(err, "lineno", 1) or 1
            return None, [
                Violation(
                    check="PARSE",
                    path=str(path),
                    line=int(line),
                    message=f"cannot analyse file: {err}",
                )
            ]
        found: list[Violation] = []
        for check in module_checks:
            for v in check.run(ctx):
                if not ctx.suppressed(v.check, v.line):
                    found.append(v)
        return ctx, found

    for ctx, found in map(analyse, files):
        violations.extend(found)
        if ctx is not None:
            contexts.append(ctx)

    if project_checks:
        by_path = {ctx.path: ctx for ctx in contexts}
        project = ProjectContext(modules=contexts, tests=tests)
        for check in project_checks:
            for v in check.run_project(project):
                ctx = by_path.get(v.path)
                if ctx is not None and ctx.suppressed(v.check, v.line):
                    continue
                violations.append(v)

    violations.sort(key=lambda v: (v.path, v.line, v.check))
    return LintReport(
        violations=violations,
        files=len(files),
        checks=tuple(c.id for c in active),
    )
