"""``python -m repro.lint`` — the invariant checker's command line.

Usage::

    python -m repro.lint [paths ...] [--select RPR001,RPR002]
                         [--ignore RPR005] [--format text|json]
                         [--tests DIR] [--list]

Exit status: 0 when clean, 1 when violations were found, 2 on usage
errors.  ``--format json`` emits a machine-readable report (the CI lint
job archives it); ``--list`` prints the registered checks and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.registry import all_checks
from repro.lint.runner import run_lint

__all__ = ["main"]


def _split_codes(value: str) -> list[str]:
    return [c.strip() for c in value.split(",") if c.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="repro's invariant-enforcing static-analysis pass",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        type=_split_codes,
        default=None,
        metavar="IDS",
        help="comma-separated check ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        type=_split_codes,
        default=None,
        metavar="IDS",
        help="comma-separated check ids to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--tests",
        default=None,
        metavar="DIR",
        help="tests directory for cross-file checks (default: discovered)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered checks and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list:
        for cid, check in sorted(all_checks().items()):
            print(f"{cid}  {check.name:<22} {check.summary}")
        return 0
    try:
        report = run_lint(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            tests_root=args.tests,
        )
    except (FileNotFoundError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for violation in report.violations:
            print(violation.format())
        summary = (
            f"{len(report.violations)} violation(s) in {report.files} file(s), "
            f"{len(report.checks)} check(s) run"
        )
        print(("FAILED: " if report.violations else "OK: ") + summary)
    return 0 if report.ok else 1
