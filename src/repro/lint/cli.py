"""The ``hydra-lint`` command-line interface.

Usage::

    hydra-lint src benchmarks                 # text report, exit 1 on findings
    hydra-lint src --format json              # machine-readable report
    hydra-lint --list-rules                   # the registered rule catalogue

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage error.  Every
run applies every registered rule within its own path scope; there are no
flags or configuration files that select rules or change a scope.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .framework import all_rules
from .runner import find_project_root, run_lint

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``hydra-lint``."""
    parser = argparse.ArgumentParser(
        prog="hydra-lint",
        description=(
            "AST-based invariant checker for the HYDRA reproduction: "
            "determinism (HYD1xx), spawn safety (HYD2xx), float discipline "
            "(HYD3xx), import boundaries (HYD4xx), exception discipline "
            "(HYD5xx)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (directories walked for *.py)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    """The ``--list-rules`` catalogue text."""
    lines = []
    for rule_class in all_rules():
        scope = ", ".join(rule_class.paths)
        lines.append(f"{rule_class.code}  {rule_class.name}")
        lines.append(f"    {rule_class.summary}")
        lines.append(f"    scope: {scope}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Run hydra-lint; returns the process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``hydra-lint --list-rules | head``) closed
        # the pipe.  Point stdout at devnull so the interpreter's exit-time
        # flush cannot raise again, and report the conventional 128+SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _main(argv: Sequence[str] | None) -> int:
    """The body of :func:`main`, free to write to stdout without guards."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list-rules)")
    root = find_project_root(args.paths[0].resolve())
    for path in args.paths:
        if not path.exists():
            parser.error(f"path does not exist: {path}")
    report = run_lint(args.paths, root=root)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
