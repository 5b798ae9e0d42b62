"""File walking, rule execution, and report rendering for hydra-lint.

:func:`run_lint` is the library entry point the CLI (and the test suite's
repo-is-clean meta-test) calls: collect files, parse each into a
:class:`~repro.lint.framework.FileContext`, run every registered rule whose
path scope matches, apply suppressions, and return a :class:`LintReport`.
There is nothing to configure: a rule's scope is its ``paths`` attribute and
the files never linted are :data:`EXCLUDES`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable, Sequence

from .framework import Finding, Rule, all_rules, build_context, registered_codes

__all__ = ["LintReport", "collect_files", "find_project_root", "lint_file", "run_lint"]

#: Schema version of the JSON report (bump on incompatible shape changes).
JSON_REPORT_VERSION = 1

#: Code reported for files that fail to parse.
CODE_PARSE_ERROR = "HYD000"

#: fnmatch patterns (against the project-relative POSIX path) never linted.
EXCLUDES: tuple[str, ...] = (
    "*/__pycache__/*",
    "*/.git/*",
    "*/.hypothesis/*",
    "*/build/*",
    "*/dist/*",
    "*.egg-info*",
    "*/.venv/*",
    "*/examples/out*",
)


@dataclass
class LintReport:
    """The outcome of one lint run: findings plus scan accounting."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        """``0`` clean, ``1`` when any finding was reported."""
        return 1 if self.findings else 0

    def counts_by_code(self) -> dict[str, int]:
        """Finding counts keyed by rule code (sorted keys)."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self) -> str:
        """The human-readable report: one line per finding plus a summary."""
        lines = [finding.render() for finding in self.findings]
        if self.findings:
            summary = ", ".join(f"{code}: {n}" for code, n in self.counts_by_code().items())
            lines.append("")
            lines.append(
                f"{len(self.findings)} finding(s) in {self.files_scanned} file(s) ({summary})"
            )
        else:
            lines.append(f"clean: {self.files_scanned} file(s), 0 findings")
        return "\n".join(lines)

    def render_json(self) -> str:
        """The machine-readable report (stable schema, sorted findings)."""
        payload = {
            "version": JSON_REPORT_VERSION,
            "files_scanned": self.files_scanned,
            "findings": [finding.to_dict() for finding in self.findings],
            "counts": self.counts_by_code(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def find_project_root(start: Path) -> Path:
    """The nearest ancestor of ``start`` containing a pyproject.toml.

    Falls back to ``start`` itself (or its parent for files) when no
    pyproject.toml exists up the tree — relative paths in the report then
    anchor at the scan root.
    """
    base = start if start.is_dir() else start.parent
    for candidate in [base, *base.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return base


def _matches(rel_path: str, patterns: Sequence[str]) -> bool:
    """Whether a project-relative path matches any fnmatch pattern."""
    return any(fnmatch(rel_path, pattern) for pattern in patterns)


def collect_files(targets: Sequence[Path], root: Path) -> list[tuple[Path, str]]:
    """Expand targets into ``(absolute_path, rel_path)`` pairs, sorted.

    Directories are walked recursively for ``*.py``; explicit file targets
    are taken as-is (still subject to :data:`EXCLUDES`).  Paths outside ``root``
    keep their absolute form as the report path.
    """
    collected: dict[str, Path] = {}
    for target in targets:
        resolved = target.resolve()
        candidates: Iterable[Path]
        if resolved.is_dir():
            candidates = sorted(resolved.rglob("*.py"))
        else:
            candidates = [resolved]
        for candidate in candidates:
            try:
                rel = candidate.relative_to(root).as_posix()
            except ValueError:
                rel = candidate.as_posix()
            if not _matches(rel, EXCLUDES):
                collected[rel] = candidate
    return [(collected[rel], rel) for rel in sorted(collected)]


def lint_file(
    path: Path,
    rel_path: str,
    rules: Sequence[Rule] | None = None,
    source: str | None = None,
) -> list[Finding]:
    """Lint one file and return its (suppression-filtered, sorted) findings."""
    if rules is None:
        rules = [rule_class() for rule_class in all_rules()]
    text = source if source is not None else path.read_text(encoding="utf-8")
    try:
        ctx = build_context(path, text, rel_path, known_codes=registered_codes())
    except SyntaxError as exc:
        return [
            Finding(
                path=rel_path,
                line=exc.lineno or 1,
                column=(exc.offset or 0) + 1 if exc.offset else 1,
                code=CODE_PARSE_ERROR,
                message=f"file does not parse: {exc.msg}",
                rule="parse-error",
            )
        ]
    findings: list[Finding] = list(ctx.suppressions.errors)
    for rule in rules:
        if not _matches(rel_path, rule.paths):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressions.is_suppressed(finding):
                findings.append(finding)
    return sorted(findings)


def run_lint(targets: Sequence[Path], root: Path | None = None) -> LintReport:
    """Lint every Python file under the targets and return the report."""
    if root is None:
        anchor = targets[0] if targets else Path.cwd()
        root = find_project_root(anchor.resolve())
    report = LintReport()
    rules = [rule_class() for rule_class in all_rules()]
    for path, rel_path in collect_files(targets, root):
        report.files_scanned += 1
        report.findings.extend(lint_file(path, rel_path, rules=rules))
    report.findings.sort()
    return report
