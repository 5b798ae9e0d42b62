"""Core types of the hydra-lint rule framework.

A *rule* is a small :mod:`ast`-level check with a stable ``HYDxxx`` code; a
*finding* is one violation a rule reported at a source location.  Rules are
registered in a module-level registry (populated by importing
:mod:`repro.lint.rules`) and run by :mod:`repro.lint.runner` over
:class:`FileContext` objects — one parsed file plus the metadata rules need:
its project-relative path, its dotted module name, and the suppression table
parsed from ``# hydralint:`` comments.

Suppressions are deliberately strict: ``# hydralint: disable=HYD101 -- why``
must carry a trailing justification after ``--``.  A disable comment without
one is *not honoured* and is itself reported (``HYD001``), so a suppression
can never silently outlive its reason.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Mapping

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "SuppressionTable",
    "all_rules",
    "build_context",
    "register",
    "registered_codes",
]

#: Framework-level code: a disable comment without the required justification.
CODE_MISSING_JUSTIFICATION = "HYD001"
#: Framework-level code: a disable comment naming an unregistered rule code.
CODE_UNKNOWN_RULE = "HYD002"

_DISABLE_RE = re.compile(
    r"#\s*hydralint:\s*disable=(?P<codes>[A-Za-z0-9_,\s]*?)"
    r"(?:\s+--\s*(?P<why>.*))?\s*$"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordered by ``(path, line, column, code)`` so reports are stable across
    runs regardless of rule execution order.
    """

    path: str
    line: int
    column: int
    code: str
    message: str
    rule: str = ""

    def render(self) -> str:
        """The one-line ``path:line:col: CODE message`` text form."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """The JSON payload of the finding (stable key set)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class SuppressionTable:
    """Per-line ``# hydralint: disable=...`` suppressions of one file.

    ``codes_by_line`` maps a *source* line number to the set of rule codes
    suppressed on that line.  A trailing comment suppresses its own line; a
    comment alone on a line suppresses the next non-comment line (for
    justifications too long to trail the code).
    """

    codes_by_line: dict[int, set[str]] = field(default_factory=dict)
    #: Findings raised by malformed suppression comments themselves.
    errors: list[Finding] = field(default_factory=list)

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a disable comment covers the finding's line and code."""
        return finding.code in self.codes_by_line.get(finding.line, set())


def parse_suppressions(source: str, rel_path: str, known_codes: Iterable[str]) -> SuppressionTable:
    """Build the suppression table of one file from its comment tokens.

    Uses :mod:`tokenize` rather than a line regex so ``#`` inside string
    literals can never be misread as a comment.  Malformed comments (missing
    justification, unknown codes) become framework findings in
    ``SuppressionTable.errors`` and do **not** suppress anything.
    """
    table = SuppressionTable()
    known = set(known_codes)
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # runner reports the parse error
        return table
    for token in tokens:
        if token.type != tokenize.COMMENT or "hydralint" not in token.string:
            continue
        match = _DISABLE_RE.search(token.string)
        if match is None:
            continue
        line, column = token.start
        justification = (match.group("why") or "").strip()
        codes = [code.strip() for code in match.group("codes").split(",") if code.strip()]
        if not justification:
            table.errors.append(
                Finding(
                    path=rel_path,
                    line=line,
                    column=column + 1,
                    code=CODE_MISSING_JUSTIFICATION,
                    message=(
                        "suppression requires a trailing justification: "
                        "'# hydralint: disable=CODE -- reason'; the comment is ignored"
                    ),
                    rule="suppression-justification",
                )
            )
            continue
        unknown = [code for code in codes if code not in known]
        if unknown or not codes:
            table.errors.append(
                Finding(
                    path=rel_path,
                    line=line,
                    column=column + 1,
                    code=CODE_UNKNOWN_RULE,
                    message=(
                        f"unknown rule code(s) {', '.join(unknown) or '<none>'} in "
                        "suppression; the comment is ignored"
                    ),
                    rule="suppression-known-code",
                )
            )
            continue
        # A comment with code preceding it on the line is *trailing* and
        # suppresses its own line; a comment alone on its line suppresses
        # the next non-blank, non-comment line instead (so a multi-line
        # justification block can precede the suppressed statement).
        lines = source.splitlines()
        text_before = lines[line - 1][:column]
        if text_before.strip():
            target_line = line
        else:
            target_line = line + 1
            while target_line <= len(lines):
                stripped = lines[target_line - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target_line += 1
        table.codes_by_line.setdefault(target_line, set()).update(codes)
    return table


@dataclass
class FileContext:
    """One parsed source file plus everything a rule may need about it.

    ``rel_path`` is POSIX-style and relative to the project root (the
    directory holding ``pyproject.toml``); rule path scoping matches against
    it.  ``module_name`` is the dotted import name the file would have under
    the ``src`` layout (``src/repro/sinks/base.py`` → ``repro.sinks.base``),
    or a best-effort dotted name for files outside ``src``.
    """

    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionTable
    module_name: str

    _parents: dict[ast.AST, ast.AST] | None = field(default=None, repr=False)

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (lazily computed, cached)."""
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents.get(node)


def module_name_for(rel_path: str) -> str:
    """Dotted module name of a project-relative POSIX path.

    Strips a leading ``src/`` (the repository's package layout) and the
    ``.py``/``/__init__.py`` suffix: ``src/repro/sql/predicates.py`` →
    ``repro.sql.predicates``, ``benchmarks/trajectory/run.py`` →
    ``benchmarks.trajectory.run``.
    """
    parts = rel_path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


def build_context(
    path: Path,
    source: str,
    rel_path: str,
    known_codes: Iterable[str] | None = None,
) -> FileContext:
    """Parse ``source`` into the :class:`FileContext` the rules consume.

    Raises :class:`SyntaxError` when the file does not parse; the runner
    turns that into a reported error rather than a crash.
    """
    tree = ast.parse(source, filename=str(path))
    codes = list(known_codes) if known_codes is not None else registered_codes()
    suppressions = parse_suppressions(source, rel_path, codes)
    return FileContext(
        path=path,
        rel_path=rel_path,
        source=source,
        tree=tree,
        suppressions=suppressions,
        module_name=module_name_for(rel_path),
    )


class Rule:
    """Base class of every hydra-lint rule.

    Subclasses set the class attributes and implement :meth:`check`; the
    registry decorator :func:`register` makes them discoverable by code.

    ``paths`` holds :mod:`fnmatch` globs (matched against the
    project-relative POSIX path, ``*`` crosses ``/``) restricting where the
    rule applies; ``("*",)`` means every linted file.  It is the rule's only
    scope: widening or narrowing it is a code change, made together with
    the rule's tests.
    """

    #: Stable rule code, e.g. ``"HYD101"``; never reused once released.
    code: ClassVar[str]
    #: Short kebab-case rule name for reports, e.g. ``"unseeded-rng"``.
    name: ClassVar[str]
    #: One-line description shown by ``hydra-lint --list-rules``.
    summary: ClassVar[str]
    #: fnmatch path scope of the rule.
    paths: ClassVar[tuple[str, ...]] = ("*",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield the rule's findings for one file (already scope-filtered)."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` in ``ctx``."""
        return Finding(
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            rule=self.name,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry (keyed by code)."""
    code = rule_class.code
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule code {code}: {existing.__name__} vs {rule_class.__name__}")
    _REGISTRY[code] = rule_class
    return rule_class


def _ensure_rules_loaded() -> None:
    """Import the rules package so the registry is populated."""
    from . import rules  # noqa: F401  (import populates the registry)


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, sorted by code."""
    _ensure_rules_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def registered_codes() -> list[str]:
    """The sorted codes of every registered rule (plus framework codes)."""
    _ensure_rules_loaded()
    return sorted(_REGISTRY) + [CODE_MISSING_JUSTIFICATION, CODE_UNKNOWN_RULE]


def dotted_name(node: ast.AST) -> str | None:
    """The dotted source text of a ``Name``/``Attribute`` chain, else ``None``.

    ``np.random.default_rng`` → ``"np.random.default_rng"``; anything that is
    not a pure attribute chain (calls, subscripts) yields ``None``.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def module_level_mutable_names(tree: ast.Module) -> set[str]:
    """Names bound at module level to expressions that look mutable.

    Used by the spawn-safety rules: only mutations of these names are
    flagged, so read-only module constants (ints, strings, tuples) never
    false-positive.
    """
    mutable_ctors = {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
    names: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        looks_mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in mutable_ctors
        )
        if not looks_mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def resolve_import_targets(ctx: FileContext, node: ast.stmt) -> list[str]:
    """Absolute dotted module names an import statement binds.

    ``import a.b`` → ``["a.b"]``; ``from a.b import c, d`` → ``["a.b.c",
    "a.b.d"]`` (the submodule-or-attribute ambiguity is resolved by the
    caller matching on prefixes); relative imports are resolved against the
    file's own dotted module name.
    """
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        base = node.module or ""
    else:
        package_parts = ctx.module_name.split(".") if ctx.module_name else []
        # The file's package: drop the module's own leaf name (packages keep
        # all parts because module_name_for already stripped __init__).
        if not ctx.path.name == "__init__.py":
            package_parts = package_parts[:-1]
        cut = len(package_parts) - (node.level - 1)
        if cut < 0:
            return []
        base_parts = package_parts[:cut]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        base = ".".join(base_parts)
    if not base:
        return [alias.name for alias in node.names]
    return [f"{base}.{alias.name}" for alias in node.names]


#: Mapping used by rules that track ``from X import y`` aliases.
ImportAliases = Mapping[str, str]
