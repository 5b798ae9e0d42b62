"""hydra-lint: the repository's AST-based invariant checker.

The bit-identity guarantees HYDRA rests on — serial == parallel streams,
backend-independent export checksums, fingerprint-stable summaries — are
enforced dynamically by the property-test suites.  This package enforces
their *source-level preconditions* statically, before a flaky hypothesis run
has to catch a violation: seeded RNGs only (HYD1xx), spawn-safe worker
payloads (HYD2xx), float discipline in interval arithmetic and aggregation
(HYD3xx), documented import boundaries (HYD4xx), and no silent broad
exception handlers (HYD5xx).

Run it as ``hydra-lint src benchmarks`` (console script), ``python -m
repro.lint``, or through :func:`repro.lint.run_lint` from tests.  There is
no configuration file: each rule's path scope is its ``Rule.paths`` and the
HYD402 edge table is ``rules/imports.py::LAYERING``, so the linter gives the
same answer on every interpreter.  A finding is suppressed inline with
``# hydralint: disable=HYDxxx -- justification`` (the justification is
mandatory).  ``docs/STATIC_ANALYSIS.md`` catalogues every rule with the
invariant it protects.
"""

from .framework import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    build_context,
    register,
    registered_codes,
)
from .runner import LintReport, lint_file, run_lint

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "build_context",
    "lint_file",
    "register",
    "registered_codes",
    "run_lint",
]
