"""HYD3xx — float-discipline rules.

The interval arithmetic in the region partitioner and the grid baseline is
exact as long as comparisons stay on the lattice operations (min/max,
``<=``); the aggregates are bit-stable across block boundaries and routes
only because every float accumulation is exact and rounded once — the
streaming route with :func:`math.fsum`, the summary route with integer
numerators over power-of-two denominators (a PR 6 invariant: the summary
fast path and the streaming fallback must agree to the last bit).  These
rules flag the two spellings that break the discipline: ``==``/``!=`` on float-typed expressions and bare ``sum()`` in
aggregation paths.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from ..framework import FileContext, Finding, Rule, dotted_name, register

__all__ = ["FloatEqualityRule", "BareFloatSumRule"]

#: Dotted names that certainly denote float constants.
_FLOAT_CONSTANT_NAMES = {"math.inf", "math.nan", "math.pi", "math.e", "math.tau"}


def _looks_float(node: ast.expr) -> bool:
    """Whether an expression is certainly float-typed.

    Deliberately conservative: float literals, ``float(...)`` conversions,
    ``math`` constants, and unary +/- of those.  Names and attributes are
    *not* inferred (a static linter cannot know their type), so ordinary
    integer comparisons in the same module never false-positive.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _looks_float(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    name = dotted_name(node)
    return name is not None and name in _FLOAT_CONSTANT_NAMES


@register
class FloatEqualityRule(Rule):
    """HYD301: no ``==``/``!=`` against float expressions in interval code.

    Exact float equality inside the interval arithmetic silently stops
    matching after any arithmetic rounding — the incident class behind the
    `math.isinf` rewrite of the partitioner's unbounded-interval check.
    Infinity tests belong to :func:`math.isinf`; epsilon comparisons must be
    spelled explicitly.
    """

    code: ClassVar[str] = "HYD301"
    name: ClassVar[str] = "float-equality"
    summary: ClassVar[str] = (
        "no ==/!= on float-typed expressions in interval-arithmetic modules "
        "(use math.isinf / explicit epsilon tests)"
    )
    paths: ClassVar[tuple[str, ...]] = (
        "src/repro/core/regions.py",
        "src/repro/core/grid.py",
        "src/repro/sql/predicates.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag equality comparisons with a certainly-float operand."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _looks_float(left) or _looks_float(right):
                    spelled = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx,
                        node,
                        f"'{spelled}' against a float expression in interval "
                        "arithmetic; use math.isinf for infinity tests or an "
                        "explicit epsilon comparison",
                    )
                    break


@register
class BareFloatSumRule(Rule):
    """HYD302: aggregation paths must accumulate floats exactly, rounded once.

    ``sum()`` over a float stream rounds after every addition, so its result
    depends on block boundaries and term order — the exact bug class the
    PR 6 SUM/AVG work had to avoid so the summary fast path and the
    streaming fallback stay bit-identical.  The invariant is "exact, rounded
    once": :func:`math.fsum` over a column, or an exact integer fold (the
    summary route's ``_exact_sum``).  Inside the engine's aggregation module
    every builtin ``sum()`` call is flagged; integer sums must either use an
    explicitly integer spelling (``int`` accumulators, ``np.sum`` on integer
    arrays) or carry a justified suppression.
    """

    code: ClassVar[str] = "HYD302"
    name: ClassVar[str] = "bare-float-sum"
    summary: ClassVar[str] = (
        "no bare builtin sum() in engine aggregation paths (exact accumulation, "
        "rounded once, keeps floats block-boundary and route independent)"
    )
    paths: ClassVar[tuple[str, ...]] = ("src/repro/executor/engine.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag builtin ``sum(...)`` calls (method ``.sum()`` is exempt)."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            is_builtin_sum = isinstance(node.func, ast.Name) and node.func.id == "sum"
            if not is_builtin_sum and dotted_name(node.func) == "builtins.sum":
                is_builtin_sum = True
            if is_builtin_sum:
                yield self.finding(
                    ctx,
                    node,
                    "builtin sum() in an aggregation path; float accumulation "
                    "must be exact and rounded once, e.g. math.fsum (suppress "
                    "with a justification for provably-integer sums)",
                )
