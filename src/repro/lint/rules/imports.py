"""HYD4xx — import-boundary rules.

The executor consumes the parallel subsystem through exactly one documented
seam; any other ``executor``/``core`` → ``parallel`` import couples the
layers the wrong way round and reintroduces the circular-import risk the
seams exist to avoid.  :data:`LAYERING` is the one table of forbidden edges;
a new boundary is a new row there, added together with a rule test.  The
range's first code is retired together with the deprecation shim it guarded
(a retired code is never reused).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from ..framework import FileContext, Finding, Rule, register, resolve_import_targets

__all__ = ["LayerBoundaryRule", "LayerEdge"]


class LayerEdge:
    """One forbidden import edge ``from_package`` → ``to_package``.

    ``allowed_files`` lists project-relative paths (the documented seams)
    exempt from the edge.
    """

    def __init__(
        self,
        from_package: str,
        to_package: str,
        allowed_files: tuple[str, ...] = (),
    ) -> None:
        """Store one forbidden edge with its documented seam files."""
        self.from_package = from_package
        self.to_package = to_package
        self.allowed_files = allowed_files


#: The repository's documented layering: every forbidden import edge.
LAYERING: tuple[LayerEdge, ...] = (
    # repro.executor may touch repro.parallel only through the documented
    # seam in datagen.py (DataGenRelation's pool handoff).
    LayerEdge(
        from_package="repro.executor",
        to_package="repro.parallel",
        allowed_files=("src/repro/executor/datagen.py",),
    ),
    # repro.core may never touch repro.parallel: the worker count reaches the
    # pool as a plain argument, through DataGenRelation.
    LayerEdge(
        from_package="repro.core",
        to_package="repro.parallel",
        allowed_files=(),
    ),
    # repro.plans is plan shape over the catalog and the SQL layer: the core
    # (decomposition, summaries) builds on plans, never the reverse, through
    # no seam at all.
    LayerEdge(
        from_package="repro.plans",
        to_package="repro.core",
        allowed_files=(),
    ),
    # repro.server is the top of the stack: it may import everything below
    # (core, executor, parallel, sinks, telemetry), but nothing below may
    # import it, through no seam at all.
    LayerEdge(
        from_package="repro.core",
        to_package="repro.server",
        allowed_files=(),
    ),
    LayerEdge(
        from_package="repro.executor",
        to_package="repro.server",
        allowed_files=(),
    ),
    LayerEdge(
        from_package="repro.parallel",
        to_package="repro.server",
        allowed_files=(),
    ),
    LayerEdge(
        from_package="repro.sinks",
        to_package="repro.server",
        allowed_files=(),
    ),
    LayerEdge(
        from_package="repro.telemetry",
        to_package="repro.server",
        allowed_files=(),
    ),
    # repro.fuzz is a test harness above even the server: production layers
    # (and the server itself) must never import it, through no seam at all.
    LayerEdge(
        from_package="repro.core",
        to_package="repro.fuzz",
        allowed_files=(),
    ),
    LayerEdge(
        from_package="repro.executor",
        to_package="repro.fuzz",
        allowed_files=(),
    ),
    LayerEdge(
        from_package="repro.server",
        to_package="repro.fuzz",
        allowed_files=(),
    ),
    LayerEdge(
        from_package="repro.workload",
        to_package="repro.fuzz",
        allowed_files=(),
    ),
    # The server has one concurrency model, a blocking thread per connection:
    # an event loop would need a bridge to the (blocking) handlers again.
    LayerEdge(
        from_package="repro.server",
        to_package="asyncio",
        allowed_files=(),
    ),
)


def _in_package(module_name: str, package: str) -> bool:
    """Whether ``module_name`` is ``package`` or one of its submodules."""
    return module_name == package or module_name.startswith(package + ".")


@register
class LayerBoundaryRule(Rule):
    """HYD402: upward imports only through the documented seams.

    The executor may touch ``repro.parallel`` only in
    ``executor/datagen.py`` (``DataGenRelation``'s pool handoff); the core
    never may, and plan shape (``repro.plans``) never imports the core.
    Every edge of :data:`LAYERING` is flagged outside its seams.
    """

    code: ClassVar[str] = "HYD402"
    name: ClassVar[str] = "layer-boundary"
    summary: ClassVar[str] = (
        "no import along a forbidden LAYERING edge (e.g. core -> parallel, "
        "plans -> core) outside its documented seams"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag imports crossing a forbidden edge outside its seams."""
        applicable = [
            edge
            for edge in LAYERING
            if _in_package(ctx.module_name, edge.from_package)
            and ctx.rel_path not in edge.allowed_files
        ]
        if not applicable:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in resolve_import_targets(ctx, node):
                for edge in applicable:
                    if _in_package(target, edge.to_package) or target == edge.to_package:
                        seams = ", ".join(edge.allowed_files) or "<none>"
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {edge.to_package} from {edge.from_package} "
                            f"outside the documented seams ({seams})",
                        )
                        break
                else:
                    continue
                break
