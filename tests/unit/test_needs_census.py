"""The needs census: every public name of ``src/repro`` has a caller outside the tests.

A *candidate* is a public (no leading ``_``) module-level function, class or
UPPER_CASE constant of ``src/repro``, or a public method / property of a
module-level class.  It is *reached* when its name occurs in ``src/repro``,
in ``benchmarks/`` (except ``test_*.py``) or in ``examples/*.py`` as

* a loaded ``ast.Name``,
* an attribute (``ast.Attribute``),
* a call keyword, or
* a whitespace- or dot-separated token of a string constant that is neither
  a docstring nor an ``__all__`` entry (``SUBCOMMANDS`` and ``_ENDPOINTS``
  dispatch by string).

Import statements are not uses.  A definition carrying a decorator that is
not the standard library's (``@register``) is reached through it.

``ALLOWED`` lists the unreached names that stay, each with its reason: paper
evidence (an E-number), the test that uses it as an oracle or seam, or an
idiom the ROADMAP names.  Everything else unreached is deleted.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

ALLOWED: dict[str, str] = {
    # Paper evidence.
    "repro.core.grid.GridPartitioner": (
        "E3: the DataSynth grid cells the region LP is compared against (test_grid.py)"
    ),
    "repro.core.pipeline.SummaryBuildReport.total_grid_variables": (
        "E3: grid vs. region variable totals (test_paper_claims.py)"
    ),
    "repro.core.pipeline.Hydra.touched_relations": (
        "E14: the relations a delta re-solves (test_paper_claims.py)"
    ),
    "repro.core.scenario.check_delta_feasibility": (
        "paper §4.4: README's what-if probe of injected delta AQPs (test_delta_feasibility.py)"
    ),
    # Test oracles and seams.
    "repro.sql.predicates.BoxCondition.contains_point": (
        "point-membership oracle of the region / grid property tests (test_regions_property.py)"
    ),
    "repro.sql.predicates.BoxCondition.to_predicate": (
        "box-to-predicate seam of the pushdown and shard tests (test_join_pushdown.py)"
    ),
    "repro.sql.predicates.AbstractPredicate.evaluate_row": (
        "row-at-a-time oracle of vectorised evaluation (test_predicates_property.py)"
    ),
    "repro.core.regions.Region.contained_in": (
        "exact containment oracle of the partition (test_regions_property.py)"
    ),
    "repro.core.regions.Region.satisfies": "signature oracle of the partition (test_regions.py)",
    "repro.core.lp.LPProblem.equivalent_to": (
        "structural LP identity of extend vs. union build (test_incremental.py)"
    ),
    "repro.storage.table.TableData.from_rows": "row-literal fixture builder (test_storage.py)",
    "repro.executor.rate.RateLimiter.with_virtual_clock": (
        "deterministic pacing seam (test_executor.py, test_parallel.py)"
    ),
    "repro.executor.rate.RateLimiter.rows_produced": (
        "pacing accounting the rate tests assert (test_executor.py)"
    ),
    "repro.server.cache.SummaryCache.retired_count": (
        "lease-retirement seam of the cache swap tests (test_server.py)"
    ),
    "repro.core.constraints.SymbolicPredicate.reference_map": (
        "borrowed-predicate view the decomposition tests assert (test_preprocessor.py)"
    ),
    "repro.workload.toy.FIGURE1_SUM_QUERY": (
        "Figure 1 SUM query of the aggregate route tests (test_aggregates.py) and README"
    ),
    "repro.workload.toy.FIGURE1_AVG_QUERY": "Figure 1 AVG query of test_aggregates.py",
    "repro.workload.toy.FIGURE1_DISJUNCTIVE_QUERY": (
        "disjunctive-join query of test_aggregates.py and test_joingraph.py"
    ),
    "repro.workload.tpch.CHAIN_COUNT_QUERY": (
        "3-relation FK-chain COUNT of test_aggregates.py and test_joingraph.py"
    ),
    # A ROADMAP-named idiom.
    "repro.sql.predicates.AbstractPredicate.is_filter": (
        "ROADMAP item 4: PostBOUND's is_join / is_filter classification pair"
    ),
}

#: Property accessor decorators (``@x.setter``): rooted at the property, not at a library.
_ACCESSOR_DECORATORS = {"setter", "getter", "deleter"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _stdlib_names(tree: ast.Module) -> set[str]:
    """Names a module binds from the standard library (or builtins)."""
    names = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in sys.stdlib_module_names:
                    names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] in sys.stdlib_module_names:
                names.update(alias.asname or alias.name for alias in node.names)
    return names


def _has_foreign_decorator(node: ast.AST, stdlib: set[str]) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        root = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(root, ast.Attribute) and root.attr in _ACCESSOR_DECORATORS:
            continue
        while isinstance(root, ast.Attribute):
            root = root.value
        if not (isinstance(root, ast.Name) and root.id in stdlib):
            return True
    return False


def _public(name: str) -> bool:
    return not name.startswith("_")


def candidates() -> dict[str, str]:
    """Qualified name -> bare name of every candidate not reached by decorator."""
    found: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_name(path)
        stdlib = _stdlib_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _public(node.name) and not _has_foreign_decorator(node, stdlib):
                    found[f"{module}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if (
                            isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _public(member.name)
                            and not _has_foreign_decorator(member, stdlib)
                        ):
                            found[f"{module}.{node.name}.{member.name}"] = member.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.isupper() and _public(target.id):
                        found[f"{module}.{target.id}"] = target.id
    return found


def _skipped_strings(tree: ast.Module) -> set[int]:
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                skipped.add(id(body[0].value))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                skipped.update(id(item) for item in ast.walk(node.value))
    return skipped


def _uses(tree: ast.Module) -> Iterator[str]:
    skipped = _skipped_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            for word in node.value.split():
                yield from word.split(".")


def _caller_files() -> Iterator[Path]:
    yield from SRC.rglob("*.py")
    for path in (ROOT / "benchmarks").rglob("*.py"):
        if not path.name.startswith("test_"):
            yield path
    yield from (ROOT / "examples").glob("*.py")


def reached_names() -> set[str]:
    names: set[str] = set()
    for path in _caller_files():
        names.update(_uses(ast.parse(path.read_text(encoding="utf-8"))))
    return names


def unreached() -> set[str]:
    reached = reached_names()
    return {qualified for qualified, name in candidates().items() if name not in reached}


def test_every_public_name_has_a_caller_or_a_ruling():
    missing = sorted(unreached() - set(ALLOWED))
    assert not missing, (
        "public names no code outside the tests reaches (delete them, or rule "
        "on them in ALLOWED with a reason): " + ", ".join(missing)
    )


def test_every_ruling_is_current():
    every = set(candidates())
    gone = sorted(set(ALLOWED) - every)
    assert not gone, f"ALLOWED names that no longer exist: {gone}"
    now_reached = sorted(set(ALLOWED) - unreached())
    assert not now_reached, f"ALLOWED names that now have a caller: {now_reached}"
    assert all(reason.strip() for reason in ALLOWED.values())
