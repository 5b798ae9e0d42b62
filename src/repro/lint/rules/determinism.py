"""HYD1xx — determinism rules.

Everything HYDRA promises rests on regeneration being a pure function of
``(summary, seed)``: the serial/parallel bit-identity property tests, the
backend-independent export checksums, and the summary fingerprint that pins
an export to its summary.  These rules reject the three source-level ways a
nondeterminism bug has entered (or nearly entered) the repository: RNGs
drawing from process-global state, wall-clock reads inside fingerprint- or
checksum-affecting modules, and iteration over unordered sets feeding
ordered output.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from ..framework import FileContext, Finding, Rule, dotted_name, register

__all__ = ["UnseededRngRule", "WallClockRule", "SetIterationRule"]

#: ``random``-module members that are safe because they construct an
#: explicitly seedable (or OS-entropy, non-reproducible-by-design) instance
#: instead of drawing from the hidden module-global Mersenne Twister.
_SAFE_RANDOM_MEMBERS = {"Random", "SystemRandom"}

#: ``numpy.random`` members that construct explicit generators/bit
#: generators rather than touching the legacy global RandomState.
_SAFE_NP_RANDOM_MEMBERS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
    "RandomState",
}

#: Dotted-suffix patterns of wall-clock reads (HYD102).
_WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)


def _random_module_aliases(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
    """Aliases of the stdlib ``random`` module and names imported from it.

    Returns ``(module_aliases, member_imports)`` where ``member_imports``
    maps the local binding to the original ``random`` member name.
    """
    modules: set[str] = set()
    members: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    modules.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "random":
            for alias in node.names:
                members[alias.asname or alias.name] = alias.name
    return modules, members


def _numpy_random_prefixes(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
    """Dotted prefixes that denote ``numpy.random`` plus direct member imports.

    ``import numpy as np`` contributes the prefix ``np.random``;
    ``from numpy import random as npr`` contributes ``npr``;
    ``from numpy.random import default_rng`` contributes the member import
    ``{"default_rng": "default_rng"}``.
    """
    prefixes: set[str] = set()
    members: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    prefixes.add(f"{alias.asname or 'numpy'}.random")
                elif alias.name == "numpy.random":
                    prefixes.add(alias.asname or "numpy.random")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        prefixes.add(alias.asname or "random")
            elif node.module == "numpy.random":
                for alias in node.names:
                    members[alias.asname or alias.name] = alias.name
    return prefixes, members


@register
class UnseededRngRule(Rule):
    """HYD101: randomness must come from an explicitly seeded generator.

    Flags ``np.random.default_rng()`` / ``RandomState()`` called without a
    seed, every legacy ``numpy.random`` module-function call (they draw from
    the hidden global RandomState), and every stdlib ``random`` module-level
    function call (hidden global Mersenne Twister).  ``random.Random(seed)``
    and ``np.random.default_rng(seed)`` are the sanctioned spellings.
    """

    code: ClassVar[str] = "HYD101"
    name: ClassVar[str] = "unseeded-rng"
    summary: ClassVar[str] = (
        "no unseeded default_rng()/RandomState() and no global-state random.* / "
        "legacy np.random.* calls"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag RNG constructions and draws that touch process-global state."""
        random_modules, random_members = _random_module_aliases(ctx.tree)
        np_prefixes, np_members = _numpy_random_prefixes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            finding = self._check_call(
                ctx, node, name, random_modules, random_members, np_prefixes, np_members
            )
            if finding is not None:
                yield finding

    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        name: str,
        random_modules: set[str],
        random_members: dict[str, str],
        np_prefixes: set[str],
        np_members: dict[str, str],
    ) -> Finding | None:
        head, _, member = name.rpartition(".")
        if head in random_modules and member not in _SAFE_RANDOM_MEMBERS:
            return self.finding(
                ctx,
                node,
                f"call to the global-state RNG 'random.{member}'; construct a "
                "seeded random.Random(seed) instead",
            )
        if not head and name in random_members:
            original = random_members[name]
            if original not in _SAFE_RANDOM_MEMBERS:
                return self.finding(
                    ctx,
                    node,
                    f"call to the global-state RNG 'random.{original}'; construct "
                    "a seeded random.Random(seed) instead",
                )
        np_member: str | None = None
        if head in np_prefixes:
            np_member = member
        elif not head and name in np_members:
            np_member = np_members[name]
        if np_member is None:
            return None
        if np_member not in _SAFE_NP_RANDOM_MEMBERS:
            return self.finding(
                ctx,
                node,
                f"legacy global-state 'numpy.random.{np_member}' call; use a "
                "seeded np.random.default_rng(seed) generator",
            )
        if np_member in {"default_rng", "RandomState"} and not node.args and not node.keywords:
            return self.finding(
                ctx,
                node,
                f"'{np_member}()' without a seed draws OS entropy; pass an "
                "explicit seed so regeneration stays reproducible",
            )
        return None


@register
class WallClockRule(Rule):
    """HYD102: no wall-clock reads in fingerprint/checksum-affecting modules.

    The summary fingerprint and the export manifest checksums must be pure
    functions of the summary content — PR 5 explicitly excludes ``build_info``
    wall-clock timings from the fingerprint so a rebuilt identical summary
    still validates existing exports.  A ``time.time()`` / ``datetime.now()``
    call inside these modules is how that guarantee silently rots.
    """

    code: ClassVar[str] = "HYD102"
    name: ClassVar[str] = "wall-clock-in-fingerprint"
    summary: ClassVar[str] = (
        "no time.time()/datetime.now()-style reads in fingerprint- or "
        "checksum-affecting modules"
    )
    # sinks/export.py is deliberately not watched: its two perf_counter()
    # reads feed only the export.<relation>.rows_per_second gauge.  The
    # manifest checksums are computed entirely in sinks/manifest.py and
    # sinks/base.py, which stay watched, so the invariant is enforced where
    # the bytes are produced.  repro.telemetry is outside the scope too:
    # wall-clock reads are its whole purpose, and nothing it records reaches
    # a fingerprint (guarded by the bit-identity tests).
    paths: ClassVar[tuple[str, ...]] = (
        "src/repro/serialization.py",
        "src/repro/core/summary.py",
        "src/repro/sinks/base.py",
        "src/repro/sinks/manifest.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag calls whose dotted name ends in a wall-clock suffix."""
        from_imports: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module in {"time", "datetime"}:
                    for alias in node.names:
                        suffix = f"{node.module}.{alias.name}"
                        if any(s.endswith(suffix) or suffix.endswith(s) for s in _WALL_CLOCK_SUFFIXES):
                            from_imports.add(alias.asname or alias.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in from_imports or any(
                name == suffix or name.endswith("." + suffix) for suffix in _WALL_CLOCK_SUFFIXES
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read '{name}()' in a fingerprint/checksum-affecting "
                    "module; fingerprints must be pure functions of summary content",
                )


#: Call names whose direct set argument is order-sensitive (HYD103).
_ORDER_SENSITIVE_CALLEES = {"list", "tuple", "enumerate", "iter"}


def _is_set_expression(node: ast.AST) -> bool:
    """Whether an expression certainly evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


@register
class SetIterationRule(Rule):
    """HYD103: no bare set iteration feeding ordered output.

    Serialization and the export sinks write byte-compared artifacts (JSON
    summaries, CSV/SQLite relation files, manifest checksums); iterating a
    ``set`` there injects hash-randomised order straight into bytes that two
    runs must share.  ``sorted(set(...))`` is the sanctioned spelling.
    """

    code: ClassVar[str] = "HYD103"
    name: ClassVar[str] = "unordered-set-iteration"
    summary: ClassVar[str] = (
        "no iteration over a bare set in modules that produce ordered/"
        "byte-compared output (sort it first)"
    )
    paths: ClassVar[tuple[str, ...]] = (
        "src/repro/serialization.py",
        "src/repro/sinks/*",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag set expressions consumed directly by order-sensitive sinks."""
        for node in ast.walk(ctx.tree):
            if not _is_set_expression(node):
                continue
            parent = ctx.parent_of(node)
            flagged = False
            if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
                flagged = True
            elif isinstance(parent, ast.comprehension) and parent.iter is node:
                flagged = True
            elif (
                isinstance(parent, ast.Call)
                and node in parent.args
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_SENSITIVE_CALLEES
            ):
                flagged = True
            if flagged:
                yield self.finding(
                    ctx,
                    node,
                    "iteration over a bare set feeds ordered output; wrap it in "
                    "sorted(...) so the byte stream is deterministic",
                )
