"""Delta-debugging minimization of fuzz failures, and the repro corpus.

A disagreement found at seed *s* depends on the whole workload (every query
shapes the summary the engine answers from), so the raw repro is "seed *s*
with its 12-query workload".  :func:`minimize_failure` shrinks that with the
classic ddmin algorithm over the query set — the failing query is pinned,
the others are removed in ever-finer chunks while the failure still
reproduces — yielding a minimal ``(seed, query-set)`` repro.

Minimal repros are stored as JSONL :class:`CorpusEntry` lines; the tier-1
suite replays the checked-in corpus forever after (a fixed bug cannot
silently regress), and ``hydra fuzz --replay FILE`` re-runs one file on
demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..workload.synth import SynthConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness imports us)
    from .harness import Disagreement, FuzzConfig

__all__ = [
    "CorpusEntry",
    "append_corpus",
    "ddmin",
    "load_corpus",
    "minimize_failure",
    "replay_entry",
]


@dataclass(frozen=True)
class CorpusEntry:
    """One replayable minimized repro."""

    seed: int
    synth: dict[str, Any]
    query_names: tuple[str, ...]
    target: str
    route: str
    phase: str
    kind: str
    detail: str
    minimized: bool = True
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form; one corpus line."""
        return {
            "schema_version": 1,
            "seed": self.seed,
            "synth": dict(self.synth),
            "query_names": list(self.query_names),
            "target": self.target,
            "route": self.route,
            "phase": self.phase,
            "kind": self.kind,
            "detail": self.detail,
            "minimized": self.minimized,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CorpusEntry":
        """Parse one corpus line."""
        version = payload.get("schema_version", 1)
        if version != 1:
            raise ValueError(f"unsupported corpus entry version {version}")
        return cls(
            seed=int(payload["seed"]),
            synth=dict(payload["synth"]),
            query_names=tuple(payload["query_names"]),
            target=str(payload["target"]),
            route=str(payload.get("route", "")),
            phase=str(payload.get("phase", "static")),
            kind=str(payload.get("kind", "")),
            detail=str(payload.get("detail", "")),
            minimized=bool(payload.get("minimized", True)),
            note=str(payload.get("note", "")),
        )


def append_corpus(path: str | Path, entry: CorpusEntry) -> None:
    """Append one entry as a JSON line (creating the file if needed)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")


def load_corpus(path: str | Path) -> list[CorpusEntry]:
    """Read every entry of a JSONL corpus file (blank lines skipped)."""
    entries: list[CorpusEntry] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            entries.append(CorpusEntry.from_dict(json.loads(line)))
    return entries


def ddmin(
    items: Sequence[str], predicate: Callable[[list[str]], bool]
) -> list[str]:
    """Classic delta debugging: a 1-minimal sublist still failing.

    ``predicate(subset)`` returns True when the failure still reproduces
    with that subset.  ``predicate(items)`` is assumed True; the result is
    1-minimal (removing any single element makes the failure vanish).
    """
    current = list(items)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        subsets = [
            current[start:start + chunk] for start in range(0, len(current), chunk)
        ]
        reduced = False
        for index in range(len(subsets)):
            complement = [
                item
                for position, subset in enumerate(subsets)
                if position != index
                for item in subset
            ]
            if predicate(complement):
                current = complement
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def _serial_routes(route: str) -> tuple[str, ...]:
    """The server-free routes to reproduce ``route`` failures under."""
    parts = {part for part in route.replace("-vs-", " ").split() if part}
    serial = tuple(part for part in ("fastpath", "materialised") if part in parts)
    return serial or ("fastpath", "materialised")


def minimize_failure(
    seed: int, config: "FuzzConfig", failure: "Disagreement"
) -> CorpusEntry:
    """Shrink one disagreement to a minimal (seed, query-set) repro.

    Static failures are minimized with :func:`ddmin` over the base workload
    (the failing query pinned in every probe).  Failures that only manifest
    through the delta phase or the fingerprint check are recorded
    unminimized with the full query set — still replayable, just not shrunk.
    """
    from dataclasses import replace as dc_replace

    from .harness import _differential_pass, prepare_scenario

    synth = dc_replace(config.synth, seed=seed).to_dict()
    scenario_names = None

    if failure.query_name == "*" or failure.phase.startswith("delta"):
        from .harness import run_scenario

        setup_names = _all_query_names(seed, config)
        return CorpusEntry(
            seed=seed,
            synth=synth,
            query_names=tuple(setup_names),
            target=failure.query_name,
            route=failure.route,
            phase=failure.phase,
            kind=failure.kind,
            detail=failure.detail,
            minimized=False,
            note="delta-phase failure; replay runs the full scenario",
        )

    routes = _serial_routes(failure.route)
    check_config = dc_replace(config, routes=routes, minimize=False)

    def still_fails(names: list[str]) -> bool:
        subset = list(names) + [failure.query_name]
        setup = prepare_scenario(seed, check_config, query_names=subset)
        target = setup.scenario.query_named(failure.query_name)
        found, _checked, _routes = _differential_pass(
            setup, [target], check_config, "minimize", client=None, routes=routes
        )
        return bool(found)

    base_names = [
        name
        for name in _base_query_names(seed, config)
        if name != failure.query_name
    ]
    if still_fails(base_names):
        kept = ddmin(base_names, still_fails) if base_names else []
        scenario_names = kept + [failure.query_name]
        minimized = True
        note = ""
    else:  # pragma: no cover - depends on a failure class we cannot force
        scenario_names = _base_query_names(seed, config)
        minimized = False
        note = "failure did not reproduce in isolation; full workload kept"
    return CorpusEntry(
        seed=seed,
        synth=synth,
        query_names=tuple(scenario_names),
        target=failure.query_name,
        route=failure.route,
        phase=failure.phase,
        kind=failure.kind,
        detail=failure.detail,
        minimized=minimized,
        note=note,
    )


def _base_query_names(seed: int, config: "FuzzConfig") -> list[str]:
    """Names of the base workload of ``seed`` under ``config``."""
    from dataclasses import replace as dc_replace

    from ..workload.synth import synthesize_scenario

    scenario = synthesize_scenario(dc_replace(config.synth, seed=seed))
    return [query.name for query in scenario.queries]


def _all_query_names(seed: int, config: "FuzzConfig") -> list[str]:
    """Names of base plus delta queries of ``seed`` under ``config``."""
    from dataclasses import replace as dc_replace

    from ..workload.synth import synthesize_scenario

    scenario = synthesize_scenario(dc_replace(config.synth, seed=seed))
    return [query.name for query in scenario.all_queries]


def replay_entry(
    entry: CorpusEntry, routes: Sequence[str] | None = None
) -> list["Disagreement"]:
    """Re-run one corpus entry; an empty list means the repro stays fixed.

    Minimized (static) entries rebuild the summary from exactly the stored
    query subset and re-check the target query; unminimized delta entries
    re-run the whole scenario including its delta batches.
    """
    from .harness import (
        FuzzConfig,
        _differential_pass,
        prepare_scenario,
        run_scenario,
    )

    synth = SynthConfig.from_dict(entry.synth)
    replay_routes = tuple(routes) if routes else _serial_routes(entry.route)
    config = FuzzConfig(
        seed_count=1,
        base_seed=entry.seed,
        routes=replay_routes,
        synth=synth,
        minimize=False,
    )
    if not entry.minimized and (
        entry.phase.startswith("delta") or entry.target == "*"
    ):
        found, _checked, _route_counts = run_scenario(
            entry.seed, config, client=None, with_delta=True
        )
        return found
    setup = prepare_scenario(entry.seed, config, query_names=entry.query_names)
    target = setup.scenario.query_named(entry.target)
    found, _checked, _route_counts = _differential_pass(
        setup, [target], config, "replay", client=None, routes=replay_routes
    )
    return found
