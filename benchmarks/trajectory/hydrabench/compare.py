"""Compare two trajectory records: one row per (end-to-end metric, workload)."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from .record import RECORD_SCHEMA
from .spec import Declared

BETTER, WITHIN, WORSE, UNRESOLVED = "better", "within bound", "WORSE", "unresolved"


def verdict(before: dict[str, Any], after: dict[str, Any], better: str, bound: float) -> tuple[str, float, float]:
    """Classify one metric; returns (verdict, relative worsening, relative spread).

    The worsening is the share of ``before``'s median by which ``after``'s is
    worse (negative when it improved).  The spread is the wider of the two
    sides' quartile distances over their medians: where it exceeds the bound
    a difference inside the bound proves nothing, so the row is unresolved.
    """
    base = before["median"]
    change = (after["median"] - base) / base
    worsening = change if better == "lower" else -change
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) for side in (before, after)
    )
    if worsening > bound:
        return WORSE, worsening, spread
    if spread > bound:
        return UNRESOLVED, worsening, spread
    if worsening < -bound:
        return BETTER, worsening, spread
    return WITHIN, worsening, spread


def _load(path: Path) -> dict[str, Any]:
    record: dict[str, Any] = json.loads(path.read_text(encoding="utf-8"))
    if record.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"{path}: not a trajectory record of schema {RECORD_SCHEMA}")
    if record.get("size") != "full":
        raise ValueError(f"{path}: a {record.get('size')!r}-size record cannot be compared")
    return record


def compare_files(before_path: Path, after_path: Path, declared: Declared) -> int:
    """Print the comparison; non-zero on a regression or more failed operations."""
    try:
        before, after = _load(before_path), _load(after_path)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<14} {'before':>12} {'after':>12} {'unit':<6} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    regressions = 0
    for name in declared.workloads:
        old, new = before["workloads"].get(name), after["workloads"].get(name)
        if old is None or new is None:
            print(f"{name:<14} missing from one record")
            regressions += 1
            continue
        for metric, entry in declared.end_to_end.items():
            if metric not in old["end_to_end"] or metric not in new["end_to_end"]:
                print(f"{name:<14} {metric:<14} missing from one record")
                regressions += 1
                continue
            outcome, worsening, spread = verdict(
                old["end_to_end"][metric], new["end_to_end"][metric],
                entry["better"], entry["bound"],
            )
            regressions += outcome == WORSE
            print(
                f"{name:<14} {metric:<14} {old['end_to_end'][metric]['median']:>12.5g} "
                f"{new['end_to_end'][metric]['median']:>12.5g} {entry['unit']:<6} "
                f"{worsening:>+9.1%} {spread:>7.1%} {entry['bound']:>6.0%}  {outcome}"
            )
        old_share = old["failed"] / max(old["attempted"], 1)
        new_share = new["failed"] / max(new["attempted"], 1)
        raised = new_share > old_share
        regressions += raised
        print(f"{name:<14} {'failed share':<14} {old_share:>12.5g} {new_share:>12.5g} "
              f"{'':<6} {'':>9} {'':>7} {'0%':>6}  {'RAISED' if raised else 'not raised'}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0
