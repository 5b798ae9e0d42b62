"""A trajectory record: every run's metrics per workload, plus where it was measured."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Any

import numpy
import scipy

from .spec import ROOT, SIZES, Declared

RECORD_SCHEMA = 1


def summarize(values: list[float]) -> dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return {"median": only, "q1": only, "q3": only}
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return {"median": middle, "q1": q1, "q3": q3}


def _git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _table(declared: dict[str, Any], runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Per metric the values of every run; a metric no run measured is left out."""
    table = {}
    for name, entry in declared.items():
        values = [run["metrics"][name]["value"] for run in runs if name in run["measured"]]
        if values:
            table[name] = {"unit": entry["unit"], "values": values, **summarize(values)}
    return table


def build_record(
    declared: Declared,
    results: dict[str, dict[str, list[dict[str, Any]]]],
    size: str,
    seed: int,
    seconds: float,
) -> dict[str, Any]:
    workloads = {}
    for name, runs in results.items():
        every = runs["end_to_end"] + runs["per_layer"]
        layer_seconds: dict[str, list[float]] = {}
        for run in runs["per_layer"]:
            for layer, spent in run["layer_self_seconds"].items():
                layer_seconds.setdefault(layer, []).append(spent)
        workloads[name] = {
            "end_to_end": _table(declared.end_to_end, runs["end_to_end"]),
            "per_layer": _table(declared.per_layer, runs["per_layer"]),
            "layer_self_seconds": {
                layer: statistics.median(spent) for layer, spent in layer_seconds.items()
            },
            "runs": {"end_to_end": len(runs["end_to_end"]), "per_layer": len(runs["per_layer"])},
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "operations": [run["samples"]["operations"] for run in runs["end_to_end"]],
        }
    return {
        "schema": RECORD_SCHEMA,
        "size": size,
        "git_sha": _git_sha(),
        "seed": seed,
        "run_seconds": seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "sizes": SIZES[size],
        "workloads": workloads,
    }


def print_record(record: dict[str, Any]) -> None:
    """Every metric by name with its unit, one row per (workload, metric)."""
    for title, key in (("END TO END (tracing off)", "end_to_end"), ("PER LAYER (traced run)", "per_layer")):
        print(f"\n{title}")
        print(f"{'workload':<14} {'metric':<44} {'median':>14} {'unit':<6} {'q1':>14} {'q3':>14} {'runs':>4}")
        for name, workload in record["workloads"].items():
            for metric, entry in workload[key].items():
                print(
                    f"{name:<14} {metric:<44} {entry['median']:>14.6g} {entry['unit']:<6} "
                    f"{entry['q1']:>14.6g} {entry['q3']:>14.6g} {len(entry['values']):>4}"
                )
    print("\nSELF TIME PER LAYER (traced run, seconds)")
    for name, workload in record["workloads"].items():
        parts = "  ".join(f"{layer}={spent:.3f}" for layer, spent in workload["layer_self_seconds"].items())
        print(f"{name:<14} {parts}")
    print("\nOPERATIONS")
    for name, workload in record["workloads"].items():
        print(
            f"{name:<14} attempted={workload['attempted']} failed={workload['failed']} "
            f"timed operations per run={workload['operations']}"
        )
