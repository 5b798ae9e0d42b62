"""What the benchmark declares: paths, ``BENCHMARK.json`` and workload sizes."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: ``benchmarks/trajectory`` and the checkout it sits in.
BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parents[1]
SRC_DIR = ROOT / "src"
#: Scratch space inside the checkout (git-ignored, removed after each run).
WORK_DIR = ROOT / ".bench_work"


@dataclass(frozen=True)
class Declared:
    """The contents of ``BENCHMARK.json`` the harness has to agree with."""

    workloads: tuple[str, ...]
    end_to_end: dict[str, dict[str, Any]]
    per_layer: dict[str, dict[str, Any]]
    run_seconds: int

    def unit(self, metric: str) -> str:
        entry = self.end_to_end.get(metric) or self.per_layer[metric]
        return str(entry["unit"])


def load_declared(path: Path | None = None) -> Declared:
    """Read ``BENCHMARK.json`` (the single source of metric and workload names)."""
    document = json.loads((path or ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return Declared(
        workloads=tuple(entry["name"] for entry in document["workloads"]),
        end_to_end={entry["name"]: entry for entry in document["end_to_end"]},
        per_layer={entry["name"]: entry for entry in document["per_layer"]},
        run_seconds=int(document["run_seconds"]),
    )


#: Query kinds of the default synthesizer mix that a summary can be built
#: from and that the engine answers on one route each (no disjunctive joins).
SERVE_KINDS = (
    "count_single",
    "count_join",
    "sum_single",
    "avg_single",
    "agg_join",
    "select_star",
    "disjunctive_filter",
    "in_filter",
)

# ``shape_seed`` fixes which queries (TPC-DS-like) or which schema + queries
# (synthesized) a workload runs.  It is a constant, not ``--seed``, because
# cost is heavy-tailed in shape: over five shape seeds the same sizes gave
# builds from 0.09 s to 1.7 s and query passes from 0.09 s to 2.3 s, which no
# 10-25 % bound survives.  ``--seed`` draws the client data (TPC-DS-like) and
# the order in which requests are issued.
FULL: dict[str, dict[str, Any]] = {
    "vendor-build": {
        "tpcds_scale": 0.1, "shape_seed": 2018,
        "queries": 45, "base_queries": 30, "extend_steps": 3, "step_queries": 5,
        "setups": 5,
    },
    "regen-stream": {
        "tpcds_scale": 0.1, "shape_seed": 2018, "queries": 40, "row_scale": 500,
        "setups": 3,
    },
    "export-sinks": {
        "tpcds_scale": 0.1, "shape_seed": 2018, "queries": 40, "row_scale": 3,
        "setups": 3,
    },
    "query-summary": {
        "shape_seed": 1, "relations": 5, "queries": 60, "row_scale": 1000,
        "kinds": ("count_single", "count_join", "sum_single", "avg_single", "in_filter"),
        "setups": 5,
    },
    "query-stream": {
        "shape_seed": 4, "relations": 5, "queries": 30, "row_scale": 125,
        "kinds": ("select_star", "agg_join"),
        "setups": 3,
    },
    "serve-mix": {
        "shape_seed": 1, "relations": 5, "queries": 40, "row_scale": 1,
        "kinds": SERVE_KINDS, "clients": 2,
        "setups": 3,
    },
}

#: Seconds-scale sizes for the tier-1 smoke test; records made at this size
#: are marked and the comparer refuses them.
SMOKE: dict[str, dict[str, Any]] = {
    "vendor-build": {**FULL["vendor-build"], "tpcds_scale": 0.02, "queries": 12,
                     "base_queries": 6, "step_queries": 2, "setups": 1},
    "regen-stream": {**FULL["regen-stream"], "tpcds_scale": 0.02, "queries": 8,
                     "row_scale": 20, "setups": 1},
    "export-sinks": {**FULL["export-sinks"], "tpcds_scale": 0.02, "queries": 8,
                     "row_scale": 0.2, "setups": 1},
    "query-summary": {**FULL["query-summary"], "queries": 12, "row_scale": 10, "setups": 1},
    "query-stream": {**FULL["query-stream"], "queries": 6, "row_scale": 1, "setups": 1},
    "serve-mix": {**FULL["serve-mix"], "queries": 8, "setups": 1},
}

SIZES = {"full": FULL, "smoke": SMOKE}
