"""Tier-1 smoke test of the tracked benchmark (``--size smoke``, seconds in total).

It pins what later changes must not break silently: the harness and
``BENCHMARK.json`` name the same workloads and metrics, the exact-count
metrics are deterministic for a seed, smoke records cannot enter a
comparison, and the harness touches the program only through its public
names.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parents[1] / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import repro  # noqa: E402
import repro.core  # noqa: E402
import repro.telemetry  # noqa: E402
from hydrabench import cli  # noqa: E402
from hydrabench.compare import BETTER, UNRESOLVED, WITHIN, WORSE, compare_files, verdict  # noqa: E402
from hydrabench.record import build_record  # noqa: E402
from hydrabench.runner import WORKLOADS, run_workload  # noqa: E402
from hydrabench.spec import load_declared  # noqa: E402

SEED = 3
SECONDS = 0.05
#: Counts that depend only on the inputs, so two runs with one seed agree exactly.
#: ``summary_bytes`` is not among them: the summary serialises its own build
#: time (``build_info.total_seconds``), whose digits move the size by a byte or two.
EXACT = {
    ("vendor-build", 1): ("core.regions.count", "core.summary.rows", "core.lp.constraints"),
    ("query-stream", 1): ("executor.engine.scanned_rows", "core.summary.rows"),
}


@pytest.fixture(scope="module")
def declared():
    return load_declared()


@pytest.fixture(scope="module")
def runs(declared):
    return {
        (name, trace): run_workload(declared, name, SEED, SECONDS, bool(trace), size="smoke")
        for name in declared.workloads
        for trace in (0, 1)
    }


def test_workloads_match_benchmark_json(declared):
    assert set(WORKLOADS) == set(declared.workloads)
    assert "setup_s" in declared.end_to_end


def test_every_run_is_correct_and_emits_exactly_the_declared_metrics(declared, runs):
    for (name, trace), result in runs.items():
        assert result["correct"], (name, trace, result["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = declared.per_layer if trace else declared.end_to_end
        assert list(result["metrics"]) == list(expected), (name, trace)
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == expected[metric]["unit"]
            assert isinstance(entry["value"], float)


def test_end_to_end_metrics_are_measured_and_non_zero_on_every_workload(declared, runs):
    for name in declared.workloads:
        result = runs[(name, 0)]
        assert set(result["measured"]) == set(declared.end_to_end), name
        assert all(entry["value"] > 0 for entry in result["metrics"].values()), name


def test_every_per_layer_metric_is_measured_by_some_workload(declared, runs):
    measured = set()
    for name in declared.workloads:
        measured |= set(runs[(name, 1)]["measured"])
    assert measured == set(declared.per_layer)


def test_exact_count_metrics_repeat_for_a_seed(declared, runs):
    for (name, trace), metrics in EXACT.items():
        again = run_workload(declared, name, SEED, SECONDS, bool(trace), size="smoke")
        for metric in metrics:
            first = runs[(name, trace)]["metrics"][metric]["value"]
            assert first > 0
            assert again["metrics"][metric]["value"] == first, (name, metric)
    first = runs[("vendor-build", 0)]["metrics"]["summary_bytes"]["value"]
    again = run_workload(declared, "vendor-build", SEED, SECONDS, False, size="smoke")
    assert again["metrics"]["summary_bytes"]["value"] == pytest.approx(first, abs=8)


def test_smoke_records_are_marked_and_the_comparer_refuses_them(declared, runs, tmp_path, capsys):
    results = {
        name: {"end_to_end": [runs[(name, 0)]], "per_layer": [runs[(name, 1)]]}
        for name in declared.workloads
    }
    record = build_record(declared, results, "smoke", SEED, SECONDS)
    assert record["size"] == "smoke"
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(record))
    assert compare_files(path, path, declared) == 2
    assert "cannot be compared" in capsys.readouterr().err

    record["size"] = "full"
    path.write_text(json.dumps(record))
    assert compare_files(path, path, declared) == 0
    rows = capsys.readouterr().out
    for name in declared.workloads:
        for metric in declared.end_to_end:
            assert any(line.startswith(name) and metric in line for line in rows.splitlines())


def test_comparer_verdicts():
    steady = {"median": 100.0, "q1": 99.0, "q3": 101.0}

    def side(median, spread=0.02):
        return {"median": median, "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2)}

    assert verdict(steady, side(104.0), "lower", 0.10)[0] == WITHIN
    assert verdict(steady, side(115.0), "lower", 0.10)[0] == WORSE
    assert verdict(steady, side(85.0), "lower", 0.10)[0] == BETTER
    assert verdict(steady, side(85.0), "higher", 0.10)[0] == WORSE
    assert verdict(steady, side(104.0, spread=0.30), "lower", 0.10)[0] == UNRESOLVED
    assert verdict(steady, side(115.0, spread=0.30), "lower", 0.10)[0] == WORSE


def test_refuses_to_run_under_repro_bench_tiny(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_TINY", "1")
    assert cli.main(["--workload", "query-summary", "--size", "smoke"]) == 2
    assert "REPRO_BENCH_TINY" in capsys.readouterr().err


def test_harness_uses_only_public_names_of_the_program():
    public = {
        "repro": set(repro.__all__),
        "repro.core": set(repro.core.__all__),
        "repro.telemetry": set(repro.telemetry.__all__),
    }
    sources = [path for path in HERE.rglob("*.py") if path.name != Path(__file__).name]
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[0] != "repro", f"{path}: import {alias.name}"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                assert node.level == 0 and node.module in public, f"{path}: from {node.module}"
                for alias in node.names:
                    assert alias.name in public[node.module], f"{path}: {node.module}.{alias.name}"
