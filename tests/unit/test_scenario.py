"""Unit tests for scenario construction (what-if AQPs, scaling, feasibility)."""

from __future__ import annotations

import pytest

from repro.client.extractor import AQPExtractor
from repro.core.scenario import (
    Scenario,
    build_scenario,
    check_feasibility,
    exabyte_extrapolation,
    scale_metadata,
    scale_workload,
    total_rows,
)


@pytest.fixture(scope="module")
def toy_scenario(request):
    database = request.getfixturevalue("toy_database")
    workload = request.getfixturevalue("toy_workload")
    extractor = AQPExtractor(database=database)
    metadata, aqps = extractor.profile_metadata(), extractor.extract_workload(workload)
    return Scenario(name="toy", metadata=metadata, aqps=aqps)


def _annotation_total(aqps):
    return sum(edge.cardinality for aqp in aqps for edge in aqp.edges())


class TestScaling:
    def test_scale_workload_multiplies_annotations(self, toy_scenario):
        scaled = scale_workload(toy_scenario.aqps, 10)
        assert _annotation_total(scaled) == pytest.approx(
            10 * _annotation_total(toy_scenario.aqps), rel=0.01
        )

    def test_scale_metadata_multiplies_row_counts(self, toy_scenario):
        scaled = scale_metadata(toy_scenario.metadata, 5)
        assert scaled.row_count("R") == 5 * toy_scenario.metadata.row_count("R")
        # Original metadata untouched.
        assert toy_scenario.metadata.row_count("R") != scaled.row_count("R")

    def test_scenario_scaled_is_consistent(self, toy_scenario):
        scaled = toy_scenario.scaled(100)
        assert scaled.name.endswith("x100")
        assert total_rows(scaled.metadata) == pytest.approx(
            100 * total_rows(toy_scenario.metadata), rel=0.01
        )

    def test_exabyte_extrapolation_targets_total(self, toy_scenario):
        target = 10_000_000
        scenario = exabyte_extrapolation(toy_scenario, target)
        assert total_rows(scenario.metadata) == pytest.approx(target, rel=0.05)


class TestFeasibility:
    def test_original_scenario_is_feasible(self, toy_scenario):
        report = check_feasibility(toy_scenario)
        assert report.feasible
        assert report.max_relative_error <= 0.01

    def test_scaled_scenario_remains_feasible(self, toy_scenario):
        report = check_feasibility(toy_scenario.scaled(1000))
        assert report.feasible

    def test_inconsistent_injection_detected(self, toy_scenario):
        # Make a filter output larger than its input relation: infeasible.
        aqp = toy_scenario.aqps[0]
        positions = {
            position: 10 * toy_scenario.metadata.row_count("S")
            for position, node in enumerate(aqp.plan.iter_nodes())
            if node.operator == "FILTER"
        }
        scenario = toy_scenario.with_injected_annotations({aqp.name: positions})
        report = check_feasibility(scenario)
        assert not report.feasible
        assert report.issues
        assert "infeasible" in report.describe() or "adjust" in report.describe()

    def test_feasible_report_describe(self, toy_scenario):
        report = check_feasibility(toy_scenario)
        assert "feasible" in report.describe()


class TestBuildScenario:
    def test_build_scaled_scenario_summary(self, toy_scenario):
        scenario = toy_scenario.scaled(50)
        result = build_scenario(scenario, mode="exact")
        assert result.summary.row_count("R") == scenario.metadata.row_count("R")
        # Summary size does not grow with the scale factor (data-scale-free).
        baseline = build_scenario(toy_scenario, mode="exact")
        assert result.summary.total_summary_rows() == pytest.approx(
            baseline.summary.total_summary_rows(), abs=10
        )

    def test_injected_scenario_soft_build_reports_errors(self, toy_scenario):
        aqp = toy_scenario.aqps[0]
        positions = {
            position: 10 * toy_scenario.metadata.row_count("S")
            for position, node in enumerate(aqp.plan.iter_nodes())
            if node.operator == "FILTER"
        }
        scenario = toy_scenario.with_injected_annotations({aqp.name: positions})
        result = build_scenario(scenario, mode="soft")
        assert result.report.max_relative_error() > 0.01
