"""Unit tests for the pipeline build report and the settings Hydra keeps."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.pipeline import Hydra
from repro.core.scenario import Scenario, build_scenario, check_feasibility, scale_metadata
from repro.executor.engine import ExecutionEngine


class TestBuildReport:
    @pytest.fixture(scope="class")
    def result(self, toy_metadata, toy_aqps):
        return Hydra(metadata=toy_metadata).build_summary(toy_aqps)

    def test_relations_covered(self, result, toy_metadata):
        assert set(result.report.relations) == set(toy_metadata.schema.table_names)

    def test_describe_contains_totals(self, result):
        text = result.report.describe()
        assert "LP variables" in text
        assert "constraints" in text

    def test_partition_work_recorded_per_relation(self, result):
        """The ``solve.partition`` counts reach the report and its table."""
        text = result.report.describe()
        assert "partition (s)" in text and "split/visited" in text
        for name, info in result.report.relations.items():
            checkpoint = result.states[name].checkpoint
            assert (info.boxes_visited, info.boxes_split) == (
                checkpoint.boxes_visited,
                checkpoint.boxes_split,
            )
            assert f"{info.boxes_split}/{info.boxes_visited}" in text
        assert result.report.relations["R"].boxes_split > 0

    def test_grid_baseline_recorded(self, result):
        info = result.report.relations["R"]
        assert info.grid_variables >= info.num_regions

    def test_result_size_helper(self, result):
        assert result.size_bytes() == result.summary.size_bytes()

    def test_build_info_recorded_on_summary(self, result):
        assert result.summary.build_info["alignment"] == "deterministic"
        assert result.summary.build_info["lp_variables"] == result.report.total_lp_variables()


class TestHydraSettings:
    def test_only_mode_and_alignment_are_settable(self):
        assert [item.name for item in dataclasses.fields(Hydra)] == [
            "metadata", "mode", "alignment",
        ]
        init_fields = [item.name for item in dataclasses.fields(ExecutionEngine) if item.init]
        assert init_fields == ["database"]

    def test_scaled_metadata_scales_constraints(self, toy_metadata, toy_aqps):
        metadata = scale_metadata(toy_metadata, 2)
        result = Hydra(metadata=metadata).build_summary(toy_aqps)
        assert result.summary.row_count("R") == 2 * toy_metadata.row_count("R")

    def test_exact_mode_falls_back_to_soft_on_conflict(self, toy_metadata, toy_aqps):
        # Conflicting duplicate: same predicate with two different cardinalities.
        conflicting = [toy_aqps[0], toy_aqps[0].scale_annotations(3)]
        result = Hydra(metadata=toy_metadata).build_summary(conflicting)
        assert any(info.soft_fallback for info in result.report.relations.values())

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("fallback_to_soft", False),
            ("compute_grid_baseline", False),
            ("guided_solutions", False),
            ("max_regions", 3),
            ("sampling_seed", 17),
            ("row_count_overrides", {"R": 10}),
        ],
    )
    def test_removed_hydra_keyword_is_rejected(self, toy_metadata, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            Hydra(metadata=toy_metadata, **{keyword: value})

    @pytest.mark.parametrize("keyword, value", [("annotate", False), ("batch_size", 512)])
    def test_removed_engine_keyword_is_rejected(self, toy_database, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            ExecutionEngine(database=toy_database, **{keyword: value})

    @pytest.mark.parametrize(
        "call, keyword, value",
        [
            (check_feasibility, "max_regions", 3),
            (build_scenario, "max_regions", 3),
            (build_scenario, "row_count_overrides", {"R": 10}),
        ],
    )
    def test_removed_scenario_keyword_is_rejected(
        self, toy_metadata, toy_aqps, call, keyword, value
    ):
        scenario = Scenario(name="toy", metadata=toy_metadata, aqps=list(toy_aqps))
        with pytest.raises(TypeError, match=keyword):
            call(scenario, **{keyword: value})
