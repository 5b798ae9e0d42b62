"""Integration tests on the synthetic TPC-DS-like workload (E1/E2 in miniature)."""

from __future__ import annotations

import pytest

from repro.core.pipeline import Hydra
from repro.executor.datagen import DataGenRelation
from repro.executor.engine import ExecutionEngine
from repro.plans.logical import plan_from_dict
from repro.verify.comparator import VolumetricComparator


@pytest.fixture(scope="module")
def tpcds_build(tpcds_metadata, tpcds_aqps):
    hydra = Hydra(metadata=tpcds_metadata)
    result = hydra.build_summary(tpcds_aqps)
    return hydra, result


class TestSummaryConstruction:
    def test_all_relations_summarised(self, tpcds_build, tpcds_metadata):
        _hydra, result = tpcds_build
        assert set(result.summary.relations) == set(tpcds_metadata.schema.table_names)
        for name in result.summary.relations:
            assert result.summary.row_count(name) == tpcds_metadata.row_count(name)

    def test_region_partitioning_beats_grid(self, tpcds_build):
        """E3 in miniature: the region LPs are much smaller than grid LPs."""
        _hydra, result = tpcds_build
        total_regions = result.report.total_lp_variables()
        total_grid = result.report.total_grid_variables()
        assert total_regions < total_grid
        fact_infos = [
            info
            for name, info in result.report.relations.items()
            if name in ("store_sales", "web_sales", "catalog_sales") and info.num_constraints > 0
        ]
        assert any(info.grid_variables > 2 * info.num_regions for info in fact_infos)

    def test_summary_much_smaller_than_database(self, tpcds_build, tpcds_database):
        _hydra, result = tpcds_build
        assert result.summary.size_bytes() < tpcds_database.memory_bytes() / 20

    def test_exact_constraint_satisfaction_reported(self, tpcds_build):
        _hydra, result = tpcds_build
        assert result.report.max_relative_error() <= 0.02


class TestVolumetricSimilarity:
    def test_error_profile_matches_paper_claim(self, tpcds_build, tpcds_aqps):
        hydra, result = tpcds_build
        vendor_db = hydra.regenerate(result.summary)
        verification = VolumetricComparator(database=vendor_db).verify(tpcds_aqps)
        # Paper: >90% of constraints with virtually no error, rest within 10%.
        assert verification.fraction_within(0.001) > 0.9
        assert verification.fraction_within(0.1) == 1.0

    def test_dynamic_relations_stream_through_queries(self, tpcds_build, tpcds_aqps):
        hydra, result = tpcds_build
        vendor_db = hydra.regenerate(result.summary)
        provider = vendor_db.provider("store_sales")
        assert isinstance(provider, DataGenRelation)
        # Verification counts from the summaries; executing a plan streams.
        VolumetricComparator(database=vendor_db).verify(tpcds_aqps[:3])
        assert provider.stats.rows_generated == 0
        plan = next(aqp.plan for aqp in tpcds_aqps if "store_sales" in aqp.plan.output_tables())
        ExecutionEngine(database=vendor_db).execute(plan_from_dict(plan.to_dict()))
        assert provider.stats.rows_generated > 0


class TestSamplingAblation:
    def test_sampling_alignment_is_less_accurate(self, tpcds_metadata, tpcds_aqps):
        """E8: deterministic alignment dominates the sampling baseline."""
        deterministic = Hydra(metadata=tpcds_metadata, alignment="deterministic")
        sampling = Hydra(metadata=tpcds_metadata, alignment="sampling")
        det_result = deterministic.build_summary(tpcds_aqps)
        samp_result = sampling.build_summary(tpcds_aqps)

        det_verify = VolumetricComparator(
            database=deterministic.regenerate(det_result.summary)
        ).verify(tpcds_aqps)
        samp_verify = VolumetricComparator(
            database=sampling.regenerate(samp_result.summary)
        ).verify(tpcds_aqps)

        assert det_verify.fraction_within(0.001) >= samp_verify.fraction_within(0.001)
        assert det_verify.mean_relative_error() <= samp_verify.mean_relative_error()
