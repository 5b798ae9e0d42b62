"""Integration tests: TPC-H snowflake workloads, scenario scaling, scale-freeness."""

from __future__ import annotations

import pytest

from repro.client.extractor import AQPExtractor
from repro.core.pipeline import Hydra
from repro.core.scenario import Scenario, build_scenario, check_feasibility
from repro.verify.comparator import VolumetricComparator
from repro.workload.generator import WorkloadConfig, generate_workload


@pytest.fixture(scope="module")
def tpch_workload(tpch_metadata):
    return generate_workload(
        tpch_metadata, WorkloadConfig(num_queries=12, templates_per_dimension=3, seed=6)
    )


@pytest.fixture(scope="module")
def tpch_aqps(tpch_database, tpch_workload):
    return AQPExtractor(database=tpch_database).extract_workload(tpch_workload)


class TestTPCHPipeline:
    def test_generated_workload_round_trips(self, tpch_metadata, tpch_aqps):
        hydra = Hydra(metadata=tpch_metadata)
        result = hydra.build_summary(tpch_aqps)
        vendor_db = hydra.regenerate(result.summary)
        verification = VolumetricComparator(database=vendor_db).verify(tpch_aqps)
        assert verification.fraction_within(0.001) > 0.85
        assert verification.fraction_within(0.15) == 1.0

    def test_snowflake_query_regenerates(self, tpch_database, tpch_metadata):
        extractor = AQPExtractor(database=tpch_database)
        sql = (
            "select * from lineitem, orders, customer "
            "where lineitem.l_orderkey = orders.o_orderkey "
            "and orders.o_custkey = customer.c_custkey "
            "and customer.c_mktsegment = 'BUILDING' and orders.o_totalprice >= 100000"
        )
        aqp = extractor.extract_sql(sql, name="snowflake")
        hydra = Hydra(metadata=tpch_metadata)
        result = hydra.build_summary([aqp])
        vendor_db = hydra.regenerate(result.summary)
        verification = VolumetricComparator(database=vendor_db).verify([aqp])
        assert verification.fraction_within(0.05) == 1.0


class TestScenarioScaling:
    """The data-scale-free property (E4/E7): cost tracks the workload, not the data."""

    @pytest.fixture(scope="class")
    def toy_scenario(self, toy_database, toy_workload):
        extractor = AQPExtractor(database=toy_database)
        metadata, aqps = extractor.profile_metadata(), extractor.extract_workload(toy_workload)
        return Scenario(name="toy", metadata=metadata, aqps=aqps)

    @pytest.mark.parametrize("factor", [10, 1_000, 100_000])
    def test_summary_rows_do_not_grow_with_scale(self, toy_scenario, factor):
        baseline = build_scenario(toy_scenario, mode="exact")
        scaled = build_scenario(toy_scenario.scaled(factor), mode="exact")
        assert scaled.summary.total_rows() >= factor * 0.9 * baseline.summary.total_rows()
        assert scaled.summary.total_summary_rows() <= baseline.summary.total_summary_rows() + 10
        assert scaled.summary.size_bytes() < 4 * baseline.summary.size_bytes()

    def test_scaled_scenario_feasible_and_accurate(self, toy_scenario):
        scaled = toy_scenario.scaled(1_000)
        assert check_feasibility(scaled).feasible
        result = build_scenario(scaled, mode="exact")
        hydra = Hydra(metadata=scaled.metadata)
        vendor_db = hydra.regenerate(result.summary)
        verification = VolumetricComparator(database=vendor_db).verify(scaled.aqps)
        # Relative errors shrink with scale (the paper's argument): everything
        # should be within a fraction of a percent at 1000x.
        assert verification.fraction_within(0.01) == 1.0

    def test_regeneration_of_huge_relation_is_lazy(self, toy_scenario):
        scaled = toy_scenario.scaled(100_000)
        result = build_scenario(scaled, mode="exact")
        hydra = Hydra(metadata=scaled.metadata)
        vendor_db = hydra.regenerate(result.summary)
        provider = vendor_db.provider("R")
        # Half a billion rows are addressable without materialisation.
        assert provider.row_count >= 100_000 * 4_000
        row = provider.row(provider.row_count - 1)
        assert row[0] == provider.row_count - 1
