"""End-to-end integration tests on the paper's Figure-1 toy scenario (E9)."""

from __future__ import annotations

import pytest

from repro.client.extractor import AQPExtractor
from repro.client.package import InformationPackage
from repro.core.pipeline import Hydra
from repro.core.summary import DatabaseSummary
from repro.executor.rate import RateLimiter
from repro.verify.comparator import VolumetricComparator
from repro.workload.toy import FIGURE1_QUERY


class TestFigure1EndToEnd:
    @pytest.fixture(scope="class")
    def pipeline(self, toy_database, toy_metadata):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql(FIGURE1_QUERY, name="figure1")
        hydra = Hydra(metadata=toy_metadata)
        result = hydra.build_summary([aqp])
        vendor_db = hydra.regenerate(result.summary)
        verification = VolumetricComparator(database=vendor_db).verify([aqp])
        return aqp, hydra, result, vendor_db, verification

    def test_every_operator_cardinality_is_exact(self, pipeline):
        _aqp, _hydra, _result, _db, verification = pipeline
        assert verification.total_edges == 7
        assert verification.max_relative_error() == 0.0

    def test_regenerated_row_counts_match_original(self, pipeline, toy_database):
        _aqp, _hydra, result, vendor_db, _verification = pipeline
        for table in ("R", "S", "T"):
            assert result.summary.row_count(table) == toy_database.row_count(table)
            assert vendor_db.row_count(table) == toy_database.row_count(table)

    def test_vendor_database_is_dataless(self, pipeline):
        _aqp, _hydra, _result, vendor_db, _verification = pipeline
        assert not vendor_db.is_materialized("R")
        assert vendor_db.memory_bytes() == 0

    def test_summary_is_minuscule(self, pipeline, toy_database):
        _aqp, _hydra, result, _db, _verification = pipeline
        original_bytes = toy_database.table_data("R").memory_bytes()
        assert result.summary.size_bytes() < original_bytes / 10
        assert result.summary.size_bytes() < 10_000

    def test_build_report_structure(self, pipeline):
        _aqp, _hydra, result, _db, _verification = pipeline
        report = result.report
        assert set(report.relations) == {"R", "S", "T"}
        assert report.total_lp_variables() >= 3
        assert report.max_relative_error() == 0.0
        assert report.referential.is_clean

    def test_referential_integrity_of_regenerated_fks(self, pipeline):
        _aqp, hydra, result, vendor_db, _verification = pipeline
        generator = hydra.tuple_generator(result.summary, "R")
        s_rows = result.summary.row_count("S")
        t_rows = result.summary.row_count("T")
        for index in range(0, generator.row_count, 97):
            _pk, s_fk, t_fk = generator.row(index)
            assert 0 <= s_fk < s_rows
            assert 0 <= t_fk < t_rows


class TestMixedWorkload:
    def test_five_query_workload_volumetric_similarity(self, toy_database, toy_metadata, toy_aqps):
        hydra = Hydra(metadata=toy_metadata)
        result = hydra.build_summary(toy_aqps)
        vendor_db = hydra.regenerate(result.summary)
        verification = VolumetricComparator(database=vendor_db).verify(toy_aqps)
        assert verification.fraction_within(0.0) >= 0.9
        assert verification.fraction_within(0.1) == 1.0

    def test_materialized_and_dynamic_relations_coexist(self, toy_metadata, toy_aqps):
        hydra = Hydra(metadata=toy_metadata)
        result = hydra.build_summary(toy_aqps)
        vendor_db = hydra.regenerate(result.summary, materialize=["S"])
        assert vendor_db.is_materialized("S")
        assert not vendor_db.is_materialized("R")
        verification = VolumetricComparator(database=vendor_db).verify(toy_aqps)
        assert verification.fraction_within(0.1) == 1.0

    def test_rate_limited_regeneration_produces_same_counts(self, toy_metadata, toy_aqps):
        from repro.executor.rate import VirtualClock

        hydra = Hydra(metadata=toy_metadata)
        result = hydra.build_summary(toy_aqps)
        clock = VirtualClock()
        limiter = RateLimiter(rows_per_second=1_000_000.0, clock=clock.now, sleep=clock.sleep)
        vendor_db = hydra.regenerate(result.summary, rate_limiter=limiter)
        verification = VolumetricComparator(database=vendor_db).verify(toy_aqps)
        assert verification.fraction_within(0.1) == 1.0
        _assert_streams_every_row(vendor_db)
        # Each relation is paced by its own clone of the configured limiter;
        # the caller's template instance itself stays untouched.
        assert limiter.rows_produced == 0
        produced = sum(
            vendor_db.provider(name).rate_limiter.rows_produced for name in vendor_db
        )
        assert produced > 0

    def test_shared_rate_limiter_mode_draws_from_one_budget(self, toy_metadata, toy_aqps):
        from repro.executor.rate import VirtualClock

        hydra = Hydra(metadata=toy_metadata)
        result = hydra.build_summary(toy_aqps)
        clock = VirtualClock()
        limiter = RateLimiter(rows_per_second=1_000_000.0, clock=clock.now, sleep=clock.sleep)
        vendor_db = hydra.regenerate(
            result.summary, rate_limiter=limiter, shared_rate_limiter=True
        )
        verification = VolumetricComparator(database=vendor_db).verify(toy_aqps)
        assert verification.fraction_within(0.1) == 1.0
        _assert_streams_every_row(vendor_db)
        assert limiter.rows_produced > 0


def _assert_streams_every_row(database):
    """Stream every relation once (verification counts from the summaries, generating nothing)."""
    for name in database:
        streamed = sum(count for _start, count, _block in database.provider(name).iter_blocks())
        assert streamed == database.row_count(name), name


class TestPackageRoundTrip:
    def test_summary_and_package_survive_serialisation(self, toy_database, toy_workload, tmp_path):
        extractor = AQPExtractor(database=toy_database)
        metadata, aqps = extractor.profile_metadata(), extractor.extract_workload(toy_workload)
        package = InformationPackage(metadata=metadata, aqps=aqps)
        package_path = tmp_path / "package.json"
        package.save(package_path)

        loaded = InformationPackage.load(package_path)
        hydra = Hydra(metadata=loaded.metadata)
        result = hydra.build_summary(loaded.aqps)
        summary_path = tmp_path / "summary.json"
        result.summary.save(summary_path)

        restored_summary = DatabaseSummary.load(summary_path)
        vendor_db = Hydra(metadata=loaded.metadata).regenerate(restored_summary)
        verification = VolumetricComparator(database=vendor_db).verify(loaded.aqps)
        assert verification.fraction_within(0.1) == 1.0
