"""Unit tests for the client site (extractor, package, anonymiser) and verification."""

from __future__ import annotations

import json

import pytest

from repro.client.anonymizer import Anonymizer
from repro.client.extractor import AQPExtractor
from repro.client.package import DeltaPackage, InformationPackage, load_package_file
from repro.core.errors import HydraError
from repro.core.pipeline import Hydra
from repro.verify.comparator import EdgeComparison, VerificationResult, VolumetricComparator
from repro.verify.report import (
    QualityReport,
    format_aqp_comparison,
    format_error_cdf,
    format_relation_summary,
    format_sample_tuples,
    format_summary_table,
)
from repro.workload.toy import FIGURE1_QUERY


class TestAQPExtractor:
    def test_extract_annotates_every_node(self, toy_database):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql(FIGURE1_QUERY, name="fig1")
        assert all(node.cardinality is not None for node in aqp.plan.iter_nodes())

    def test_scan_annotation_equals_row_count(self, toy_database):
        extractor = AQPExtractor(database=toy_database)
        aqp = extractor.extract_sql("select * from S where S.A >= 50", name="s")
        scan = [n for n in aqp.plan.iter_nodes() if n.operator == "SCAN"][0]
        assert scan.cardinality == toy_database.row_count("S")

    def test_extract_workload(self, toy_database, toy_workload):
        extractor = AQPExtractor(database=toy_database)
        aqps = extractor.extract_workload(toy_workload)
        assert len(aqps) == len(toy_workload)
        assert all(
            node.cardinality is not None for aqp in aqps for node in aqp.plan.iter_nodes()
        )


class TestInformationPackage:
    def _package(self, toy_database, toy_workload) -> InformationPackage:
        extractor = AQPExtractor(database=toy_database)
        metadata, aqps = extractor.profile_metadata(), extractor.extract_workload(toy_workload)
        return InformationPackage(metadata=metadata, aqps=aqps, client_name="acme")

    def test_counts_and_lookup(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        assert package.query_count == len(toy_workload)
        assert package.constraint_count() > 0
        assert package.aqp(toy_workload[0].name).name == toy_workload[0].name
        with pytest.raises(KeyError):
            package.aqp("missing")

    def test_json_roundtrip(self, toy_database, toy_workload, tmp_path):
        package = self._package(toy_database, toy_workload)
        path = tmp_path / "package.json"
        package.save(path)
        restored = InformationPackage.load(path)
        assert restored.query_count == package.query_count
        assert restored.client_name == "acme"
        assert restored.metadata.row_count("R") == package.metadata.row_count("R")
        assert [a.name for a in restored.aqps] == [a.name for a in package.aqps]

    def test_version_check(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        payload = package.to_dict()
        payload["format_version"] = 99
        with pytest.raises(HydraError, match="at format_version: .*unsupported version 99"):
            InformationPackage.from_dict(payload)

    @pytest.mark.parametrize(
        ("mutate", "field"),
        [
            (lambda payload: payload.pop("metadata"), "metadata"),
            (lambda payload: payload.update(metadata=5), "metadata"),
            (lambda payload: payload["metadata"].pop("schema"), "metadata"),
            (lambda payload: payload.update(aqps={"q": 1}), "aqps"),
            (lambda payload: payload["aqps"][1]["plan"].pop("operator"), r"aqps\[1\]"),
            (lambda payload: payload["aqps"].__setitem__(0, "select 1"), r"aqps\[0\]"),
            (lambda payload: payload.update(client_name=7), "client_name"),
        ],
    )
    def test_malformed_payload_is_a_typed_error(self, toy_database, toy_workload, mutate, field):
        payload = json.loads(self._package(toy_database, toy_workload).to_json())
        mutate(payload)
        with pytest.raises(HydraError, match=f"malformed information package at {field}: "):
            InformationPackage.from_dict(payload)

    def test_malformed_document_is_a_typed_error(self, tmp_path):
        for text, field in (("not json", "<document>"), ("[1, 2]", "<document>"), ("{}", "metadata")):
            path = tmp_path / "bad.json"
            path.write_text(text)
            for load in (InformationPackage.load, load_package_file):
                with pytest.raises(HydraError, match=f"malformed information package at {field}: "):
                    load(path)

    def test_describe_mentions_queries(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        description = package.describe()
        assert "queries" in description and "acme" in description

    def test_save_creates_parent_directories(self, toy_database, toy_workload, tmp_path):
        package = self._package(toy_database, toy_workload)
        path = tmp_path / "client" / "outbox" / "package.json"
        package.save(path)
        assert InformationPackage.load(path).query_count == package.query_count

    def test_fingerprint_tracks_content(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        assert package.fingerprint() == self._package(toy_database, toy_workload).fingerprint()
        smaller = InformationPackage(
            metadata=package.metadata, aqps=package.aqps[:-1], client_name="acme"
        )
        assert smaller.fingerprint() != package.fingerprint()

    def test_fingerprint_ignores_annotations(self, toy_database, toy_workload):
        """notes/client_name don't change what a summary is built from, so
        the vendor can re-derive the union fingerprint from the delta alone."""
        package = self._package(toy_database, toy_workload)
        annotated = InformationPackage(
            metadata=package.metadata,
            aqps=package.aqps,
            client_name="someone-else",
            notes="q1 batch",
        )
        assert annotated.fingerprint() == package.fingerprint()
        # Vendor-side union (no notes) matches the client's apply_delta union.
        base = InformationPackage(
            metadata=package.metadata, aqps=package.aqps[:-1],
            client_name="acme", notes="q1 batch",
        )
        delta = base.make_delta(package.aqps[-1:])
        vendor_union = InformationPackage(
            metadata=package.metadata,
            aqps=base.aqps + delta.aqps,
            client_name=delta.client_name,
        )
        assert vendor_union.fingerprint() == base.apply_delta(delta).fingerprint()


class TestDeltaPackage:
    def _package(self, toy_database, toy_workload) -> InformationPackage:
        extractor = AQPExtractor(database=toy_database)
        metadata, aqps = extractor.profile_metadata(), extractor.extract_workload(toy_workload)
        return InformationPackage(metadata=metadata, aqps=aqps, client_name="acme")

    def test_make_and_apply_delta(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        base = InformationPackage(
            metadata=package.metadata, aqps=package.aqps[:-1], client_name="acme"
        )
        delta = base.make_delta(package.aqps[-1:])
        assert delta.base_fingerprint == base.fingerprint()
        assert delta.query_count == 1
        union = base.apply_delta(delta)
        assert union.query_count == package.query_count
        assert [a.name for a in union.aqps] == [a.name for a in package.aqps]

    def test_apply_delta_rejects_wrong_base(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        base = InformationPackage(
            metadata=package.metadata, aqps=package.aqps[:-1], client_name="acme"
        )
        delta = package.make_delta(package.aqps[-1:])  # pinned to the full package
        with pytest.raises(ValueError, match="built against base"):
            base.apply_delta(delta)

    def test_json_roundtrip_and_dispatch(self, toy_database, toy_workload, tmp_path):
        package = self._package(toy_database, toy_workload)
        delta = package.make_delta(package.aqps[-1:], notes="nightly batch")
        path = tmp_path / "delta" / "delta.json"
        delta.save(path)
        loaded = load_package_file(path)
        assert isinstance(loaded, DeltaPackage)
        assert loaded.base_fingerprint == delta.base_fingerprint
        assert loaded.notes == "nightly batch"
        assert "delta package" in loaded.describe()

        full_path = tmp_path / "full.json"
        package.save(full_path)
        assert isinstance(load_package_file(full_path), InformationPackage)

    def test_from_dict_rejects_non_delta(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        with pytest.raises(HydraError, match="malformed delta package at kind: .*not a delta"):
            DeltaPackage.from_dict(package.to_dict())


class TestAnonymizer:
    def _package(self, toy_database, toy_workload) -> InformationPackage:
        extractor = AQPExtractor(database=toy_database)
        metadata, aqps = extractor.profile_metadata(), extractor.extract_workload(toy_workload)
        return InformationPackage(metadata=metadata, aqps=aqps, client_name="acme")

    def test_identifiers_renamed_consistently(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        anonymized, mapping = Anonymizer().anonymize(package)
        assert set(anonymized.metadata.schema.table_names) == set(mapping.tables.values())
        assert "R" not in anonymized.metadata.schema.table_names
        # FK references point at renamed tables.
        for table in anonymized.metadata.schema:
            for fk in table.foreign_keys:
                assert anonymized.metadata.schema.has_table(fk.ref_table)

    def test_cardinalities_preserved(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        anonymized, _mapping = Anonymizer().anonymize(package)
        original = [e.cardinality for aqp in package.aqps for e in aqp.edges()]
        renamed = [e.cardinality for aqp in anonymized.aqps for e in aqp.edges()]
        assert original == renamed

    def test_sql_text_dropped(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        anonymized, _ = Anonymizer().anonymize(package)
        assert all(aqp.query.sql == "" for aqp in anonymized.aqps)

    def test_original_package_untouched(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        Anonymizer().anonymize(package)
        assert "R" in package.metadata.schema.table_names
        assert package.client_name == "acme"

    def test_anonymized_package_still_regenerates(self, toy_database, toy_workload):
        """The end-to-end property: anonymisation must not break the vendor pipeline."""
        package = self._package(toy_database, toy_workload)
        anonymized, _ = Anonymizer().anonymize(package)
        hydra = Hydra(metadata=anonymized.metadata)
        result = hydra.build_summary(anonymized.aqps)
        database = hydra.regenerate(result.summary)
        verification = VolumetricComparator(database=database).verify(anonymized.aqps)
        assert verification.fraction_within(0.1) == 1.0

    def test_statistics_coarsening(self, toy_database, toy_workload):
        package = self._package(toy_database, toy_workload)
        anonymized, _ = Anonymizer(max_mcvs=2, max_histogram_bounds=4).anonymize(package)
        for table_stats in anonymized.metadata.statistics.values():
            for column_stats in table_stats.columns.values():
                assert len(column_stats.most_common_values) <= 2


class TestVerification:
    def test_identical_database_verifies_exactly(self, toy_database, toy_aqps):
        result = VolumetricComparator(database=toy_database).verify(toy_aqps)
        assert result.total_edges > 0
        assert result.max_relative_error() == 0.0
        assert result.fraction_within(0.0) == 1.0

    def test_edge_comparison_metrics(self):
        edge = EdgeComparison("q", "FILTER", "Filter(S)", original=100, regenerated=93)
        assert edge.absolute_error == 7
        assert edge.relative_error == pytest.approx(0.07)
        zero = EdgeComparison("q", "SCAN", "Scan(S)", original=0, regenerated=0)
        assert zero.relative_error == 0.0
        ghost = EdgeComparison("q", "SCAN", "Scan(S)", original=0, regenerated=3)
        assert ghost.relative_error == 3.0

    def test_error_cdf_monotone(self, toy_database, toy_aqps):
        result = VolumetricComparator(database=toy_database).verify(toy_aqps)
        cdf = result.error_cdf()
        fractions = [fraction for _threshold, fraction in cdf]
        assert fractions == sorted(fractions)

    def test_result_helpers(self):
        result = VerificationResult(
            comparisons=[
                EdgeComparison("q1", "FILTER", "f", 100, 100),
                EdgeComparison("q1", "JOIN", "j", 50, 40),
                EdgeComparison("q2", "SCAN", "s", 10, 10),
            ]
        )
        assert result.satisfied_within(0.0) == 2
        assert result.fraction_within(0.25) == pytest.approx(1.0)
        assert result.mean_relative_error() == pytest.approx(0.2 / 3)
        assert result.worst(1)[0].description == "j"
        assert len(result.by_query("q1")) == 2

    def test_empty_result(self):
        result = VerificationResult()
        assert result.fraction_within(0.0) == 1.0
        assert result.max_relative_error() == 0.0


class TestReports:
    @pytest.fixture()
    def built(self, toy_metadata, toy_aqps):
        hydra = Hydra(metadata=toy_metadata)
        result = hydra.build_summary(toy_aqps)
        database = hydra.regenerate(result.summary)
        verification = VolumetricComparator(database=database).verify(toy_aqps)
        return hydra, result, database, verification

    def test_summary_table_lists_relations(self, built):
        _hydra, result, _db, _verification = built
        text = format_summary_table(result.summary)
        for name in ("R", "S", "T"):
            assert name in text

    def test_relation_summary_rendering(self, built):
        _hydra, result, _db, _verification = built
        text = format_relation_summary(result.summary, "S")
        assert "#TUPLES" in text

    def test_error_cdf_rendering(self, built):
        *_rest, verification = built
        text = format_error_cdf(verification)
        assert "constraints satisfied" in text

    def test_aqp_comparison_rendering(self, built, toy_aqps):
        *_rest, verification = built
        text = format_aqp_comparison(toy_aqps[0], verification)
        assert toy_aqps[0].name in text

    def test_sample_tuples_rendering(self, built, toy_metadata):
        hydra, result, _db, _verification = built
        generator = hydra.tuple_generator(result.summary, "S")
        text = format_sample_tuples(generator, [0, 1, 2])
        assert "S_pk" in text

    def test_quality_report_render(self, built, toy_aqps):
        _hydra, result, _db, verification = built
        report = QualityReport(
            summary=result.summary,
            build_report=result.report,
            verification=verification,
            aqps=list(toy_aqps),
        )
        text = report.render(per_query=True)
        assert "volumetric similarity" in text
        assert "database summary" in text
