"""Incremental summary maintenance (``Hydra.extend_summary``).

The contract under test: a delta workload re-solves **only** the relations it
touches (directly, or transitively through foreign-key referencing edges);
the spliced summary matches a from-scratch build of the union workload
bit-for-bit; untouched relations keep identical summary rows and therefore
identical regenerated tuple streams; and an empty or redundant delta is a
complete no-op.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import vendor_main
from repro.client.extractor import AQPExtractor
from repro.client.package import InformationPackage
from repro.core import solver as solver_module
from repro.core.errors import HydraError, SummaryError
from repro.core.pipeline import Hydra
from repro.core.scenario import check_delta_feasibility, scale_metadata
from repro.core.summary import DatabaseSummary
from repro.telemetry import telemetry_session


@pytest.fixture(scope="module")
def toy_client(toy_database, toy_metadata, toy_aqps):
    return toy_database, toy_metadata, list(toy_aqps)


def _extract(database, sql, name):
    return AQPExtractor(database=database).extract_sql(sql, name=name)


@pytest.fixture(scope="module")
def r_only_delta(toy_database):
    """A delta query constraining only the fact relation R."""
    return [
        _extract(
            toy_database,
            "select count(*) from R where R.S_fk >= 100 and R.S_fk < 400",
            "delta_r_count",
        )
    ]


@pytest.fixture(scope="module")
def s_touching_delta(toy_database):
    """A delta query with a brand-new predicate on the dimension S."""
    return [
        _extract(
            toy_database,
            "select * from S where S.A >= 15 and S.A < 55",
            "delta_s_scan",
        )
    ]


@pytest.fixture(params=["toy", "tpcds"])
def client_and_delta(request):
    """``(metadata, base AQPs A, delta AQPs B)`` for the toy and tpcds clients."""
    if request.param == "toy":
        _db, metadata, aqps = request.getfixturevalue("toy_client")
        return metadata, aqps, request.getfixturevalue("r_only_delta")
    aqps = list(request.getfixturevalue("tpcds_aqps"))
    return request.getfixturevalue("tpcds_metadata"), aqps[:14], aqps[14:]


def _artifacts(result, version):
    """What the three drivers must agree on, byte for byte.

    A cold build is version 1 and every splice bumps it, so the version is
    pinned before fingerprinting; everything else must match as built.
    """
    return (
        replace(result.summary, version=version).fingerprint(),
        {name: rel.to_dict() for name, rel in result.summary.relations.items()},
        json.dumps(result.extension_state(), sort_keys=True, separators=(",", ":")),
    )


def _solver_call_log(monkeypatch):
    calls: list[str] = []
    original = solver_module.LPSolver.solve

    def counting(self, problem, targets=None):
        calls.append(problem.relation)
        return original(self, problem, targets=targets)

    monkeypatch.setattr(solver_module.LPSolver, "solve", counting)
    return calls


def _materialized(hydra, summary):
    names = list(summary.relations)
    database = hydra.regenerate(summary, materialize=names)
    return {name: database.table_data(name) for name in names}


def _assert_identical_rows(left, right):
    assert set(left) == set(right)
    for name in left:
        for column in left[name].columns:
            assert np.array_equal(
                left[name].columns[column], right[name].columns[column]
            ), f"{name}.{column} diverged"


class TestTouchedRelations:
    def test_fact_only_delta(self, toy_client, r_only_delta):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        assert hydra.touched_relations(base, r_only_delta) == ["R"]

    def test_dimension_delta_closes_over_referencing_edges(
        self, toy_client, s_touching_delta
    ):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        # S is directly touched; R references S and must re-solve; T is not
        # reachable from S through a referencing edge and stays untouched.
        assert hydra.touched_relations(base, s_touching_delta) == ["R", "S"]

    def test_duplicate_delta_touches_nothing(self, toy_client):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        assert hydra.touched_relations(base, [aqps[0].copy()]) == []

    def test_result_without_state_is_rejected(self, toy_client):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        from repro.core.pipeline import HydraBuildResult

        bare = HydraBuildResult(summary=base.summary, report=base.report)
        with pytest.raises(HydraError, match="extension state"):
            hydra.extend_summary(bare, [])


class TestExtendSummary:
    def test_resolves_only_touched_relations(
        self, toy_client, r_only_delta, monkeypatch
    ):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        calls = _solver_call_log(monkeypatch)
        extended = hydra.extend_summary(base, r_only_delta)
        # Only R is solved (possibly twice: exact attempt + soft fallback when
        # the client-side annotation is not exactly representable).
        assert set(calls) == {"R"}
        assert extended.report.resolved_relations() == ["R"]
        assert sorted(extended.report.reused_relations()) == ["S", "T"]

    def test_matches_from_scratch_union_build(self, client_and_delta):
        metadata, aqps, delta = client_and_delta
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        extended = hydra.extend_summary(base, delta)
        fresh = hydra.build_summary(aqps + delta)
        version = extended.summary.version
        assert _artifacts(fresh, version) == _artifacts(extended, version)
        _assert_identical_rows(
            _materialized(hydra, fresh.summary), _materialized(hydra, extended.summary)
        )

    def test_transitive_delta_matches_union_build(self, toy_client, s_touching_delta):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        extended = hydra.extend_summary(base, s_touching_delta)
        fresh = hydra.build_summary(aqps + s_touching_delta)
        for name in fresh.summary.relations:
            assert (
                fresh.summary.relations[name].to_dict()
                == extended.summary.relations[name].to_dict()
            )
        # The warm-started extend must derive exactly the LP a from-scratch
        # union build formulates — LPProblem.equivalent_to is the structural
        # ground truth behind the signature-based reuse decisions.
        for name in ("S", "R"):
            assert extended.states[name].problem.equivalent_to(
                fresh.states[name].problem
            ), f"LP of {name} diverged from the union build"
        _assert_identical_rows(
            _materialized(hydra, fresh.summary), _materialized(hydra, extended.summary)
        )

    def test_untouched_relations_keep_identical_streams(
        self, toy_client, r_only_delta
    ):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        extended = hydra.extend_summary(base, r_only_delta)
        # The untouched summaries are literally shared, making stream
        # identity structural ...
        for name in ("S", "T"):
            assert extended.summary.relations[name] is base.summary.relations[name]
        # ... and the regenerated rows are verified bit-for-bit regardless.
        before = _materialized(hydra, base.summary)
        after = _materialized(hydra, extended.summary)
        for name in ("S", "T"):
            for column in before[name].columns:
                assert np.array_equal(
                    before[name].columns[column], after[name].columns[column]
                )

    def test_empty_delta_is_noop(self, toy_client, monkeypatch):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        calls = _solver_call_log(monkeypatch)
        extended = hydra.extend_summary(base, [])
        assert calls == []
        assert extended.summary is base.summary
        assert extended.summary.version == base.summary.version
        assert extended.report.resolved_relations() == []

    def test_redundant_delta_is_noop(self, toy_client, monkeypatch):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        calls = _solver_call_log(monkeypatch)
        extended = hydra.extend_summary(base, [aqps[2].copy()])
        assert calls == []
        assert extended.summary is base.summary
        # Replayed AQPs are dropped by content, so the stored workload (and
        # with it the persisted extension state and any fingerprint derived
        # from it) does not grow on retries.
        assert len(extended.aqps) == len(base.aqps)
        replayed_whole = hydra.extend_summary(extended, aqps)
        assert len(replayed_whole.aqps) == len(base.aqps)
        assert replayed_whole.summary is base.summary

    def test_version_bumped_on_splice(self, toy_client, r_only_delta):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        assert base.summary.version == 1
        extended = hydra.extend_summary(base, r_only_delta)
        assert extended.summary.version == 2
        assert extended.summary.build_info["extended"] is True
        assert extended.summary.build_info["resolved_relations"] == ["R"]

    def test_repeated_extension(self, toy_client, r_only_delta, s_touching_delta):
        """Two successive deltas equal one from-scratch build of the union."""
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        step1 = hydra.extend_summary(hydra.build_summary(aqps), r_only_delta)
        step2 = hydra.extend_summary(step1, s_touching_delta)
        fresh = hydra.build_summary(aqps + r_only_delta + s_touching_delta)
        assert step2.summary.version == 3
        for name in fresh.summary.relations:
            assert (
                fresh.summary.relations[name].to_dict()
                == step2.summary.relations[name].to_dict()
            )

    def test_warm_start_partition_on_appended_predicates(
        self, toy_client, r_only_delta
    ):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        extended = hydra.extend_summary(base, r_only_delta)
        # R has no tracking predicates, so the delta strictly appends boxes
        # and the partition resumes from the checkpoint.
        assert extended.report.relations["R"].warm_start

    def test_partition_span_counts_only_the_work_of_its_call(self, toy_client, r_only_delta):
        """``boxes_visited`` / ``boxes_split`` on ``solve.partition``: a resumed
        partition visits only the state it resumes, once per appended box."""
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)

        def partition_span(session):
            (found,) = [
                item
                for item in session.tracer.finished_spans()
                if item.name == "solve.partition" and item.attributes["relation"] == "R"
            ]
            return found.attributes

        with telemetry_session() as cold_session:
            base = hydra.build_summary(aqps)
        with telemetry_session() as warm_session:
            extended = hydra.extend_summary(base, r_only_delta)
        cold, warm = partition_span(cold_session), partition_span(warm_session)
        checkpoint = extended.states["R"].checkpoint
        assert type(cold["boxes_visited"]) is type(cold["boxes_split"]) is int
        assert 0 < cold["boxes_split"] <= cold["boxes_visited"]
        assert cold["boxes_visited"] == base.states["R"].checkpoint.boxes_visited
        appended = warm["boxes"] - cold["boxes"]
        resumed_boxes = sum(len(pieces) for _, pieces in base.states["R"].checkpoint.regions)
        assert appended >= 1 and warm["boxes_visited"] >= resumed_boxes
        assert cold["boxes_visited"] + warm["boxes_visited"] == checkpoint.boxes_visited
        assert cold["boxes_split"] + warm["boxes_split"] == checkpoint.boxes_split

    def test_warm_start_engages_for_tracking_bearing_relation(
        self, toy_client, s_touching_delta
    ):
        """A new constraint box lands *between* the grounded and tracking
        groups, so the final checkpoint is no prefix — the grounded-boundary
        checkpoint keeps the resume engaged for S (which carries borrowed
        tracking predicates from the join queries)."""
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        assert base.states["S"].tracking_signature  # S does carry tracking
        extended = hydra.extend_summary(base, s_touching_delta)
        assert extended.report.relations["S"].warm_start


class TestSpliceAndState:
    def test_splice_rejects_unknown_relation(self, toy_client):
        _db, metadata, aqps = toy_client
        summary = Hydra(metadata=metadata).build_summary(aqps).summary
        with pytest.raises(SummaryError, match="unknown relation"):
            summary.splice({"nope": summary.relations["R"]})

    def test_splice_rejects_mismatched_table(self, toy_client):
        _db, metadata, aqps = toy_client
        summary = Hydra(metadata=metadata).build_summary(aqps).summary
        with pytest.raises(SummaryError, match="summarises"):
            summary.splice({"R": summary.relations["S"]})

    def test_restore_result_roundtrips_through_json(self, client_and_delta):
        """build(A∪B) ≡ extend(build(A), B) ≡ extend(restore(load(save(build(A)))), B):
        the three drivers are one stage sequence, so they must agree on the
        fingerprint, every relation's rows and the extension state."""
        metadata, aqps, delta = client_and_delta
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        base.attach_extension_state("fingerprint-1")
        reloaded = DatabaseSummary.from_json(base.summary.to_json())
        assert reloaded.extension_state["package_fingerprint"] == "fingerprint-1"
        restored = hydra.restore_result(reloaded)
        assert _artifacts(restored, 1) == _artifacts(base, 1)
        re_extended = hydra.extend_summary(restored, delta)
        version = re_extended.summary.version
        assert _artifacts(re_extended, version) == _artifacts(
            hydra.extend_summary(base, delta), version
        )
        assert _artifacts(re_extended, version) == _artifacts(
            hydra.build_summary(aqps + delta), version
        )

    @pytest.mark.parametrize(
        ("corrupt", "named"),
        [
            pytest.param(
                lambda state: state["relations"].update(R=None), "'R'", id="null-relation"
            ),
            pytest.param(
                lambda state: state["relations"]["R"].update(counts=[1.5]),
                "'R'.*must be integers",
                id="float-counts",
            ),
            pytest.param(
                lambda state: state["relations"]["R"].update(counts=["12"]),
                "'R'.*must be integers",
                id="string-counts",
            ),
            pytest.param(
                lambda state: state["relations"]["S"].update(row_count="500"),
                "'S'.*must be integers",
                id="string-row-count",
            ),
            pytest.param(
                lambda state: state["relations"]["S"].update(partition_boxes=[7]),
                "'S'",
                id="non-dict-box",
            ),
            pytest.param(lambda state: state.update(aqps=5), "aqps", id="non-list-aqps"),
            pytest.param(lambda state: state.update(aqps=[{}]), "aqps", id="key-less-aqp"),
            pytest.param(
                lambda state: state.update(relations="RST"), "relations", id="non-dict-relations"
            ),
        ],
    )
    def test_restore_rejects_malformed_state(self, toy_client, corrupt, named):
        """Extension state arrives from disk: whatever is wrong with it must
        surface as a HydraError naming the offending relation/field."""
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        base.attach_extension_state()
        reloaded = DatabaseSummary.from_json(base.summary.to_json())
        corrupt(reloaded.extension_state)
        with pytest.raises(HydraError, match=named):
            hydra.restore_result(reloaded)

    def test_cli_extend_from_malformed_summary_exits_cleanly(self, toy_client, tmp_path):
        _db, metadata, aqps = toy_client
        package_path, summary_path = tmp_path / "package.json", tmp_path / "summary.json"
        InformationPackage(metadata=metadata, aqps=aqps, client_name="toy").save(package_path)
        assert vendor_main([str(package_path), "--output", str(summary_path)]) == 0
        payload = json.loads(summary_path.read_text())
        payload["extension_state"]["relations"]["R"] = None
        summary_path.write_text(json.dumps(payload))
        # A message-carrying SystemExit: exit status 1, the message on stderr,
        # no traceback.
        with pytest.raises(SystemExit, match="malformed extension state") as excinfo:
            vendor_main(
                [
                    str(package_path),
                    "--extend-from", str(summary_path),
                    "--output", str(tmp_path / "extended.json"),
                ]
            )
        assert isinstance(excinfo.value.code, str)

    def test_restore_without_state_raises(self, toy_client):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        with pytest.raises(HydraError, match="no extension state"):
            hydra.restore_result(base.summary)

    def test_restore_detects_row_count_drift(self, toy_client):
        """The restored diffing baseline is the row count the summary was
        *built* for: a vendor session whose metadata reports a different
        size must see the relation as touched, not silently reuse it."""
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        base.attach_extension_state()
        reloaded = DatabaseSummary.from_json(base.summary.to_json())

        drifted = Hydra(metadata=scale_metadata(metadata, 2))
        restored = drifted.restore_result(reloaded)
        assert restored.states["R"].row_count == metadata.row_count("R")
        assert "R" in drifted.touched_relations(restored, [])
        # The un-drifted hydra sees nothing to do.
        assert hydra.touched_relations(hydra.restore_result(reloaded), []) == []

    def test_extension_state_excluded_from_size(self, toy_client):
        _db, metadata, aqps = toy_client
        base = Hydra(metadata=metadata).build_summary(aqps)
        before = base.summary.size_bytes()
        base.attach_extension_state()
        assert base.summary.size_bytes() == before


class TestConfigurationMismatch:
    """A build is extended or restored only under the alignment (and, for a
    restore, the mode) it was built with; a mismatch raises instead of
    splicing relations aligned two ways into one summary."""

    @pytest.fixture(scope="class")
    def deterministic_build(self, toy_client):
        _db, metadata, aqps = toy_client
        base = Hydra(metadata=metadata).build_summary(aqps)
        base.attach_extension_state()
        return base

    def test_extend_refuses_another_alignment(self, toy_client, deterministic_build, r_only_delta):
        _db, metadata, _aqps = toy_client
        sampling = Hydra(metadata=metadata, alignment="sampling")
        with pytest.raises(HydraError, match="alignment='deterministic'.*alignment='sampling'"):
            sampling.extend_summary(deterministic_build, r_only_delta)

    def test_restore_refuses_another_alignment(self, toy_client, deterministic_build):
        _db, metadata, _aqps = toy_client
        reloaded = DatabaseSummary.from_json(deterministic_build.summary.to_json())
        with pytest.raises(HydraError, match="alignment='deterministic'.*alignment='sampling'"):
            Hydra(metadata=metadata, alignment="sampling").restore_result(reloaded)

    def test_restore_refuses_another_mode(self, toy_client, deterministic_build):
        _db, metadata, _aqps = toy_client
        reloaded = DatabaseSummary.from_json(deterministic_build.summary.to_json())
        with pytest.raises(HydraError, match="mode='exact'.*mode='soft'"):
            Hydra(metadata=metadata, mode="soft").restore_result(reloaded)

    def test_cli_extend_under_another_mode_exits_cleanly(self, toy_client, tmp_path):
        _db, metadata, aqps = toy_client
        package = InformationPackage(metadata=metadata, aqps=aqps[:2])
        package_path, summary_path = tmp_path / "package.json", tmp_path / "summary.json"
        package.save(package_path)
        assert vendor_main([str(package_path), "--output", str(summary_path)]) == 0
        with pytest.raises(SystemExit) as exited:
            vendor_main(
                [str(package_path), "--extend-from", str(summary_path), "--mode", "soft",
                 "--output", str(tmp_path / "extended.json")]
            )
        assert str(exited.value) == (
            "summary was built with mode='exact', which does not match the requested mode='soft'"
        )


class TestIncrementalFeasibility:
    def test_consistent_delta_is_feasible(self, toy_client):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        # Annotate the delta against the *regenerated* database: its counts
        # live in the vendor's pk-index space and are witnessed by the
        # current solution, so the extension must be exactly feasible.
        regenerated = hydra.regenerate(base.summary, materialize=list(base.summary.relations))
        delta = _extract(
            regenerated,
            "select count(*) from R where R.S_fk >= 100 and R.S_fk < 400",
            "delta_r_consistent",
        )
        report = check_delta_feasibility(hydra, base, [delta])
        assert report.feasible
        assert report.max_relative_error <= 0.01

    def test_probe_shares_the_builds_scaled_metadata(self, toy_client, monkeypatch):
        """A base built for scaled row counts is probed with the same
        metadata — only the delta's touched relations are soft-solved, not
        every relation (which a row-count mismatch would silently cause)."""
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=scale_metadata(metadata, 2))
        base = hydra.build_summary(aqps)
        regenerated = hydra.regenerate(base.summary, materialize=list(base.summary.relations))
        delta = [
            _extract(
                regenerated,
                "select count(*) from R where R.S_fk >= 100 and R.S_fk < 400",
                "delta_r_scaled",
            )
        ]
        calls = _solver_call_log(monkeypatch)
        report = check_delta_feasibility(hydra, base, delta)
        assert set(calls) == {"R"}
        assert report.feasible

    def test_probe_never_mutates_the_base_summary(self, toy_client, s_touching_delta):
        """The soft probe splices fresh relation summaries and runs the
        referential pass only over them — the base build's shared row
        objects must come out bit-identical, however often it is probed."""
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        snapshot = {
            name: relation.to_dict()
            for name, relation in base.summary.relations.items()
        }
        for _ in range(2):
            check_delta_feasibility(hydra, base, s_touching_delta)
        for name, payload in snapshot.items():
            assert base.summary.relations[name].to_dict() == payload, name

    def test_contradictory_injection_is_flagged(self, toy_client, toy_database):
        _db, metadata, aqps = toy_client
        hydra = Hydra(metadata=metadata)
        base = hydra.build_summary(aqps)
        # Inject an impossible annotation: more matching tuples than rows.
        bad = _extract(
            toy_database,
            "select count(*) from R where R.S_fk >= 100 and R.S_fk < 400",
            "delta_bad",
        )
        overrides = {
            index: 10 * metadata.row_count("R")
            for index, node in enumerate(bad.plan.iter_nodes())
            if node.cardinality is not None
        }
        bad = bad.inject_annotations(overrides)
        report = check_delta_feasibility(hydra, base, [bad])
        assert not report.feasible
        assert report.issues
        assert all(issue.relation == "R" for issue in report.issues)
