"""The paper's evidence as pinned assertions on its own workload width.

HYDRA's evaluation (§1/§2/§4.4 of the paper) is a handful of ratios and
counts over a 131-query TPC-DS workload: the summary occupies "a few KB",
more than 90 % of the volumetric constraints hold with virtually no error and
the rest within 10 %, the region LP is far smaller than DataSynth's grid,
construction is independent of the data scale, injected what-if scenarios are
checked for feasibility and extrapolated to any volume, deterministic
alignment beats sampling, and a delta workload re-solves only what it touches.
This module builds that workload once and asserts exactly those counts and
ratios.  Wall-clock claims are not made here: they are the trajectory's
(``benchmarks/trajectory/run.py``).  The one clock read is a ceiling two
orders of magnitude above the expected time, which only a verification that
generates tuples at 10^10 rows can reach.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.client.extractor import AQPExtractor
from repro.core.grid import grid_variable_count
from repro.core.pipeline import Hydra
from repro.core.regions import RegionPartitioner
from repro.core.scenario import (
    Scenario,
    build_scenario,
    check_feasibility,
    exabyte_extrapolation,
    total_rows,
)
from repro.sql.predicates import BoxCondition, Interval, IntervalSet
from repro.telemetry import telemetry_session
from repro.verify.comparator import VolumetricComparator
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.tpcds import TPCDSConfig, generate_tpcds_database

KB = 1024
FACTS = ("store_sales", "web_sales", "catalog_sales")


def _verify(hydra, summary, aqps):
    return VolumetricComparator(database=hydra.regenerate(summary)).verify(aqps)


@pytest.fixture(scope="module")
def client():
    """The 131-query client, its deterministic build and that build's verification."""
    database = generate_tpcds_database(TPCDSConfig(scale=0.1, seed=7))
    extractor = AQPExtractor(database=database)
    metadata = extractor.profile_metadata()
    queries = generate_workload(metadata, WorkloadConfig(num_queries=131, seed=2018))
    aqps = extractor.extract_workload(queries)
    hydra = Hydra(metadata=metadata)
    build = hydra.build_summary(aqps)
    return SimpleNamespace(
        extractor=extractor,
        metadata=metadata,
        aqps=aqps,
        hydra=hydra,
        build=build,
        verification=_verify(hydra, build.summary, aqps),
    )


@pytest.fixture(scope="module")
def scenario(client):
    """A 30-query slice of the client for the claims that rebuild many times."""
    return Scenario(name="client", metadata=client.metadata, aqps=client.aqps[:30])


def test_e1_summary_of_131_queries_is_a_few_kb(client):
    assert len(client.aqps) == 131
    assert set(client.build.summary.relations) == set(client.metadata.schema.table_names)
    assert client.build.summary.size_bytes() < 512 * KB


def test_e2_volumetric_error_cdf(client):
    # Paper: > 90 % of constraints with virtually no error, the rest within 10 %.
    assert client.verification.fraction_within(0.001) > 0.9
    assert client.verification.fraction_within(0.1) == 1.0


@pytest.mark.parametrize("width", [60, 131])
def test_e3_region_lp_is_smaller_than_the_grid_lp(client, width):
    if width == len(client.aqps):
        report = client.build.report
    else:
        report = client.hydra.build_summary(client.aqps[:width]).report
    constrained = {
        name: info for name, info in report.relations.items() if info.num_constraints
    }
    assert set(FACTS) <= set(constrained)
    # A relation constrained on one column has as many regions as grid cells
    # (both are the interval partition of that column); the gap opens as soon
    # as constraints span columns, which every fact relation's do.
    for name, info in constrained.items():
        assert info.grid_variables >= info.num_regions, name
    for name in FACTS:
        assert constrained[name].grid_variables > constrained[name].num_regions, name
    assert report.total_grid_variables() > report.total_lp_variables()


def test_e3_single_relation_grid_explosion():
    """12 conjunctive constraints over 5 columns — the typical fact-table shape."""

    def box(**conditions):
        return BoxCondition(
            {c: IntervalSet([Interval(low, high)]) for c, (low, high) in conditions.items()}
        )

    constraints = [
        box(a=(i, i + 40), b=(i * 2, i * 2 + 30), c=(0, 50 + i), d=(i, 90), e=(5, 60 + i))
        for i in range(0, 48, 4)
    ]
    regions = RegionPartitioner().partition(constraints)
    assert grid_variable_count(constraints) / len(regions) > 100


def test_e4_summary_is_data_scale_free(scenario):
    factors = (1, 100, 10_000, 1_000_000)
    summaries = [
        build_scenario(scenario.scaled(factor), mode="exact").summary for factor in factors
    ]
    base = summaries[0]
    assert base.size_bytes() < 256 * KB
    for factor, summary in zip(factors, summaries):
        assert summary.total_summary_rows() == base.total_summary_rows(), factor
        assert summary.size_bytes() < 1.25 * base.size_bytes(), factor
        assert summary.total_rows() == factor * base.total_rows(), factor


def test_e4_whole_client_is_built_and_verified_at_a_million_times_its_rows(client):
    """The 131-query client scaled 10^6 times: store_sales holds ~10^10 rows.

    The LP has exactly the variables of the x1 build, and verification counts
    every plan from the summaries: no join runs and no segment is generated.
    """
    scaled = Scenario(name="client", metadata=client.metadata, aqps=client.aqps).scaled(10**6)
    assert scaled.metadata.row_count("store_sales") > 10**9
    hydra = Hydra(metadata=scaled.metadata)
    build = hydra.build_summary(scaled.aqps)
    assert build.report.total_lp_variables() == client.build.report.total_lp_variables()
    database = hydra.regenerate(build.summary)
    with telemetry_session() as session:
        start = time.perf_counter()
        verification = VolumetricComparator(database=database).verify(scaled.aqps)
        elapsed = time.perf_counter() - start
    counters = session.metrics.snapshot()["counters"]
    assert [name for name in counters if name.startswith("engine.route.join.")] == []
    assert session.metrics.counter_value("tuplegen.segments_scanned") == 0
    assert verification.total_edges == client.verification.total_edges
    assert verification.fraction_within(0.001) > 0.9
    assert verification.fraction_within(0.1) == 1.0
    assert elapsed < 10.0, elapsed


def test_e7_injected_scenarios_are_checked_for_feasibility(client):
    target = client.aqps[0]
    nodes = list(target.plan.iter_nodes())
    filters = [position for position, node in enumerate(nodes) if node.operator == "FILTER"]
    assert filters
    single = Scenario(name="single", metadata=client.metadata, aqps=[target])
    plausible = single.with_injected_annotations(
        {target.name: {p: max(1, (nodes[p].cardinality or 2) // 2) for p in filters}}
    )
    absurd = single.with_injected_annotations(
        {target.name: {p: 10 * total_rows(client.metadata) for p in filters}}
    )
    assert check_feasibility(plausible).feasible
    assert not check_feasibility(absurd).feasible


@pytest.mark.parametrize("target_total", [10**7, 10**9, 10**12])
def test_e7_extrapolation_reaches_the_target_volume(scenario, target_total):
    result = build_scenario(exabyte_extrapolation(scenario, target_total), mode="exact")
    assert result.summary.total_rows() >= 0.9 * target_total


def test_e8_deterministic_alignment_is_no_worse_than_sampling(scenario):
    def verification(**alignment):
        hydra = Hydra(metadata=scenario.metadata, **alignment)
        return _verify(hydra, hydra.build_summary(scenario.aqps).summary, scenario.aqps)

    deterministic = verification(alignment="deterministic")
    sampled = verification(alignment="sampling")
    assert deterministic.fraction_within(0.001) >= sampled.fraction_within(0.001)
    assert deterministic.mean_relative_error() <= sampled.mean_relative_error()


def test_e14_delta_resolves_one_relation_and_matches_the_union_build(client):
    delta = [
        client.extractor.extract_sql(sql, name=name)
        for name, sql in (
            (
                "delta_quantity",
                "select count(*) from catalog_sales "
                "where catalog_sales.cs_quantity >= 10 and catalog_sales.cs_quantity < 50",
            ),
            (
                "delta_cost",
                "select * from catalog_sales where catalog_sales.cs_wholesale_cost >= 40",
            ),
        )
    ]
    hydra, base = client.hydra, client.build
    assert hydra.touched_relations(base, delta) == ["catalog_sales"]

    extended = hydra.extend_summary(base, delta)
    assert extended.report.resolved_relations() == ["catalog_sales"]
    assert set(extended.report.reused_relations()) == set(base.summary.relations) - {
        "catalog_sales"
    }
    assert len(base.summary.relations) == 7
    assert extended.summary.version == base.summary.version + 1

    fresh = hydra.build_summary(client.aqps + delta)
    names = list(fresh.summary.relations)
    for name in names:
        assert (
            fresh.summary.relations[name].to_dict()
            == extended.summary.relations[name].to_dict()
        ), name
    fresh_db = hydra.regenerate(fresh.summary, materialize=names)
    extended_db = hydra.regenerate(extended.summary, materialize=names)
    for name in names:
        fresh_rows, extended_rows = fresh_db.table_data(name), extended_db.table_data(name)
        for column in fresh_rows.columns:
            assert np.array_equal(
                fresh_rows.columns[column], extended_rows.columns[column]
            ), f"{name}.{column}"
